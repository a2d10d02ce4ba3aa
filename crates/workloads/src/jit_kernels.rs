//! Non-linear stencil kernels for the jit tier (Figure 8).
//!
//! Each generator produces a loop nest outside the jit's linear chains —
//! a transcendental (`sqrt`), a variable per-cell coefficient array, and
//! `min`/`max` clamping — so the stitched jit runs it on its 1:1
//! fragments, with at most part of it in a chain: the gap Figure 8
//! measures against the fused/generic VMs.
//!
//! All three follow the Gauss–Seidel double-buffering idiom (`un` from
//! `u`, then copy back) so every execution tier computes the identical
//! Jacobi-style result, and all three keep their iterates bounded so the
//! benches stay in a numerically tame regime.

/// sqrt-containing relaxation: `un = sqrt(u) + 0.125 * (4 neighbours)`.
/// The `sqrt` keeps it off a single linear chain; the neighbour sum still
/// collapses into one stitched accumulator chain.
pub fn sqrt_source(n: usize, iters: usize) -> String {
    format!(
        "program jit_sqrt
  implicit none
  integer, parameter :: n = {n}
  integer, parameter :: niters = {iters}
  integer :: i, j, k, t
  real(kind=8) :: u(0:n+1, 0:n+1, 0:n+1), un(0:n+1, 0:n+1, 0:n+1)
  do k = 0, n+1
    do j = 0, n+1
      do i = 0, n+1
        u(i, j, k) = 1.0 + 0.01 * i + 0.02 * j + 0.03 * k
      end do
    end do
  end do
  do t = 1, niters
    do k = 1, n
      do j = 1, n
        do i = 1, n
          un(i, j, k) = sqrt(u(i, j, k)) + 0.125 * (u(i-1, j, k) + u(i+1, j, k) &
                      + u(i, j-1, k) + u(i, j+1, k))
        end do
      end do
    end do
    do k = 1, n
      do j = 1, n
        do i = 1, n
          u(i, j, k) = un(i, j, k)
        end do
      end do
    end do
  end do
end program jit_sqrt
"
    )
}

/// Variable-coefficient stencil: `un = a(i,j,k) * (4 neighbours)` where
/// `a` is a per-cell array, not a scalar — a chain tap's coefficient is
/// a constant or an argument, so the products run as 1:1 fragments.
pub fn varcoef_source(n: usize, iters: usize) -> String {
    format!(
        "program jit_varcoef
  implicit none
  integer, parameter :: n = {n}
  integer, parameter :: niters = {iters}
  integer :: i, j, k, t
  real(kind=8) :: u(0:n+1, 0:n+1, 0:n+1), un(0:n+1, 0:n+1, 0:n+1)
  real(kind=8) :: a(0:n+1, 0:n+1, 0:n+1)
  do k = 0, n+1
    do j = 0, n+1
      do i = 0, n+1
        u(i, j, k) = 1.0 + 0.01 * i + 0.02 * j + 0.03 * k
        a(i, j, k) = 1.0 / (4.0 + 0.01 * i + 0.01 * j + 0.01 * k)
      end do
    end do
  end do
  do t = 1, niters
    do k = 1, n
      do j = 1, n
        do i = 1, n
          un(i, j, k) = a(i, j, k) * (u(i-1, j, k) + u(i+1, j, k) &
                      + u(i, j-1, k) + u(i, j+1, k))
        end do
      end do
    end do
    do k = 1, n
      do j = 1, n
        do i = 1, n
          u(i, j, k) = un(i, j, k)
        end do
      end do
    end do
  end do
end program jit_varcoef
"
    )
}

/// Flux-limited average: the neighbour average clamped to a band around
/// the centre value via `min`/`max` — non-linear.
pub fn minmax_source(n: usize, iters: usize) -> String {
    format!(
        "program jit_minmax
  implicit none
  integer, parameter :: n = {n}
  integer, parameter :: niters = {iters}
  integer :: i, j, k, t
  real(kind=8) :: u(0:n+1, 0:n+1, 0:n+1), un(0:n+1, 0:n+1, 0:n+1)
  do k = 0, n+1
    do j = 0, n+1
      do i = 0, n+1
        u(i, j, k) = 1.0 + 0.01 * i + 0.02 * j + 0.03 * k
      end do
    end do
  end do
  do t = 1, niters
    do k = 1, n
      do j = 1, n
        do i = 1, n
          un(i, j, k) = min(max(0.25 * (u(i-1, j, k) + u(i+1, j, k) &
                      + u(i, j-1, k) + u(i, j+1, k)), u(i, j, k) - 0.1), &
                      u(i, j, k) + 0.1)
        end do
      end do
    end do
    do k = 1, n
      do j = 1, n
        do i = 1, n
          u(i, j, k) = un(i, j, k)
        end do
      end do
    end do
  end do
end program jit_minmax
"
    )
}
