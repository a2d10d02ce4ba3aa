program pw_advection
  implicit none
  integer, parameter :: n = {n}
  real(kind=8), parameter :: tcx = 0.1
  real(kind=8), parameter :: tcy = 0.2
  real(kind=8), parameter :: tzc1 = 0.3
  real(kind=8), parameter :: tzc2 = 0.3
  integer :: i, j, k, t
  real(kind=8) :: u(0:n+1, 0:n+1, 0:n+1), v(0:n+1, 0:n+1, 0:n+1), w(0:n+1, 0:n+1, 0:n+1)
  real(kind=8) :: su(0:n+1, 0:n+1, 0:n+1), sv(0:n+1, 0:n+1, 0:n+1), sw(0:n+1, 0:n+1, 0:n+1)
  do k = 0, n+1
    do j = 0, n+1
      do i = 0, n+1
        u(i, j, k) = 0.01 * i + 0.02 * j + 0.03 * k
        v(i, j, k) = 0.01 * k + 0.02 * i + 0.03 * j
        w(i, j, k) = 0.01 * j + 0.02 * k + 0.03 * i
      end do
    end do
  end do
  do t = 1, {iters}
  do k = 1, n
    do j = 1, n
      do i = 1, n
        su(i, j, k) = tcx * (u(i-1, j, k) * (u(i, j, k) + u(i-1, j, k)) &
                    - u(i+1, j, k) * (u(i, j, k) + u(i+1, j, k))) &
                    + tcy * (v(i, j, k) * (u(i, j-1, k) + u(i, j, k)) &
                    - v(i, j+1, k) * (u(i, j, k) + u(i, j+1, k))) &
                    + tzc1 * w(i, j, k) * (u(i, j, k-1) + u(i, j, k)) &
                    - tzc2 * w(i, j, k+1) * (u(i, j, k) + u(i, j, k+1))
        sv(i, j, k) = tcx * (u(i, j, k) * (v(i-1, j, k) + v(i, j, k)) &
                    - u(i+1, j, k) * (v(i, j, k) + v(i+1, j, k))) &
                    + tcy * (v(i, j-1, k) * (v(i, j, k) + v(i, j-1, k)) &
                    - v(i, j+1, k) * (v(i, j, k) + v(i, j+1, k))) &
                    + tzc1 * w(i, j, k) * (v(i, j, k-1) + v(i, j, k)) &
                    - tzc2 * w(i, j, k+1) * (v(i, j, k) + v(i, j, k+1))
        sw(i, j, k) = tcx * (u(i, j, k) * (w(i-1, j, k) + w(i, j, k)) &
                    - u(i+1, j, k) * (w(i, j, k) + w(i+1, j, k))) &
                    + tcy * (v(i, j, k) * (w(i, j-1, k) + w(i, j, k)) &
                    - v(i, j+1, k) * (w(i, j, k) + w(i, j+1, k))) &
                    + tzc1 * w(i, j, k-1) * (w(i, j, k) + w(i, j, k-1)) &
                    - tzc2 * w(i, j, k+1) * (w(i, j, k) + w(i, j, k+1))
      end do
    end do
  end do
  end do
end program pw_advection
