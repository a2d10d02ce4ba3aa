! compile: target=distributed(3)
! The stencil interior has 7 cells but the process grid asks for 3 ranks
! along the decomposed dimension: a naive block partition would leave a
! silent remainder, so `stencil-to-dmp` rejects the decomposition (E0505).
program indivisible
  implicit none
  integer, parameter :: n = 7
  real(kind=8) :: a(0:n+1), r(0:n+1)
  integer :: i
  do i = 0, n+1
    a(i) = 0.125d0 * i
    r(i) = 0.0d0
  end do
  do i = 1, n
    r(i) = 0.5d0 * (a(i-1) + a(i+1))
  end do
end program indivisible
