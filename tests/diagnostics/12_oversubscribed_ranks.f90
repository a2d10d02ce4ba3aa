! compile: target=distributed(16)
! The stencil interior has 7 cells but the process grid asks for 16 ranks
! along the decomposed dimension: more ranks than cells on a halo-carrying
! dimension means most ranks would idle while the rest cannot hold a full
! halo, so `stencil-to-dmp` rejects the oversubscription (E0506).
program oversubscribed
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
end program oversubscribed
