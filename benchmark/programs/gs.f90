program gauss_seidel
  implicit none
  integer, parameter :: n = {n}
  integer, parameter :: niters = {iters}
  integer :: i, j, k, t
  real(kind=8) :: u(0:n+1, 0:n+1, 0:n+1), un(0:n+1, 0:n+1, 0:n+1)
  do k = 0, n+1
    do j = 0, n+1
      do i = 0, n+1
        u(i, j, k) = 0.01 * i + 0.02 * j + 0.03 * k
      end do
    end do
  end do
  do t = 1, niters
    do k = 1, n
      do j = 1, n
        do i = 1, n
          un(i, j, k) = (u(i-1, j, k) + u(i+1, j, k) + u(i, j-1, k) &
                       + u(i, j+1, k) + u(i, j, k-1) + u(i, j, k+1)) / 6.0
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
end program gauss_seidel
