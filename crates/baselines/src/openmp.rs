//! Hand-written OpenMP baselines (Figures 3–4): the native kernels of
//! [`crate::cray`], work-shared over the slowest (`k`) dimension on
//! `threads` workers — i.e. the code a programmer writes after adding
//! `!$omp parallel do` to the Fortran loops and compiling with a mature
//! compiler. Each worker takes a contiguous block of k-planes
//! ([`fan_out`]), like OpenMP's default static schedule.

use fsc_ir::par::fan_out;
use fsc_workloads::grid::Grid3;
use fsc_workloads::pw_advection;

/// The interior k-planes (`1..=n`) of a grid's storage, each a contiguous
/// `plane`-long chunk, paired with its `k`.
fn interior_planes(data: &mut [f64], plane: usize, n: usize) -> Vec<(usize, &mut [f64])> {
    data.chunks_mut(plane)
        .enumerate()
        .filter(|(k, _)| (1..=n).contains(k))
        .collect()
}

/// One parallel Gauss–Seidel sweep on `threads` workers.
pub fn gs_sweep(u: &Grid3, un: &mut Grid3, threads: usize) {
    let n = u.n;
    let e = u.e;
    let (sx, sy, sz) = (1usize, e, e * e);
    let inv6 = 1.0 / 6.0;
    let src = &u.data;
    fan_out(
        threads,
        interior_planes(&mut un.data, sz, n),
        |(k, plane)| {
            for j in 1..=n {
                let row = j * sy;
                let global_row = row + k * sz;
                for i in 1..=n {
                    let c = global_row + i;
                    plane[row + i] = (src[c - sx]
                        + src[c + sx]
                        + src[c - sy]
                        + src[c + sy]
                        + src[c - sz]
                        + src[c + sz])
                        * inv6;
                }
            }
        },
    );
}

/// Parallel interior copy on `threads` workers.
pub fn copy_interior(src: &Grid3, dst: &mut Grid3, threads: usize) {
    let n = src.n;
    let e = src.e;
    let sz = e * e;
    let s = &src.data;
    fan_out(
        threads,
        interior_planes(&mut dst.data, sz, n),
        |(k, plane)| {
            for j in 1..=n {
                let row = j * e;
                plane[row + 1..row + 1 + n]
                    .copy_from_slice(&s[k * sz + row + 1..k * sz + row + 1 + n]);
            }
        },
    );
}

/// The full hand-OpenMP Gauss–Seidel benchmark.
pub fn gs_run(n: usize, iters: usize, threads: usize) -> Grid3 {
    let mut u = Grid3::new(n);
    u.init_analytic();
    let mut un = Grid3::new(n);
    for _ in 0..iters {
        gs_sweep(&u, &mut un, threads);
        copy_interior(&un, &mut u, threads);
    }
    u
}

/// Parallel PW advection on `threads` workers.
pub fn pw_run(u: &Grid3, v: &Grid3, w: &Grid3, threads: usize) -> (Grid3, Grid3, Grid3) {
    let n = u.n;
    let e = u.e;
    let (sx, sy, sz) = (1usize, e, e * e);
    let (tcx, tcy) = (pw_advection::TCX, pw_advection::TCY);
    let (tzc1, tzc2) = (pw_advection::TZC1, pw_advection::TZC2);
    let mut su = Grid3::new(n);
    let mut sv = Grid3::new(n);
    let mut sw = Grid3::new(n);
    let (ud, vd, wd) = (&u.data, &v.data, &w.data);
    let planes: Vec<_> = interior_planes(&mut su.data, sz, n)
        .into_iter()
        .zip(interior_planes(&mut sv.data, sz, n))
        .zip(interior_planes(&mut sw.data, sz, n))
        .collect();
    fan_out(threads, planes, |(((k, su_p), (_, sv_p)), (_, sw_p))| {
        for j in 1..=n {
            let row = j * sy;
            for i in 1..=n {
                let c = k * sz + row + i;
                su_p[row + i] = tcx
                    * (ud[c - sx] * (ud[c] + ud[c - sx]) - ud[c + sx] * (ud[c] + ud[c + sx]))
                    + tcy * (vd[c] * (ud[c - sy] + ud[c]) - vd[c + sy] * (ud[c] + ud[c + sy]))
                    + tzc1 * wd[c] * (ud[c - sz] + ud[c])
                    - tzc2 * wd[c + sz] * (ud[c] + ud[c + sz]);
                sv_p[row + i] = tcx
                    * (ud[c] * (vd[c - sx] + vd[c]) - ud[c + sx] * (vd[c] + vd[c + sx]))
                    + tcy * (vd[c - sy] * (vd[c] + vd[c - sy]) - vd[c + sy] * (vd[c] + vd[c + sy]))
                    + tzc1 * wd[c] * (vd[c - sz] + vd[c])
                    - tzc2 * wd[c + sz] * (vd[c] + vd[c + sz]);
                sw_p[row + i] = tcx
                    * (ud[c] * (wd[c - sx] + wd[c]) - ud[c + sx] * (wd[c] + wd[c + sx]))
                    + tcy * (vd[c] * (wd[c - sy] + wd[c]) - vd[c + sy] * (wd[c] + wd[c + sy]))
                    + tzc1 * wd[c - sz] * (wd[c] + wd[c - sz])
                    - tzc2 * wd[c + sz] * (wd[c] + wd[c + sz]);
            }
        }
    });
    (su, sv, sw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_workloads::gauss_seidel;
    use fsc_workloads::verify::assert_fields_match;

    #[test]
    fn gs_parallel_matches_reference() {
        let reference = gauss_seidel::reference(8, 3);
        for threads in [1, 2, 3] {
            let par = gs_run(8, 3, threads);
            let what = format!("omp gs, {threads} threads");
            assert_fields_match(&par.data, &reference.data, 1e-13, &what);
        }
    }

    #[test]
    fn pw_parallel_matches_reference() {
        let (u, v, w) = pw_advection::initial_fields(6);
        let (su2, sv2, sw2) = pw_advection::reference(&u, &v, &w);
        for threads in [1, 2, 3] {
            let (su1, sv1, sw1) = pw_run(&u, &v, &w, threads);
            for (name, got, want) in [("su", su1, &su2), ("sv", sv1, &sv2), ("sw", sw1, &sw2)] {
                let what = format!("{name}, {threads} threads");
                assert_fields_match(&got.data, &want.data, 1e-13, &what);
            }
        }
    }
}
