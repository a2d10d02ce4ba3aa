//! The hand-parallelised MPI baseline of Figure 6: Gauss–Seidel with a
//! rank decomposition and per-iteration halo swaps, written the way an HPC
//! programmer ports the serial code by hand.
//!
//! Runs with *real* message passing on the [`fsc_mpisim::runtime`] rank
//! runtime (used for correctness validation at small scale), plus an
//! analytic scaling estimator that combines measured per-cell compute speed
//! with the Slingshot cost model for the node counts of Figure 6 that this
//! machine cannot host.

use fsc_mpisim::fault::{FaultPlan, FaultStats};
use fsc_mpisim::resilient::{run_resilient, ResilientConfig, ResilientCtx};
use fsc_mpisim::runtime::{run_ranks, RankCtx};
use fsc_mpisim::{CostModel, MpiSimError, ProcessGrid};
use fsc_workloads::grid::{init_value, Grid3};

/// Run hand-MPI Gauss–Seidel over `ranks` ranks (1-D decomposition along
/// `k`), returning the assembled global field.
pub fn gs_run(n: usize, iters: usize, ranks: usize) -> Grid3 {
    assert!(
        ranks >= 1 && n.is_multiple_of(ranks),
        "n must divide by ranks"
    );
    let nk = n / ranks; // interior k-planes per rank
    let e = n + 2;
    let plane = e * e;

    let locals = run_ranks(ranks, move |ctx: &mut RankCtx| {
        gs_rank_body(ctx, n, nk, iters)
    })
    .expect("hand-MPI rank group failed");

    assemble_1d(locals, n, nk, e, plane)
}

/// Assemble rank-local slabs (1-D k decomposition) into the global field:
/// rank r owns global k-planes [1 + r*nk, 1 + (r+1)*nk).
fn assemble_1d(locals: Vec<Vec<f64>>, n: usize, nk: usize, _e: usize, plane: usize) -> Grid3 {
    let mut u = Grid3::new(n);
    u.init_analytic();
    for (r, local) in locals.into_iter().enumerate() {
        for lk in 0..nk {
            let gk = 1 + r * nk + lk;
            let src = (lk + 1) * plane;
            let dst = gk * plane;
            u.data[dst..dst + plane].copy_from_slice(&local[src..src + plane]);
        }
    }
    u
}

/// Outcome of a resilient distributed run: the assembled field plus the
/// fault-injection / recovery attestation.
#[derive(Debug)]
pub struct ResilientGsRun {
    /// The assembled global field.
    pub grid: Grid3,
    /// Counters merged across all ranks.
    pub stats: FaultStats,
    /// Per-rank counters (rank order).
    pub per_rank: Vec<FaultStats>,
}

/// Run hand-MPI Gauss–Seidel on the **resilient** context: same math and
/// decomposition as [`gs_run`], but every halo message travels through the
/// sequenced/acked/checksummed protocol under the injected `plan`, ranks
/// checkpoint every `cfg.checkpoint_interval` iterations, and a planned
/// rank crash restores from checkpoint and replays. The final grid is
/// bit-identical to the fault-free run for any recoverable plan.
pub fn gs_run_resilient(
    n: usize,
    iters: usize,
    ranks: usize,
    plan: FaultPlan,
    cfg: ResilientConfig,
) -> Result<ResilientGsRun, MpiSimError> {
    if ranks < 1 || !n.is_multiple_of(ranks) {
        return Err(MpiSimError::InvalidConfig(format!(
            "n = {n} must divide by ranks = {ranks}"
        )));
    }
    if plan.crash.is_some() && cfg.checkpoint_interval == 0 {
        return Err(MpiSimError::InvalidConfig(
            "a crash plan requires a non-zero checkpoint interval".into(),
        ));
    }
    let nk = n / ranks;
    let e = n + 2;
    let plane = e * e;
    let results = run_resilient(ranks, plan, cfg, move |ctx| {
        gs_rank_body_resilient(ctx, n, nk, iters, cfg.checkpoint_interval)
    })?;
    let mut locals = Vec::with_capacity(ranks);
    let mut per_rank = Vec::with_capacity(ranks);
    let mut stats = FaultStats::default();
    for (local, s) in results {
        locals.push(local);
        stats.merge(&s);
        per_rank.push(s);
    }
    Ok(ResilientGsRun {
        grid: assemble_1d(locals, n, nk, e, plane),
        stats,
        per_rank,
    })
}

/// Per-rank body of the resilient run: identical arithmetic to
/// [`gs_rank_body`], with checkpoints at the top of every
/// `checkpoint_interval`-th iteration and crash/restore handling.
fn gs_rank_body_resilient(
    ctx: &mut ResilientCtx,
    n: usize,
    nk: usize,
    iters: usize,
    checkpoint_interval: usize,
) -> Result<Vec<f64>, MpiSimError> {
    let e = n + 2;
    let plane = e * e;
    let rank = ctx.rank();
    let size = ctx.size();
    let mut u = vec![0.0f64; (nk + 2) * plane];
    let mut un = vec![0.0f64; (nk + 2) * plane];
    let gk0 = rank * nk;
    for lk in 0..nk + 2 {
        let gk = gk0 + lk;
        for j in 0..e {
            for i in 0..e {
                u[lk * plane + j * e + i] = init_value(i, j, gk);
            }
        }
    }

    let inv6 = 1.0 / 6.0;
    let mut it = 0usize;
    while it < iters {
        if checkpoint_interval > 0 && it.is_multiple_of(checkpoint_interval) {
            ctx.save_checkpoint(it, || vec![u.clone()]);
        }
        if ctx.crash_pending(it) {
            let (restored_it, state) = ctx.crash_and_restore(it)?;
            it = restored_it;
            u = state.into_iter().next().expect("checkpointed grid");
            continue;
        }
        // Halo swap along k (identical tags to the raw body; the resilient
        // streams sequence repeated iterations on the same tag).
        if rank > 0 {
            ctx.send(rank - 1, 0, u[plane..2 * plane].to_vec())?;
        }
        if rank + 1 < size {
            ctx.send(rank + 1, 1, u[nk * plane..(nk + 1) * plane].to_vec())?;
        }
        if rank > 0 {
            let lower = ctx.recv(rank - 1, 1)?;
            u[..plane].copy_from_slice(&lower);
        }
        if rank + 1 < size {
            let upper = ctx.recv(rank + 1, 0)?;
            u[(nk + 1) * plane..].copy_from_slice(&upper);
        }
        for lk in 1..=nk {
            for j in 1..=n {
                for i in 1..=n {
                    let c = lk * plane + j * e + i;
                    un[c] =
                        (u[c - 1] + u[c + 1] + u[c - e] + u[c + e] + u[c - plane] + u[c + plane])
                            * inv6;
                }
            }
        }
        for lk in 1..=nk {
            for j in 1..=n {
                let row = lk * plane + j * e;
                u[row + 1..row + 1 + n].copy_from_slice(&un[row + 1..row + 1 + n]);
            }
        }
        ctx.barrier()?;
        it += 1;
    }
    Ok(u)
}

/// Per-rank body: local slab of `nk` interior planes with one halo plane on
/// each side, initialised to the analytic field, iterated with halo swaps.
fn gs_rank_body(ctx: &mut RankCtx, n: usize, nk: usize, iters: usize) -> Vec<f64> {
    let e = n + 2;
    let plane = e * e;
    let rank = ctx.rank;
    let size = ctx.size;
    // Local storage: nk + 2 planes of e² cells. Local plane lk corresponds
    // to global k = rank*nk + lk (lk = 0 is the halo/boundary plane).
    let mut u = vec![0.0f64; (nk + 2) * plane];
    let mut un = vec![0.0f64; (nk + 2) * plane];
    let gk0 = rank * nk;
    for lk in 0..nk + 2 {
        let gk = gk0 + lk;
        for j in 0..e {
            for i in 0..e {
                u[lk * plane + j * e + i] = init_value(i, j, gk);
            }
        }
    }

    let inv6 = 1.0 / 6.0;
    for _ in 0..iters {
        // Halo swap along k: send boundary interior planes to neighbours.
        if rank > 0 {
            ctx.send(rank - 1, 0, u[plane..2 * plane].to_vec());
        }
        if rank + 1 < size {
            ctx.send(rank + 1, 1, u[nk * plane..(nk + 1) * plane].to_vec());
        }
        if rank > 0 {
            let lower = ctx.recv(rank - 1, 1);
            u[..plane].copy_from_slice(&lower);
        }
        if rank + 1 < size {
            let upper = ctx.recv(rank + 1, 0);
            u[(nk + 1) * plane..].copy_from_slice(&upper);
        }
        // Local sweep (interior i,j; all local interior k planes).
        for lk in 1..=nk {
            for j in 1..=n {
                for i in 1..=n {
                    let c = lk * plane + j * e + i;
                    un[c] =
                        (u[c - 1] + u[c + 1] + u[c - e] + u[c + e] + u[c - plane] + u[c + plane])
                            * inv6;
                }
            }
        }
        // Copy interior back.
        for lk in 1..=nk {
            for j in 1..=n {
                let row = lk * plane + j * e;
                u[row + 1..row + 1 + n].copy_from_slice(&un[row + 1..row + 1 + n]);
            }
        }
        ctx.barrier();
    }
    u
}

/// Run hand-MPI Gauss–Seidel with the paper's **2-D decomposition** ("we
/// decompose the 3D space into two dimensions", §4.4): a `pj × pk` process
/// grid over the j and k dimensions, halo swaps with up to four
/// neighbours per iteration, real message passing.
pub fn gs_run_2d(n: usize, iters: usize, pj: usize, pk: usize) -> Grid3 {
    assert!(pj >= 1 && pk >= 1 && n.is_multiple_of(pj) && n.is_multiple_of(pk));
    let (nj, nk) = (n / pj, n / pk);
    let e = n + 2;

    let locals = run_ranks(pj * pk, move |ctx: &mut RankCtx| {
        gs_rank_body_2d(ctx, n, nj, nk, pj, pk, iters)
    })
    .expect("hand-MPI rank group failed");

    // Assemble the global interior.
    let mut u = Grid3::new(n);
    u.init_analytic();
    let lj = nj + 2;
    for (r, local) in locals.into_iter().enumerate() {
        let (rj, rk) = (r % pj, r / pj);
        for dk in 0..nk {
            for dj in 0..nj {
                let gj = 1 + rj * nj + dj;
                let gk = 1 + rk * nk + dk;
                let src = (dj + 1) * e + (dk + 1) * e * lj;
                let dst = gj * e + gk * e * e;
                u.data[dst + 1..dst + 1 + n].copy_from_slice(&local[src + 1..src + 1 + n]);
            }
        }
    }
    u
}

/// Per-rank body for the 2-D decomposition. Local layout: full `i` extent
/// (`e = n+2`), `nj+2` j-rows, `nk+2` k-planes.
#[allow(clippy::too_many_arguments)]
fn gs_rank_body_2d(
    ctx: &mut RankCtx,
    n: usize,
    nj: usize,
    nk: usize,
    pj: usize,
    pk: usize,
    iters: usize,
) -> Vec<f64> {
    let e = n + 2;
    let lj = nj + 2;
    let row = e;
    let plane = e * lj;
    let rank = ctx.rank;
    let (rj, rk) = (rank % pj, rank / pj);
    let (gj0, gk0) = (rj * nj, rk * nk);

    let mut u = vec![0.0f64; plane * (nk + 2)];
    let mut un = vec![0.0f64; plane * (nk + 2)];
    let idx = |i: usize, dj: usize, dk: usize| i + dj * row + dk * plane;
    for dk in 0..nk + 2 {
        for dj in 0..nj + 2 {
            for i in 0..e {
                u[idx(i, dj, dk)] = init_value(i, gj0 + dj, gk0 + dk);
            }
        }
    }

    // Neighbour ranks (±j = ±1 in rank space, ±k = ±pj).
    let nbr = |dj: i64, dk: i64| -> Option<usize> {
        let tj = rj as i64 + dj;
        let tk = rk as i64 + dk;
        (tj >= 0 && tj < pj as i64 && tk >= 0 && tk < pk as i64)
            .then_some((tk * pj as i64 + tj) as usize)
    };

    let inv6 = 1.0 / 6.0;
    for _ in 0..iters {
        // j-direction halo swap: (i, k-interior) faces.
        let gather_j = |u: &[f64], dj: usize| -> Vec<f64> {
            let mut out = Vec::with_capacity(e * nk);
            for dk in 1..=nk {
                out.extend_from_slice(&u[idx(0, dj, dk)..idx(0, dj, dk) + e]);
            }
            out
        };
        let scatter_j = |u: &mut Vec<f64>, dj: usize, data: &[f64]| {
            for dk in 1..=nk {
                let base = idx(0, dj, dk);
                u[base..base + e].copy_from_slice(&data[(dk - 1) * e..dk * e]);
            }
        };
        if let Some(p) = nbr(-1, 0) {
            ctx.send(p, 10, gather_j(&u, 1));
        }
        if let Some(p) = nbr(1, 0) {
            ctx.send(p, 11, gather_j(&u, nj));
        }
        if let Some(p) = nbr(-1, 0) {
            let d = ctx.recv(p, 11);
            scatter_j(&mut u, 0, &d);
        }
        if let Some(p) = nbr(1, 0) {
            let d = ctx.recv(p, 10);
            scatter_j(&mut u, nj + 1, &d);
        }
        // k-direction halo swap: whole local planes.
        if let Some(p) = nbr(0, -1) {
            ctx.send(p, 20, u[plane..2 * plane].to_vec());
        }
        if let Some(p) = nbr(0, 1) {
            ctx.send(p, 21, u[nk * plane..(nk + 1) * plane].to_vec());
        }
        if let Some(p) = nbr(0, -1) {
            let d = ctx.recv(p, 21);
            u[..plane].copy_from_slice(&d);
        }
        if let Some(p) = nbr(0, 1) {
            let d = ctx.recv(p, 20);
            u[(nk + 1) * plane..].copy_from_slice(&d);
        }
        // Sweep + copy-back over the local interior.
        for dk in 1..=nk {
            for dj in 1..=nj {
                for i in 1..=n {
                    let c = idx(i, dj, dk);
                    un[c] = (u[c - 1]
                        + u[c + 1]
                        + u[c - row]
                        + u[c + row]
                        + u[c - plane]
                        + u[c + plane])
                        * inv6;
                }
            }
        }
        for dk in 1..=nk {
            for dj in 1..=nj {
                let base = idx(1, dj, dk);
                u[base..base + n].copy_from_slice(&un[base..base + n]);
            }
        }
        ctx.barrier();
    }
    u
}

/// Analytic strong-scaling estimate for Figure 6: seconds per iteration for
/// a global `n³` grid over `grid` ranks, given a measured per-cell compute
/// time (seconds) for the implementation being scaled.
pub fn modeled_iteration_time(
    n: u64,
    grid: &ProcessGrid,
    cost: &CostModel,
    per_cell_seconds: f64,
) -> f64 {
    let ranks = grid.size() as u64;
    let local_cells = n.pow(3) / ranks;
    let compute = local_cells as f64 * per_cell_seconds;
    // Halo message size: the slab face exchanged along each decomposed dim.
    // For a d-dim decomposition of the cube the face is n² / (ranks along
    // the *other* decomposed dims).
    let mut neighbors = 0usize;
    let mut max_face = 0u64;
    for (d, &s) in grid.shape.iter().enumerate() {
        if s > 1 {
            neighbors += 2;
            let other: i64 = grid
                .shape
                .iter()
                .enumerate()
                .filter(|&(dd, _)| dd != d)
                .map(|(_, &x)| x)
                .product();
            let face = n * n / other.max(1) as u64;
            max_face = max_face.max(face);
        }
    }
    let comm = cost.halo_exchange_time(max_face * 8, neighbors, cost.offnode_fraction(grid));
    compute + comm
}

/// Analytic per-iteration time of the same decomposition on the resilient
/// transport with **zero** injected faults: every halo message additionally
/// carries a sequence/checksum header (negligible) and is acknowledged, so
/// the steady-state overhead is one ack per halo message per iteration.
/// Checkpoints are local memory copies and amortise to noise at realistic
/// intervals, so they are not charged here.
pub fn modeled_resilient_iteration_time(
    n: u64,
    grid: &ProcessGrid,
    cost: &CostModel,
    per_cell_seconds: f64,
) -> f64 {
    let plain = modeled_iteration_time(n, grid, cost, per_cell_seconds);
    let neighbors = grid.shape.iter().filter(|&&s| s > 1).count() * 2;
    let stats = FaultStats {
        acks_sent: neighbors as u64,
        ..Default::default()
    };
    plain + cost.resilience_time(&stats, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_workloads::gauss_seidel;
    use fsc_workloads::verify::assert_fields_match;

    #[test]
    fn distributed_matches_serial_reference() {
        let dist = gs_run(8, 3, 4);
        let serial = gauss_seidel::reference(8, 3);
        assert_fields_match(&dist.data, &serial.data, 1e-13, "mpi gs vs serial");
    }

    #[test]
    fn single_rank_degenerates_to_serial() {
        let dist = gs_run(6, 2, 1);
        let serial = gauss_seidel::reference(6, 2);
        assert_fields_match(&dist.data, &serial.data, 1e-13, "1-rank gs");
    }

    #[test]
    fn two_ranks_match() {
        let dist = gs_run(8, 5, 2);
        let serial = gauss_seidel::reference(8, 5);
        assert_fields_match(&dist.data, &serial.data, 1e-13, "2-rank gs");
    }

    #[test]
    fn two_d_decomposition_matches_serial() {
        let dist = gs_run_2d(8, 3, 2, 2);
        let serial = gauss_seidel::reference(8, 3);
        assert_fields_match(&dist.data, &serial.data, 1e-13, "2d mpi gs");
    }

    #[test]
    fn asymmetric_two_d_grid_matches() {
        let dist = gs_run_2d(12, 2, 3, 2);
        let serial = gauss_seidel::reference(12, 2);
        assert_fields_match(&dist.data, &serial.data, 1e-13, "3x2 mpi gs");
    }

    #[test]
    fn resilient_zero_faults_matches_raw_and_serial() {
        let out = gs_run_resilient(8, 4, 4, FaultPlan::none(7), ResilientConfig::default())
            .expect("fault-free resilient run");
        let raw = gs_run(8, 4, 4);
        let serial = gauss_seidel::reference(8, 4);
        assert_fields_match(&out.grid.data, &raw.data, 0.0, "resilient vs raw (bitwise)");
        assert_fields_match(&out.grid.data, &serial.data, 1e-13, "resilient vs serial");
        assert_eq!(out.stats.injected(), 0, "no faults were planned");
        assert_eq!(out.stats.restores, 0);
        assert!(out.stats.data_msgs > 0, "halo traffic must be counted");
        assert_eq!(out.per_rank.len(), 4);
    }

    #[test]
    fn resilient_survives_drops_dups_and_a_crash_bit_identically() {
        let mut plan = FaultPlan::lossy(42, 0.08);
        plan.corrupt_prob = 0.02;
        plan.delay_prob = 0.05;
        plan.max_delay_ms = 3;
        plan = plan.with_crash(2, 5);
        let cfg = ResilientConfig {
            checkpoint_interval: 3,
            ..Default::default()
        };
        let out = gs_run_resilient(8, 8, 4, plan, cfg).expect("resilient run under faults");
        let clean = gs_run(8, 8, 4);
        assert_fields_match(
            &out.grid.data,
            &clean.data,
            0.0,
            "faulty run must be bit-identical to fault-free",
        );
        assert!(out.stats.injected() > 0, "plan must actually inject faults");
        assert!(out.stats.retries > 0, "drops must force retransmits");
        assert_eq!(out.stats.injected_crashes, 1, "exactly one rank crash");
        assert_eq!(out.stats.restores, 1, "crash must restore from checkpoint");
        assert!(
            out.stats.replayed_iterations > 0,
            "crash at 5 with checkpoints every 3 must replay iterations"
        );
        assert_eq!(out.per_rank[2].restores, 1, "rank 2 is the crash victim");
    }

    #[test]
    fn resilient_rejects_crash_without_checkpoints() {
        let plan = FaultPlan::none(1).with_crash(0, 2);
        let cfg = ResilientConfig {
            checkpoint_interval: 0,
            ..Default::default()
        };
        let err = gs_run_resilient(4, 4, 2, plan, cfg).unwrap_err();
        assert!(matches!(err, MpiSimError::InvalidConfig(_)));
    }

    #[test]
    fn resilient_rejects_indivisible_decomposition() {
        let err =
            gs_run_resilient(7, 2, 3, FaultPlan::none(0), ResilientConfig::default()).unwrap_err();
        assert!(matches!(err, MpiSimError::InvalidConfig(_)));
    }

    #[test]
    fn modeled_time_shrinks_with_ranks_then_flattens() {
        let cost = CostModel::default();
        let per_cell = 1e-9;
        let t128 = modeled_iteration_time(2048, &ProcessGrid::new(vec![128]), &cost, per_cell);
        let t1024 = modeled_iteration_time(2048, &ProcessGrid::new(vec![128, 8]), &cost, per_cell);
        let t8192 = modeled_iteration_time(2048, &ProcessGrid::new(vec![128, 64]), &cost, per_cell);
        assert!(t1024 < t128, "more ranks must be faster: {t1024} vs {t128}");
        assert!(t8192 < t1024);
        // But not perfectly: efficiency decays.
        let speedup = t128 / t8192;
        assert!(speedup < 64.0, "communication must erode perfect scaling");
        assert!(speedup > 8.0, "but scaling should still be substantial");
    }
}
