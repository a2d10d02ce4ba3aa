//! Series generators for every figure in the paper's evaluation (§4).
//!
//! Each function returns [`Row`]s so the `fig*` binaries, the tests and the
//! EXPERIMENTS.md generator all share one implementation. Measured numbers
//! come from real wall clocks on this machine; modeled numbers (GPU,
//! multi-core thread scaling, multi-node runs) come from the documented
//! analytic models — see EXPERIMENTS.md for the paper-vs-measured record.

use fsc_baselines::{cray, mpi as hand_mpi, openacc};
use fsc_core::{CompileOptions, Compiler, Execution, Target};
use fsc_exec::ExecPath;
use fsc_gpusim::V100Model;
use fsc_mpisim::fault::{FaultPlan, FaultStats};
use fsc_mpisim::resilient::ResilientConfig;
use fsc_mpisim::{CostModel, ProcessGrid};
use fsc_workloads::{gauss_seidel, pw_advection};

use crate::{mcells_per_sec, measure, Row, ThreadScalingModel};

fn compile_target(source: &str, target: Target) -> fsc_core::Compiled {
    Compiler::compile(
        source,
        &CompileOptions {
            target,
            ..Default::default()
        },
    )
    .expect("benchmark compile failed")
}

fn run_target(source: &str, target: Target) -> Execution {
    Compiler::run(
        source,
        &CompileOptions {
            target,
            ..Default::default()
        },
    )
    .expect("benchmark run failed")
}

/// Compile once, then measure execution wall time only (compilation is not
/// part of what the paper's figures time).
fn measure_runs(source: &str, target: Target, reps: usize) -> (f64, Execution) {
    let compiled = compile_target(source, target);
    let (t, exec) = measure(reps, || compiled.run().expect("benchmark run failed"));
    (t.as_secs_f64(), exec)
}

/// Measured single-core seconds per *compute sweep* for one implementation
/// of Gauss–Seidel at interior size `n` (used by both Figure 2 and the
/// thread models of Figure 3).
pub struct GsSingleCore {
    /// "Cray" native kernel.
    pub cray: f64,
    /// "Flang only" (unoptimised compiled code).
    pub flang: f64,
    /// Stencil-flow compiled kernel.
    pub stencil: f64,
}

/// Measure Gauss–Seidel single-core sweep times.
pub fn gs_single_core(n: usize, iters: usize, reps: usize) -> GsSingleCore {
    let cells = (n as u64).pow(3) * iters as u64;
    let _ = cells;
    let source = gauss_seidel::fortran_source(n, iters);
    let (cray_t, _) = measure(reps, || cray::gs_run(n, iters));
    let (flang_t, _) = measure_runs(&source, Target::UnoptimizedCpu, reps);
    let (stencil_t, _) = measure_runs(&source, Target::StencilCpu, reps);
    GsSingleCore {
        cray: cray_t.as_secs_f64() / iters as f64,
        flang: flang_t / iters as f64,
        stencil: stencil_t / iters as f64,
    }
}

/// Measured single-core seconds per PW advection kernel invocation.
pub struct PwSingleCore {
    /// "Cray" native kernel.
    pub cray: f64,
    /// "Flang only".
    pub flang: f64,
    /// Stencil flow.
    pub stencil: f64,
}

/// Measure PW advection single-core kernel times.
pub fn pw_single_core(n: usize, reps: usize) -> PwSingleCore {
    let source = pw_advection::fortran_source(n);
    let (u, v, w) = pw_advection::initial_fields(n);
    let (cray_t, _) = measure(reps, || cray::pw_run(&u, &v, &w));
    let (flang_t, _) = measure_runs(&source, Target::UnoptimizedCpu, reps);
    let (stencil_t, _) = measure_runs(&source, Target::StencilCpu, reps);
    PwSingleCore {
        cray: cray_t.as_secs_f64(),
        flang: flang_t,
        stencil: stencil_t,
    }
}

/// Figure 2: single-core throughput for both benchmarks across problem
/// sizes, {Cray, Flang only, Stencil}. `interp_size` optionally adds the
/// op-by-op FIR interpreter as an extra series at one (small) size.
pub fn fig2(sizes: &[usize], gs_iters: usize, reps: usize, interp_size: Option<usize>) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        let cells = (n as u64).pow(3);
        let gs = gs_single_core(n, gs_iters, reps);
        rows.push(Row::new(
            "GS / Cray",
            format!("{n}^3"),
            mcells_per_sec(cells, gs.cray),
        ));
        rows.push(Row::new(
            "GS / Flang only",
            format!("{n}^3"),
            mcells_per_sec(cells, gs.flang),
        ));
        rows.push(Row::new(
            "GS / Stencil",
            format!("{n}^3"),
            mcells_per_sec(cells, gs.stencil),
        ));
        let pw = pw_single_core(n, reps);
        rows.push(Row::new(
            "PW / Cray",
            format!("{n}^3"),
            mcells_per_sec(cells, pw.cray),
        ));
        rows.push(Row::new(
            "PW / Flang only",
            format!("{n}^3"),
            mcells_per_sec(cells, pw.flang),
        ));
        rows.push(Row::new(
            "PW / Stencil",
            format!("{n}^3"),
            mcells_per_sec(cells, pw.stencil),
        ));
    }
    if let Some(n) = interp_size {
        let cells = (n as u64).pow(3);
        let source = gauss_seidel::fortran_source(n, 1);
        let (t, _) = measure(1, || run_target(&source, Target::FlangOnly));
        rows.push(Row::new(
            "GS / Flang only (FIR interpreter)",
            format!("{n}^3"),
            mcells_per_sec(cells, t.as_secs_f64()),
        ));
    }
    rows
}

/// Figure 2 companion: the stencil tier's specialization ladder on PW
/// advection — the same compiled kernels forced through native specialized
/// loops, the superinstruction VM and the generic VM. Quantifies how much
/// of the Stencil series' headroom comes from eliminating per-instruction
/// dispatch. Panics if the default path is not `Specialized` for PW (the
/// figure would silently measure the wrong tier).
pub fn fig2_exec_paths(n: usize, reps: usize) -> Vec<Row> {
    let source = pw_advection::fortran_source(n);
    let cells = (n as u64).pow(3);
    let probe = run_target(&source, Target::StencilCpu);
    assert!(
        probe.report.attests(ExecPath::Specialized),
        "PW compute must take the specialized path, got {:?}",
        probe.report.exec_paths
    );
    let mut rows = Vec::new();
    for path in [
        ExecPath::Specialized,
        ExecPath::FusedVm,
        ExecPath::GenericVm,
    ] {
        let mut compiled = compile_target(&source, Target::StencilCpu);
        for kernel in compiled.kernels.values_mut() {
            kernel.force_exec_path(path);
        }
        let (t, _) = measure(reps, || compiled.run().expect("benchmark run failed"));
        rows.push(Row::new(
            format!("PW / Stencil ({path})"),
            format!("{n}^3"),
            mcells_per_sec(cells, t.as_secs_f64()),
        ));
    }
    rows
}

/// Figures 3 and 4: thread scaling on one ARCHER2 node. Single-core rates
/// are measured here; the per-thread behaviour comes from
/// [`ThreadScalingModel`] (this build machine has one core).
pub fn fig3_gs(n: usize, iters: usize, threads: &[u32], reps: usize) -> Vec<Row> {
    let single = gs_single_core(n, iters, reps);
    // Model at the paper's problem size (2.1 billion grid cells): measured
    // per-cell rates scale to paper-size serial sweeps; fork/join overheads
    // then sit in realistic proportion to the sweep time.
    const PAPER_CELLS: u64 = 2_100_000_000;
    let measured_cells = (n as f64).powi(3);
    let scale = PAPER_CELLS as f64 / measured_cells;
    // Per iteration: compute sweep (7 reads + 1 write ≈ cache-filtered to
    // ~3 DRAM accesses/cell) + copy sweep (2 accesses/cell).
    let bytes = PAPER_CELLS * (3 + 2) * 8;
    let omp = ThreadScalingModel::openmp_runtime();
    let pool = ThreadScalingModel::persistent_pool();
    let mut rows = Vec::new();
    for &t in threads {
        // Hand-written OpenMP: two parallel regions per iteration. Mature
        // vectorised code saturates the memory system; the bytecode tiers
        // reach a lower fraction of STREAM.
        let cray_t = omp.sweep_time(t, single.cray * scale, bytes, 2, 1.0);
        let flang_t = omp.sweep_time(t, single.flang * scale, bytes, 2, 0.35);
        // Automatic: one region call covering both nests on the pool.
        let stencil_t = pool.sweep_time(t, single.stencil * scale, bytes, 1, 0.65);
        rows.push(Row::new(
            "GS / Cray + hand OpenMP",
            t,
            mcells_per_sec(PAPER_CELLS, cray_t),
        ));
        rows.push(Row::new(
            "GS / Flang + hand OpenMP",
            t,
            mcells_per_sec(PAPER_CELLS, flang_t),
        ));
        rows.push(Row::new(
            "GS / Stencil (automatic)",
            t,
            mcells_per_sec(PAPER_CELLS, stencil_t),
        ));
    }
    rows
}

/// Figure 4: PW advection thread scaling.
pub fn fig4_pw(n: usize, threads: &[u32], reps: usize) -> Vec<Row> {
    let single = pw_single_core(n, reps);
    const PAPER_CELLS: u64 = 2_100_000_000;
    let measured_cells = (n as f64).powi(3);
    let scale = PAPER_CELLS as f64 / measured_cells;
    // 21 reads over three shared fields + 3 writes → ~6 DRAM accesses/cell.
    let bytes = PAPER_CELLS * 6 * 8;
    let omp = ThreadScalingModel::openmp_runtime();
    let pool = ThreadScalingModel::persistent_pool();
    let mut rows = Vec::new();
    for &t in threads {
        let cray_t = omp.sweep_time(t, single.cray * scale, bytes, 1, 1.0);
        let flang_t = omp.sweep_time(t, single.flang * scale, bytes, 1, 0.35);
        let stencil_t = pool.sweep_time(t, single.stencil * scale, bytes, 1, 0.65);
        rows.push(Row::new(
            "PW / Cray + hand OpenMP",
            t,
            mcells_per_sec(PAPER_CELLS, cray_t),
        ));
        rows.push(Row::new(
            "PW / Flang + hand OpenMP",
            t,
            mcells_per_sec(PAPER_CELLS, flang_t),
        ));
        rows.push(Row::new(
            "PW / Stencil (automatic)",
            t,
            mcells_per_sec(PAPER_CELLS, stencil_t),
        ));
    }
    rows
}

/// Figure 5: V100 throughput for both benchmarks across sizes,
/// {OpenACC/Nvidia, stencil host_register, stencil explicit}.
pub fn fig5(sizes: &[usize], iters: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        let cells = (n as u64).pow(3) * iters as u64;
        // --- Gauss–Seidel (time loop inside the program) ---
        let source = gauss_seidel::fortran_source(n, iters);
        for (label, explicit) in [
            ("GS / Stencil (initial data)", false),
            ("GS / Stencil (optimised data)", true),
        ] {
            let exec = run_target(
                &source,
                Target::StencilGpu {
                    explicit_data: explicit,
                    tile: [32, 32, 1],
                },
            );
            let t = exec.report.gpu_seconds.unwrap();
            rows.push(Row::new(label, format!("{n}^3"), mcells_per_sec(cells, t)));
        }
        let acc = openacc::gs_run(n, iters, V100Model::default());
        rows.push(Row::new(
            "GS / OpenACC with Nvidia",
            format!("{n}^3"),
            mcells_per_sec(cells, acc.modeled_seconds),
        ));

        // --- PW advection (kernel launched repeatedly) ---
        let source = pw_advection::fortran_source_repeated(n, iters);
        for (label, explicit) in [
            ("PW / Stencil (initial data)", false),
            ("PW / Stencil (optimised data)", true),
        ] {
            let exec = run_target(
                &source,
                Target::StencilGpu {
                    explicit_data: explicit,
                    tile: [32, 32, 1],
                },
            );
            let t = exec.report.gpu_seconds.unwrap();
            rows.push(Row::new(label, format!("{n}^3"), mcells_per_sec(cells, t)));
        }
        let acc = openacc::pw_run(n, iters, V100Model::default());
        rows.push(Row::new(
            "PW / OpenACC with Nvidia",
            format!("{n}^3"),
            mcells_per_sec(cells, acc.modeled_seconds),
        ));
    }
    rows
}

/// Figure 6: distributed Gauss–Seidel strong scaling across ARCHER2 nodes
/// (128 ranks/node), hand MPI vs automatic DMP lowering.
///
/// Per-rank compute rates are *measured* here (Cray kernel for the hand
/// version, the stencil kernel for the automatic one); communication per
/// iteration comes from the Slingshot cost model, with the automatic path's
/// exchange count taken from its own compiled kernel (the immature DMP
/// lowering swaps every input field of every apply — twice the messages of
/// the hand version, which is the paper's "scales less well" effect).
pub fn fig6(nodes: &[i64], measure_n: usize, global_n: u64) -> Vec<Row> {
    // Measured per-cell rates.
    let gs = gs_single_core(measure_n, 2, 2);
    let per_cell_hand = gs.cray / (measure_n as f64).powi(3);
    let per_cell_auto = gs.stencil / (measure_n as f64).powi(3);

    // Exchange count of the compiled distributed kernel.
    let source = gauss_seidel::fortran_source(measure_n, 1);
    let compiled = Compiler::compile(
        &source,
        &CompileOptions {
            target: Target::StencilDistributed { grid: vec![2, 2] },
            ..Default::default()
        },
    )
    .expect("compile distributed");
    let auto_exchange_phases: usize = compiled
        .kernels
        .values()
        .flat_map(|k| &k.nests)
        .filter(|nest| !nest.exchanges.is_empty())
        .count()
        .max(1);

    let cost = CostModel::default();
    let cells = global_n.pow(3);
    let mut rows = Vec::new();
    for &nn in nodes {
        let ranks = nn * 128;
        let grid = ProcessGrid::new(vec![128, nn]);
        let hand_t = hand_mpi::modeled_iteration_time(global_n, &grid, &cost, per_cell_hand);
        // The automatic path: slower per-cell rate and more exchange phases.
        let auto_base = hand_mpi::modeled_iteration_time(global_n, &grid, &cost, per_cell_auto);
        let one_comm = auto_base - cells as f64 / ranks as f64 * per_cell_auto;
        let auto_t = auto_base + one_comm * (auto_exchange_phases as f64 - 1.0);
        rows.push(Row::new(
            "GS / hand parallelised (Cray)",
            nn,
            mcells_per_sec(cells, hand_t),
        ));
        rows.push(Row::new(
            "GS / stencil automatic (DMP→MPI)",
            nn,
            mcells_per_sec(cells, auto_t),
        ));
    }
    rows
}

/// One row of the fault-tolerance ablation: a distributed Gauss–Seidel
/// configuration, its measured wall time, and the transport's attestation.
#[derive(Debug)]
pub struct FaultRow {
    /// Configuration label.
    pub label: String,
    /// Measured wall seconds (best of reps).
    pub seconds: f64,
    /// Merged fault/recovery counters (zero for the raw transport).
    pub stats: FaultStats,
}

/// Fault-tolerance ablation (the robustness experiment): measured wall time
/// of distributed Gauss–Seidel on the raw vs the resilient transport at 0%
/// faults (the protocol's overhead), under increasing drop rates, and with
/// a mid-run rank crash at several checkpoint intervals (recovery cost).
/// Every resilient run's final field is verified bit-identical to the raw
/// transport's before its row is emitted.
pub fn fault_ablation(n: usize, iters: usize, ranks: usize, reps: usize) -> Vec<FaultRow> {
    let reference = hand_mpi::gs_run(n, iters, ranks);
    let check = |out: &fsc_baselines::mpi::ResilientGsRun, label: &str| {
        assert!(
            reference
                .data
                .iter()
                .zip(&out.grid.data)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{label}: resilient result diverged from the raw transport"
        );
    };
    let mut rows = Vec::new();
    let (raw_t, _) = measure(reps, || hand_mpi::gs_run(n, iters, ranks));
    rows.push(FaultRow {
        label: "raw transport".into(),
        seconds: raw_t.as_secs_f64(),
        stats: FaultStats::default(),
    });

    let cfg = ResilientConfig::default();
    let (t, out) = measure(reps, || {
        hand_mpi::gs_run_resilient(n, iters, ranks, FaultPlan::none(3), cfg)
            .expect("fault-free resilient run")
    });
    check(&out, "0% faults");
    rows.push(FaultRow {
        label: "resilient, 0% faults".into(),
        seconds: t.as_secs_f64(),
        stats: out.stats,
    });

    for drop in [0.02, 0.05, 0.10] {
        let label = format!("resilient, {:.0}% drop", drop * 100.0);
        let (t, out) = measure(reps, || {
            hand_mpi::gs_run_resilient(n, iters, ranks, FaultPlan::lossy(7, drop), cfg)
                .expect("lossy resilient run")
        });
        check(&out, &label);
        rows.push(FaultRow {
            label,
            seconds: t.as_secs_f64(),
            stats: out.stats,
        });
    }

    // Crash one past the halfway point so it does not land on a checkpoint
    // boundary for every interval — wider spacing then has to replay more.
    let crash_at = iters / 2 + 1;
    for interval in [1usize, 2, 4] {
        let label = format!("resilient, 5% drop + crash (ckpt every {interval})");
        let plan = FaultPlan::lossy(9, 0.05).with_crash(ranks - 1, crash_at);
        let mut ccfg = cfg;
        ccfg.checkpoint_interval = interval;
        let (t, out) = measure(reps, || {
            hand_mpi::gs_run_resilient(n, iters, ranks, plan.clone(), ccfg)
                .expect("crash-recovery run")
        });
        check(&out, &label);
        assert_eq!(out.stats.restores, 1, "{label}: crash must restore once");
        rows.push(FaultRow {
            label,
            seconds: t.as_secs_f64(),
            stats: out.stats,
        });
    }
    rows
}

/// Modeled resilient-protocol overhead on the Figure 6 harness at zero
/// faults: `(nodes, plain_seconds, resilient_seconds)` per node count for
/// the hand-MPI decomposition (128 ranks/node). The overhead is the
/// steady-state ack traffic of the reliable transport; the ≤10% bound is
/// asserted by the test suite.
pub fn fig6_resilience_overhead(
    nodes: &[i64],
    global_n: u64,
    per_cell_seconds: f64,
) -> Vec<(i64, f64, f64)> {
    let cost = CostModel::default();
    nodes
        .iter()
        .map(|&nn| {
            let grid = ProcessGrid::new(vec![128, nn]);
            let plain = hand_mpi::modeled_iteration_time(global_n, &grid, &cost, per_cell_seconds);
            let resilient = hand_mpi::modeled_resilient_iteration_time(
                global_n,
                &grid,
                &cost,
                per_cell_seconds,
            );
            (nn, plain, resilient)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shape_holds_at_small_size() {
        let rows = fig2(&[16], 2, 2, None);
        let get = |s: &str| rows.iter().find(|r| r.series == s).unwrap().mcells;
        let gs_cray = get("GS / Cray");
        let gs_flang = get("GS / Flang only");
        let gs_stencil = get("GS / Stencil");
        assert!(gs_cray > gs_stencil, "Cray must win single-core");
        assert!(gs_stencil > gs_flang, "stencil must beat Flang-only");
        let pw_flang = get("PW / Flang only");
        let pw_stencil = get("PW / Stencil");
        assert!(pw_stencil > pw_flang);
        // The PW speedup exceeds the GS speedup (paper: ~10× vs ~2×).
        assert!(
            pw_stencil / pw_flang > gs_stencil / gs_flang * 0.8,
            "PW gain {} vs GS gain {}",
            pw_stencil / pw_flang,
            gs_stencil / gs_flang
        );
    }

    #[test]
    fn fig2_exec_path_ladder_is_ordered() {
        let rows = fig2_exec_paths(16, 2);
        let get = |s: &str| rows.iter().find(|r| r.series == s).unwrap().mcells;
        let spec = get("PW / Stencil (specialized)");
        let generic = get("PW / Stencil (generic-vm)");
        assert!(
            spec > generic,
            "native loops must beat the generic VM: {spec} vs {generic}"
        );
    }

    #[test]
    fn fig3_stencil_catches_up_at_high_threads() {
        let rows = fig3_gs(24, 2, &[1, 128], 1);
        let get = |s: &str, x: &str| {
            rows.iter()
                .find(|r| r.series == s && r.x == x)
                .unwrap()
                .mcells
        };
        let cray1 = get("GS / Cray + hand OpenMP", "1");
        let st1 = get("GS / Stencil (automatic)", "1");
        let cray128 = get("GS / Cray + hand OpenMP", "128");
        let st128 = get("GS / Stencil (automatic)", "128");
        assert!(cray1 > st1, "Cray wins at 1 thread");
        let gap1 = cray1 / st1;
        let gap128 = cray128 / st128;
        assert!(
            gap128 < gap1,
            "the gap must shrink with threads: {gap1} → {gap128}"
        );
    }

    #[test]
    fn fig5_ordering_matches_paper() {
        let rows = fig5(&[16], 4);
        let get = |s: &str| rows.iter().find(|r| r.series == s).unwrap().mcells;
        assert!(
            get("GS / Stencil (optimised data)") > get("GS / Stencil (initial data)"),
            "explicit data must beat host_register"
        );
        assert!(
            get("PW / Stencil (optimised data)") > get("PW / OpenACC with Nvidia"),
            "optimised stencil beats OpenACC on PW"
        );
    }

    #[test]
    fn fig6_hand_beats_auto_but_both_scale() {
        let rows = fig6(&[1, 8], 12, 512);
        let get = |s: &str, x: &str| {
            rows.iter()
                .find(|r| r.series == s && r.x == x)
                .unwrap()
                .mcells
        };
        let hand1 = get("GS / hand parallelised (Cray)", "1");
        let auto1 = get("GS / stencil automatic (DMP→MPI)", "1");
        let hand8 = get("GS / hand parallelised (Cray)", "8");
        let auto8 = get("GS / stencil automatic (DMP→MPI)", "8");
        assert!(hand1 > auto1);
        assert!(hand8 > auto8);
        assert!(hand8 > hand1, "more nodes must help");
        assert!(auto8 > auto1);
    }

    #[test]
    fn resilient_protocol_overhead_is_bounded_on_fig6_harness() {
        // Deterministic: a fixed per-cell rate, the modeled cost only.
        for &per_cell in &[1e-9, 1e-10] {
            for (nn, plain, resilient) in fig6_resilience_overhead(&[1, 8, 64], 2048, per_cell) {
                assert!(resilient > plain, "protocol must not be free");
                let overhead = (resilient - plain) / plain;
                assert!(
                    overhead <= 0.10,
                    "resilient overhead at 0% faults must stay within 10%: \
                     {:.2}% at {nn} nodes (per_cell {per_cell:e})",
                    overhead * 100.0
                );
            }
        }
    }

    #[test]
    fn fault_ablation_recovers_everywhere() {
        let rows = fault_ablation(6, 4, 2, 1);
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].stats.data_msgs, 0, "raw transport has no protocol");
        assert!(rows[1].stats.data_msgs > 0);
        assert_eq!(rows[1].stats.injected(), 0);
        // Lossy rows actually injected faults and retried.
        for row in &rows[2..5] {
            assert!(row.stats.injected() > 0, "{}: nothing injected", row.label);
            assert!(row.stats.retries > 0, "{}: nothing retried", row.label);
        }
        // Crash rows all restored exactly once; tighter checkpoint spacing
        // never replays more iterations than looser spacing.
        let crash = &rows[5..];
        for row in crash {
            assert_eq!(row.stats.restores, 1, "{}", row.label);
        }
        assert!(
            crash[0].stats.replayed_iterations <= crash[2].stats.replayed_iterations,
            "ckpt-every-1 must not replay more than ckpt-every-4"
        );
    }
}
