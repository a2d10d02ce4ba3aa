//! Property-based differential testing of the whole stack: randomly
//! generated stencil programs must produce bit-identical results through
//! the op-by-op FIR interpreter, the unfused lift on the generic VM (the
//! "Flang only" line) and the optimised stencil kernels — the same
//! semantics through independently written execution paths.

use flang_stencil::core::{CompileOptions, Compiler, DistMode, Target};
use flang_stencil::mpisim::fault::FaultPlan;
use flang_stencil::workloads::{gauss_seidel, pw_advection};
use proptest::prelude::*;

/// A 1-D nest of this many cells holds `SPLIT_WORK` instruction-cells or
/// more, so `omp` splits it.
const SPLIT_CELLS: usize = flang_stencil::exec::kernel::SPLIT_WORK as usize;

/// A randomly generated 1-D stencil term: coefficient × a(i + offset).
#[derive(Debug, Clone)]
struct Term {
    coeff: f64,
    offset: i64,
}

fn term() -> impl Strategy<Value = Term> {
    (-4i64..=4, -8i32..=8).prop_map(|(offset, c)| Term {
        // Small "nice" coefficients keep the arithmetic exactly
        // reproducible across evaluation orders that our three tiers share.
        coeff: c as f64 * 0.125,
        offset,
    })
}

/// Build a Fortran program computing `r(i) = Σ coeff_k * a(i+off_k)` over
/// the interior, with halo wide enough for the largest offset.
fn program(terms: &[Term], n: usize) -> String {
    let halo = terms
        .iter()
        .map(|t| t.offset.abs())
        .max()
        .unwrap_or(1)
        .max(1);
    let expr = terms
        .iter()
        .map(|t| {
            let idx = match t.offset.cmp(&0) {
                std::cmp::Ordering::Less => format!("i-{}", -t.offset),
                std::cmp::Ordering::Equal => "i".to_string(),
                std::cmp::Ordering::Greater => format!("i+{}", t.offset),
            };
            format!("{} * a({idx})", t.coeff)
        })
        .collect::<Vec<_>>()
        .join(" + ");
    format!(
        "program prop
  implicit none
  integer, parameter :: n = {n}
  integer :: i
  real(kind=8) :: a({lo}:{hi}), r({lo}:{hi})
  do i = {lo}, {hi}
    a(i) = 0.0625 * i * i - 0.25 * i
  end do
  do i = 1, n
    r(i) = {expr}
  end do
end program prop
",
        lo = -halo,
        hi = n as i64 + halo,
    )
}

fn run(source: &str, target: Target) -> Vec<f64> {
    let exec = Compiler::run(
        source,
        &CompileOptions {
            target,
            ..Default::default()
        },
    )
    .expect("run");
    exec.array("r").expect("r array").to_vec()
}

/// A randomly generated 2-D stencil term: coefficient × a(i+di, j+dj).
#[derive(Debug, Clone)]
struct Term2 {
    coeff: f64,
    di: i64,
    dj: i64,
}

fn term2() -> impl Strategy<Value = Term2> {
    (-2i64..=2, -2i64..=2, -8i32..=8).prop_map(|(di, dj, c)| Term2 {
        coeff: c as f64 * 0.125,
        di,
        dj,
    })
}

/// Build a 2-D Fortran program computing
/// `r(i, j) = Σ coeff_k * a(i+di_k, j+dj_k)` over the interior.
fn program_2d(terms: &[Term2], n: usize) -> String {
    let halo = terms
        .iter()
        .map(|t| t.di.abs().max(t.dj.abs()))
        .max()
        .unwrap_or(1)
        .max(1);
    let idx = |base: &str, off: i64| match off.cmp(&0) {
        std::cmp::Ordering::Less => format!("{base}-{}", -off),
        std::cmp::Ordering::Equal => base.to_string(),
        std::cmp::Ordering::Greater => format!("{base}+{off}"),
    };
    let expr = terms
        .iter()
        .map(|t| format!("{} * a({}, {})", t.coeff, idx("i", t.di), idx("j", t.dj)))
        .collect::<Vec<_>>()
        .join(" + ");
    format!(
        "program prop2
  implicit none
  integer, parameter :: n = {n}
  integer :: i, j
  real(kind=8) :: a({lo}:{hi}, {lo}:{hi}), r({lo}:{hi}, {lo}:{hi})
  do j = {lo}, {hi}
    do i = {lo}, {hi}
      a(i, j) = 0.0625 * i * j + 0.125 * i - 0.25 * j
    end do
  end do
  do j = 1, n
    do i = 1, n
      r(i, j) = {expr}
    end do
  end do
end program prop2
",
        lo = -halo,
        hi = n as i64 + halo,
    )
}

/// A randomly generated 3-D stencil term: coefficient × a(i+di, j+dj, k+dk).
#[derive(Debug, Clone)]
struct Term3 {
    coeff: f64,
    di: i64,
    dj: i64,
    dk: i64,
}

fn term3() -> impl Strategy<Value = Term3> {
    (-1i64..=1, -1i64..=1, -1i64..=1, -8i32..=8).prop_map(|(di, dj, dk, c)| Term3 {
        coeff: c as f64 * 0.125,
        di,
        dj,
        dk,
    })
}

/// Build a 3-D Fortran program computing
/// `r(i, j, k) = Σ coeff_m * a(i+di_m, j+dj_m, k+dk_m)` over the interior.
fn program_3d(terms: &[Term3], n: usize) -> String {
    let idx = |base: &str, off: i64| match off.cmp(&0) {
        std::cmp::Ordering::Less => format!("{base}-{}", -off),
        std::cmp::Ordering::Equal => base.to_string(),
        std::cmp::Ordering::Greater => format!("{base}+{off}"),
    };
    let expr = terms
        .iter()
        .map(|t| {
            format!(
                "{} * a({}, {}, {})",
                t.coeff,
                idx("i", t.di),
                idx("j", t.dj),
                idx("k", t.dk)
            )
        })
        .collect::<Vec<_>>()
        .join(" + ");
    format!(
        "program prop3
  implicit none
  integer, parameter :: n = {n}
  integer :: i, j, k
  real(kind=8) :: a(0:n+1, 0:n+1, 0:n+1), r(0:n+1, 0:n+1, 0:n+1)
  do k = 0, n+1
    do j = 0, n+1
      do i = 0, n+1
        a(i, j, k) = 0.0625 * i * j - 0.25 * k + 0.125 * i
        r(i, j, k) = 0.0
      end do
    end do
  end do
  do k = 1, n
    do j = 1, n
      do i = 1, n
        r(i, j, k) = {expr}
      end do
    end do
  end do
end program prop3
"
    )
}

/// Force every kernel onto `path` under `plan` and return the bit
/// patterns of `array`, asserting the report attests the forced tier
/// whenever some nest actually carries it.
fn run_forced(
    compiled: &mut flang_stencil::core::Compiled,
    path: flang_stencil::exec::ExecPath,
    plan: &flang_stencil::exec::ExecPlan,
    array: &str,
) -> Vec<u64> {
    for kernel in compiled.kernels.values_mut() {
        kernel.force_exec_path(path);
        kernel.force_plan(plan);
    }
    // `force_plan` re-acquires jit artifacts under the new plan and may
    // degrade a nest; assert against what the nests now claim.
    let expects_path = compiled
        .kernels
        .values()
        .flat_map(|k| &k.nests)
        .any(|nest| nest.path == path && nest.bounds.iter().all(|(lo, hi)| hi > lo));
    let exec = compiled.run().expect("forced-path run");
    if expects_path {
        assert!(
            exec.report.attests(path),
            "expected {} in {:?} under plan {}",
            path,
            exec.report.exec_paths,
            plan.describe()
        );
    }
    exec.array(array)
        .expect("result array")
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn three_tiers_agree_on_random_stencils(
        terms in prop::collection::vec(term(), 1..6),
        n in 4usize..24,
    ) {
        let source = program(&terms, n);
        let interp = run(&source, Target::FlangOnly);
        let unopt = run(&source, Target::UnoptimizedCpu);
        let fast = run(&source, Target::StencilCpu);
        prop_assert_eq!(&interp, &unopt, "interpreter vs unfused lift on the generic VM");
        prop_assert_eq!(&interp, &fast, "interpreter vs vectorised tier");
    }

    /// Small grids run on the calling thread; grids of `SPLIT_WORK` cells
    /// or more are split into slabs, whatever the terms.
    #[test]
    fn parallel_agrees_with_serial(
        terms in prop::collection::vec(term(), 1..5),
        n in prop_oneof![8usize..32, SPLIT_CELLS..SPLIT_CELLS + 32],
        threads in 2u32..5,
    ) {
        let source = program(&terms, n);
        let serial = run(&source, Target::StencilCpu);
        let omp = CompileOptions::for_target(Target::StencilOpenMp { threads });
        let compiled = Compiler::compile(&source, &omp).unwrap();
        let split = compiled.kernels.values().any(|k| k.slabs(threads as usize).iter().any(|&s| s > 1));
        prop_assert_eq!(split, n >= SPLIT_CELLS, "n = {}", n);
        let parallel = compiled.run().expect("run");
        prop_assert_eq!(&serial[..], parallel.array("r").expect("r array"));
    }

    /// Every rung of the specialization ladder — the stitched jit, the
    /// superinstruction VM and the generic VM — must be **bit**-identical
    /// on random 2-D stencils, and the run report must attest which rung
    /// actually executed.
    #[test]
    fn exec_paths_bit_identical_on_random_2d_stencils(
        terms in prop::collection::vec(term2(), 1..6),
        n in 4usize..12,
    ) {
        use flang_stencil::exec::ExecPath;
        let source = program_2d(&terms, n);
        let opts = CompileOptions { target: Target::StencilCpu, ..Default::default() };
        let mut compiled = Compiler::compile(&source, &opts).unwrap();
        let has_jit = compiled
            .kernels
            .values()
            .flat_map(|k| &k.nests)
            .any(|nest| nest.jit.is_some());
        let mut results = Vec::new();
        for path in [ExecPath::Jit, ExecPath::FusedVm, ExecPath::GenericVm] {
            for kernel in compiled.kernels.values_mut() {
                kernel.force_exec_path(path);
            }
            let exec = compiled.run().expect("forced-path run");
            // Jit is best-effort (a nest whose stitch was skipped keeps its
            // tier); the VM tiers always switch.
            if path != ExecPath::Jit || has_jit {
                prop_assert!(
                    exec.report.attests(path),
                    "expected {} in {:?}", path, exec.report.exec_paths
                );
            }
            results.push(exec.array("r").expect("r array").to_vec());
        }
        prop_assert_eq!(&results[0], &results[1], "jit vs fused-vm");
        prop_assert_eq!(&results[1], &results[2], "fused-vm vs generic-vm");
    }

    /// Cache-blocked execution must be **bit**-identical to the unblocked
    /// default plan for every tile shape — unit tiles, non-divisible
    /// tiles, tiles larger than the extent, unrolled inner loops — on
    /// both the stitched jit and the generic VM.
    #[test]
    fn tiled_plans_bit_identical_on_random_2d_stencils(
        terms in prop::collection::vec(term2(), 1..6),
        n in 4usize..12,
        tile in 1i64..8,
    ) {
        use flang_stencil::exec::{ExecPath, ExecPlan};
        let source = program_2d(&terms, n);
        let opts = CompileOptions {
            target: Target::StencilCpu,
            ..Default::default()
        };
        let mut compiled = Compiler::compile(&source, &opts).unwrap();
        let reference: Vec<u64> = compiled
            .run()
            .expect("default-plan run")
            .array("r")
            .expect("r array")
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let plans = [
            ExecPlan::from_ir_tiles(vec![1, 1]),       // degenerate unit tiles
            ExecPlan::from_ir_tiles(vec![3, 3]),       // non-divisible
            ExecPlan::from_ir_tiles(vec![tile, tile]), // random shape
            ExecPlan::from_ir_tiles(vec![0, tile]),    // slowest dim only
            ExecPlan {
                tiles: vec![1 << 20, 1 << 20],         // larger than any extent
                unroll: 4,
            },
            ExecPlan { unroll: 4, ..ExecPlan::default() },
        ];
        for path in [ExecPath::Jit, ExecPath::GenericVm] {
            for plan in &plans {
                for kernel in compiled.kernels.values_mut() {
                    kernel.force_exec_path(path);
                    kernel.force_plan(plan);
                }
                let got: Vec<u64> = compiled
                    .run()
                    .expect("planned run")
                    .array("r")
                    .expect("r array")
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                prop_assert_eq!(
                    &got, &reference,
                    "{:?} with plan {} diverged bitwise", path, plan.describe()
                );
            }
        }
    }

    /// Every degradation-ladder rung — full stencil pipeline, sequential
    /// scf fallback, direct FIR interpretation — must agree bitwise on
    /// random stencils, and the report must attest the forced rung.
    #[test]
    fn ladder_rungs_bit_identical_on_random_stencils(
        terms in prop::collection::vec(term(), 1..5),
        n in 4usize..16,
    ) {
        use flang_stencil::core::DegradationRung;
        let source = program(&terms, n);
        let reference = run(&source, Target::FlangOnly);
        for rung in [
            DegradationRung::Stencil,
            DegradationRung::ScfFallback,
            DegradationRung::FirInterp,
        ] {
            let opts = CompileOptions {
                force_rung: Some(rung),
                ..CompileOptions::for_target(Target::StencilCpu)
            };
            let exec = Compiler::run(&source, &opts).unwrap();
            prop_assert_eq!(exec.report.degradation.ran, rung);
            prop_assert!(exec.report.degradation.attempts.is_empty());
            let got = exec.array("r").expect("r array");
            prop_assert_eq!(got, reference.as_slice(), "rung {:?} diverged", rung);
        }
    }

    #[test]
    fn discovery_always_extracts_the_interior_loop(
        terms in prop::collection::vec(term(), 1..5),
        n in 4usize..16,
    ) {
        let source = program(&terms, n);
        let compiled = Compiler::compile(
            &source,
            &CompileOptions { target: Target::StencilCpu, ..Default::default() },
        ).unwrap();
        // Both the init nest and the stencil nest must have been extracted.
        let total_nests: usize = compiled.kernels.values().map(|k| k.nests.len()).sum();
        prop_assert!(total_nests >= 2, "init + compute nests, got {total_nests}");
        // And the compute nest's domain is exactly the interior.
        let found = compiled.kernels.values().flat_map(|k| &k.nests).any(|nest| {
            nest.bounds == vec![(1, n as i64 + 1)]
        });
        prop_assert!(found, "no nest with interior bounds 1..={n}");
    }
}

proptest! {
    // The jit-tier sweeps run three tiers × three plans per case; a
    // dozen cases per dimensionality keeps the suite inside the tier-1
    // budget while still exercising degenerate n=0/1 domains.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The stitched jit must be **bit**-identical to both VM tiers on
    /// random 1-D stencils under the default, a tiled and an oversized
    /// execution plan — including degenerate n=0/1 domains where the
    /// interior loop never runs.
    #[test]
    fn jit_tier_bit_identical_on_random_1d_stencils(
        terms in prop::collection::vec(term(), 1..6),
        n in 0usize..16,
    ) {
        use flang_stencil::exec::{ExecPath, ExecPlan};
        let source = program(&terms, n);
        let opts = CompileOptions {
            target: Target::StencilCpu,
            ..Default::default()
        };
        let mut compiled = Compiler::compile(&source, &opts).unwrap();
        let reference: Vec<u64> = compiled
            .run()
            .expect("default run")
            .array("r")
            .expect("r array")
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let plans = [
            ExecPlan::default(),
            ExecPlan { tiles: vec![3], unroll: 4 },
            ExecPlan { tiles: vec![1 << 20], unroll: 4 },
        ];
        for path in [ExecPath::Jit, ExecPath::FusedVm, ExecPath::GenericVm] {
            for plan in &plans {
                let got = run_forced(&mut compiled, path, plan, "r");
                prop_assert_eq!(
                    &got, &reference,
                    "{} with plan {} diverged bitwise", path, plan.describe()
                );
            }
        }
    }

    /// Same contract on random 2-D stencils.
    #[test]
    fn jit_tier_bit_identical_on_random_2d_stencils(
        terms in prop::collection::vec(term2(), 1..6),
        n in 0usize..10,
    ) {
        use flang_stencil::exec::{ExecPath, ExecPlan};
        let source = program_2d(&terms, n);
        let opts = CompileOptions {
            target: Target::StencilCpu,
            ..Default::default()
        };
        let mut compiled = Compiler::compile(&source, &opts).unwrap();
        let reference: Vec<u64> = compiled
            .run()
            .expect("default run")
            .array("r")
            .expect("r array")
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let plans = [
            ExecPlan::default(),
            ExecPlan { tiles: vec![3, 3], unroll: 4 },
            ExecPlan { tiles: vec![1 << 20, 1 << 20], unroll: 4 },
        ];
        for path in [ExecPath::Jit, ExecPath::FusedVm, ExecPath::GenericVm] {
            for plan in &plans {
                let got = run_forced(&mut compiled, path, plan, "r");
                prop_assert_eq!(
                    &got, &reference,
                    "{} with plan {} diverged bitwise", path, plan.describe()
                );
            }
        }
    }

    /// Same contract on random 3-D stencils (smaller extents: the sweep
    /// is cubic in n and runs nine tier×plan combinations per case).
    #[test]
    fn jit_tier_bit_identical_on_random_3d_stencils(
        terms in prop::collection::vec(term3(), 1..5),
        n in 0usize..6,
    ) {
        use flang_stencil::exec::{ExecPath, ExecPlan};
        let source = program_3d(&terms, n);
        let opts = CompileOptions {
            target: Target::StencilCpu,
            ..Default::default()
        };
        let mut compiled = Compiler::compile(&source, &opts).unwrap();
        let reference: Vec<u64> = compiled
            .run()
            .expect("default run")
            .array("r")
            .expect("r array")
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let plans = [
            ExecPlan::default(),
            ExecPlan { tiles: vec![2, 2, 2], unroll: 2 },
            ExecPlan { tiles: vec![1 << 20, 1 << 20, 1 << 20], unroll: 4 },
        ];
        for path in [ExecPath::Jit, ExecPath::FusedVm, ExecPath::GenericVm] {
            for plan in &plans {
                let got = run_forced(&mut compiled, path, plan, "r");
                prop_assert_eq!(
                    &got, &reference,
                    "{} with plan {} diverged bitwise", path, plan.describe()
                );
            }
        }
    }

    /// The swap-guarded Gauss–Seidel double-buffer — compute sweep plus
    /// copy-back inside an outer time loop — stays bit-identical across
    /// the jit and both VM tiers at tiny extents.
    #[test]
    fn jit_tier_bit_identical_on_swap_guarded_gs(
        n in 1usize..6,
        iters in 1usize..4,
    ) {
        use flang_stencil::exec::{ExecPath, ExecPlan};
        let source = gauss_seidel::fortran_source(n, iters);
        let opts = CompileOptions {
            target: Target::StencilCpu,
            ..Default::default()
        };
        let mut compiled = Compiler::compile(&source, &opts).unwrap();
        let reference: Vec<u64> = compiled
            .run()
            .expect("default run")
            .array("u")
            .expect("u array")
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for path in [ExecPath::Jit, ExecPath::FusedVm, ExecPath::GenericVm] {
            let got = run_forced(&mut compiled, path, &ExecPlan::default(), "u");
            prop_assert_eq!(&got, &reference, "{} diverged bitwise on GS", path);
        }
    }
}

proptest! {
    // Distributed fault-injection runs are much heavier than the pure
    // in-process tiers above; a handful of cases still sweeps both
    // workloads, all grid shapes and several worker counts across runs.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The two distributed substrates — thread-per-rank and the
    /// work-stealing cooperative scheduler — must be **bit**-identical on
    /// both paper workloads, across 1-D/2-D/3-D process grids, under an
    /// adversarial fault plan (drops + duplicates + corruption + delays +
    /// a rank crash) and arbitrary worker counts. The resilient transport
    /// masks every fault, so results cannot depend on which substrate
    /// multiplexed the rank bodies or which faults fired.
    #[test]
    fn coop_and_thread_substrates_bit_identical_under_faults(
        grid_idx in 0usize..4,
        use_gs in any::<bool>(),
        seed in any::<u64>(),
        workers in 1usize..4,
    ) {
        let grids: [&[i64]; 4] = [&[2], &[2, 2], &[2, 2, 2], &[4, 2]];
        let grid = grids[grid_idx].to_vec();
        let (source, arrays): (String, Vec<&str>) = if use_gs {
            (gauss_seidel::fortran_source(8, 2), vec!["u"])
        } else {
            (pw_advection::fortran_source(8), vec!["su", "sv", "sw"])
        };
        let plan = FaultPlan {
            drop_prob: 0.08,
            dup_prob: 0.05,
            corrupt_prob: 0.04,
            delay_prob: 0.03,
            max_delay_ms: 1,
            ..FaultPlan::none(seed)
        }
        .with_crash(1, 1);
        let mut runs: Vec<Vec<Vec<f64>>> = Vec::new();
        for mode in [DistMode::Threads, DistMode::Coop] {
            let opts = CompileOptions::for_target(Target::StencilDistributed {
                grid: grid.clone(),
            });
            let mut compiled = Compiler::compile(&source, &opts).unwrap();
            compiled.dist_options.mode = mode;
            compiled.dist_options.workers = workers;
            let exec = compiled.run_with_faults(plan.clone()).expect("faulted run");
            let d = exec.report.distributed.as_ref().expect("distributed report");
            prop_assert!(
                d.dispatches > 0,
                "{mode:?} grid={grid:?}: rank bodies must actually run"
            );
            prop_assert_eq!(
                d.scheduler, Some(mode),
                "report must attest the substrate that ran"
            );
            runs.push(
                arrays
                    .iter()
                    .map(|a| exec.array(a).expect("array").to_vec())
                    .collect(),
            );
        }
        for (name, (threaded, coop)) in
            arrays.iter().zip(runs[0].iter().zip(runs[1].iter()))
        {
            prop_assert_eq!(threaded.len(), coop.len());
            prop_assert!(
                threaded
                    .iter()
                    .zip(coop.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{} grid={:?} workers={}: coop diverged from thread-per-rank",
                name, grid, workers
            );
        }
    }
}
