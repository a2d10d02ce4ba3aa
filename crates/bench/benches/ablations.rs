//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **fusion** — PW advection with `merge_stencils_if_possible` on vs off;
//! * **tile size** — the Listing 4 GPU tiling sensitivity (modeled time);
//! * **execution tier** — the same lowered kernels through each rung of
//!   the specialization ladder (native specialized loops, superinstruction
//!   VM, generic VM), plus the naive (Flang-model) runner and the op-by-op
//!   interpreter;
//! * **halo width** — DMP exchange cost as the stencil radius grows;
//! * **distributed overlap** — real rank bodies with the halo overlap
//!   schedule on vs off (blocking).
//!
//! ```sh
//! cargo bench -p fsc-bench --bench ablations
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fsc_core::{CompileOptions, Compiler, Target};
use fsc_exec::ExecPath;
use fsc_mpisim::{CostModel, ProcessGrid};
use fsc_workloads::{gauss_seidel, pw_advection};

const N: usize = 24;

fn ablation_fusion(c: &mut Criterion) {
    // Fused = the normal stencil path; unfused = the unoptimised tier's
    // discovery but with the *optimised* runner, isolating fusion itself.
    let mut g = c.benchmark_group("ablation_fusion");
    let source = pw_advection::fortran_source(N);
    let fused = Compiler::compile(
        &source,
        &CompileOptions {
            target: Target::StencilCpu,
            ..Default::default()
        },
    )
    .unwrap();
    g.bench_function("pw_fused", |b| b.iter(|| fused.run().unwrap()));
    // Unfused: compile via the unoptimised pipeline (no merge), then run
    // through the same dispatcher — kernel count differs.
    let unfused = {
        let mut fir = fsc_fortran::compile_to_fir(&source).unwrap();
        fsc_passes::pipelines::discovery_pipeline_unfused()
            .run(&mut fir)
            .unwrap();
        let mut st = fsc_passes::extract::extract_stencils(&mut fir).unwrap();
        fsc_passes::pipelines::cpu_pipeline()
            .unwrap()
            .run(&mut st)
            .unwrap();
        let mut kernels = std::collections::HashMap::new();
        for f in st.top_level_ops_named("func.func") {
            let name = fsc_dialects::func::FuncOp(f).name(&st);
            if name.starts_with("stencil_region_") {
                kernels.insert(
                    name.clone(),
                    fsc_exec::kernel::compile_kernel(&st, &name).unwrap(),
                );
            }
        }
        (fir, kernels)
    };
    g.bench_function("pw_unfused", |b| {
        b.iter(|| {
            use fsc_exec::interp::Interpreter;
            let dispatcher = fsc_core::KernelDispatcher::new(&unfused.1, &Target::StencilCpu);
            let mut interp = Interpreter::new(&unfused.0, dispatcher);
            interp.run_func("pw_advection", vec![]).unwrap();
        })
    });
    g.finish();
}

fn ablation_tiling(c: &mut Criterion) {
    // The GPU tile-size sensitivity of Listing 4: same kernel, different
    // thread-block shapes, modeled V100 time (reported as ns so criterion
    // has something to measure, the interesting output is printed once).
    let mut g = c.benchmark_group("ablation_gpu_tiling");
    let source = pw_advection::fortran_source(N);
    for tile in [[32i64, 32, 1], [16, 16, 1], [4, 4, 1], [1, 1, 1]] {
        let label = format!("{}x{}x{}", tile[0], tile[1], tile[2]);
        let compiled = Compiler::compile(
            &source,
            &CompileOptions {
                target: Target::StencilGpu {
                    explicit_data: true,
                    tile,
                },
                ..Default::default()
            },
        )
        .unwrap();
        let exec = compiled.run().unwrap();
        println!(
            "tile {label}: modeled {:.6}s on the V100",
            exec.report.gpu_seconds.unwrap()
        );
        g.bench_function(BenchmarkId::new("compile_and_model", label), |b| {
            b.iter(|| compiled.run().unwrap())
        });
    }
    g.finish();
}

fn ablation_cpu_tiling(c: &mut Criterion) {
    // CPU cache-blocking sensitivity: the same OpenMP-lowered Gauss–Seidel
    // kernels forced through a sweep of execution plans (the candidate
    // space the autotuner searches, plus a pathological one).
    use fsc_exec::plan::ExecPlan;
    use fsc_workloads::gauss_seidel;
    let mut g = c.benchmark_group("ablation_cpu_tiling");
    let source = gauss_seidel::fortran_source(N, 2);
    let plans = [
        ("unblocked", ExecPlan::default()),
        (
            "unblocked_u4",
            ExecPlan {
                unroll: 4,
                ..ExecPlan::default()
            },
        ),
        (
            "serial_slab_u4",
            ExecPlan {
                unroll: 4,
                slabs: 1,
                ..ExecPlan::default()
            },
        ),
        ("blocked_16", ExecPlan::from_ir_tiles(vec![0, 16, 16])),
        ("blocked_1x1x1", ExecPlan::from_ir_tiles(vec![1, 1, 1])),
    ];
    for (label, plan) in plans {
        let mut compiled = Compiler::compile(
            &source,
            &CompileOptions {
                target: Target::StencilOpenMp { threads: 8 },
                ..Default::default()
            },
        )
        .unwrap();
        for kernel in compiled.kernels.values_mut() {
            kernel.force_plan(&plan);
        }
        g.bench_function(BenchmarkId::new("gs", label), |b| {
            b.iter(|| compiled.run().unwrap())
        });
    }
    g.finish();
}

fn ablation_exec_tier(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_exec_tier");
    let source = pw_advection::fortran_source(N);
    // The stencil tier's own specialization ladder: native loops vs the
    // superinstruction VM vs the generic VM, all on the same compiled
    // kernels (forced per nest, so the gap is pure dispatch cost).
    for path in [
        ExecPath::Specialized,
        ExecPath::FusedVm,
        ExecPath::GenericVm,
    ] {
        let mut compiled = Compiler::compile(
            &source,
            &CompileOptions {
                target: Target::StencilCpu,
                ..Default::default()
            },
        )
        .unwrap();
        for kernel in compiled.kernels.values_mut() {
            kernel.force_exec_path(path);
        }
        g.bench_function(BenchmarkId::new("pw", path.to_string()), |b| {
            b.iter(|| compiled.run().unwrap())
        });
    }
    for (label, target) in [
        ("naive", Target::UnoptimizedCpu),
        ("interpreter", Target::FlangOnly),
    ] {
        let compiled = Compiler::compile(
            &source,
            &CompileOptions {
                target,
                ..Default::default()
            },
        )
        .unwrap();
        g.bench_function(BenchmarkId::new("pw", label), |b| {
            b.iter(|| compiled.run().unwrap())
        });
    }
    g.finish();
}

fn ablation_halo(c: &mut Criterion) {
    // Communication model cost vs halo width (not wall-clock-interesting,
    // but records the series the DMP design section discusses).
    let cost = CostModel::default();
    let grid = ProcessGrid::new(vec![128, 8]);
    for width in [1u64, 2, 4] {
        let t = cost.halo_exchange_time(512 * 512 * 8 * width, 4, cost.offnode_fraction(&grid));
        println!("halo width {width}: modeled exchange {t:.6}s");
    }
    let mut g = c.benchmark_group("ablation_halo_model");
    g.bench_function("exchange_time_eval", |b| {
        b.iter(|| cost.halo_exchange_time(512 * 512 * 8, 4, 0.5))
    });
    g.finish();
}

fn ablation_distributed_overlap(c: &mut Criterion) {
    // Real distributed execution on the MPI micro-sim: the same compiled
    // kernels on a 2x2 process grid, with `mpi-overlap-halos` on
    // (interior computed while faces are in flight) vs off (receive
    // everything, then compute). The gap is the hidden halo latency.
    let mut g = c.benchmark_group("distributed_overlap");
    let source = gauss_seidel::fortran_source(16, 2);
    for (label, overlap) in [("blocking", false), ("overlapped", true)] {
        let compiled = Compiler::compile(
            &source,
            &CompileOptions {
                target: Target::StencilDistributed { grid: vec![2, 2] },
                overlap_halos: overlap,
                ..Default::default()
            },
        )
        .unwrap();
        g.bench_function(BenchmarkId::new("gs", label), |b| {
            b.iter(|| compiled.run().unwrap())
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ablation_fusion, ablation_tiling, ablation_cpu_tiling, ablation_exec_tier, ablation_halo, ablation_distributed_overlap
}
criterion_main!(benches);
