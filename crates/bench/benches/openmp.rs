//! Criterion benchmarks behind Figures 3–4: multithreaded execution of the
//! auto-parallelised stencil path vs the hand-written baselines, both on
//! the same thread count. (Thread counts above the machine's core count
//! time-share; the figures' scaling series additionally use the documented
//! node model.)
//!
//! ```sh
//! cargo bench -p fsc-bench --bench openmp
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fsc_baselines::openmp as hand;
use fsc_core::{CompileOptions, Compiler, Target};
use fsc_workloads::{gauss_seidel, pw_advection};

const N: usize = 24;
const ITERS: usize = 2;

fn bench_gs_threads(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3_gs_openmp");
    for threads in [1u32, 2, 4] {
        let source = gauss_seidel::fortran_source(N, ITERS);
        let compiled = Compiler::compile(
            &source,
            &CompileOptions {
                target: Target::StencilOpenMp { threads },
                ..Default::default()
            },
        )
        .unwrap();
        g.bench_function(BenchmarkId::new("stencil_auto", threads), |b| {
            b.iter(|| compiled.run().unwrap())
        });
        g.bench_function(BenchmarkId::new("hand_openmp", threads), |b| {
            b.iter(|| hand::gs_run(N, ITERS, threads as usize))
        });
    }
    g.finish();
}

fn bench_pw_threads(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_pw_openmp");
    let (u, v, w) = pw_advection::initial_fields(N);
    for threads in [1u32, 4] {
        let source = pw_advection::fortran_source(N);
        let compiled = Compiler::compile(
            &source,
            &CompileOptions {
                target: Target::StencilOpenMp { threads },
                ..Default::default()
            },
        )
        .unwrap();
        g.bench_function(BenchmarkId::new("stencil_auto", threads), |b| {
            b.iter(|| compiled.run().unwrap())
        });
        g.bench_function(BenchmarkId::new("hand_openmp", threads), |b| {
            b.iter(|| hand::pw_run(&u, &v, &w, threads as usize))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_gs_threads, bench_pw_threads
}
criterion_main!(benches);
