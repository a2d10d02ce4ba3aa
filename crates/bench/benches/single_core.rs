//! Criterion micro-benchmarks behind Figure 2: single-core execution of
//! both workloads on each tier at a fixed size.
//!
//! ```sh
//! cargo bench -p fsc-bench --bench single_core
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fsc_baselines::cray;
use fsc_core::{CompileOptions, Compiler, Target};
use fsc_workloads::{gauss_seidel, pw_advection};

const N: usize = 24;
const ITERS: usize = 2;

fn bench_gs(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2_gauss_seidel");
    let source = gauss_seidel::fortran_source(N, ITERS);
    g.bench_function(BenchmarkId::new("cray", N), |b| {
        b.iter(|| cray::gs_run(N, ITERS))
    });
    let flang = Compiler::compile(
        &source,
        &CompileOptions {
            target: Target::UnoptimizedCpu,
            ..Default::default()
        },
    )
    .unwrap();
    g.bench_function(BenchmarkId::new("flang_only", N), |b| {
        b.iter(|| flang.run().unwrap())
    });
    let stencil = Compiler::compile(
        &source,
        &CompileOptions {
            target: Target::StencilCpu,
            ..Default::default()
        },
    )
    .unwrap();
    g.bench_function(BenchmarkId::new("stencil", N), |b| {
        b.iter(|| stencil.run().unwrap())
    });
    g.finish();
}

fn bench_pw(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2_pw_advection");
    let source = pw_advection::fortran_source(N);
    let (u, v, w) = pw_advection::initial_fields(N);
    g.bench_function(BenchmarkId::new("cray", N), |b| {
        b.iter(|| cray::pw_run(&u, &v, &w))
    });
    let flang = Compiler::compile(
        &source,
        &CompileOptions {
            target: Target::UnoptimizedCpu,
            ..Default::default()
        },
    )
    .unwrap();
    g.bench_function(BenchmarkId::new("flang_only", N), |b| {
        b.iter(|| flang.run().unwrap())
    });
    let stencil = Compiler::compile(
        &source,
        &CompileOptions {
            target: Target::StencilCpu,
            ..Default::default()
        },
    )
    .unwrap();
    g.bench_function(BenchmarkId::new("stencil", N), |b| {
        b.iter(|| stencil.run().unwrap())
    });
    g.finish();
}

fn bench_compilation(c: &mut Criterion) {
    // Not a paper figure, but a useful regression guard: the whole
    // frontend + discovery + extraction + lowering + kernel compile.
    let mut g = c.benchmark_group("compile_pipeline");
    let source = gauss_seidel::fortran_source(16, 2);
    g.bench_function("gs_16_full_pipeline", |b| {
        b.iter(|| {
            Compiler::compile(
                &source,
                &CompileOptions {
                    target: Target::StencilCpu,
                    ..Default::default()
                },
            )
            .unwrap()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_gs, bench_pw, bench_compilation
}
criterion_main!(benches);
