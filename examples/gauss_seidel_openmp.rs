//! The Gauss–Seidel benchmark with automatic OpenMP parallelisation
//! (Figure 3's configuration): unchanged serial Fortran in, multithreaded
//! execution out — compared against the hand-written OpenMP baseline on
//! the same number of worker threads (`0` = every core, for both).
//!
//! ```sh
//! cargo run --release --example gauss_seidel_openmp [n] [iters] [threads]
//! ```

use std::time::Instant;

use flang_stencil::baselines::openmp as hand_openmp;
use flang_stencil::core::{CompileOptions, Compiler, Target};
use flang_stencil::workloads::gauss_seidel;
use flang_stencil::workloads::verify::assert_fields_match;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(48);
    let iters: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let threads: usize = match args.next().and_then(|a| a.parse().ok()).unwrap_or(4) {
        0 => flang_stencil::ir::par::available_threads(),
        t => t,
    };
    let cells = (n * n * n * iters) as f64;

    println!("Gauss–Seidel {n}³, {iters} iterations, {threads} threads\n");

    // Automatic parallelisation: the same serial source, OpenMP target.
    let source = gauss_seidel::fortran_source(n, iters);
    let opts = CompileOptions {
        target: Target::StencilOpenMp {
            threads: threads as u32,
        },
        ..Default::default()
    };
    let compiled = Compiler::compile(&source, &opts).expect("compile");
    let exec = compiled.run().expect("run");
    let auto = exec.report.kernel_wall.as_secs_f64();
    println!(
        "auto-parallelised stencil : {:8.1} MCells/s  ({auto:.4}s in kernels)",
        cells / auto / 1e6
    );

    // Hand-written OpenMP baseline (the programmer modified the code).
    let t0 = Instant::now();
    let hand = hand_openmp::gs_run(n, iters, threads);
    let hand_t = t0.elapsed().as_secs_f64();
    println!(
        "hand-written OpenMP       : {:8.1} MCells/s  ({hand_t:.4}s)",
        cells / hand_t / 1e6
    );

    // Same numbers either way.
    let reference = gauss_seidel::reference(n, iters);
    assert_fields_match(exec.array("u").unwrap(), &reference.data, 1e-12, "auto");
    assert_fields_match(&hand.data, &reference.data, 1e-12, "hand");
    println!("\nboth paths verified against the serial reference ✓");
}
