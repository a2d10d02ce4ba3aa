//! Extension experiment (not a paper figure): multi-node GPU execution —
//! the paper's fifth further-work avenue, implemented. Sweeps GPU counts
//! for the Gauss–Seidel benchmark and prints modeled makespans
//! (per-device kernel+transfer time plus inter-GPU halo exchange).

use fsc_bench::{mcells_per_sec, print_rows, Row};
use fsc_core::{CompileOptions, Compiler, Target};
use fsc_workloads::gauss_seidel;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(32);
    let iters = 10usize;
    let source = gauss_seidel::fortran_source(n, iters);
    let cells = (n as u64).pow(3) * iters as u64;
    let mut rows = Vec::new();
    for grid in [vec![1i64], vec![2], vec![2, 2], vec![4, 2], vec![4, 4]] {
        let gpus: i64 = grid.iter().product();
        let exec = Compiler::run(
            &source,
            &CompileOptions {
                target: Target::StencilMultiGpu {
                    grid,
                    tile: [32, 32, 1],
                },
                ..Default::default()
            },
        )
        .expect("run");
        let total =
            exec.report.gpu_seconds.unwrap() + exec.report.distributed_seconds.unwrap_or(0.0);
        rows.push(Row::new(
            "GS / stencil multi-GPU",
            gpus,
            mcells_per_sec(cells, total),
        ));
    }
    print_rows(
        &format!("Extension: multi-node GPU Gauss-Seidel at {n}^3 (further work §6, avenue 5)"),
        "GPUs",
        &rows,
    );
    println!("\nexpected shape: device time shrinks with GPUs until halo exchange dominates");
}
