//! Automatic distributed-memory parallelisation of the unchanged serial
//! Gauss–Seidel source (Figure 6's configuration), validated against the
//! hand-written MPI baseline running real message passing.
//!
//! ```sh
//! cargo run --release --example distributed_gs [n] [iters]
//! ```

use flang_stencil::baselines::mpi as hand_mpi;
use flang_stencil::core::{CompileOptions, Compiler, Target};
use flang_stencil::mpisim::{CostModel, ProcessGrid};
use flang_stencil::workloads::gauss_seidel;
use flang_stencil::workloads::verify::assert_fields_match;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(32);
    let iters: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);
    println!("Distributed Gauss–Seidel {n}³, {iters} iterations\n");

    // Auto-parallelised: serial source + DMP/MPI lowering, 2-D grid.
    let source = gauss_seidel::fortran_source(n, iters);
    let opts = CompileOptions {
        target: Target::StencilDistributed { grid: vec![2, 2] },
        ..Default::default()
    };
    let exec = Compiler::run(&source, &opts).expect("run");
    println!(
        "auto-parallelised over {} ranks: modeled {:.5}s/run",
        exec.report.ranks.unwrap(),
        exec.report.distributed_seconds.unwrap()
    );

    // Hand-written MPI with real message passing on the rank runtime.
    let hand = hand_mpi::gs_run(n, iters, 4);
    let reference = gauss_seidel::reference(n, iters);
    assert_fields_match(exec.array("u").unwrap(), &reference.data, 1e-12, "auto");
    assert_fields_match(&hand.data, &reference.data, 1e-12, "hand mpi");
    println!("both paths verified against the serial reference ✓\n");

    // Scaling estimate for ARCHER2 node counts (the Figure 6 sweep).
    println!("modeled strong scaling (17B-cell class, per-cell rate 1 ns):");
    let cost = CostModel::default();
    for nodes in [1i64, 2, 4, 8, 16, 32, 64] {
        let ranks = nodes * 128;
        let grid = ProcessGrid::new(vec![128, nodes]);
        let t = hand_mpi::modeled_iteration_time(2048, &grid, &cost, 1e-9);
        let mcells = 2048f64.powi(3) / t / 1e6;
        println!("  {nodes:3} nodes ({ranks:5} ranks): {mcells:10.0} MCells/s");
    }
}
