//! Figure 6: distributed-memory Gauss–Seidel strong scaling on ARCHER2
//! (128 ranks/node, 2-D decomposition, 17-billion-cell-class global grid):
//! hand-parallelised MPI vs the automatic DMP→MPI lowering, plus the
//! modeled cost of one halo exchange as the halo widens.

use fsc_bench::figures::{fig6, fig6_halo_width};
use fsc_bench::print_rows;

fn main() {
    let nodes = [1i64, 2, 4, 8, 16, 32, 64];
    let rows = fig6(&nodes, 96, 2048);
    print_rows(
        "Figure 6: distributed Gauss-Seidel (measured per-cell rates + Slingshot model)",
        "nodes",
        &rows,
    );
    print_rows(
        "Figure 6 companion: one halo exchange, 512^2 face, 128x8 ranks (modeled; MCells/s of halo)",
        "halo",
        &fig6_halo_width(&[1, 2, 4]),
    );
    println!("(bandwidth-bound: one exchange takes time linear in the halo width)");
    println!("\npaper shape: hand version faster and scales better; automatic version still scales to 8192 ranks");
    println!("(64 nodes = 8192 ranks; the paper reports ~70,000 MCells/s for the automatic version there)");
}
