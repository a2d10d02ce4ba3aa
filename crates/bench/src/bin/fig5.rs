//! Figure 5: V100 GPU throughput (log scale in the paper) for both
//! benchmarks across sizes — OpenACC/Nvidia vs the stencil flow with the
//! initial (host_register) and optimised (explicit) data strategies — plus
//! Listing 4's thread-block tile sweep on PW at the largest size.

use fsc_bench::figures::{fig5, fig5_tile_sweep};
use fsc_bench::print_rows;

fn main() {
    let sizes: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let sizes = if sizes.is_empty() {
        vec![32, 48, 64]
    } else {
        sizes
    };
    let rows = fig5(&sizes, 10);
    print_rows(
        "Figure 5: V100 throughput (modeled; kernels executed for correctness)",
        "size",
        &rows,
    );
    let tiles = [[32, 32, 1], [16, 16, 1], [8, 8, 1], [4, 4, 1], [1, 1, 1]];
    let sweep = fig5_tile_sweep(*sizes.last().unwrap(), 10, &tiles);
    print_rows(
        "Figure 5 companion: Listing 4 tile sizes, PW with optimised data (modeled)",
        "tile",
        &sweep,
    );
    println!("\npaper shape: optimised-data >> host_register; optimised beats OpenACC on PW and is competitive on GS");
}
