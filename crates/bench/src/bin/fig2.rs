//! Figure 2: single-core throughput for Gauss–Seidel and PW advection at
//! three problem sizes, comparing Cray, Flang-only and the stencil flow,
//! then the Stencil ÷ Flang-only ratio of each benchmark taken apart.
//!
//! ```sh
//! cargo run --release -p fsc-bench --bin fig2 [-- sizes...]
//! ```

use fsc_bench::figures::{fig2, fig2_attribution};
use fsc_bench::{print_rows, Row};

fn main() {
    let sizes: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let sizes = if sizes.is_empty() {
        vec![24, 32, 48]
    } else {
        sizes
    };
    let rows = fig2(&sizes, 2, 7, Some(16));
    print_rows(
        "Figure 2: single-core performance (MCells/s, higher is better)",
        "size",
        &rows,
    );
    println!("\nStencil ÷ Flang only (measured):");
    for &n in &sizes {
        let x = format!("{n}^3");
        let ratio = |bench: &str| {
            get(&rows, &format!("{bench} / Stencil"), &x)
                / get(&rows, &format!("{bench} / Flang only"), &x)
        };
        println!("  {x:>6}: GS {:.1}x, PW {:.1}x", ratio("GS"), ratio("PW"));
    }

    let n = *sizes.last().unwrap();
    let parts = fig2_attribution(n, 2, 10);
    print_rows(
        "Figure 2 companion: where the Stencil ÷ Flang-only ratio comes from",
        "size",
        &parts,
    );
    let x = format!("{n}^3");
    for bench in ["GS", "PW"] {
        let flang = get(
            &parts,
            &format!("{bench} / Flang only: unfused, generic-vm"),
            &x,
        );
        let fused = get(&parts, &format!("{bench} / fused + CSE, generic-vm"), &x);
        let stencil = get(&parts, &format!("{bench} / Stencil, default tiers"), &x);
        println!(
            "  {bench}: {:.1}x = fusion + CSE {:.2}x · tier ladder {:.1}x",
            stencil / flang,
            fused / flang,
            stencil / fused
        );
    }
    println!(
        "\nThe Flang-only line is the unfused lift on the generic VM: discovery is inside it \
         (the same lifted loops), so its share of the paper's ratio is not measured here."
    );
    println!(
        "paper shape: Cray > Stencil > Flang-only; stencil/Flang gain larger for PW (~10x) than GS (~2x)"
    );
}

/// The MCells/s of `series` at `x`.
fn get(rows: &[Row], series: &str, x: &str) -> f64 {
    rows.iter()
        .find(|r| r.series == series && r.x == x)
        .map_or(f64::NAN, |r| r.mcells)
}
