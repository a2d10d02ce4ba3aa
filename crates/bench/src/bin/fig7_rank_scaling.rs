//! Figure 7: distributed execution at thousands of *measured* virtual
//! ranks on the work-stealing cooperative scheduler.
//!
//! Four experiments, every point verified bit-identical to single-rank
//! serial and attested `measured` (never the analytic model):
//!
//! * **strong scaling** — fixed 32³ Gauss–Seidel domain, process grids
//!   from 512 to 4096 ranks;
//! * **weak scaling**   — ~64 interior cells per rank, 64 to 4096 ranks;
//! * **aggregation ablation** — a 64×64 rank grid with 64-rank nodes:
//!   hierarchical node-level aggregation coalesces the 64 same-edge halo
//!   messages of a grid row into one envelope (logical/physical ≥ 2×);
//! * **deep-halo ablation** — `halo_depth = k` exchanges a k-wide ghost
//!   band once and runs k−1 sweeps communication-free; exchange rounds
//!   drop ∝ 1/k at bit-identical results.
//!
//! `--smoke` runs the CI gate instead: 1024 virtual ranks over a small
//! forced worker pool, bit-identity, non-zero steals, wall under budget.
//!
//! `--ranks N [--workers W] [--halo-depth K]` runs one custom point:
//! N virtual ranks (power of two, ≤ 8192) over a W-worker pool. With
//! `K ≥ 2` the ranks lie on a 1-D grid (deep halos need a single
//! decomposed dimension) and N must divide the 64³ domain's slowest
//! extent.

use std::time::Instant;

use fsc_bench::{mcells_per_sec, print_rows, Row};
use fsc_core::{CompileOptions, Compiler, DistProvenance, DistributedReport, Execution, Target};
use fsc_workloads::gauss_seidel;

fn run_serial(n: usize, iters: usize) -> Execution {
    let source = gauss_seidel::fortran_source(n, iters);
    Compiler::run(
        &source,
        &CompileOptions {
            target: Target::StencilCpu,
            ..Default::default()
        },
    )
    .expect("serial run failed")
}

/// One measured distributed run: verify bit-identity against serial,
/// require `measured` provenance, return the attestation.
fn run_ranks(
    n: usize,
    iters: usize,
    grid: &[i64],
    serial_u: &[f64],
    tweak: impl FnOnce(&mut CompileOptions),
) -> DistributedReport {
    let source = gauss_seidel::fortran_source(n, iters);
    let mut opts = CompileOptions {
        target: Target::StencilDistributed {
            grid: grid.to_vec(),
        },
        ..Default::default()
    };
    tweak(&mut opts);
    let exec = Compiler::run(&source, &opts).expect("distributed run failed");
    let u = exec.array("u").expect("u array");
    assert!(
        u.iter()
            .zip(serial_u)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "grid {grid:?}: result diverged from single-rank serial"
    );
    let d = exec
        .report
        .distributed
        .clone()
        .expect("distributed attestation");
    assert_eq!(
        d.provenance,
        Some(DistProvenance::Measured),
        "grid {grid:?}: rank bodies fell back to the cost model"
    );
    assert_eq!(d.modeled_dispatches, 0, "grid {grid:?}: modeled dispatches");
    d
}

fn scaling_series(rows: &mut Vec<Row>) {
    println!("strong scaling: fixed 32^3 global domain, 512 -> 4096 virtual ranks");
    let (n, iters) = (32usize, 2usize);
    let cells = (n as u64).pow(3) * iters as u64;
    let serial_u = run_serial(n, iters).array("u").unwrap().to_vec();
    for grid in [
        vec![8i64, 8, 8],
        vec![16, 8, 8],
        vec![16, 16, 8],
        vec![16, 16, 16],
    ] {
        let ranks: i64 = grid.iter().product();
        let d = run_ranks(n, iters, &grid, &serial_u, |_| {});
        println!(
            "  {ranks:>5} ranks: {:.3}s makespan, {} workers, {} steals, {} parks",
            d.measured_seconds, d.workers, d.steals, d.parks
        );
        rows.push(Row::new(
            format!("GS {n}^3 strong (grid {grid:?})"),
            ranks,
            mcells_per_sec(cells, d.measured_seconds),
        ));
    }

    println!("weak scaling: ~64 interior cells per rank, 64 -> 4096 virtual ranks");
    for (n, grid) in [
        (16usize, vec![4i64, 4, 4]),
        (32, vec![8, 8, 8]),
        (64, vec![16, 16, 16]),
    ] {
        let ranks: i64 = grid.iter().product();
        let cells = (n as u64).pow(3) * iters as u64;
        let serial_u = run_serial(n, iters).array("u").unwrap().to_vec();
        let d = run_ranks(n, iters, &grid, &serial_u, |_| {});
        println!(
            "  {ranks:>5} ranks (n={n}): {:.3}s makespan, {} steals",
            d.measured_seconds, d.steals
        );
        rows.push(Row::new(
            format!("GS {n}^3 weak"),
            ranks,
            mcells_per_sec(cells, d.measured_seconds),
        ));
    }
}

fn aggregation_ablation() {
    println!("\naggregation ablation: GS 64^3 on a 64x64 rank grid, 64-rank nodes");
    let (n, iters) = (64usize, 2usize);
    let grid = vec![64i64, 64];
    let serial_u = run_serial(n, iters).array("u").unwrap().to_vec();
    let flat = run_ranks(n, iters, &grid, &serial_u, |o| o.dist_node_size = 0);
    let hier = run_ranks(n, iters, &grid, &serial_u, |o| o.dist_node_size = 64);
    println!(
        "  flat (node=rank):   {:>7} logical msgs -> {:>7} envelopes ({:.2}x), {} wire B",
        flat.logical_messages,
        flat.physical_messages,
        flat.aggregation_ratio(),
        flat.physical_bytes
    );
    println!(
        "  hierarchical (64/node): {:>7} logical msgs -> {:>3} envelopes ({:.2}x), {} wire B",
        hier.logical_messages,
        hier.physical_messages,
        hier.aggregation_ratio(),
        hier.physical_bytes
    );
    assert_eq!(
        hier.logical_messages, flat.logical_messages,
        "aggregation must not change what ranks logically send"
    );
    assert!(
        hier.aggregation_ratio() >= 2.0,
        "node-level aggregation must at least halve the attested message \
         count, got {:.2}x",
        hier.aggregation_ratio()
    );
}

fn deep_halo_ablation() {
    println!("\ndeep-halo ablation: GS 64^3 on 16 ranks (1-D), halo depth 1/2/3");
    let (n, iters) = (64usize, 6usize);
    let grid = vec![16i64];
    let serial_u = run_serial(n, iters).array("u").unwrap().to_vec();
    let mut rounds = Vec::new();
    for depth in [1u32, 2, 3] {
        let d = run_ranks(n, iters, &grid, &serial_u, |o| o.halo_depth = depth);
        println!(
            "  depth {depth}: {:>2} exchange rounds, {:>6} msgs, {:>9} B, {:.3}s",
            d.exchange_rounds, d.messages, d.bytes_exchanged, d.measured_seconds
        );
        assert_eq!(d.halo_depth, depth, "depth must be attested");
        rounds.push(d.exchange_rounds);
    }
    // Depth k exchanges on ceil(iters/k) of the sweep dispatches.
    assert!(
        rounds[1] < rounds[0] && rounds[2] < rounds[1],
        "exchange rounds must drop with depth: {rounds:?}"
    );
    assert!(
        rounds[0] >= 2 * rounds[1],
        "depth 2 must halve the exchange rounds: {rounds:?}"
    );
}

/// CI gate: 1024 virtual ranks on a small forced worker pool must run
/// measured, steal, match serial bit-for-bit, and finish within budget.
fn smoke() {
    const WALL_BUDGET_SECS: f64 = 120.0;
    let (n, iters) = (16usize, 2usize);
    let grid = vec![16i64, 8, 8];
    let t0 = Instant::now();
    let serial_u = run_serial(n, iters).array("u").unwrap().to_vec();
    let d = run_ranks(n, iters, &grid, &serial_u, |o| o.dist_workers = 4);
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(d.ranks, 1024);
    assert_eq!(d.workers, 4, "smoke forces a 4-worker pool");
    assert!(d.steals > 0, "1024 ranks over 4 workers must steal: {d:?}");
    assert!(
        wall < WALL_BUDGET_SECS,
        "scaling smoke blew its {WALL_BUDGET_SECS}s budget: {wall:.1}s"
    );
    println!(
        "scaling smoke PASS: GS {n}^3 on 1024 virtual ranks bit-identical to \
         serial, measured provenance, {} steals, {} parks, {wall:.1}s wall",
        d.steals, d.parks
    );
}

/// One user-chosen point: `--ranks N [--workers W] [--halo-depth K]`.
/// Same oracle as every other point — bit-identity and measured
/// provenance are asserted inside `run_ranks`.
fn custom(ranks: usize, workers: usize, depth: u32) {
    assert!(
        ranks.is_power_of_two() && (2..=8192).contains(&ranks),
        "--ranks must be a power of two in 2..=8192, got {ranks}"
    );
    let (n, iters, grid) = if depth >= 2 {
        // Deep halos require a single decomposed dimension, so the ranks
        // form a 1-D grid along the 64-cell slowest extent.
        assert!(
            64 % ranks == 0 && 64 / ranks >= depth as usize,
            "--halo-depth {depth} needs --ranks dividing 64 with at least \
             {depth} cells per rank, got {ranks}"
        );
        (64usize, 6usize, vec![ranks as i64])
    } else {
        // Factor the rank count into up to three power-of-two extents
        // that each divide the 32-cell domain.
        let mut grid = Vec::new();
        let mut left = ranks;
        while left > 1 {
            let f = left.min(32);
            grid.push(f as i64);
            left /= f;
        }
        (32usize, 2usize, grid)
    };
    println!(
        "custom point: GS {n}^3, grid {grid:?}, workers {}, halo depth {depth}",
        if workers == 0 {
            "auto".into()
        } else {
            workers.to_string()
        }
    );
    let serial_u = run_serial(n, iters).array("u").unwrap().to_vec();
    let d = run_ranks(n, iters, &grid, &serial_u, |o| {
        o.dist_workers = workers;
        o.halo_depth = depth;
    });
    println!(
        "  {} ranks on {} workers: {:.3}s makespan, {} steals, {} parks",
        d.ranks, d.workers, d.measured_seconds, d.steals, d.parks
    );
    println!(
        "  halo depth {}: {} exchange rounds, {} logical msgs -> {} envelopes \
         ({:.2}x), bit-identical to serial",
        d.halo_depth,
        d.exchange_rounds,
        d.logical_messages,
        d.physical_messages,
        d.aggregation_ratio()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("bad {name} value: {v}"))
            })
    };
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    if let Some(ranks) = flag("--ranks") {
        custom(
            ranks,
            flag("--workers").unwrap_or(0),
            flag("--halo-depth").unwrap_or(1) as u32,
        );
        return;
    }
    let mut rows = Vec::new();
    scaling_series(&mut rows);
    print_rows(
        "Figure 7: rank scaling on the work-stealing cooperative scheduler",
        "ranks",
        &rows,
    );
    aggregation_ablation();
    deep_halo_ablation();
    println!("\nevery point verified bit-identical to the single-rank serial result");
    println!("provenance attested `measured` at every rank count (no model fallback)");
}
