//! Figure 6 companion: *executed* distributed Gauss–Seidel scaling.
//!
//! Where `fig6` projects ARCHER2-scale rates through the communication
//! model, this harness runs the distributed target for real: every rank is
//! a thread on the resilient MPI micro-sim, halos move as face messages,
//! and the reported time is the measured makespan attested in
//! [`RunReport::distributed`]. Three series per point:
//!
//! * `blocking`   — `mpi-overlap-halos` disabled (exchange, then compute)
//! * `overlapped` — the default schedule (interior computed in flight)
//! * `hand MPI`   — the hand-written rank-body baseline (`fsc-baselines`)
//!
//! `--smoke` runs the CI gate instead: a small 2×2-grid run that must be
//! bit-identical to single-rank serial with a non-zero attested overlap
//! fraction, exactly one scatter and one gather per rank, and the message
//! and byte ledgers its closed form predicts.

use fsc_baselines::mpi as hand_mpi;
use fsc_bench::{mcells_per_sec, measure, print_rows, Row};
use fsc_core::{CompileOptions, Compiler, DistributedReport, Execution, Target};
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

/// Run the distributed target, verify bit-identity against the serial
/// result, and return the best-of-`reps` distributed attestation.
fn run_distributed(
    n: usize,
    iters: usize,
    grid: &[i64],
    overlap: bool,
    reps: usize,
    serial_u: &[f64],
) -> DistributedReport {
    let source = gauss_seidel::fortran_source(n, iters);
    let opts = CompileOptions {
        target: Target::StencilDistributed {
            grid: grid.to_vec(),
        },
        overlap_halos: overlap,
        ..Default::default()
    };
    let mut best: Option<DistributedReport> = None;
    for _ in 0..reps {
        let exec = Compiler::run(&source, &opts).expect("distributed run failed");
        let u = exec.array("u").expect("u array");
        assert!(
            u.iter()
                .zip(serial_u)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "grid {grid:?} overlap={overlap}: result diverged from serial"
        );
        let d = exec
            .report
            .distributed
            .clone()
            .expect("distributed attestation");
        assert!(
            d.dispatches > 0,
            "grid {grid:?}: rank bodies did not run (modeled fallback)"
        );
        if best
            .as_ref()
            .map(|b| d.measured_seconds < b.measured_seconds)
            .unwrap_or(true)
        {
            best = Some(d);
        }
    }
    best.unwrap()
}

fn series(n: usize, iters: usize, grids: &[&[i64]], reps: usize, rows: &mut Vec<Row>) {
    let cells = (n as u64).pow(3) * iters as u64;
    let serial = run_serial(n, iters);
    let serial_u = serial.array("u").expect("u array").to_vec();
    for &grid in grids {
        let ranks: i64 = grid.iter().product();
        for (label, overlap) in [("blocking", false), ("overlapped", true)] {
            let d = run_distributed(n, iters, grid, overlap, reps, &serial_u);
            rows.push(Row::new(
                format!("GS {n}^3 / {label} (grid {grid:?})"),
                ranks,
                mcells_per_sec(cells, d.measured_seconds),
            ));
            if overlap {
                println!(
                    "  n={n} grid={grid:?}: overlap fraction {:.3}, {} msgs, {} B, model/measured {:.3}",
                    d.overlap_fraction(),
                    d.messages,
                    d.bytes_exchanged,
                    d.model_ratio()
                );
            }
        }
        let (t, _) = measure(reps, || hand_mpi::gs_run(n, iters, ranks as usize));
        rows.push(Row::new(
            format!("GS {n}^3 / hand MPI"),
            ranks,
            mcells_per_sec(cells, t.as_secs_f64()),
        ));
    }
}

fn smoke() {
    let (n, iters, grid) = (8usize, 2usize, vec![2i64, 2]);
    let serial = run_serial(n, iters);
    let serial_u = serial.array("u").expect("u array").to_vec();
    let d = run_distributed(n, iters, &grid, true, 1, &serial_u);
    // Overlap needs a rank's interior compute to run while its halo
    // messages are in flight. On a 1-worker pool rank bodies are strictly
    // serialised — a rank's peers only progress after it parks — so a zero
    // fraction is a property of the schedule, not a regression. Skip the
    // assertion there with the reason attested in the output; multi-worker
    // runs still enforce it.
    if d.workers > 1 {
        assert!(
            d.overlap_fraction() > 0.0,
            "smoke: overlap fraction not attested: {d:?}"
        );
    } else {
        println!(
            "smoke: overlap-fraction assertion skipped: single-worker pool \
             (workers = {}) serialises rank bodies, so no compute can overlap \
             in-flight halos",
            d.workers
        );
    }
    assert!(d.bytes_exchanged > 0, "smoke: no halo traffic: {d:?}");
    // Ranks stay resident across the run's dispatches: each rank's windows
    // are scattered once and gathered once, whatever the iteration count.
    assert_eq!(
        (d.scatters, d.gathers, d.resident_hits),
        (4, 4, 4 * (iters as u64 - 1)),
        "smoke: one scatter and one gather per rank per run: {d:?}"
    );
    // The ledger in closed form, so an envelope re-layout that changes a
    // counted length fails here. Per dispatch a rank sends each of its two
    // neighbours one face: (n+2) x its 4 owned cells. A face carries the
    // transport's two-word trailer (logical) and a 24-byte routing header
    // (physical); a retransmission adds whole physical envelopes.
    let (faces, face_bytes) = (4 * 2 * iters as u64, 8 * (n as u64 + 2) * 4);
    let ledger = (d.messages, d.bytes_exchanged, d.logical_messages);
    assert_eq!(ledger, (faces, faces * face_bytes, faces), "smoke: {d:?}");
    assert_eq!(d.logical_bytes, faces * (face_bytes + 16), "smoke: {d:?}");
    assert!(
        d.physical_messages >= faces
            && d.physical_bytes == d.physical_messages * (face_bytes + 16 + 24),
        "smoke: physical ledger: {d:?}"
    );
    println!(
        "distributed smoke PASS: GS {n}^3 on 2x2 grid bit-identical to serial, \
         overlap fraction {:.3}, {} halo bytes in {} messages",
        d.overlap_fraction(),
        d.bytes_exchanged,
        d.messages
    );
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let reps = 3;
    let mut rows = Vec::new();
    println!("strong scaling: fixed 24^3 global domain, growing process grid");
    series(24, 4, &[&[2], &[2, 2], &[4, 2]], reps, &mut rows);
    println!("weak scaling: ~1728 interior cells per rank");
    series(12, 4, &[&[1]], reps, &mut rows);
    series(24, 4, &[&[2, 2, 2]], reps, &mut rows);
    print_rows(
        "Figure 6 companion: executed distributed Gauss-Seidel (measured rank bodies)",
        "ranks",
        &rows,
    );
    println!("\nevery row verified bit-identical to the single-rank serial result");
    println!("overlapped >= blocking throughput expected (interior hides the halo wait)");
}
