//! Fault-injected, self-healing distributed Gauss–Seidel: the same halo
//! exchanges as `distributed_gs`, but the messages travel through the
//! resilient transport while a seeded fault plan drops, duplicates,
//! delays and corrupts them — and crashes a rank mid-run. The final field
//! is bit-identical to the fault-free run, and the recovery is attested.
//!
//! ```sh
//! cargo run --release --example fault_tolerant_gs [n] [iters] [drop%]
//! ```

use flang_stencil::baselines::mpi as hand_mpi;
use flang_stencil::core::{CompileOptions, Compiler, Target};
use flang_stencil::mpisim::fault::FaultPlan;
use flang_stencil::mpisim::resilient::ResilientConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(24);
    let iters: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let drop_pct: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(8.0);
    let ranks = 4;
    println!("Fault-tolerant distributed Gauss–Seidel {n}³, {iters} iterations, {ranks} ranks\n");

    // The adversary: seeded, deterministic message faults plus a fail-stop
    // crash of rank 2 at iteration `iters/2`.
    let mut plan = FaultPlan::lossy(2024, drop_pct / 100.0);
    plan.corrupt_prob = 0.02;
    plan.delay_prob = 0.05;
    plan.max_delay_ms = 3;
    let plan = plan.with_crash(2, iters / 2);
    let cfg = ResilientConfig {
        checkpoint_interval: 2,
        ..Default::default()
    };
    println!(
        "fault plan: {:.0}% drop, {:.0}% dup, {:.0}% corrupt, {:.0}% delay, crash rank 2 @ iter {}",
        plan.drop_prob * 100.0,
        plan.dup_prob * 100.0,
        plan.corrupt_prob * 100.0,
        plan.delay_prob * 100.0,
        iters / 2
    );

    let clean = hand_mpi::gs_run(n, iters, ranks);
    let out = hand_mpi::gs_run_resilient(n, iters, ranks, plan, cfg).expect("resilient run");
    let identical = clean
        .data
        .iter()
        .zip(&out.grid.data)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(identical, "recovery must be bit-exact");
    println!("\nresult: bit-identical to the fault-free run ✓");

    let s = &out.stats;
    println!("\nattestation (all ranks):");
    println!("  data messages      {:>6}", s.data_msgs);
    println!("  acks               {:>6}", s.acks_sent);
    println!(
        "  injected faults    {:>6}  ({} drops, {} dups, {} corruptions, {} delays, {} reorders)",
        s.injected(),
        s.injected_drops,
        s.injected_dups,
        s.injected_corruptions,
        s.injected_delays,
        s.injected_reorders
    );
    println!("  retransmissions    {:>6}", s.retries);
    println!("  duplicates dropped {:>6}", s.duplicates_dropped);
    println!("  corruptions caught {:>6}", s.corruptions_detected);
    println!("  checkpoints        {:>6}", s.checkpoints);
    println!(
        "  crashes / restores {:>3} / {}",
        s.injected_crashes, s.restores
    );
    println!("  iterations replayed{:>6}", s.replayed_iterations);

    // The compiler's DMP auto path reports the same attestation surface.
    let source = flang_stencil::workloads::gauss_seidel::fortran_source(12, 2);
    let opts = CompileOptions {
        target: Target::StencilDistributed { grid: vec![2, 2] },
        ..Default::default()
    };
    let compiled = Compiler::compile(&source, &opts).expect("compile");
    let exec = compiled
        .run_with_faults(FaultPlan::lossy(7, 0.05).with_crash(1, 1))
        .expect("run with faults");
    let res = exec.report.resilience.expect("resilience report");
    println!(
        "\nDMP auto path (12³, 2 iters, faults injected): {} injected, {} retries, {} restores — \
         modeled {:.6}s/run",
        res.injected(),
        res.retries,
        res.restores,
        exec.report.distributed_seconds.unwrap()
    );
}
