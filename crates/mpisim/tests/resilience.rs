//! Integration tests for the fault-injected resilient transport: seeded
//! fault plans must never change the computed answer, crashes must restore
//! and replay deterministically, and no configuration may hang forever.

use std::time::Duration;

use fsc_mpisim::fault::FaultPlan;
use fsc_mpisim::resilient::{run_resilient, ResilientConfig, ResilientCtx};
use fsc_mpisim::MpiSimError;
use proptest::prelude::*;

/// A small halo-exchange workload: each rank holds `elems` values and
/// repeatedly averages against both neighbours — the same communication
/// shape as a distributed stencil sweep, tiny enough to run many seeds.
fn halo_body(
    ctx: &mut ResilientCtx,
    elems: usize,
    iters: usize,
    ckpt: usize,
) -> Result<Vec<f64>, MpiSimError> {
    let (rank, size) = (ctx.rank(), ctx.size());
    let mut field: Vec<f64> = (0..elems)
        .map(|i| (rank * elems + i) as f64 * 0.25 + 1.0)
        .collect();
    let mut it = 0usize;
    while it < iters {
        if ckpt > 0 && it.is_multiple_of(ckpt) {
            ctx.save_checkpoint(it, || vec![field.clone()]);
        }
        if ctx.crash_pending(it) {
            let (restored, state) = ctx.crash_and_restore(it)?;
            it = restored;
            field = state.into_iter().next().expect("checkpointed field");
            continue;
        }
        if rank > 0 {
            ctx.send(rank - 1, 0, field.clone())?;
        }
        if rank + 1 < size {
            ctx.send(rank + 1, 1, field.clone())?;
        }
        if rank > 0 {
            let left = ctx.recv(rank - 1, 1)?;
            for (a, b) in field.iter_mut().zip(&left) {
                *a = 0.5 * (*a + *b);
            }
        }
        if rank + 1 < size {
            let right = ctx.recv(rank + 1, 0)?;
            for (a, b) in field.iter_mut().zip(&right) {
                *a = 0.5 * (*a + *b);
            }
        }
        ctx.barrier()?;
        it += 1;
    }
    Ok(field)
}

fn run_plan(
    ranks: usize,
    iters: usize,
    plan: FaultPlan,
    cfg: ResilientConfig,
) -> Vec<(Vec<f64>, fsc_mpisim::fault::FaultStats)> {
    run_resilient(ranks, plan, cfg, move |ctx| {
        halo_body(ctx, 16, iters, cfg.checkpoint_interval)
    })
    .expect("resilient run must complete")
}

fn bits(fields: &[(Vec<f64>, fsc_mpisim::fault::FaultStats)]) -> Vec<Vec<u64>> {
    fields
        .iter()
        .map(|(f, _)| f.iter().map(|x| x.to_bits()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any seeded lossy plan (drops, duplicates, delays, reorders — no
    /// crash) converges bit-identically to the fault-free run.
    #[test]
    fn lossy_plans_converge_bit_identically(
        seed in 0u64..1_000_000,
        drop_pm in 0u64..120,
        dup_pm in 0u64..80,
        delay_pm in 0u64..80,
        reorder_pm in 0u64..80,
        ranks in 2usize..5,
        iters in 2usize..6,
    ) {
        let mut plan = FaultPlan::none(seed);
        plan.drop_prob = drop_pm as f64 / 1000.0;
        plan.dup_prob = dup_pm as f64 / 1000.0;
        plan.delay_prob = delay_pm as f64 / 1000.0;
        plan.max_delay_ms = 2;
        plan.reorder_prob = reorder_pm as f64 / 1000.0;
        let cfg = ResilientConfig::default();
        let faulty = run_plan(ranks, iters, plan, cfg);
        let clean = run_plan(ranks, iters, FaultPlan::none(seed), cfg);
        prop_assert_eq!(bits(&faulty), bits(&clean));
        // A dropped *data* message must be retransmitted for its receiver
        // to progress; only a final ack lost at shutdown can go unretried
        // (the closed channel acknowledges it), so sustained drop rates
        // must show retry traffic.
        let total: u64 = faulty.iter().map(|(_, s)| s.injected_drops).sum();
        let retried: u64 = faulty.iter().map(|(_, s)| s.retries).sum();
        if total > ranks as u64 {
            prop_assert!(retried > 0, "{total} drops with no retransmits");
        }
    }
}

/// A deterministic crash at iteration k restores from the latest
/// checkpoint, replays the gap, and finishes bit-identical to a
/// fault-free run — with the recovery attested in the stats.
#[test]
fn crash_at_k_restores_and_replays_deterministically() {
    let cfg = ResilientConfig {
        checkpoint_interval: 2,
        ..Default::default()
    };
    let plan = FaultPlan::lossy(77, 0.05).with_crash(1, 5);
    let faulty = run_plan(3, 8, plan, cfg);
    let clean = run_plan(3, 8, FaultPlan::none(77), cfg);
    assert_eq!(bits(&faulty), bits(&clean), "recovery must be bit-exact");
    let victim = &faulty[1].1;
    assert_eq!(victim.injected_crashes, 1);
    assert_eq!(victim.restores, 1);
    // Crash at 5 with checkpoints at 0/2/4 replays exactly iteration 4.
    assert_eq!(victim.replayed_iterations, 1);
    assert!(victim.checkpoints >= 3);
    // Repeating the identical plan reproduces the identical answer with
    // the identical recovery shape (retry counts may differ — timers race
    // real scheduling — but the injected faults and replay do not).
    let again = run_plan(3, 8, FaultPlan::lossy(77, 0.05).with_crash(1, 5), cfg);
    assert_eq!(bits(&again), bits(&faulty));
    assert_eq!(again[1].1.injected_crashes, 1);
    assert_eq!(again[1].1.replayed_iterations, 1);
}

/// Mismatched tags on the resilient transport surface as a structured
/// deadlock/timeout naming the stuck ranks — never an infinite hang.
#[test]
fn mismatched_resilient_tags_cannot_hang() {
    let cfg = ResilientConfig {
        recv_deadline: Duration::from_secs(2),
        ..ResilientConfig::default()
    };
    let err = run_resilient(2, FaultPlan::none(0), cfg, move |ctx| {
        let peer = 1 - ctx.rank();
        ctx.send(peer, 3, vec![1.0])?;
        // Both ranks wait on a tag nobody sends.
        ctx.recv(peer, 4).map(|_| ())
    })
    .expect_err("mismatched tags must fail, not hang");
    match err {
        MpiSimError::Deadlock { ref blocked } => {
            assert!(!blocked.is_empty(), "deadlock must name stuck ranks")
        }
        MpiSimError::Timeout { .. } | MpiSimError::Poisoned { .. } => {}
        other => panic!("unexpected error: {other}"),
    }
}

/// A rank that crashes with no checkpoint configured is a structured
/// config error, not a hang or a wrong answer.
#[test]
fn crash_without_checkpoints_is_rejected() {
    let cfg = ResilientConfig {
        checkpoint_interval: 0,
        ..Default::default()
    };
    let err = run_resilient(2, FaultPlan::none(0).with_crash(0, 1), cfg, move |ctx| {
        halo_body(ctx, 4, 3, 0)
    })
    .expect_err("crash without checkpoints must be rejected");
    assert!(
        matches!(
            err,
            MpiSimError::InvalidConfig(_) | MpiSimError::Poisoned { .. }
        ),
        "got: {err}"
    );
}
