//! Lock-free server metrics: counters, a queue-depth gauge and two
//! [`Log2Histogram`]s (request latency, queue wait).
//!
//! Everything is relaxed atomics — metrics must never contend with the
//! request path they are measuring. The loadgen additionally reports
//! exact client-side quantiles from its own samples.

use std::sync::atomic::AtomicU64;

use fsc_ir::hist::Log2Histogram;

/// The server's request-path counters. All monotonic except the
/// `queue_depth` gauge.
#[derive(Default)]
pub struct ServerMetrics {
    /// Requests admitted to the work queue.
    pub accepted: AtomicU64,
    /// Requests rejected by admission control (`E0801`).
    pub rejected: AtomicU64,
    /// Requests answered `ok:true`.
    pub completed: AtomicU64,
    /// Requests answered `ok:false` (compile/run errors — not rejections).
    pub failed: AtomicU64,
    /// Protocol errors answered `E0802`.
    pub protocol_errors: AtomicU64,
    /// Current work-queue depth (gauge).
    pub queue_depth: AtomicU64,
    /// Requests answered `E0803` by the watchdog (budget overrun), by a
    /// worker that found the job already expired at pick-up, or by the
    /// session layer for an expired parked follower.
    pub deadline_kills: AtomicU64,
    /// Worker threads that died by panic and were respawned (`E0804` went
    /// to the in-flight client, when there was one).
    pub worker_crashes: AtomicU64,
    /// Jobs whose worker finished after the watchdog or supervisor had
    /// already answered the client (the late response is discarded — the
    /// exactly-once guarantee).
    pub late_completions: AtomicU64,
    /// Request lines rejected for exceeding the frame cap (`E0802`).
    pub oversized_frames: AtomicU64,
    /// Connections closed for holding a partial frame past the idle
    /// deadline (slow-loris containment).
    pub idle_closes: AtomicU64,
    /// Response frames deliberately truncated by the chaos layer.
    pub truncated_writes: AtomicU64,
    /// Requests served under brownout (reduced rung).
    pub brownout_reduced_rung: AtomicU64,
    /// Current brownout level (gauge: 0 = normal, 1 = reduced-rung,
    /// 2 = rejecting — the rejections show up in `rejected`).
    pub brownout_level: AtomicU64,
    /// Worker threads detached (not joined) because `stop()` hit its hard
    /// timeout with a compile still in flight.
    pub detached_workers: AtomicU64,
    /// Queued jobs answered with a coded rejection during shutdown drain
    /// because no worker remained to run them.
    pub drain_flushed: AtomicU64,
    /// Requests rejected `E0806`: their memory estimate could not be
    /// reserved against the server budget even after squeeze + park.
    pub mem_rejected: AtomicU64,
    /// Requests that parked waiting for memory reservations to free up
    /// (whether or not they were eventually admitted).
    pub mem_parked: AtomicU64,
    /// Requests recompiled in their lean form (reduced rung) because
    /// their full-service estimate was denied reservation.
    pub mem_squeezes: AtomicU64,
    /// Runs that dispatched rank bodies on a distributed target.
    pub dist_runs: AtomicU64,
    /// Rank scheduler of the most recent distributed run (gauge:
    /// 0 = none yet, 1 = thread-per-rank, 2 = work-stealing coop).
    pub dist_scheduler: AtomicU64,
    /// Work-stealing events across all distributed runs.
    pub dist_steals: AtomicU64,
    /// Task parks (blocking halo recvs) across all distributed runs.
    pub dist_parks: AtomicU64,
    /// Logical halo messages rank bodies sent across all distributed runs.
    pub dist_logical_messages: AtomicU64,
    /// Wire envelopes those became after node-level aggregation (the
    /// `dist_aggregation_ratio` gauge is logical/physical).
    pub dist_physical_messages: AtomicU64,
    /// Deepest ghost band (`halo_depth`) any distributed run carried.
    pub dist_halo_depth: AtomicU64,
    /// Runs in which at least one nest executed on the native specialized
    /// tier (per-tier execution counts; a run touches every tier its
    /// nests attested).
    pub exec_specialized: AtomicU64,
    /// Runs attesting the stitched jit tier.
    pub exec_jit: AtomicU64,
    /// Runs attesting the superinstruction-fused VM tier.
    pub exec_fused_vm: AtomicU64,
    /// Runs attesting the generic bytecode VM tier.
    pub exec_generic_vm: AtomicU64,
    /// Time from admission to response written.
    pub latency: Log2Histogram,
    /// Time a request sat queued before a worker picked it up.
    pub queue_wait: Log2Histogram,
}

impl ServerMetrics {
    /// A zeroed metrics block.
    pub fn new() -> Self {
        Self::default()
    }
}
