//! A functional MPI-like rank runtime: each rank is an OS thread, messages
//! travel over crossbeam channels, and a shared-state barrier provides
//! synchronisation. This is the substrate the hand-MPI baseline runs on —
//! real message passing, not shared arrays — so the auto-parallelised path
//! can be validated against a genuinely distributed implementation.
//!
//! **No blocking wait in this runtime can hang forever.** Every `recv` and
//! `barrier` carries a deadline, a shared watchdog converts an all-ranks-
//! blocked state into a structured [`MpiSimError::Deadlock`] naming the
//! stuck ranks and their pending tags, and a rank panic poisons the
//! communicator so the surviving ranks error out instead of waiting on a
//! barrier that can never fill.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Condvar, Mutex};

use crate::error::{BlockedRank, MpiSimError};

/// A tagged message between ranks.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending rank.
    pub from: usize,
    /// User tag.
    pub tag: i64,
    /// Payload.
    pub data: Vec<f64>,
}

/// How long every live rank must be blocked with no protocol progress
/// before a stall is reported as a deadlock — the one grace both rank
/// substrates use ([`RankConfig::default`] and the cooperative scheduler).
pub const DEADLOCK_GRACE: Duration = Duration::from_millis(250);

/// Deadlines and watchdog tuning for a rank group.
#[derive(Debug, Clone, Copy)]
pub struct RankConfig {
    /// Default deadline of a bare `recv` / `barrier` (generous: the happy
    /// path never comes near it, but a lost message surfaces as a
    /// diagnosable error instead of hanging the test suite).
    pub recv_deadline: Duration,
    /// How long *all* live ranks must be blocked with zero message
    /// deliveries before the watchdog declares deadlock.
    pub deadlock_grace: Duration,
    /// Granularity of blocking waits (poll interval for poison/watchdog
    /// checks; waits still wake immediately on message arrival / notify).
    pub poll: Duration,
}

impl Default for RankConfig {
    fn default() -> Self {
        Self {
            recv_deadline: Duration::from_secs(30),
            deadlock_grace: DEADLOCK_GRACE,
            poll: Duration::from_millis(10),
        }
    }
}

/// What a rank is doing right now, from the watchdog's viewpoint.
enum RankState {
    /// Executing user code (or not yet started).
    Running,
    /// Inside a blocking wait.
    Blocked { op: String, since: Instant },
    /// Returned from its body.
    Done,
}

/// Shared communicator health state: the blocked-rank table, a global
/// message-delivery progress counter, and the poison flag.
pub(crate) struct WatchState {
    slots: Mutex<Vec<RankState>>,
    progress: AtomicU64,
    /// (last observed progress value, when it last changed).
    last_obs: Mutex<(u64, Instant)>,
    poisoned: AtomicBool,
    poison_info: Mutex<Option<(usize, String)>>,
}

impl WatchState {
    fn new(n: usize) -> Self {
        Self {
            slots: Mutex::new((0..n).map(|_| RankState::Running).collect()),
            progress: AtomicU64::new(0),
            last_obs: Mutex::new((0, Instant::now())),
            poisoned: AtomicBool::new(false),
            poison_info: Mutex::new(None),
        }
    }

    pub(crate) fn enter(&self, rank: usize, op: String) {
        self.slots.lock()[rank] = RankState::Blocked {
            op,
            since: Instant::now(),
        };
    }

    pub(crate) fn exit(&self, rank: usize) {
        self.slots.lock()[rank] = RankState::Running;
    }

    fn done(&self, rank: usize) {
        self.slots.lock()[rank] = RankState::Done;
    }

    /// True once `rank`'s body has returned (or failed).
    pub(crate) fn is_done(&self, rank: usize) -> bool {
        matches!(self.slots.lock()[rank], RankState::Done)
    }

    /// Record one message delivery (any rank): deadlock detection requires
    /// this counter to be stable for the grace period.
    pub(crate) fn bump(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// Poison the communicator: all blocked ranks abort their waits with
    /// [`MpiSimError::Poisoned`] within one poll interval.
    pub(crate) fn poison(&self, by_rank: usize, reason: String) {
        let mut info = self.poison_info.lock();
        if info.is_none() {
            *info = Some((by_rank, reason));
        }
        drop(info);
        self.poisoned.store(true, Ordering::SeqCst);
    }

    pub(crate) fn poison_error(&self) -> Option<MpiSimError> {
        if !self.poisoned.load(Ordering::SeqCst) {
            return None;
        }
        let info = self.poison_info.lock();
        let (by_rank, reason) = info.clone().unwrap_or((usize::MAX, "unknown".into()));
        Some(MpiSimError::Poisoned { by_rank, reason })
    }

    /// If every live rank is blocked and no message has been delivered for
    /// `grace`, return the table of stuck ranks.
    pub(crate) fn deadlock_check(&self, grace: Duration) -> Option<Vec<BlockedRank>> {
        // Once a failure is being reported the rank table is in flux (the
        // reporting rank unblocks and finishes); a check racing with that
        // teardown would diagnose a partial deadlock missing ranks. A
        // reporter reads as running (which fails the scan below) from the
        // moment it unblocks until `run_ranks_cfg` poisons the communicator
        // and only then marks it done, so gating here guarantees every
        // reported deadlock names the full stuck set.
        if self.poisoned.load(Ordering::SeqCst) {
            return None;
        }
        let now = Instant::now();
        let p = self.progress.load(Ordering::Relaxed);
        {
            let mut last = self.last_obs.lock();
            if p != last.0 {
                *last = (p, now);
                return None;
            }
            if now.duration_since(last.1) < grace {
                return None;
            }
        }
        let slots = self.slots.lock();
        let mut blocked = Vec::new();
        let mut live = 0usize;
        for (rank, s) in slots.iter().enumerate() {
            match s {
                RankState::Running => return None,
                RankState::Done => {}
                RankState::Blocked { op, since } => {
                    live += 1;
                    blocked.push(BlockedRank {
                        rank,
                        op: op.clone(),
                        blocked_ms: now.duration_since(*since).as_millis() as u64,
                    });
                }
            }
        }
        // Only a deadlock if the blocked ranks have been stuck for the
        // grace period themselves (not a rank that just started waiting).
        if live == 0
            || blocked
                .iter()
                .any(|b| b.blocked_ms < grace.as_millis() as u64)
        {
            return None;
        }
        Some(blocked)
    }
}

struct Barrier {
    lock: Mutex<(usize, usize)>, // (count, generation)
    cv: Condvar,
    n: usize,
}

impl Barrier {
    fn new(n: usize) -> Self {
        Self {
            lock: Mutex::new((0, 0)),
            cv: Condvar::new(),
            n,
        }
    }

    /// Wait with a deadline, aborting on poison and reporting deadlock via
    /// the watchdog. A rank panic elsewhere poisons the communicator, which
    /// releases waiters here within one poll interval.
    fn wait_deadline(
        &self,
        rank: usize,
        watch: &WatchState,
        cfg: &RankConfig,
    ) -> Result<(), MpiSimError> {
        let mut guard = self.lock.lock();
        let gen = guard.1;
        guard.0 += 1;
        if guard.0 == self.n {
            guard.0 = 0;
            guard.1 += 1;
            watch.bump();
            self.cv.notify_all();
            return Ok(());
        }
        let deadline = Instant::now() + cfg.recv_deadline;
        watch.enter(rank, "barrier".into());
        let res = loop {
            if let Some(e) = watch.poison_error() {
                break Err(e);
            }
            self.cv.wait_for(&mut guard, cfg.poll);
            if guard.1 != gen {
                watch.bump();
                break Ok(());
            }
            if let Some(blocked) = watch.deadlock_check(cfg.deadlock_grace) {
                let err = MpiSimError::Deadlock { blocked };
                watch.poison(rank, err.to_string());
                break Err(err);
            }
            let now = Instant::now();
            if now >= deadline {
                break Err(MpiSimError::Timeout {
                    rank,
                    op: "barrier".into(),
                    waited_ms: cfg.recv_deadline.as_millis() as u64,
                });
            }
        };
        watch.exit(rank);
        res
    }
}

/// Per-rank communication context handed to the rank body.
pub struct RankCtx {
    /// This rank.
    pub rank: usize,
    /// Total ranks.
    pub size: usize,
    pub(crate) senders: Arc<Vec<Sender<Message>>>,
    pub(crate) receiver: Receiver<Message>,
    /// Messages received but not yet matched (by sender+tag).
    stash: Vec<Message>,
    barrier: Arc<Barrier>,
    pub(crate) watch: Arc<WatchState>,
    pub(crate) cfg: RankConfig,
}

impl RankCtx {
    /// Send `data` to `dest` with `tag` (non-blocking, buffered).
    pub fn send(&self, dest: usize, tag: i64, data: Vec<f64>) {
        if self.senders[dest]
            .send(Message {
                from: self.rank,
                tag,
                data,
            })
            .is_err()
        {
            // The destination rank has exited and dropped its receiver. If
            // the communicator is poisoned this is a cascade of an earlier
            // failure; surface that failure instead of a channel error.
            let err = self.watch.poison_error().unwrap_or_else(|| {
                MpiSimError::InvalidConfig(format!(
                    "rank {}: send(dest={dest}, tag={tag}) to a finished rank",
                    self.rank
                ))
            });
            panic::panic_any(err);
        }
    }

    /// Receive the next message from `src` with `tag` (blocking, with
    /// out-of-order stashing like an MPI matching queue). Uses the
    /// configured default deadline; on timeout, deadlock, or poison this
    /// panics with a structured [`MpiSimError`] that [`run_ranks`] catches
    /// and returns, so a lost message is a diagnosable failure rather than
    /// a hang.
    pub fn recv(&mut self, src: usize, tag: i64) -> Vec<f64> {
        let deadline = self.cfg.recv_deadline;
        match self.recv_deadline(src, tag, deadline) {
            Ok(data) => data,
            Err(e) => panic::panic_any(e),
        }
    }

    /// Receive with an explicit deadline, returning a structured error on
    /// timeout, detected deadlock, or communicator poison.
    pub fn recv_deadline(
        &mut self,
        src: usize,
        tag: i64,
        timeout: Duration,
    ) -> Result<Vec<f64>, MpiSimError> {
        if let Some(pos) = self
            .stash
            .iter()
            .position(|m| m.from == src && m.tag == tag)
        {
            return Ok(self.stash.swap_remove(pos).data);
        }
        let op = format!("recv(src={src}, tag={tag})");
        let deadline = Instant::now() + timeout;
        self.watch.enter(self.rank, op.clone());
        let res = loop {
            if let Some(e) = self.watch.poison_error() {
                break Err(e);
            }
            match self.receiver.recv_timeout(self.cfg.poll) {
                Ok(msg) => {
                    self.watch.bump();
                    if msg.from == src && msg.tag == tag {
                        break Ok(msg.data);
                    }
                    self.stash.push(msg);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(blocked) = self.watch.deadlock_check(self.cfg.deadlock_grace) {
                        let err = MpiSimError::Deadlock { blocked };
                        self.watch.poison(self.rank, err.to_string());
                        break Err(err);
                    }
                    if Instant::now() >= deadline {
                        break Err(MpiSimError::Timeout {
                            rank: self.rank,
                            op: op.clone(),
                            waited_ms: timeout.as_millis() as u64,
                        });
                    }
                }
                // Unreachable while any ctx is alive (each holds the full
                // sender vector), but map it defensively.
                Err(RecvTimeoutError::Disconnected) => {
                    break Err(self.watch.poison_error().unwrap_or(MpiSimError::Timeout {
                        rank: self.rank,
                        op: op.clone(),
                        waited_ms: 0,
                    }));
                }
            }
        };
        self.watch.exit(self.rank);
        res
    }

    /// Global barrier across all ranks. Deadline-protected like `recv`;
    /// a failure panics with a structured [`MpiSimError`] that
    /// [`run_ranks`] converts into its `Err` return.
    pub fn barrier(&self) {
        if let Err(e) = self
            .barrier
            .wait_deadline(self.rank, &self.watch, &self.cfg)
        {
            panic::panic_any(e);
        }
    }
}

pub(crate) fn panic_payload_to_error(
    rank: usize,
    payload: Box<dyn std::any::Any + Send>,
) -> MpiSimError {
    match payload.downcast::<MpiSimError>() {
        Ok(e) => *e,
        // A compiler error escaping a rank body keeps its diagnostics
        // instead of being flattened to a panic string.
        Err(payload) => match payload.downcast::<fsc_ir::IrError>() {
            Ok(e) => MpiSimError::compile_failure(rank, *e),
            Err(payload) => {
                let message = if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else if let Some(s) = payload.downcast_ref::<&'static str>() {
                    (*s).to_string()
                } else {
                    "non-string panic payload".to_string()
                };
                MpiSimError::RankPanicked { rank, message }
            }
        },
    }
}

/// Run `size` ranks, each executing `body`, and collect each rank's result
/// in rank order. A rank panic is caught, attributed to its rank, and
/// poisons the communicator so the surviving ranks error out of their
/// blocking waits instead of hanging; the root-cause failure is returned.
pub fn run_ranks<T, F>(size: usize, body: F) -> Result<Vec<T>, MpiSimError>
where
    T: Send + 'static,
    F: Fn(&mut RankCtx) -> T + Send + Sync + 'static,
{
    run_ranks_cfg(size, RankConfig::default(), body)
}

/// [`run_ranks`] with explicit deadline/watchdog configuration.
pub fn run_ranks_cfg<T, F>(size: usize, cfg: RankConfig, body: F) -> Result<Vec<T>, MpiSimError>
where
    T: Send + 'static,
    F: Fn(&mut RankCtx) -> T + Send + Sync + 'static,
{
    assert!(size > 0);
    let mut senders = Vec::with_capacity(size);
    let mut receivers = Vec::with_capacity(size);
    for _ in 0..size {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }
    let senders = Arc::new(senders);
    let barrier = Arc::new(Barrier::new(size));
    let watch = Arc::new(WatchState::new(size));
    let body = Arc::new(body);

    let mut handles = Vec::with_capacity(size);
    for (rank, receiver) in receivers.into_iter().enumerate() {
        let senders = Arc::clone(&senders);
        let barrier = Arc::clone(&barrier);
        let watch = Arc::clone(&watch);
        let body = Arc::clone(&body);
        handles.push(std::thread::spawn(move || {
            let mut ctx = RankCtx {
                rank,
                size,
                senders,
                receiver,
                stash: Vec::new(),
                barrier,
                watch: Arc::clone(&watch),
                cfg,
            };
            match panic::catch_unwind(AssertUnwindSafe(|| body(&mut ctx))) {
                Ok(v) => {
                    watch.done(rank);
                    Ok(v)
                }
                Err(payload) => {
                    let err = panic_payload_to_error(rank, payload);
                    // Release everyone still blocked on the barrier or in
                    // recv: they abort with Poisoned at their next poll.
                    watch.poison(rank, err.to_string());
                    watch.done(rank);
                    Err(err)
                }
            }
        }));
    }
    let mut results = Vec::with_capacity(size);
    let mut errors: Vec<MpiSimError> = Vec::new();
    for (rank, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(Ok(v)) => results.push(v),
            Ok(Err(e)) => errors.push(e),
            // catch_unwind swallows all panics; a join error would mean the
            // thread died outside it.
            Err(_) => errors.push(MpiSimError::RankPanicked {
                rank,
                message: "rank thread died outside catch_unwind".into(),
            }),
        }
    }
    if let Some(root) = errors.into_iter().min_by_key(|e| e.root_cause_priority()) {
        return Err(root);
    }
    Ok(results)
}

/// Convenience: run a 1-D halo-exchanged Jacobi-style update across ranks
/// and return per-rank message counts — used by tests and as the skeleton
/// of the hand-MPI baseline.
pub fn message_counts_after<F>(size: usize, body: F) -> HashMap<usize, usize>
where
    F: Fn(&mut RankCtx) -> usize + Send + Sync + 'static,
{
    run_ranks(size, body)
        .expect("rank group failed")
        .into_iter()
        .enumerate()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass() {
        let results = run_ranks(4, |ctx| {
            let next = (ctx.rank + 1) % ctx.size;
            let prev = (ctx.rank + ctx.size - 1) % ctx.size;
            ctx.send(next, 0, vec![ctx.rank as f64]);
            let got = ctx.recv(prev, 0);
            got[0]
        })
        .unwrap();
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn out_of_order_matching() {
        let results = run_ranks(2, |ctx| {
            if ctx.rank == 0 {
                ctx.send(1, 7, vec![7.0]);
                ctx.send(1, 8, vec![8.0]);
                0.0
            } else {
                // Receive in the opposite order to force stashing.
                let b = ctx.recv(0, 8);
                let a = ctx.recv(0, 7);
                a[0] * 10.0 + b[0]
            }
        })
        .unwrap();
        assert_eq!(results[1], 78.0);
    }

    #[test]
    fn barrier_synchronises_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static PHASE1: AtomicUsize = AtomicUsize::new(0);
        let results = run_ranks(8, |ctx| {
            PHASE1.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            // After the barrier every rank must observe all 8 increments.
            PHASE1.load(Ordering::SeqCst)
        })
        .unwrap();
        assert!(results.iter().all(|&v| v == 8));
    }

    #[test]
    fn halo_exchange_1d() {
        // Each rank owns 4 cells of a 16-cell line initialised to its rank;
        // one halo swap then an average must see neighbour values.
        let results = run_ranks(4, |ctx| {
            let mut local = [ctx.rank as f64; 6]; // 4 + 2 halo
                                                  // Exchange with left and right.
            if ctx.rank > 0 {
                ctx.send(ctx.rank - 1, 1, vec![local[1]]);
            }
            if ctx.rank + 1 < ctx.size {
                ctx.send(ctx.rank + 1, 2, vec![local[4]]);
            }
            if ctx.rank > 0 {
                local[0] = ctx.recv(ctx.rank - 1, 2)[0];
            }
            if ctx.rank + 1 < ctx.size {
                local[5] = ctx.recv(ctx.rank + 1, 1)[0];
            }
            (local[0], local[5])
        })
        .unwrap();
        assert_eq!(results[1], (0.0, 2.0));
        assert_eq!(results[2], (1.0, 3.0));
        // Boundary ranks keep their own values in the unexchanged halo.
        assert_eq!(results[0].0, 0.0);
        assert_eq!(results[3].1, 3.0);
    }

    #[test]
    fn single_rank_runs() {
        let r = run_ranks(1, |ctx| ctx.size).unwrap();
        assert_eq!(r, vec![1]);
    }

    #[test]
    fn recv_deadline_times_out_with_diagnosis() {
        let cfg = RankConfig {
            recv_deadline: Duration::from_millis(2000),
            deadlock_grace: Duration::from_millis(10_000), // never trips here
            poll: Duration::from_millis(5),
        };
        let err = run_ranks_cfg(2, cfg, |ctx| {
            if ctx.rank == 0 {
                // Rank 1 never sends tag 5.
                ctx.recv_deadline(1, 5, Duration::from_millis(80))
                    .map_err(|e| std::panic::panic_any(e))
                    .unwrap()
            } else {
                vec![]
            }
        })
        .unwrap_err();
        match err {
            MpiSimError::Timeout { rank, op, .. } => {
                assert_eq!(rank, 0);
                assert!(op.contains("src=1") && op.contains("tag=5"), "{op}");
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn rank_panic_is_named_and_releases_barrier() {
        let t0 = Instant::now();
        let err = run_ranks(4, |ctx| {
            if ctx.rank == 2 {
                panic!("deliberate failure in rank body");
            }
            // The other ranks head into a barrier rank 2 will never reach:
            // the poison must release them promptly.
            ctx.barrier();
        })
        .unwrap_err();
        match &err {
            MpiSimError::RankPanicked { rank, message } => {
                assert_eq!(*rank, 2);
                assert!(message.contains("deliberate failure"), "{message}");
            }
            other => panic!("expected RankPanicked, got {other:?}"),
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "survivors must not wait out the full deadline"
        );
    }

    #[test]
    fn compiler_error_in_rank_body_keeps_its_diagnostics() {
        use fsc_ir::diag::Diagnostic;
        use fsc_ir::IrError;
        let err = run_ranks(4, |ctx| {
            if ctx.rank == 1 {
                let e = IrError::from_diagnostic(
                    Diagnostic::error("E0601", "lowering error: no such kernel").at_line_col(3, 14),
                );
                std::panic::panic_any(e);
            }
            ctx.barrier();
        })
        .unwrap_err();
        match &err {
            MpiSimError::CompileFailure { rank, diagnostics } => {
                assert_eq!(*rank, 1);
                let rendered = diagnostics[0].render();
                assert!(rendered.contains("E0601"), "{rendered}");
                assert!(rendered.contains("line 3:14"), "{rendered}");
            }
            other => panic!("expected CompileFailure, got {other:?}"),
        }
        // Display names the rank and carries the coded diagnostic.
        let shown = err.to_string();
        assert!(shown.contains("rank 1"), "{shown}");
        assert!(shown.contains("E0601"), "{shown}");
        // And the driving layer can round-trip it back to an IrError whose
        // diagnostics record which rank failed.
        let back = err.into_compile_error().unwrap();
        let d = back.primary().unwrap();
        assert!(
            d.notes.iter().any(|n| n.contains("rank 1")),
            "{:?}",
            d.notes
        );
    }

    #[test]
    fn mismatched_tags_surface_as_deadlock_not_hang() {
        let cfg = RankConfig {
            recv_deadline: Duration::from_secs(20),
            deadlock_grace: Duration::from_millis(150),
            poll: Duration::from_millis(5),
        };
        let err = run_ranks_cfg(2, cfg, |ctx| {
            // Tags deliberately mismatched: a classic MPI deadlock.
            if ctx.rank == 0 {
                ctx.recv(1, 99)
            } else {
                ctx.recv(0, 98)
            }
        })
        .unwrap_err();
        match &err {
            MpiSimError::Deadlock { blocked } => {
                assert_eq!(blocked.len(), 2, "{blocked:?}");
                let ops: Vec<&str> = blocked.iter().map(|b| b.op.as_str()).collect();
                assert!(ops.iter().any(|o| o.contains("tag=99")), "{ops:?}");
                assert!(ops.iter().any(|o| o.contains("tag=98")), "{ops:?}");
            }
            // The non-detecting rank may also report; root-cause selection
            // must still prefer the deadlock diagnosis.
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }
}
