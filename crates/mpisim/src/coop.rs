//! Work-stealing cooperative rank scheduler.
//!
//! The thread-per-rank [`runtime`](crate::runtime) tops out around a few
//! dozen ranks — beyond that, thousands of OS threads thrash the machine
//! and the measured makespan stops meaning anything. This module runs rank
//! bodies as **resumable tasks** multiplexed over a fixed worker pool:
//!
//! * each rank is a [`CoopTask`] state machine; one `step` runs to the next
//!   blocking point and returns [`Step::Done`], [`Step::Yield`] or
//!   [`Step::Blocked`];
//! * workers own per-worker run deques and **steal from the back** of a
//!   peer's deque when their own (and the shared injector) are empty —
//!   steals are counted and attested in [`CoopRunStats`];
//! * a task that blocks on a receive **parks**: it consumes no worker until
//!   a message lands in its mailbox (the sender re-queues it) or its wake
//!   timer fires. The parked/queued/running transitions keep a global
//!   runnable count exact, so the scheduler detects a true deadlock
//!   *structurally*: no task runnable, no timer pending, no aggregation
//!   buffer unflushed ⇒ nothing can ever wake — report every parked rank
//!   and its pending operation;
//! * **hierarchical aggregation** (node-level communicators): ranks are
//!   grouped into virtual nodes of `node_size`; user-tag messages between
//!   two distinct nodes are coalesced into one envelope per (source node,
//!   destination node) pair and flushed on a count threshold or when a
//!   worker goes idle. Logical vs physical message/byte counts are attested
//!   so the aggregation ratio is measured, not assumed.
//!
//! [`CoopCtx`] is one of the two [`Link`]s of the resilient
//! [`Transport`](crate::resilient): the protocol (sequenced + checksummed
//! envelopes, ack/retry, checkpoint/restore-and-replay, message-based
//! barrier) lives there once, and [`Resilient`] runs a poll-form rank body
//! over it as a cooperative task, so fault plans, crash recovery and
//! deadlock detection behave exactly as on the thread-per-rank link.

// Worker loops run under every rank body: a failure is a coded error.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use fsc_ir::par::fan_out;
use parking_lot::{Condvar, Mutex};

use crate::error::{BlockedRank, MpiSimError};
use crate::fault::{FaultPlan, FaultStats};
use crate::resilient::{Link, RankTask, ResilientConfig, Transport};
use crate::runtime::{panic_payload_to_error, Message, DEADLOCK_GRACE};

/// Modelled wire overhead of one point-to-point message (routing header).
const MSG_HEADER_BYTES: u64 = 24;

/// Messages parked in one inter-node aggregation buffer, each tagged
/// with its destination rank.
type AggBuffer = Vec<(usize, Message)>;
/// Modelled wire overhead of one aggregated inter-node envelope.
const ENVELOPE_HEADER_BYTES: u64 = 24;

/// Outcome of one cooperative step.
pub enum Step<T> {
    /// The task finished with this result.
    Done(T),
    /// The task cannot progress until a message arrives (or its wake timer
    /// fires). Call [`CoopCtx::park`] before returning this so the
    /// scheduler knows the pending operation and the wake deadline.
    Blocked,
    /// The task made progress and has more work; re-queue it immediately
    /// (lets long compute phases interleave fairly on few workers).
    Yield,
}

/// A resumable rank body. `step` runs the task to its next blocking point;
/// the scheduler guarantees at most one `step` of a given task is running
/// at any time.
pub trait CoopTask: Send {
    /// The task's final result type.
    type Out: Send;
    /// Advance the task. Returning `Err` fails the whole run (poisons the
    /// communicator), like a rank panic under the thread runtime.
    fn step(&mut self, ctx: &mut CoopCtx<'_>) -> Result<Step<Self::Out>, MpiSimError>;
}

/// Tuning of the cooperative scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoopConfig {
    /// Worker threads; `0` uses the machine's available parallelism
    /// (capped at the task count).
    pub workers: usize,
    /// Ranks per virtual node for hierarchical message aggregation;
    /// `0` or `1` disables aggregation.
    pub node_size: usize,
    /// Flush an inter-node aggregation buffer once it holds this many
    /// messages; `0` defaults to `node_size` (one same-edge message per
    /// rank of the node).
    pub agg_flush_messages: usize,
}

/// Measured scheduler/transport counters of one cooperative run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoopRunStats {
    /// Worker threads actually used.
    pub workers: usize,
    /// Tasks popped from another worker's deque.
    pub steals: u64,
    /// Times a task parked on a blocking operation.
    pub parks: u64,
    /// User-tag (tag ≥ 0) messages sent by tasks.
    pub logical_messages: u64,
    /// Wire transfers those became: aggregated cross-node envelopes count
    /// once; intra-node deliveries (shared memory) count zero.
    pub physical_envelopes: u64,
    /// Payload bytes of user-tag messages.
    pub logical_bytes: u64,
    /// Wire bytes including per-message and per-envelope headers
    /// (cross-node traffic only once nodes group more than one rank).
    pub physical_bytes: u64,
}

impl CoopRunStats {
    /// Logical-to-physical message ratio of the aggregating transport
    /// (1.0 when aggregation is off or nothing was sent).
    pub fn aggregation_ratio(&self) -> f64 {
        if self.physical_envelopes == 0 {
            1.0
        } else {
            self.logical_messages as f64 / self.physical_envelopes as f64
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Queued,
    Running,
    Parked,
    Done,
}

struct Ctl {
    status: Status,
    /// A wake arrived while the task was `Running`; re-queue instead of
    /// parking when its step returns `Blocked` (no lost wakeups).
    wake_pending: bool,
    block_op: String,
    parked_since: Instant,
}

struct Slot {
    ctl: Mutex<Ctl>,
    mailbox: Mutex<VecDeque<Message>>,
    /// Out-of-order arrivals set aside by a selective `try_recv`.
    stash: Mutex<VecDeque<Message>>,
}

struct Net {
    slots: Vec<Slot>,
    queues: Vec<Mutex<VecDeque<usize>>>,
    injector: Mutex<VecDeque<usize>>,
    timers: Mutex<BinaryHeap<Reverse<(Instant, usize)>>>,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    /// Tasks in `Queued` or `Running` state. Increments happen before a
    /// task becomes counted and decrements after it stops being counted,
    /// so `runnable == 0` proves no task is queued or running.
    runnable: AtomicUsize,
    done: AtomicUsize,
    steals: AtomicU64,
    parks: AtomicU64,
    last_progress: Mutex<Instant>,
    poisoned: AtomicBool,
    errors: Mutex<Vec<MpiSimError>>,
    node_size: usize,
    agg_cap: usize,
    agg: Mutex<HashMap<(usize, usize), AggBuffer>>,
    logical_messages: AtomicU64,
    physical_envelopes: AtomicU64,
    logical_bytes: AtomicU64,
    physical_bytes: AtomicU64,
}

impl Net {
    fn new(size: usize, workers: usize, cfg: &CoopConfig) -> Self {
        let now = Instant::now();
        Self {
            slots: (0..size)
                .map(|_| Slot {
                    ctl: Mutex::new(Ctl {
                        status: Status::Queued,
                        wake_pending: false,
                        block_op: String::new(),
                        parked_since: now,
                    }),
                    mailbox: Mutex::new(VecDeque::new()),
                    stash: Mutex::new(VecDeque::new()),
                })
                .collect(),
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            timers: Mutex::new(BinaryHeap::new()),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            runnable: AtomicUsize::new(size),
            done: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            last_progress: Mutex::new(now),
            poisoned: AtomicBool::new(false),
            errors: Mutex::new(Vec::new()),
            node_size: cfg.node_size,
            agg_cap: if cfg.agg_flush_messages == 0 {
                cfg.node_size.max(1)
            } else {
                cfg.agg_flush_messages
            },
            agg: Mutex::new(HashMap::new()),
            logical_messages: AtomicU64::new(0),
            physical_envelopes: AtomicU64::new(0),
            logical_bytes: AtomicU64::new(0),
            physical_bytes: AtomicU64::new(0),
        }
    }

    fn size(&self) -> usize {
        self.slots.len()
    }

    fn bump_progress(&self) {
        *self.last_progress.lock() = Instant::now();
    }

    fn notify_idle(&self) {
        let _g = self.idle_lock.lock();
        self.idle_cv.notify_all();
    }

    fn poison(&self, err: MpiSimError) {
        self.errors.lock().push(err);
        self.poisoned.store(true, Ordering::SeqCst);
        self.notify_idle();
    }

    fn node_of(&self, rank: usize) -> usize {
        if self.node_size <= 1 {
            rank
        } else {
            rank / self.node_size
        }
    }

    /// Push a message into `dest`'s mailbox and wake it.
    fn deliver(&self, wid: usize, dest: usize, msg: Message) {
        self.slots[dest].mailbox.lock().push_back(msg);
        self.bump_progress();
        self.wake(wid, dest);
    }

    /// Make a parked task runnable again (spurious wakes are harmless: the
    /// task re-checks its condition and re-parks). A wake racing a step in
    /// flight is latched in `wake_pending` so it is never lost.
    fn wake(&self, wid: usize, tid: usize) {
        let mut ctl = self.slots[tid].ctl.lock();
        match ctl.status {
            Status::Parked => {
                // Count the task runnable *before* it is visible as queued
                // (the deadlock check relies on `runnable` never
                // undercounting queued/running tasks).
                self.runnable.fetch_add(1, Ordering::SeqCst);
                ctl.status = Status::Queued;
                ctl.block_op.clear();
                drop(ctl);
                self.queues[wid].lock().push_back(tid);
                self.notify_idle();
            }
            Status::Running => ctl.wake_pending = true,
            Status::Queued | Status::Done => {}
        }
    }

    /// Count one user-level message in the logical ledger. Called once per
    /// message, when it is first sent: whatever the transport then does to
    /// deliver it (retransmit, duplicate, delay) is physical traffic only,
    /// so the ledger does not depend on timing or on the fault plan.
    fn count_logical(&self, tag: i64, elems: usize) {
        if tag >= 0 {
            self.logical_messages.fetch_add(1, Ordering::Relaxed);
            self.logical_bytes
                .fetch_add((elems * 8) as u64, Ordering::Relaxed);
        }
    }

    /// Route one message: direct to the mailbox, or into the inter-node
    /// aggregation buffer for user-tag traffic crossing a node boundary.
    /// Protocol tags (< 0) and retransmissions (`direct`) always bypass
    /// aggregation — they are latency-critical.
    fn send(&self, wid: usize, from: usize, dest: usize, tag: i64, data: Vec<f64>, direct: bool) {
        let bytes = (data.len() * 8) as u64;
        let (sn, dn) = (self.node_of(from), self.node_of(dest));
        if !direct && tag >= 0 && self.node_size > 1 && sn != dn {
            let flush = {
                let mut agg = self.agg.lock();
                let buf = agg.entry((sn, dn)).or_default();
                buf.push((dest, Message { from, tag, data }));
                buf.len() >= self.agg_cap
            };
            if flush {
                self.flush_pair(wid, sn, dn);
            }
        } else {
            // Intra-node traffic (node_size > 1, same node) rides the
            // node's shared memory, not the fabric: it never serialises
            // into a wire envelope, so the physical counters skip it.
            if tag >= 0 && (self.node_size <= 1 || sn != dn) {
                self.physical_envelopes.fetch_add(1, Ordering::Relaxed);
                self.physical_bytes
                    .fetch_add(MSG_HEADER_BYTES + bytes, Ordering::Relaxed);
            }
            self.deliver(wid, dest, Message { from, tag, data });
        }
    }

    /// Flush one (source node, destination node) aggregation buffer as a
    /// single envelope.
    fn flush_pair(&self, wid: usize, sn: usize, dn: usize) {
        let buf = self.agg.lock().remove(&(sn, dn));
        let Some(buf) = buf else { return };
        if buf.is_empty() {
            return;
        }
        let payload: u64 = buf
            .iter()
            .map(|(_, m)| MSG_HEADER_BYTES + (m.data.len() * 8) as u64)
            .sum();
        self.physical_envelopes.fetch_add(1, Ordering::Relaxed);
        self.physical_bytes
            .fetch_add(ENVELOPE_HEADER_BYTES + payload, Ordering::Relaxed);
        for (dest, msg) in buf {
            self.deliver(wid, dest, msg);
        }
    }

    fn flush_all_agg(&self, wid: usize) {
        let keys: Vec<(usize, usize)> = self.agg.lock().keys().copied().collect();
        for (sn, dn) in keys {
            self.flush_pair(wid, sn, dn);
        }
    }

    fn agg_empty(&self) -> bool {
        self.agg.lock().is_empty()
    }

    /// Snapshot every parked rank's pending operation.
    fn blocked_ranks(&self) -> Vec<BlockedRank> {
        let mut out = Vec::new();
        for (rank, slot) in self.slots.iter().enumerate() {
            let ctl = slot.ctl.lock();
            if ctl.status == Status::Parked {
                out.push(BlockedRank {
                    rank,
                    op: if ctl.block_op.is_empty() {
                        "blocked".into()
                    } else {
                        ctl.block_op.clone()
                    },
                    blocked_ms: ctl.parked_since.elapsed().as_millis() as u64,
                });
            }
        }
        out
    }

    /// True when every non-done task is parked (no one queued or running).
    fn all_parked(&self) -> bool {
        self.slots.iter().all(|s| {
            let st = s.ctl.lock().status;
            st == Status::Parked || st == Status::Done
        })
    }
}

/// The per-step view a [`CoopTask`] gets of the communicator: its rank,
/// message send/receive, and park/wake-timer hints for the scheduler.
pub struct CoopCtx<'a> {
    net: &'a Net,
    wid: usize,
    rank: usize,
    block_op: Option<String>,
    wake_at: Option<Instant>,
}

impl CoopCtx<'_> {
    /// This task's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total ranks in the run.
    pub fn size(&self) -> usize {
        self.net.size()
    }

    /// Send `data` to `dest` (possibly via the node-level aggregation
    /// buffer; per-(sender, destination, tag) order is preserved).
    pub fn send(&mut self, dest: usize, tag: i64, data: Vec<f64>) {
        self.net.count_logical(tag, data.len());
        self.net.send(self.wid, self.rank, dest, tag, data, false);
    }

    /// Non-blocking selective receive with out-of-order stashing: returns
    /// the next message from `src` with `tag`, if one has arrived.
    pub fn try_recv(&mut self, src: usize, tag: i64) -> Option<Vec<f64>> {
        let slot = &self.net.slots[self.rank];
        let mut stash = slot.stash.lock();
        if let Some(pos) = stash.iter().position(|m| m.from == src && m.tag == tag) {
            return stash.remove(pos).map(|m| m.data);
        }
        let mut mb = slot.mailbox.lock();
        while let Some(m) = mb.pop_front() {
            if m.from == src && m.tag == tag {
                return Some(m.data);
            }
            stash.push_back(m);
        }
        None
    }

    /// Record why this task is about to return [`Step::Blocked`] and when
    /// the scheduler should wake it even without a message (`None`: only a
    /// message wakes it).
    pub fn park(&mut self, op: impl Into<String>, wake_at: Option<Instant>) {
        self.block_op = Some(op.into());
        self.wake_at = wake_at;
    }
}

/// The cooperative [`Link`]: wire messages go through the (possibly
/// aggregating) mailboxes, liveness is the scheduler's task table, and
/// parking hands the worker back until a message or the wake timer.
impl Link for CoopCtx<'_> {
    /// Direct to the mailbox, or — first transmissions of user-tag traffic
    /// crossing a node boundary — via the aggregation buffer.
    fn wire(&mut self, dest: usize, tag: i64, data: Vec<f64>, direct: bool) {
        self.net.send(self.wid, self.rank, dest, tag, data, direct);
    }

    /// Stash first, preserving arrival order.
    fn arrivals(&mut self) -> Vec<Message> {
        let slot = &self.net.slots[self.rank];
        let mut out: Vec<Message> = slot.stash.lock().drain(..).collect();
        out.extend(slot.mailbox.lock().drain(..));
        out
    }

    fn peer_done(&self, rank: usize) -> bool {
        self.net.slots[rank].ctl.lock().status == Status::Done
    }

    fn progress(&self) {
        self.net.bump_progress();
    }

    fn deadlock_grace(&self) -> Duration {
        DEADLOCK_GRACE
    }

    /// Grace-based check: tasks parked by the transport always hold wake
    /// timers, which mute the scheduler's structural check.
    fn deadlock_check(&self, op: &dyn Fn() -> String) -> Option<Vec<BlockedRank>> {
        if self.net.last_progress.lock().elapsed() < DEADLOCK_GRACE {
            return None;
        }
        // Only this task runs; everyone else must be parked (a queued or
        // running peer may still make progress).
        if self.net.runnable.load(Ordering::SeqCst) != 1 || !self.net.agg_empty() {
            return None;
        }
        if !self.net.slots.iter().enumerate().all(|(r, s)| {
            r == self.rank || matches!(s.ctl.lock().status, Status::Parked | Status::Done)
        }) {
            return None;
        }
        let mut blocked = self.net.blocked_ranks();
        blocked.push(BlockedRank {
            rank: self.rank,
            op: op(),
            blocked_ms: DEADLOCK_GRACE.as_millis() as u64,
        });
        blocked.sort_by_key(|b| b.rank);
        Some(blocked)
    }

    fn park(&mut self, op: String, wake_at: Instant) {
        CoopCtx::park(self, op, Some(wake_at));
    }

    fn count_logical(&self, tag: i64, elems: usize) {
        self.net.count_logical(tag, elems);
    }
}

/// Worker threads a run of `size` ranks uses when asked for `workers`
/// (`0` = the machine's available parallelism), capped at the rank count.
pub fn effective_workers(workers: usize, size: usize) -> usize {
    let w = if workers == 0 {
        fsc_ir::par::available_threads()
    } else {
        workers
    };
    w.clamp(1, size.max(1))
}

/// Run `size` rank tasks built by `factory` over the cooperative
/// scheduler, collecting each rank's result (in rank order) and the run's
/// scheduler/transport counters. Task errors and panics poison the run and
/// the root-cause failure is returned, exactly like
/// [`run_ranks`](crate::runtime::run_ranks). The calling thread is worker 0:
/// only `workers - 1` threads are spawned, none for a single worker.
pub fn run_tasks<K, F>(
    size: usize,
    cfg: CoopConfig,
    factory: F,
) -> Result<(Vec<K::Out>, CoopRunStats), MpiSimError>
where
    K: CoopTask,
    F: Fn(usize) -> K + Send + Sync,
{
    if size == 0 {
        return Err(MpiSimError::InvalidConfig("need at least one rank".into()));
    }
    let workers = effective_workers(cfg.workers, size);
    let net = Net::new(size, workers, &cfg);
    let tasks: Vec<Mutex<Option<K>>> = (0..size).map(|r| Mutex::new(Some(factory(r)))).collect();
    let results: Vec<Mutex<Option<K::Out>>> = (0..size).map(|_| Mutex::new(None)).collect();
    // Seed round-robin across the worker deques; imbalance (uneven rank
    // bodies, wake bursts landing on one worker) is what stealing levels.
    for r in 0..size {
        net.queues[r % workers].lock().push_back(r);
    }
    // `run_one` contains task panics, so the caller never unwinds here.
    fan_out(workers, (0..workers).collect(), |wid| {
        worker_loop(wid, &net, &tasks, &results)
    });
    let stats = CoopRunStats {
        workers,
        steals: net.steals.load(Ordering::Relaxed),
        parks: net.parks.load(Ordering::Relaxed),
        logical_messages: net.logical_messages.load(Ordering::Relaxed),
        physical_envelopes: net.physical_envelopes.load(Ordering::Relaxed),
        logical_bytes: net.logical_bytes.load(Ordering::Relaxed),
        physical_bytes: net.physical_bytes.load(Ordering::Relaxed),
    };
    let errors = net.errors.into_inner();
    if let Some(root) = errors.into_iter().min_by_key(|e| e.root_cause_priority()) {
        return Err(root);
    }
    let outs: Option<Vec<K::Out>> = results.into_iter().map(Mutex::into_inner).collect();
    let outs = outs.ok_or_else(|| MpiSimError::internal(0, "a rank task left no result"))?;
    Ok((outs, stats))
}

fn worker_loop<K: CoopTask>(
    wid: usize,
    net: &Net,
    tasks: &[Mutex<Option<K>>],
    results: &[Mutex<Option<K::Out>>],
) {
    loop {
        if net.poisoned.load(Ordering::SeqCst) || net.done.load(Ordering::SeqCst) >= net.size() {
            return;
        }
        match pop_task(net, wid) {
            Some(tid) => run_one(tid, wid, net, tasks, results),
            None => idle(net, wid),
        }
    }
}

fn pop_task(net: &Net, wid: usize) -> Option<usize> {
    if let Some(t) = net.queues[wid].lock().pop_front() {
        return Some(t);
    }
    if let Some(t) = net.injector.lock().pop_front() {
        return Some(t);
    }
    let workers = net.queues.len();
    for k in 1..workers {
        let victim = (wid + k) % workers;
        if let Some(t) = net.queues[victim].lock().pop_back() {
            net.steals.fetch_add(1, Ordering::Relaxed);
            return Some(t);
        }
    }
    None
}

fn run_one<K: CoopTask>(
    tid: usize,
    wid: usize,
    net: &Net,
    tasks: &[Mutex<Option<K>>],
    results: &[Mutex<Option<K::Out>>],
) {
    {
        let mut ctl = net.slots[tid].ctl.lock();
        debug_assert_eq!(ctl.status, Status::Queued, "popped task must be queued");
        ctl.status = Status::Running;
        ctl.wake_pending = false;
    }
    let Some(mut task) = tasks[tid].lock().take() else {
        finish(net, tid);
        return net.poison(MpiSimError::internal(tid, "queued rank task is missing"));
    };
    let mut ctx = CoopCtx {
        net,
        wid,
        rank: tid,
        block_op: None,
        wake_at: None,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| task.step(&mut ctx)));
    match outcome {
        Ok(Ok(Step::Done(v))) => {
            *results[tid].lock() = Some(v);
            finish(net, tid);
            net.bump_progress();
        }
        Ok(Ok(Step::Yield)) => {
            *tasks[tid].lock() = Some(task);
            net.slots[tid].ctl.lock().status = Status::Queued;
            net.queues[wid].lock().push_back(tid);
        }
        Ok(Ok(Step::Blocked)) => {
            *tasks[tid].lock() = Some(task);
            let requeue = {
                let mut ctl = net.slots[tid].ctl.lock();
                if ctl.wake_pending {
                    ctl.wake_pending = false;
                    ctl.status = Status::Queued;
                    true
                } else {
                    ctl.status = Status::Parked;
                    ctl.block_op = ctx.block_op.take().unwrap_or_else(|| "blocked".into());
                    ctl.parked_since = Instant::now();
                    // Register the wake timer before dropping the runnable
                    // count so an idle worker can never observe "nothing
                    // runnable, no timer" while a timer registration is in
                    // flight.
                    if let Some(at) = ctx.wake_at {
                        net.timers.lock().push(Reverse((at, tid)));
                    }
                    net.runnable.fetch_sub(1, Ordering::SeqCst);
                    false
                }
            };
            if requeue {
                net.queues[wid].lock().push_back(tid);
            } else {
                net.parks.fetch_add(1, Ordering::Relaxed);
                // Idle workers re-evaluate: flush aggregation, arm timers,
                // or declare deadlock.
                net.notify_idle();
            }
        }
        Ok(Err(e)) => {
            finish(net, tid);
            net.poison(e);
        }
        Err(payload) => {
            let e = panic_payload_to_error(tid, payload);
            finish(net, tid);
            net.poison(e);
        }
    }
}

fn finish(net: &Net, tid: usize) {
    {
        let mut ctl = net.slots[tid].ctl.lock();
        ctl.status = Status::Done;
    }
    net.runnable.fetch_sub(1, Ordering::SeqCst);
    net.done.fetch_add(1, Ordering::SeqCst);
    net.notify_idle();
}

fn idle(net: &Net, wid: usize) {
    // Pending aggregation buffers are the cheapest latent progress: flush
    // them whenever a worker has nothing better to do.
    net.flush_all_agg(wid);
    let now = Instant::now();
    let mut woke = false;
    loop {
        let due = {
            let mut timers = net.timers.lock();
            match timers.peek() {
                Some(&Reverse((when, tid))) if when <= now => {
                    timers.pop();
                    Some(tid)
                }
                _ => None,
            }
        };
        match due {
            Some(tid) => {
                net.wake(wid, tid);
                woke = true;
            }
            None => break,
        }
    }
    if woke || net.runnable.load(Ordering::SeqCst) > 0 {
        return;
    }
    if net.done.load(Ordering::SeqCst) >= net.size() || net.poisoned.load(Ordering::SeqCst) {
        return;
    }
    let next_timer = net.timers.lock().peek().map(|&Reverse((when, _))| when);
    match next_timer {
        None => {
            // Structural deadlock candidate: nothing runnable, no timer,
            // aggregation flushed. Confirm by scanning every task — all
            // transitions happen under per-task locks and any wake source
            // would leave a queued/running task or a fresh timer behind.
            if net.runnable.load(Ordering::SeqCst) == 0
                && net.agg_empty()
                && net.timers.lock().is_empty()
                && net.all_parked()
                && net.runnable.load(Ordering::SeqCst) == 0
                && !net.poisoned.load(Ordering::SeqCst)
                && net.done.load(Ordering::SeqCst) < net.size()
            {
                let blocked = net.blocked_ranks();
                if !blocked.is_empty() {
                    net.poison(MpiSimError::Deadlock { blocked });
                }
            }
        }
        Some(when) => {
            let mut g = net.idle_lock.lock();
            if net.runnable.load(Ordering::SeqCst) == 0
                && !net.poisoned.load(Ordering::SeqCst)
                && net.done.load(Ordering::SeqCst) < net.size()
            {
                let dur = when
                    .saturating_duration_since(Instant::now())
                    .clamp(Duration::from_micros(50), Duration::from_millis(50));
                net.idle_cv.wait_for(&mut g, dur);
            }
        }
    }
}

/// A [`RankTask`] as a cooperative task: owns the rank's [`Transport`],
/// steps the body over the worker's [`CoopCtx`] link, and drains the
/// protocol once the body is done — what
/// [`run_resilient`](crate::resilient::run_resilient) does around a
/// blocking body on a rank thread.
pub struct Resilient<K: RankTask> {
    task: K,
    transport: Transport,
    /// The body's result, held while the protocol drains.
    out: Option<K::Out>,
}

impl<K: RankTask> Resilient<K> {
    /// `task` as rank `rank` of `size` under fault plan `plan`.
    pub fn new(task: K, rank: usize, size: usize, plan: &FaultPlan, cfg: ResilientConfig) -> Self {
        Self {
            task,
            transport: Transport::new(rank, size, plan, cfg),
            out: None,
        }
    }
}

impl<K: RankTask> CoopTask for Resilient<K> {
    type Out = (K::Out, FaultStats);

    fn step(&mut self, ctx: &mut CoopCtx<'_>) -> Result<Step<Self::Out>, MpiSimError> {
        let out = match self.out.take() {
            Some(out) => out,
            None => match self.task.step(&mut self.transport, ctx)? {
                Step::Done(out) => out,
                Step::Blocked => return Ok(Step::Blocked),
                Step::Yield => return Ok(Step::Yield),
            },
        };
        if !self.transport.drain_poll(ctx)? {
            self.out = Some(out);
            return Ok(Step::Blocked);
        }
        Ok(Step::Done((out, self.transport.stats)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ring pass as an explicit state machine: rank r sends to (r+1)%size,
    /// receives from (r-1+size)%size, returns the received value.
    enum Ring {
        Start,
        Await,
    }

    impl CoopTask for Ring {
        type Out = f64;
        fn step(&mut self, ctx: &mut CoopCtx<'_>) -> Result<Step<f64>, MpiSimError> {
            let (rank, size) = (ctx.rank(), ctx.size());
            loop {
                match self {
                    Ring::Start => {
                        let next = (rank + 1) % size;
                        ctx.send(next, 7, vec![rank as f64]);
                        *self = Ring::Await;
                    }
                    Ring::Await => {
                        let prev = (rank + size - 1) % size;
                        return match ctx.try_recv(prev, 7) {
                            Some(data) => Ok(Step::Done(data[0])),
                            None => {
                                ctx.park(format!("recv(src={prev}, tag=7)"), None);
                                Ok(Step::Blocked)
                            }
                        };
                    }
                }
            }
        }
    }

    #[test]
    fn ring_passes_at_scale() {
        let (out, stats) = run_tasks(512, CoopConfig::default(), |_| Ring::Start).unwrap();
        for (r, v) in out.iter().enumerate() {
            assert_eq!(*v, ((r + 512 - 1) % 512) as f64);
        }
        assert!(stats.workers >= 1);
        assert_eq!(stats.logical_messages, 512);
    }

    #[test]
    fn two_workers_many_ranks_steal() {
        let cfg = CoopConfig {
            workers: 2,
            ..CoopConfig::default()
        };
        let (out, stats) = run_tasks(512, cfg, |_| Ring::Start).unwrap();
        assert_eq!(out.len(), 512);
        assert_eq!(stats.workers, 2);
        assert!(
            stats.steals > 0,
            "expected work stealing on 2 workers x 512 ranks, got {stats:?}"
        );
        assert!(stats.parks > 0);
    }

    /// Same-edge exchange between two rank groups: every rank of node 0
    /// sends one message to its counterpart in node 1 (the shape of a halo
    /// exchange along a decomposed dimension that crosses a node
    /// boundary).
    enum EdgeSwap {
        Start,
        Await,
    }

    impl CoopTask for EdgeSwap {
        type Out = ();
        fn step(&mut self, ctx: &mut CoopCtx<'_>) -> Result<Step<()>, MpiSimError> {
            let (rank, size) = (ctx.rank(), ctx.size());
            let half = size / 2;
            loop {
                match self {
                    EdgeSwap::Start => {
                        if rank < half {
                            ctx.send(rank + half, 3, vec![rank as f64]);
                            return Ok(Step::Done(()));
                        }
                        *self = EdgeSwap::Await;
                    }
                    EdgeSwap::Await => {
                        return match ctx.try_recv(rank - half, 3) {
                            Some(_) => Ok(Step::Done(())),
                            None => {
                                ctx.park(format!("recv(src={}, tag=3)", rank - half), None);
                                Ok(Step::Blocked)
                            }
                        };
                    }
                }
            }
        }
    }

    #[test]
    fn aggregation_coalesces_same_edge_messages() {
        // One worker: with two, the receivers can all park while senders
        // are still queued, and the idle flush splits the envelope in two.
        let cfg = CoopConfig {
            workers: 1,
            node_size: 8,
            ..CoopConfig::default()
        };
        let (_, stats) = run_tasks(16, cfg, |_| EdgeSwap::Start).unwrap();
        // All 8 node-0 ranks message node 1: one (src node, dst node) pair,
        // so the count-threshold flush coalesces 8 logical messages into a
        // single physical envelope.
        assert_eq!(stats.logical_messages, 8, "{stats:?}");
        assert_eq!(stats.physical_envelopes, 1, "{stats:?}");
        assert!(stats.aggregation_ratio() >= 8.0, "{stats:?}");
        assert!(stats.physical_bytes > 0 && stats.logical_bytes == 8 * 8);
    }

    /// Every rank blocks on a receive that never comes.
    struct Stuck;

    impl CoopTask for Stuck {
        type Out = ();
        fn step(&mut self, ctx: &mut CoopCtx<'_>) -> Result<Step<()>, MpiSimError> {
            let peer = (ctx.rank() + 1) % ctx.size();
            match ctx.try_recv(peer, 99) {
                Some(_) => Ok(Step::Done(())),
                None => {
                    ctx.park(format!("recv(src={peer}, tag=99)"), None);
                    Ok(Step::Blocked)
                }
            }
        }
    }

    #[test]
    fn structural_deadlock_is_exact_and_names_ranks() {
        let start = Instant::now();
        let err = run_tasks(8, CoopConfig::default(), |_| Stuck).unwrap_err();
        match err {
            MpiSimError::Deadlock { blocked } => {
                assert_eq!(blocked.len(), 8, "all ranks stuck: {blocked:?}");
                assert!(blocked.iter().any(|b| b.op.contains("tag=99")));
            }
            other => panic!("expected deadlock, got {other}"),
        }
        // Structural detection fires as soon as the scheduler drains — no
        // multi-second watchdog grace needed.
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "deadlock detection took {:?}",
            start.elapsed()
        );
    }

    struct Boom;

    impl CoopTask for Boom {
        type Out = ();
        fn step(&mut self, ctx: &mut CoopCtx<'_>) -> Result<Step<()>, MpiSimError> {
            if ctx.rank() == 3 {
                panic!("boom on rank 3");
            }
            match ctx.try_recv(3, 1) {
                Some(_) => Ok(Step::Done(())),
                None => {
                    ctx.park("recv(src=3, tag=1)", None);
                    Ok(Step::Blocked)
                }
            }
        }
    }

    #[test]
    fn task_panic_poisons_the_run_with_rank_attribution() {
        let err = run_tasks(8, CoopConfig::default(), |_| Boom).unwrap_err();
        match err {
            MpiSimError::RankPanicked { rank, message } => {
                assert_eq!(rank, 3);
                assert!(message.contains("boom"), "{message}");
            }
            other => panic!("expected rank panic, got {other}"),
        }
    }

    /// Yields twice, then reports every thread it was stepped on.
    struct WhereAmI(Vec<std::thread::ThreadId>);

    impl CoopTask for WhereAmI {
        type Out = Vec<std::thread::ThreadId>;
        fn step(&mut self, _: &mut CoopCtx<'_>) -> Result<Step<Self::Out>, MpiSimError> {
            self.0.push(std::thread::current().id());
            Ok(match self.0.len() {
                3 => Step::Done(std::mem::take(&mut self.0)),
                _ => Step::Yield,
            })
        }
    }

    #[test]
    fn a_single_worker_is_the_calling_thread() {
        let cfg = CoopConfig {
            workers: 1,
            ..CoopConfig::default()
        };
        let (out, stats) = run_tasks(8, cfg, |_| WhereAmI(Vec::new())).unwrap();
        assert_eq!(stats.workers, 1);
        // Every step of every rank ran here: nothing was spawned to run it.
        let me = std::thread::current().id();
        assert!(out.iter().all(|ids| ids == &[me; 3]), "{out:?}");
    }

    /// Panics when stepped on `caller`; anywhere else it yields for ever.
    struct BoomOn(std::thread::ThreadId);

    impl CoopTask for BoomOn {
        type Out = ();
        fn step(&mut self, _: &mut CoopCtx<'_>) -> Result<Step<()>, MpiSimError> {
            if std::thread::current().id() == self.0 {
                panic!("boom on the caller");
            }
            Ok(Step::Yield)
        }
    }

    #[test]
    fn a_panic_on_the_calling_worker_is_an_error_not_an_unwind() {
        let cfg = CoopConfig {
            workers: 2,
            ..CoopConfig::default()
        };
        // No rank ever finishes, so the run can only end by the caller —
        // worker 0 — stepping one: the panic must come back as this error.
        let me = std::thread::current().id();
        match run_tasks(4, cfg, |_| BoomOn(me)).unwrap_err() {
            MpiSimError::RankPanicked { rank, message } => {
                assert!(
                    rank < 4 && message.contains("boom on the caller"),
                    "{message}"
                );
            }
            other => panic!("expected rank panic, got {other}"),
        }
    }

    #[test]
    fn zero_ranks_is_an_invalid_configuration() {
        let err = run_tasks(0, CoopConfig::default(), |_| Ring::Start).unwrap_err();
        assert!(matches!(err, MpiSimError::InvalidConfig(_)), "{err}");
    }

    /// Rank 0 sends one message to rank 1 and at once fires the retransmit
    /// timer by hand (no fault plan, no waiting on a clock); rank 1
    /// receives it.
    struct Resend;

    impl RankTask for Resend {
        type Out = ();
        fn step<L: Link>(
            &mut self,
            t: &mut Transport,
            link: &mut L,
        ) -> Result<Step<()>, MpiSimError> {
            if t.rank() == 0 {
                t.send(link, 1, 5, vec![1.0, 2.0, 3.0])?;
                let overdue = Instant::now() + Duration::from_secs(60);
                t.retransmit_due(link, overdue)?;
                return Ok(Step::Done(()));
            }
            Ok(match t.recv_poll(link, 0, 5)? {
                Some(data) => {
                    assert_eq!(data, vec![1.0, 2.0, 3.0]);
                    Step::Done(())
                }
                None => Step::Blocked,
            })
        }
    }

    #[test]
    fn logical_ledger_counts_a_message_once_however_often_it_is_sent() {
        let (out, run) = run_tasks(2, CoopConfig::default(), |r| {
            Resilient::new(
                Resend,
                r,
                2,
                &FaultPlan::none(7),
                ResilientConfig::default(),
            )
        })
        .unwrap();
        let sender = out[0].1;
        assert_eq!(sender.retries, 1, "the retransmit must have fired");
        assert_eq!(sender.data_msgs, 1);
        // One logical message of 3 payload + 2 header words; the forced
        // retransmission is physical traffic only.
        assert_eq!((run.logical_messages, run.logical_bytes), (1, 5 * 8));
        assert!(run.physical_envelopes >= 2, "{run:?}");
    }

    #[test]
    fn coop_matches_thread_runtime_ring() {
        // Same ring on both substrates, bit-identical results.
        let coop = run_tasks(16, CoopConfig::default(), |_| Ring::Start)
            .unwrap()
            .0;
        let threads = crate::runtime::run_ranks(16, |ctx| {
            let next = (ctx.rank + 1) % ctx.size;
            let prev = (ctx.rank + ctx.size - 1) % ctx.size;
            ctx.send(next, 7, vec![ctx.rank as f64]);
            ctx.recv(prev, 7)[0]
        })
        .unwrap();
        assert_eq!(coop, threads);
    }
}
