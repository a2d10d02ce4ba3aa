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
//! [`CoopResilient`] ports the full resilient protocol
//! ([`resilient`](crate::resilient): sequenced + checksummed envelopes,
//! ack/retry, checkpoint/restore-and-replay, message-based barrier) to
//! poll-based form so fault plans, crash recovery and deadlock detection
//! keep working under cooperative scheduling.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::error::{BlockedRank, MpiSimError};
use crate::fault::{FaultInjector, FaultPlan, FaultStats, SendAction};
use crate::resilient::{checksum, ResilientConfig, ACK_TAG, BACKOFF_CAP, BARRIER_TAG};
use crate::runtime::{panic_payload_to_error, Message};

/// Modelled wire overhead of one point-to-point message (routing header).
const MSG_HEADER_BYTES: u64 = 24;

/// Messages parked in one inter-node aggregation buffer, each tagged
/// with its destination rank.
type AggBuffer = Vec<(usize, Message)>;
/// Modelled wire overhead of one aggregated inter-node envelope.
const ENVELOPE_HEADER_BYTES: u64 = 24;
/// Grace period before a globally-stalled communicator is declared
/// deadlocked by [`CoopCtx::deadlock_check`] (mirrors the thread runtime's
/// watchdog grace).
pub const DEADLOCK_GRACE: Duration = Duration::from_millis(250);

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

    fn peer_done(&self, rank: usize) -> bool {
        self.slots[rank].ctl.lock().status == Status::Done
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
        self.route(dest, tag, data, false);
    }

    /// Send bypassing aggregation (latency-critical control traffic).
    pub fn send_direct(&mut self, dest: usize, tag: i64, data: Vec<f64>) {
        self.net.count_logical(tag, data.len());
        self.route(dest, tag, data, true);
    }

    /// Hand one transmission to the network without counting a logical
    /// message: the resilient protocol counts each message once in
    /// `send_tagged` and routes every (re)transmission of it through here.
    fn route(&mut self, dest: usize, tag: i64, data: Vec<f64>, direct: bool) {
        self.net.send(self.wid, self.rank, dest, tag, data, direct);
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

    /// Drain every arrived message (stash first, preserving arrival
    /// order) — the resilient layer does its own matching.
    pub fn drain_messages(&mut self) -> Vec<Message> {
        let slot = &self.net.slots[self.rank];
        let mut out: Vec<Message> = self.net.slots[self.rank].stash.lock().drain(..).collect();
        out.extend(slot.mailbox.lock().drain(..));
        out
    }

    /// True once `rank`'s task has completed (its result is committed; it
    /// will never ack or receive again).
    pub fn peer_done(&self, rank: usize) -> bool {
        self.net.peer_done(rank)
    }

    /// Record why this task is about to return [`Step::Blocked`] and when
    /// the scheduler should wake it even without a message (`None`: only a
    /// message wakes it).
    pub fn park(&mut self, op: impl Into<String>, wake_at: Option<Instant>) {
        self.block_op = Some(op.into());
        self.wake_at = wake_at;
    }

    /// Record protocol progress (delivery, ack) for the stall watchdog.
    pub fn progress(&self) {
        self.net.bump_progress();
    }

    /// Grace-based deadlock check for protocol layers whose parked tasks
    /// always hold wake timers (which mute the scheduler's structural
    /// check): reports a deadlock when nothing has progressed for `grace`
    /// and every other live task is parked. `my_op` names this task's
    /// pending operation in the report.
    pub fn deadlock_check(&self, grace: Duration, my_op: &str) -> Option<Vec<BlockedRank>> {
        if self.net.last_progress.lock().elapsed() < grace {
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
            op: my_op.to_string(),
            blocked_ms: grace.as_millis() as u64,
        });
        blocked.sort_by_key(|b| b.rank);
        Some(blocked)
    }
}

fn effective_workers(cfg: &CoopConfig, size: usize) -> usize {
    let auto = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let w = if cfg.workers == 0 { auto } else { cfg.workers };
    w.clamp(1, size.max(1))
}

/// Run `size` rank tasks built by `factory` over the cooperative
/// scheduler, collecting each rank's result (in rank order) and the run's
/// scheduler/transport counters. Task errors and panics poison the run and
/// the root-cause failure is returned, exactly like
/// [`run_ranks`](crate::runtime::run_ranks).
pub fn run_tasks<K, F>(
    size: usize,
    cfg: CoopConfig,
    factory: F,
) -> Result<(Vec<K::Out>, CoopRunStats), MpiSimError>
where
    K: CoopTask,
    F: Fn(usize) -> K + Send + Sync,
{
    assert!(size > 0, "need at least one rank");
    let workers = effective_workers(&cfg, size);
    let net = Net::new(size, workers, &cfg);
    let tasks: Vec<Mutex<Option<K>>> = (0..size).map(|r| Mutex::new(Some(factory(r)))).collect();
    let results: Vec<Mutex<Option<K::Out>>> = (0..size).map(|_| Mutex::new(None)).collect();
    // Seed round-robin across the worker deques; imbalance (uneven rank
    // bodies, wake bursts landing on one worker) is what stealing levels.
    for r in 0..size {
        net.queues[r % workers].lock().push_back(r);
    }
    std::thread::scope(|scope| {
        for wid in 0..workers {
            let net = &net;
            let tasks = &tasks;
            let results = &results;
            scope.spawn(move || worker_loop(wid, net, tasks, results));
        }
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
    let outs = results
        .into_iter()
        .map(|m| m.into_inner().expect("all tasks completed"))
        .collect();
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
    let mut task = tasks[tid].lock().take().expect("queued task present");
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

// ---------------------------------------------------------------------------
// Resilient protocol, poll-based.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Pending {
    dest: usize,
    tag: i64,
    seq: u64,
    data: Vec<f64>,
    next_retry: Instant,
    retries: u32,
}

#[derive(Debug, Clone)]
struct Checkpoint {
    iter: usize,
    state: Vec<Vec<f64>>,
    next_seq: HashMap<(usize, i64), u64>,
    expected: HashMap<(usize, i64), u64>,
    barrier_epoch: u64,
    saved_at: Instant,
}

#[derive(Debug, Clone)]
enum BarrierPhase {
    /// Rank 0: gathering arrivals from ranks `1..size`; `next` is the next
    /// rank still awaited.
    Gather { next: usize },
    /// Non-root: notified rank 0, awaiting the release broadcast.
    AwaitRelease,
}

/// Poll-based port of [`ResilientCtx`](crate::resilient::ResilientCtx) for
/// cooperative tasks: identical wire protocol (sequenced + checksummed
/// envelopes, always-ack, bounded exponential retry, pessimistic receive
/// logging, checkpoint/restore-and-replay, message-based barrier), but
/// every blocking operation becomes a `*_poll` method that either
/// completes or records park hints on the [`CoopCtx`] and asks the caller
/// to return [`Step::Blocked`].
pub struct CoopResilient {
    rank: usize,
    size: usize,
    cfg: ResilientConfig,
    injector: FaultInjector,
    next_seq: HashMap<(usize, i64), u64>,
    expected: HashMap<(usize, i64), u64>,
    received: HashMap<(usize, i64), BTreeMap<u64, Vec<f64>>>,
    unacked: Vec<Pending>,
    delayed: Vec<(Instant, usize, i64, Vec<f64>)>,
    held: Vec<(Instant, usize, i64, Vec<f64>)>,
    checkpoint: Option<Checkpoint>,
    barrier_epoch: u64,
    barrier: Option<(u64, BarrierPhase)>,
    /// Deadline of the blocking operation currently in progress (armed on
    /// the first unsatisfied poll, cleared on completion).
    op_deadline: Option<Instant>,
    /// Injected-fault and recovery counters for this rank.
    pub stats: FaultStats,
}

impl CoopResilient {
    /// Protocol state for one cooperative rank under fault plan `plan`.
    pub fn new(rank: usize, size: usize, plan: &FaultPlan, cfg: ResilientConfig) -> Self {
        Self {
            rank,
            size,
            cfg,
            injector: FaultInjector::new(plan, rank),
            next_seq: HashMap::new(),
            expected: HashMap::new(),
            received: HashMap::new(),
            unacked: Vec::new(),
            delayed: Vec::new(),
            held: Vec::new(),
            checkpoint: None,
            barrier_epoch: 0,
            barrier: None,
            op_deadline: None,
            stats: FaultStats::default(),
        }
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Reliable send: sequence, remember until acked, hand to the (possibly
    /// faulty) network. Never blocks.
    pub fn send(&mut self, ctx: &mut CoopCtx<'_>, dest: usize, tag: i64, data: Vec<f64>) {
        assert!(
            tag >= 0,
            "user tags must be non-negative (negative tags are protocol-reserved)"
        );
        self.send_tagged(ctx, dest, tag, data);
    }

    fn send_tagged(&mut self, ctx: &mut CoopCtx<'_>, dest: usize, tag: i64, data: Vec<f64>) {
        let seq_slot = self.next_seq.entry((dest, tag)).or_insert(0);
        let seq = *seq_slot;
        *seq_slot += 1;
        let mut encoded = Vec::with_capacity(data.len() + 2);
        encoded.push(f64::from_bits(seq));
        encoded.push(f64::from_bits(checksum(self.rank, tag, seq, &data)));
        encoded.extend_from_slice(&data);
        self.stats.data_msgs += 1;
        ctx.net.count_logical(tag, encoded.len());
        self.unacked.push(Pending {
            dest,
            tag,
            seq,
            data: encoded.clone(),
            next_retry: Instant::now() + self.cfg.rto,
            retries: 0,
        });
        self.transmit(ctx, dest, tag, encoded, false);
    }

    fn transmit(
        &mut self,
        ctx: &mut CoopCtx<'_>,
        dest: usize,
        tag: i64,
        mut encoded: Vec<f64>,
        retransmit: bool,
    ) {
        let action = self.injector.on_send(retransmit);
        match action {
            SendAction::Drop => {
                self.stats.injected_drops += 1;
            }
            SendAction::Duplicate => {
                self.stats.injected_dups += 1;
                self.raw_send(ctx, dest, tag, encoded.clone(), retransmit);
                self.raw_send(ctx, dest, tag, encoded, retransmit);
            }
            SendAction::Corrupt => {
                self.stats.injected_corruptions += 1;
                if encoded.len() > 2 {
                    let w = 2 + self.injector.corrupt_word(encoded.len() - 2);
                    encoded[w] = f64::from_bits(encoded[w].to_bits() ^ 1);
                } else {
                    encoded[1] = f64::from_bits(encoded[1].to_bits() ^ 1);
                }
                self.raw_send(ctx, dest, tag, encoded, retransmit);
            }
            SendAction::Delay(d) => {
                self.stats.injected_delays += 1;
                self.delayed.push((Instant::now() + d, dest, tag, encoded));
            }
            SendAction::HoldUntilNext => {
                self.stats.injected_reorders += 1;
                self.held.push((Instant::now(), dest, tag, encoded));
            }
            SendAction::Deliver => {
                self.raw_send(ctx, dest, tag, encoded, retransmit);
            }
        }
        if !matches!(action, SendAction::HoldUntilNext) {
            self.release_held(ctx, Some(dest), Instant::now());
        }
    }

    fn raw_send(
        &mut self,
        ctx: &mut CoopCtx<'_>,
        dest: usize,
        tag: i64,
        data: Vec<f64>,
        direct: bool,
    ) {
        if ctx.peer_done(dest) {
            // The destination completed all of its receives: treat every
            // in-flight message to it as acknowledged (mirrors the thread
            // runtime's closed-channel handling).
            self.unacked.retain(|p| p.dest != dest);
            return;
        }
        ctx.route(dest, tag, data, direct);
    }

    fn send_ack(&mut self, ctx: &mut CoopCtx<'_>, dest: usize, orig_tag: i64, seq: u64) {
        self.stats.acks_sent += 1;
        let data = vec![f64::from_bits(orig_tag as u64), f64::from_bits(seq)];
        match self.injector.on_send(true) {
            SendAction::Drop => {
                self.stats.injected_drops += 1;
            }
            SendAction::Delay(d) => {
                self.stats.injected_delays += 1;
                self.delayed.push((Instant::now() + d, dest, ACK_TAG, data));
            }
            _ => self.raw_send(ctx, dest, ACK_TAG, data, true),
        }
    }

    fn handle(&mut self, ctx: &mut CoopCtx<'_>, msg: Message) {
        if msg.tag == ACK_TAG {
            if msg.data.len() != 2 {
                return;
            }
            let tag = msg.data[0].to_bits() as i64;
            let seq = msg.data[1].to_bits();
            let before = self.unacked.len();
            self.unacked
                .retain(|p| !(p.dest == msg.from && p.tag == tag && p.seq == seq));
            if self.unacked.len() != before {
                ctx.progress();
            }
            return;
        }
        if msg.data.len() < 2 {
            return;
        }
        let seq = msg.data[0].to_bits();
        let ck = msg.data[1].to_bits();
        let payload = &msg.data[2..];
        if checksum(msg.from, msg.tag, seq, payload) != ck {
            self.stats.corruptions_detected += 1;
            return;
        }
        let payload = payload.to_vec();
        self.send_ack(ctx, msg.from, msg.tag, seq);
        let key = (msg.from, msg.tag);
        let exp = *self.expected.get(&key).unwrap_or(&0);
        if seq < exp
            && !self
                .received
                .get(&key)
                .is_some_and(|m| m.contains_key(&seq))
        {
            self.stats.duplicates_dropped += 1;
            return;
        }
        let slot = self.received.entry(key).or_default();
        if let std::collections::btree_map::Entry::Vacant(e) = slot.entry(seq) {
            e.insert(payload);
            ctx.progress();
        } else {
            self.stats.duplicates_dropped += 1;
        }
    }

    fn release_held(&mut self, ctx: &mut CoopCtx<'_>, dest: Option<usize>, now: Instant) {
        let rto = self.cfg.rto;
        let mut due = Vec::new();
        self.held.retain(|(since, d, t, data)| {
            let release = dest == Some(*d) || now.duration_since(*since) >= rto;
            if release {
                due.push((*d, *t, data.clone()));
            }
            !release
        });
        for (d, t, data) in due {
            self.raw_send(ctx, d, t, data, true);
        }
    }

    fn release_delayed(&mut self, ctx: &mut CoopCtx<'_>, now: Instant) {
        let mut due = Vec::new();
        self.delayed.retain(|(when, d, t, data)| {
            if *when <= now {
                due.push((*d, *t, data.clone()));
                false
            } else {
                true
            }
        });
        for (d, t, data) in due {
            self.raw_send(ctx, d, t, data, true);
        }
    }

    fn retransmit_due(&mut self, ctx: &mut CoopCtx<'_>, now: Instant) -> Result<(), MpiSimError> {
        // A destination that completed will never ack: its messages are
        // done (mirrors the thread runtime's closed-channel handling).
        self.unacked.retain(|p| !ctx.peer_done(p.dest));
        let mut due = Vec::new();
        for p in &mut self.unacked {
            if now < p.next_retry {
                continue;
            }
            if p.retries + 1 >= self.cfg.max_retries {
                return Err(MpiSimError::RetriesExhausted {
                    rank: self.rank,
                    dest: p.dest,
                    tag: p.tag,
                    attempts: p.retries + 1,
                });
            }
            p.retries += 1;
            let backoff = self
                .cfg
                .rto
                .saturating_mul(1u32 << p.retries.min(5))
                .min(BACKOFF_CAP);
            p.next_retry = now + backoff;
            due.push((p.dest, p.tag, p.data.clone()));
        }
        for (dest, tag, data) in due {
            self.stats.retries += 1;
            self.transmit(ctx, dest, tag, data, true);
        }
        Ok(())
    }

    /// Drive the protocol once: deliver arrivals, release delayed/held
    /// messages, fire retry timers. Call at the top of every task step.
    pub fn poll(&mut self, ctx: &mut CoopCtx<'_>) -> Result<(), MpiSimError> {
        let now = Instant::now();
        self.release_delayed(ctx, now);
        self.release_held(ctx, None, now);
        for msg in ctx.drain_messages() {
            self.handle(ctx, msg);
        }
        self.retransmit_due(ctx, Instant::now())
    }

    /// Earliest instant at which the protocol has a timer duty
    /// (retransmit, delayed release, reorder release).
    pub fn next_timer(&self) -> Option<Instant> {
        let mut next: Option<Instant> = None;
        let mut fold = |t: Instant| next = Some(next.map_or(t, |n| n.min(t)));
        for p in &self.unacked {
            fold(p.next_retry);
        }
        for (when, ..) in &self.delayed {
            fold(*when);
        }
        let rto = self.cfg.rto;
        for (since, ..) in &self.held {
            fold(*since + rto);
        }
        next
    }

    fn try_deliver(&mut self, src: usize, tag: i64) -> Option<Vec<f64>> {
        let key = (src, tag);
        let exp = *self.expected.get(&key).unwrap_or(&0);
        let p = self.received.get(&key).and_then(|m| m.get(&exp))?.clone();
        self.expected.insert(key, exp + 1);
        Some(p)
    }

    /// Poll-based reliable receive: `Ok(Some(payload))` delivers the next
    /// in-sequence message of the `(src, tag)` stream; `Ok(None)` means the
    /// caller must return [`Step::Blocked`] (park hints are set). Fails
    /// with a structured error on deadline, detected deadlock, or retry
    /// exhaustion.
    pub fn recv_poll(
        &mut self,
        ctx: &mut CoopCtx<'_>,
        src: usize,
        tag: i64,
    ) -> Result<Option<Vec<f64>>, MpiSimError> {
        self.poll(ctx)?;
        if let Some(p) = self.try_deliver(src, tag) {
            self.op_deadline = None;
            return Ok(Some(p));
        }
        let now = Instant::now();
        let deadline = *self.op_deadline.get_or_insert(now + self.cfg.recv_deadline);
        let exp = *self.expected.get(&(src, tag)).unwrap_or(&0);
        let op = format!("coop recv(src={src}, tag={tag}, seq={exp})");
        if now >= deadline {
            self.op_deadline = None;
            return Err(MpiSimError::Timeout {
                rank: self.rank,
                op,
                waited_ms: self.cfg.recv_deadline.as_millis() as u64,
            });
        }
        if let Some(blocked) = ctx.deadlock_check(DEADLOCK_GRACE, &op) {
            self.op_deadline = None;
            return Err(MpiSimError::Deadlock { blocked });
        }
        // Wake for the earliest protocol duty, the op deadline, or the next
        // stall-watchdog check — whichever comes first.
        let mut wake = deadline.min(now + DEADLOCK_GRACE);
        if let Some(t) = self.next_timer() {
            wake = wake.min(t);
        }
        ctx.park(op, Some(wake));
        Ok(None)
    }

    /// Poll-based fault-tolerant barrier (all-to-rank-0 gather plus
    /// broadcast): `Ok(true)` once this rank has passed the barrier,
    /// `Ok(false)` to block (park hints set).
    pub fn barrier_poll(&mut self, ctx: &mut CoopCtx<'_>) -> Result<bool, MpiSimError> {
        if self.size == 1 {
            return Ok(true);
        }
        if self.barrier.is_none() {
            let epoch = self.barrier_epoch;
            self.barrier_epoch += 1;
            let phase = if self.rank == 0 {
                BarrierPhase::Gather { next: 1 }
            } else {
                self.send_tagged(ctx, 0, BARRIER_TAG, vec![epoch as f64]);
                BarrierPhase::AwaitRelease
            };
            self.barrier = Some((epoch, phase));
        }
        let (epoch, phase) = self.barrier.clone().expect("barrier in progress");
        match phase {
            BarrierPhase::Gather { mut next } => {
                while next < self.size {
                    match self.recv_poll(ctx, next, BARRIER_TAG)? {
                        Some(_) => next += 1,
                        None => {
                            self.barrier = Some((epoch, BarrierPhase::Gather { next }));
                            return Ok(false);
                        }
                    }
                }
                for r in 1..self.size {
                    self.send_tagged(ctx, r, BARRIER_TAG, vec![epoch as f64]);
                }
                self.barrier = None;
                Ok(true)
            }
            BarrierPhase::AwaitRelease => match self.recv_poll(ctx, 0, BARRIER_TAG)? {
                Some(_) => {
                    self.barrier = None;
                    Ok(true)
                }
                None => Ok(false),
            },
        }
    }

    /// Take a local checkpoint of `state` at iteration `iter` and
    /// garbage-collect the delivered prefix of the receive log. `state` is
    /// only called when a restore could read the copy (see
    /// [`FaultInjector::checkpoint_state`]).
    pub fn save_checkpoint(&mut self, iter: usize, state: impl FnOnce() -> Vec<Vec<f64>>) {
        self.stats.checkpoints += 1;
        for (key, slot) in self.received.iter_mut() {
            let exp = *self.expected.get(key).unwrap_or(&0);
            slot.retain(|s, _| *s >= exp);
        }
        self.checkpoint = Some(Checkpoint {
            iter,
            state: self.injector.checkpoint_state(state),
            next_seq: self.next_seq.clone(),
            expected: self.expected.clone(),
            barrier_epoch: self.barrier_epoch,
            saved_at: Instant::now(),
        });
    }

    /// True exactly once when the fault plan crashes this rank at `iter`.
    pub fn crash_pending(&mut self, iter: usize) -> bool {
        self.injector.should_crash(iter)
    }

    /// Simulate the fail-stop crash and restart: discard volatile state,
    /// restore the last checkpoint, return `(iteration, state)` to resume
    /// from. Replay is deterministic: receives are served from the durable
    /// receive log and replayed sends reuse their original sequence
    /// numbers, so peers deduplicate them.
    pub fn crash_and_restore(
        &mut self,
        at_iter: usize,
    ) -> Result<(usize, Vec<Vec<f64>>), MpiSimError> {
        let cp = match &self.checkpoint {
            Some(cp) => cp.clone(),
            None => {
                return Err(MpiSimError::InvalidConfig(format!(
                    "rank {} crashed at iteration {at_iter} before any checkpoint",
                    self.rank
                )))
            }
        };
        self.stats.injected_crashes += 1;
        self.stats.restores += 1;
        self.stats.replayed_iterations += at_iter.saturating_sub(cp.iter) as u64;
        self.stats.wasted_seconds += cp.saved_at.elapsed().as_secs_f64();
        self.next_seq = cp.next_seq.clone();
        self.expected = cp.expected.clone();
        self.barrier_epoch = cp.barrier_epoch;
        // In-network state dies with the process; the sender-side message
        // log (`unacked`) and the receive log survive on stable storage.
        self.delayed.clear();
        self.held.clear();
        self.barrier = None;
        self.op_deadline = None;
        Ok((cp.iter, cp.state))
    }

    /// Poll-based end-of-body drain: give unacked messages a last chance to
    /// land without blocking shutdown on peers that already left.
    /// `Ok(true)` once drained (or the drain deadline passed), `Ok(false)`
    /// to block.
    pub fn drain_poll(&mut self, ctx: &mut CoopCtx<'_>) -> Result<bool, MpiSimError> {
        if self.unacked.is_empty() && self.delayed.is_empty() && self.held.is_empty() {
            self.op_deadline = None;
            return Ok(true);
        }
        let now = Instant::now();
        let deadline = *self.op_deadline.get_or_insert(now + self.cfg.recv_deadline);
        if now >= deadline {
            // Peers that needed the data would have kept acking.
            self.op_deadline = None;
            return Ok(true);
        }
        self.poll(ctx)?;
        if self.unacked.is_empty() && self.delayed.is_empty() && self.held.is_empty() {
            self.op_deadline = None;
            return Ok(true);
        }
        let mut wake = deadline;
        if let Some(t) = self.next_timer() {
            wake = wake.min(t);
        }
        ctx.park("coop drain", Some(wake));
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

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

    /// Resilient ping-pong iterations under a lossy fault plan, with
    /// checkpoints and a mid-run crash of rank 1.
    struct Pong {
        res: CoopResilient,
        iter: usize,
        iters: usize,
        value: f64,
        phase: PongPhase,
    }

    #[derive(Clone, Copy, PartialEq)]
    enum PongPhase {
        Send,
        Recv,
        Barrier,
        Drain,
    }

    impl Pong {
        fn new(rank: usize, size: usize, plan: &FaultPlan, iters: usize) -> Self {
            let cfg = ResilientConfig {
                checkpoint_interval: 2,
                ..ResilientConfig::default()
            };
            Self {
                res: CoopResilient::new(rank, size, plan, cfg),
                iter: 0,
                iters,
                value: rank as f64,
                phase: PongPhase::Send,
            }
        }
    }

    impl CoopTask for Pong {
        type Out = (f64, FaultStats);
        fn step(&mut self, ctx: &mut CoopCtx<'_>) -> Result<Step<Self::Out>, MpiSimError> {
            loop {
                match self.phase {
                    PongPhase::Send => {
                        if self.res.crash_pending(self.iter) {
                            let (iter, state) = self.res.crash_and_restore(self.iter)?;
                            self.iter = iter;
                            self.value = state[0][0];
                        }
                        if self.iter.is_multiple_of(2) {
                            let value = self.value;
                            self.res.save_checkpoint(self.iter, || vec![vec![value]]);
                        }
                        let peer = ctx.size() - 1 - ctx.rank();
                        if peer != ctx.rank() {
                            self.res.send(ctx, peer, 5, vec![self.value]);
                        }
                        self.phase = PongPhase::Recv;
                    }
                    PongPhase::Recv => {
                        let peer = ctx.size() - 1 - ctx.rank();
                        if peer != ctx.rank() {
                            match self.res.recv_poll(ctx, peer, 5)? {
                                Some(data) => self.value = data[0] + 1.0,
                                None => return Ok(Step::Blocked),
                            }
                        }
                        self.phase = PongPhase::Barrier;
                    }
                    PongPhase::Barrier => {
                        if !self.res.barrier_poll(ctx)? {
                            return Ok(Step::Blocked);
                        }
                        self.iter += 1;
                        self.phase = if self.iter == self.iters {
                            PongPhase::Drain
                        } else {
                            PongPhase::Send
                        };
                    }
                    PongPhase::Drain => {
                        if !self.res.drain_poll(ctx)? {
                            return Ok(Step::Blocked);
                        }
                        return Ok(Step::Done((self.value, self.res.stats)));
                    }
                }
            }
        }
    }

    fn pong_values(size: usize, plan: FaultPlan, iters: usize) -> (Vec<f64>, FaultStats) {
        let (out, _) = run_tasks(size, CoopConfig::default(), move |r| {
            Pong::new(r, size, &plan, iters)
        })
        .unwrap();
        let mut stats = FaultStats::default();
        let values = out
            .into_iter()
            .map(|(v, s)| {
                stats.merge(&s);
                v
            })
            .collect();
        (values, stats)
    }

    #[test]
    fn resilient_protocol_masks_faults_and_crash() {
        let clean = pong_values(4, FaultPlan::none(42), 6).0;
        let lossy_plan = FaultPlan {
            corrupt_prob: 0.05,
            delay_prob: 0.05,
            max_delay_ms: 5,
            ..FaultPlan::lossy(42, 0.1)
        }
        .with_crash(1, 3);
        let (lossy, stats) = pong_values(4, lossy_plan, 6);
        assert_eq!(clean, lossy, "faults must not change results");
        assert!(stats.injected() > 0, "plan must actually inject");
        assert_eq!(stats.injected_crashes, 1);
        assert_eq!(stats.restores, 1);
        assert!(stats.checkpoints > 0);
    }

    /// Rank 0 sends one message to rank 1 and at once fires the retransmit
    /// timer by hand (no fault plan, no waiting on a clock); rank 1
    /// receives it. Both drain.
    struct Resend {
        res: CoopResilient,
        sent: bool,
        got: bool,
    }

    impl CoopTask for Resend {
        type Out = FaultStats;
        fn step(&mut self, ctx: &mut CoopCtx<'_>) -> Result<Step<FaultStats>, MpiSimError> {
            if self.res.rank() == 0 && !self.sent {
                self.sent = true;
                self.res.send(ctx, 1, 5, vec![1.0, 2.0, 3.0]);
                let overdue = Instant::now() + Duration::from_secs(60);
                self.res.retransmit_due(ctx, overdue)?;
            }
            if self.res.rank() == 1 && !self.got {
                match self.res.recv_poll(ctx, 0, 5)? {
                    Some(data) => assert_eq!(data, vec![1.0, 2.0, 3.0]),
                    None => return Ok(Step::Blocked),
                }
                self.got = true;
            }
            if !self.res.drain_poll(ctx)? {
                return Ok(Step::Blocked);
            }
            Ok(Step::Done(self.res.stats))
        }
    }

    #[test]
    fn logical_ledger_counts_a_message_once_however_often_it_is_sent() {
        let (out, run) = run_tasks(2, CoopConfig::default(), |r| Resend {
            res: CoopResilient::new(r, 2, &FaultPlan::none(7), ResilientConfig::default()),
            sent: false,
            got: false,
        })
        .unwrap();
        assert_eq!(out[0].retries, 1, "the retransmit must have fired");
        assert_eq!(out[0].data_msgs, 1);
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
