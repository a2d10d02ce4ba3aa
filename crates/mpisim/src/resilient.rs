//! Self-healing message transport: one protocol, two links.
//!
//! [`Transport`] is the protocol a production stencil stack layers over an
//! unreliable interconnect, written once as a poll-driven state machine:
//!
//! * **sequence-numbered envelopes** per `(peer, tag)` stream: the payload
//!   followed by a two-word trailer, the sequence number and a by-word FNV
//!   checksum over header and payload — duplicates are deduplicated,
//!   corruption is detected and discarded;
//! * **ack + bounded retry**: every data message is acknowledged; unacked
//!   messages retransmit with exponential backoff (capped below the
//!   deadlock-watchdog grace) up to a bounded attempt count, after which
//!   the run fails with [`MpiSimError::RetriesExhausted`]. A retransmission
//!   with retries left counts as watchdog progress, so loss inside the
//!   retry budget is never reported as [`MpiSimError::Deadlock`];
//! * **deadlines everywhere**: `recv`, the message-based `barrier` and the
//!   final `drain` carry deadlines and consult the watchdog, so a lost peer
//!   surfaces as a structured error naming the stuck ranks;
//! * **checkpoint / restore-and-replay**: ranks snapshot their state (and
//!   the protocol's stream counters) periodically; a fail-stop crash
//!   restores the snapshot and replays forward. Receives during replay are
//!   served from the durable receive log (pessimistic message logging) and
//!   replayed sends are deduplicated by their original sequence numbers at
//!   the receiver, so recovery is bit-identical to the fault-free run.
//!
//! The transport never blocks and never touches a channel or a scheduler:
//! it drives a [`Link`]. Two links exist: [`CoopCtx`](crate::coop::CoopCtx)
//! (a rank is a task on the work-stealing scheduler; parking yields the
//! worker) and the thread-per-rank adapter behind [`ResilientCtx`], where
//! **blocking = poll + wait**: `recv` is `recv_poll` in a loop that sleeps
//! on the rank's channel until the wake instant the transport named. A rank
//! body in poll form ([`RankTask`]) runs unchanged on either link.
//!
//! Faults are injected on the *send* side by a deterministic seeded
//! [`FaultInjector`]; every injected fault and every recovery action is
//! counted in [`FaultStats`].

// A rank body runs on input-derived shapes: every failure is a coded error.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use fsc_ir::hash::Fnv64;

use crate::coop::Step;
use crate::error::{BlockedRank, MpiSimError};
use crate::fault::{FaultInjector, FaultPlan, FaultStats, SendAction};
use crate::runtime::{run_ranks, Message, RankCtx};

/// Tag reserved for acknowledgements (never collides with user tags, which
/// must be non-negative).
const ACK_TAG: i64 = i64::MIN + 1;
/// Tag reserved for the message-based barrier.
const BARRIER_TAG: i64 = i64::MIN + 2;
/// Ceiling of the exponential retransmit backoff. Kept below the deadlock
/// watchdog's grace period so an unacked message is retransmitted — and so
/// counts as progress — at least once per grace.
const BACKOFF_CAP: Duration = Duration::from_millis(120);

/// Tuning of the resilient protocol.
#[derive(Debug, Clone, Copy)]
pub struct ResilientConfig {
    /// Initial retransmit timeout (doubles per retry, capped).
    pub rto: Duration,
    /// Maximum send attempts (first transmission + retries) before the
    /// stream is declared dead.
    pub max_retries: u32,
    /// Deadline of one resilient `recv` / barrier phase.
    pub recv_deadline: Duration,
    /// Take a local checkpoint every this many iterations (used by the
    /// halo-exchange runners; `0` disables periodic checkpoints).
    pub checkpoint_interval: usize,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        Self {
            rto: Duration::from_millis(30),
            max_retries: 12,
            recv_deadline: Duration::from_secs(10),
            checkpoint_interval: 4,
        }
    }
}

/// What the [`Transport`] needs from the substrate carrying one rank: move
/// wire messages, report liveness, and suspend the rank. Implemented by
/// [`CoopCtx`](crate::coop::CoopCtx) and by the thread-per-rank adapter
/// inside [`ResilientCtx`].
pub trait Link {
    /// Hand one wire message to `dest`. `direct` marks latency-critical
    /// traffic (acks, retransmissions, released delayed/held messages) that
    /// a batching link must not hold back.
    fn wire(&mut self, dest: usize, tag: i64, data: Vec<f64>, direct: bool);
    /// Every wire message that arrived since the last call, in order.
    fn arrivals(&mut self) -> Vec<Message>;
    /// True once `rank`'s body has returned: it completed all of its
    /// receives and will never ack again.
    fn peer_done(&self, rank: usize) -> bool;
    /// Record protocol progress (delivery, ack, retransmission) for the
    /// stall watchdog.
    fn progress(&self);
    /// How long the whole communicator must stall before
    /// [`Link::deadlock_check`] may report.
    fn deadlock_grace(&self) -> Duration;
    /// The stuck ranks, when nothing progressed for the grace and every
    /// other live rank is blocked; `op` names the caller's pending operation
    /// (only asked for when there is a deadlock to report).
    fn deadlock_check(&self, op: &dyn Fn() -> String) -> Option<Vec<BlockedRank>>;
    /// The caller is about to block on `op`: resume it when a message
    /// arrives, and at `wake_at` even if none does.
    fn park(&mut self, op: String, wake_at: Instant);
    /// The operation last parked on completed; the rank is running again.
    fn unpark(&mut self) {}
    /// Count one user-level message in the link's logical ledger. Called
    /// once per message, when it is first sent: retransmissions, duplicates
    /// and delays are physical traffic only, so the ledger depends on
    /// neither timing nor the fault plan.
    fn count_logical(&self, _tag: i64, _elems: usize) {}
}

/// A rank body in poll form: `step` runs to the next point where the
/// [`Transport`] asked to block and is called again once the link resumes
/// the rank. The same body runs on the cooperative scheduler
/// ([`coop::Resilient`](crate::coop::Resilient)) and on a rank thread
/// ([`ResilientCtx::block_on`]).
pub trait RankTask: Send {
    /// The body's result.
    type Out: Send;
    /// Advance the body. Return [`Step::Blocked`] only after a `*_poll`
    /// method of `t` returned "not yet" (it has parked the link).
    fn step<L: Link>(
        &mut self,
        t: &mut Transport,
        link: &mut L,
    ) -> Result<Step<Self::Out>, MpiSimError>;
}

/// A message sent but not yet acknowledged (sender-side message log: kept
/// across a simulated crash, like a log on node-local stable storage).
#[derive(Debug, Clone)]
struct Pending {
    dest: usize,
    tag: i64,
    seq: u64,
    /// Fully encoded wire data (payload + trailer).
    data: Vec<f64>,
    next_retry: Instant,
    retries: u32,
}

/// A rank's checkpoint: user state plus the protocol counters needed for
/// deterministic replay.
#[derive(Debug, Clone)]
struct CheckpointState {
    iter: usize,
    state: Vec<Vec<f64>>,
    next_seq: HashMap<(usize, i64), u64>,
    expected: HashMap<(usize, i64), u64>,
    barrier_epoch: u64,
    saved_at: Instant,
}

/// The resilient protocol state of one rank. Every operation that could
/// block is a `*_poll` method that either completes or parks the [`Link`]
/// and asks to be called again.
pub struct Transport {
    rank: usize,
    size: usize,
    cfg: ResilientConfig,
    injector: FaultInjector,
    /// Next outgoing sequence number per `(dest, tag)` stream.
    next_seq: HashMap<(usize, i64), u64>,
    /// Next sequence number to deliver per `(src, tag)` stream.
    expected: HashMap<(usize, i64), u64>,
    /// Durable receive log: checksummed, deduplicated payloads by stream
    /// and sequence. Entries are kept until garbage-collected at the next
    /// checkpoint, so restore-and-replay re-reads them without any
    /// re-communication.
    received: HashMap<(usize, i64), BTreeMap<u64, Vec<f64>>>,
    unacked: Vec<Pending>,
    /// Injector-delayed messages not yet in the network.
    delayed: Vec<(Instant, usize, i64, Vec<f64>)>,
    /// Reorder-held messages (released by the next send to the same
    /// destination, or by timeout).
    held: Vec<(Instant, usize, i64, Vec<f64>)>,
    checkpoint: Option<CheckpointState>,
    barrier_epoch: u64,
    /// A barrier in progress: its epoch and the next rank to hear from
    /// (rank 0 from each of `1..size`, the others from rank 0).
    barrier: Option<(u64, usize)>,
    /// Deadline of the blocking operation currently in progress (armed on
    /// the first unsatisfied poll, cleared on completion).
    op_deadline: Option<Instant>,
    /// Injected-fault and recovery counters for this rank.
    pub stats: FaultStats,
}

/// By-word FNV over the header fields and payload bits: each step is a
/// bijection of the running hash, so one flipped bit — all the injector
/// does — always changes the result. Sender and receiver are this one
/// function in one process; the value never persists.
fn checksum(from: usize, tag: i64, seq: u64, payload: &[f64]) -> u64 {
    let mut h = Fnv64::new();
    h.write_word(from as u64);
    h.write_word(tag as u64);
    h.write_word(seq);
    for &x in payload {
        h.write_word(x.to_bits());
    }
    h.finish()
}

impl Transport {
    /// Protocol state for rank `rank` of `size` under fault plan `plan`.
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

    /// Reliable send: sequence the payload, remember it until acked, and
    /// hand it to the (possibly faulty) network. Never blocks; fails only
    /// on a negative `tag` (those are protocol-reserved).
    pub fn send<L: Link + ?Sized>(
        &mut self,
        link: &mut L,
        dest: usize,
        tag: i64,
        data: Vec<f64>,
    ) -> Result<(), MpiSimError> {
        if tag < 0 {
            let why = "user tags must be non-negative (negative tags are protocol-reserved)";
            return Err(MpiSimError::InvalidConfig(format!("tag {tag}: {why}")));
        }
        self.send_tagged(link, dest, tag, data);
        Ok(())
    }

    fn send_tagged<L: Link + ?Sized>(
        &mut self,
        link: &mut L,
        dest: usize,
        tag: i64,
        mut encoded: Vec<f64>,
    ) {
        let seq_slot = self.next_seq.entry((dest, tag)).or_insert(0);
        let seq = *seq_slot;
        *seq_slot += 1;
        // Trailer pushed onto the payload here, popped by `handle`.
        let ck = checksum(self.rank, tag, seq, &encoded);
        encoded.extend([f64::from_bits(seq), f64::from_bits(ck)]);
        self.stats.data_msgs += 1;
        link.count_logical(tag, encoded.len());
        self.unacked.push(Pending {
            dest,
            tag,
            seq,
            data: encoded.clone(),
            next_retry: Instant::now() + self.cfg.rto,
            retries: 0,
        });
        self.transmit(link, dest, tag, encoded, false);
    }

    /// Hand one encoded message to the network, applying the injector.
    fn transmit<L: Link + ?Sized>(
        &mut self,
        link: &mut L,
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
                link.wire(dest, tag, encoded.clone(), retransmit);
                link.wire(dest, tag, encoded, retransmit);
            }
            SendAction::Corrupt => {
                self.stats.injected_corruptions += 1;
                // Flip one payload bit; the receiver's checksum rejects the
                // message and the retry timer recovers it. A header-only
                // message gets its checksum word flipped instead.
                let w = match encoded.len() {
                    ..=2 => 1,
                    n => self.injector.corrupt_word(n - 2),
                };
                encoded[w] = f64::from_bits(encoded[w].to_bits() ^ 1);
                link.wire(dest, tag, encoded, retransmit);
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
                link.wire(dest, tag, encoded, retransmit);
            }
        }
        // A physical send to `dest` flushes anything held back for it, so a
        // reorder is exactly an adjacent-pair swap.
        if !matches!(action, SendAction::HoldUntilNext) {
            self.release_held(link, Some(dest), Instant::now());
        }
    }

    fn send_ack<L: Link + ?Sized>(&mut self, link: &mut L, dest: usize, orig_tag: i64, seq: u64) {
        self.stats.acks_sent += 1;
        // Acks face drops and delays too (a dropped ack forces a
        // retransmission that the receiver dedups); duplication, corruption
        // and reordering are meaningless for an idempotent un-checksummed
        // ack, so those draws deliver normally.
        let data = vec![f64::from_bits(orig_tag as u64), f64::from_bits(seq)];
        match self.injector.on_send(true) {
            SendAction::Drop => {
                self.stats.injected_drops += 1;
            }
            SendAction::Delay(d) => {
                self.stats.injected_delays += 1;
                self.delayed.push((Instant::now() + d, dest, ACK_TAG, data));
            }
            _ => link.wire(dest, ACK_TAG, data, true),
        }
    }

    /// Process one arrived wire message.
    fn handle<L: Link + ?Sized>(&mut self, link: &mut L, msg: Message) {
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
                link.progress();
            }
            return;
        }
        let mut payload = msg.data;
        let (Some(ck), Some(seq)) = (payload.pop(), payload.pop()) else {
            return; // malformed; unreachable from our own sender
        };
        let seq = seq.to_bits();
        if checksum(msg.from, msg.tag, seq, &payload) != ck.to_bits() {
            // Corrupted in flight: discard without acking; the sender's
            // retry timer re-delivers a clean copy.
            self.stats.corruptions_detected += 1;
            return;
        }
        // Always ack — even a duplicate means the sender missed our first
        // ack and is still retrying.
        self.send_ack(link, msg.from, msg.tag, seq);
        let key = (msg.from, msg.tag);
        let exp = *self.expected.get(&key).unwrap_or(&0);
        if seq < exp
            && !self
                .received
                .get(&key)
                .is_some_and(|m| m.contains_key(&seq))
        {
            // Already delivered and garbage-collected.
            self.stats.duplicates_dropped += 1;
            return;
        }
        let slot = self.received.entry(key).or_default();
        if let std::collections::btree_map::Entry::Vacant(e) = slot.entry(seq) {
            e.insert(payload);
            link.progress();
        } else {
            self.stats.duplicates_dropped += 1;
        }
    }

    /// Release reorder-held messages: those for `dest` (the flush triggered
    /// by a newer send to it) and any held longer than one `rto`.
    fn release_held<L: Link + ?Sized>(&mut self, link: &mut L, dest: Option<usize>, now: Instant) {
        let rto = self.cfg.rto;
        let due = |(since, d, ..): &mut (Instant, usize, i64, Vec<f64>)| {
            dest == Some(*d) || now.duration_since(*since) >= rto
        };
        for (_, d, t, data) in self.held.extract_if(.., due).collect::<Vec<_>>() {
            link.wire(d, t, data, true);
        }
    }

    /// Release injector-delayed messages whose time has come.
    fn release_delayed<L: Link + ?Sized>(&mut self, link: &mut L, now: Instant) {
        let due = self.delayed.extract_if(.., |(when, ..)| *when <= now);
        for (_, d, t, data) in due.collect::<Vec<_>>() {
            link.wire(d, t, data, true);
        }
    }

    /// Retransmit every unacked message whose timer expired; error out of
    /// the run once a stream exceeds the retry bound.
    pub(crate) fn retransmit_due<L: Link + ?Sized>(
        &mut self,
        link: &mut L,
        now: Instant,
    ) -> Result<(), MpiSimError> {
        // A destination that completed all of its receives will never ack:
        // its messages are done, not lost.
        self.unacked.retain(|p| !link.peer_done(p.dest));
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
            // Still inside the retry budget, so this is the protocol
            // working, not a hang: without the bump a run of dropped
            // retransmissions outlasts the watchdog's grace and a recoverable
            // loss reads as a deadlock. `max_retries` bounds the quiet.
            link.progress();
            self.transmit(link, dest, tag, data, true);
        }
        Ok(())
    }

    /// Drive the protocol once: release delayed/held messages, deliver
    /// arrivals, fire retry timers.
    fn poll<L: Link + ?Sized>(&mut self, link: &mut L) -> Result<(), MpiSimError> {
        let now = Instant::now();
        self.release_delayed(link, now);
        self.release_held(link, None, now);
        for msg in link.arrivals() {
            self.handle(link, msg);
        }
        self.retransmit_due(link, Instant::now())
    }

    /// Earliest instant at which the protocol has a timer duty
    /// (retransmit, delayed release, reorder release).
    fn next_timer(&self) -> Option<Instant> {
        let retries = self.unacked.iter().map(|p| p.next_retry);
        let delayed = self.delayed.iter().map(|(when, ..)| *when);
        let held = self.held.iter().map(|(since, ..)| *since + self.cfg.rto);
        retries.chain(delayed).chain(held).min()
    }

    /// The blocking operation in progress completed (or failed).
    fn complete<L: Link + ?Sized>(&mut self, link: &mut L) {
        self.op_deadline = None;
        link.unpark();
    }

    /// Reliable receive: `Ok(Some(payload))` delivers the next in-sequence
    /// message of the `(src, tag)` stream; `Ok(None)` means the link is
    /// parked and the caller must block and poll again. Fails with a
    /// structured error on deadline, detected deadlock, or retry
    /// exhaustion.
    pub fn recv_poll<L: Link + ?Sized>(
        &mut self,
        link: &mut L,
        src: usize,
        tag: i64,
    ) -> Result<Option<Vec<f64>>, MpiSimError> {
        self.poll(link)?;
        let key = (src, tag);
        let exp = *self.expected.get(&key).unwrap_or(&0);
        if let Some(p) = self.received.get(&key).and_then(|m| m.get(&exp)) {
            let out = p.clone();
            self.expected.insert(key, exp + 1);
            self.complete(link);
            return Ok(Some(out));
        }
        let now = Instant::now();
        let deadline = *self.op_deadline.get_or_insert(now + self.cfg.recv_deadline);
        let op = || format!("recv(src={src}, tag={tag}, seq={exp})");
        if now >= deadline {
            self.complete(link);
            return Err(MpiSimError::Timeout {
                rank: self.rank,
                op: op(),
                waited_ms: self.cfg.recv_deadline.as_millis() as u64,
            });
        }
        if let Some(blocked) = link.deadlock_check(&op) {
            self.complete(link);
            return Err(MpiSimError::Deadlock { blocked });
        }
        // Wake for the earliest protocol duty, the op deadline, or the next
        // stall-watchdog check — whichever comes first.
        let wake = deadline.min(now + link.deadlock_grace());
        link.park(op(), self.next_timer().map_or(wake, |t| wake.min(t)));
        Ok(None)
    }

    /// Fault-tolerant barrier (all-to-rank-0 gather plus broadcast, on the
    /// resilient streams so dropped barrier messages retransmit and a
    /// crashed rank replays through it deterministically): `Ok(true)` once
    /// this rank has passed, `Ok(false)` to block and poll again.
    pub fn barrier_poll<L: Link + ?Sized>(&mut self, link: &mut L) -> Result<bool, MpiSimError> {
        if self.size == 1 {
            return Ok(true);
        }
        let root = self.rank == 0;
        let (epoch, mut from) = match self.barrier.take() {
            Some(in_progress) => in_progress,
            None => {
                let epoch = self.barrier_epoch;
                self.barrier_epoch += 1;
                if !root {
                    self.send_tagged(link, 0, BARRIER_TAG, vec![epoch as f64]);
                }
                (epoch, usize::from(root))
            }
        };
        let until = if root { self.size } else { 1 };
        while from < until {
            if self.recv_poll(link, from, BARRIER_TAG)?.is_none() {
                self.barrier = Some((epoch, from));
                return Ok(false);
            }
            from += 1;
        }
        if root {
            for r in 1..self.size {
                self.send_tagged(link, r, BARRIER_TAG, vec![epoch as f64]);
            }
        }
        Ok(true)
    }

    /// Take a local checkpoint of the caller's `state` arrays at iteration
    /// `iter`, snapshotting the protocol's stream counters alongside, and
    /// garbage-collect the delivered prefix of the receive log. `state` is
    /// only called when a restore could read the copy (see
    /// [`FaultInjector::checkpoint_state`]).
    pub fn save_checkpoint(&mut self, iter: usize, state: impl FnOnce() -> Vec<Vec<f64>>) {
        self.stats.checkpoints += 1;
        for (key, slot) in self.received.iter_mut() {
            let exp = *self.expected.get(key).unwrap_or(&0);
            slot.retain(|s, _| *s >= exp);
        }
        self.checkpoint = Some(CheckpointState {
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
    /// restore the last checkpoint (user state + protocol counters), and
    /// return `(iteration, state)` to resume from. Replayed receives are
    /// served from the durable receive log; replayed sends reuse their
    /// original sequence numbers, so peers deduplicate them.
    pub fn crash_and_restore(
        &mut self,
        at_iter: usize,
    ) -> Result<(usize, Vec<Vec<f64>>), MpiSimError> {
        let Some(cp) = self.checkpoint.clone() else {
            return Err(MpiSimError::InvalidConfig(format!(
                "rank {} crashed at iteration {at_iter} before any checkpoint",
                self.rank
            )));
        };
        self.stats.injected_crashes += 1;
        self.stats.restores += 1;
        self.stats.replayed_iterations += at_iter.saturating_sub(cp.iter) as u64;
        self.stats.wasted_seconds += cp.saved_at.elapsed().as_secs_f64();
        self.next_seq = cp.next_seq;
        self.expected = cp.expected;
        self.barrier_epoch = cp.barrier_epoch;
        // In-network state dies with the process; the sender-side message
        // log (`unacked`) and the receive log survive on stable storage.
        self.delayed.clear();
        self.held.clear();
        self.barrier = None;
        self.op_deadline = None;
        Ok((cp.iter, cp.state))
    }

    /// Flush protocol duties at the end of a rank body: give unacked
    /// messages a last chance to land (peers still running may depend on
    /// them) without blocking the shutdown on peers that already left.
    /// `Ok(true)` once drained (or the drain deadline passed — peers that
    /// needed the data would have kept acking), `Ok(false)` to block and
    /// poll again.
    pub fn drain_poll<L: Link + ?Sized>(&mut self, link: &mut L) -> Result<bool, MpiSimError> {
        let drained = |t: &Self| t.unacked.is_empty() && t.delayed.is_empty() && t.held.is_empty();
        if !drained(self) {
            let now = Instant::now();
            let deadline = *self.op_deadline.get_or_insert(now + self.cfg.recv_deadline);
            if now < deadline {
                self.poll(link)?;
                if !drained(self) {
                    let wake = self.next_timer().map_or(deadline, |t| deadline.min(t));
                    link.park("drain".into(), wake);
                    return Ok(false);
                }
            }
        }
        self.complete(link);
        Ok(true)
    }
}

/// The thread-per-rank [`Link`]: wire messages ride the rank's crossbeam
/// channels, liveness is the runtime's shared watchdog, and parking is a
/// wait on the channel (done by [`ResilientCtx`] between polls).
struct ThreadLink<'a> {
    raw: &'a mut RankCtx,
    /// The arrival that ended the last wait.
    inbox: Vec<Message>,
    /// Registered as blocked with the watchdog.
    parked: bool,
    /// When the transport asked to be polled again (taken by the wait).
    wake_at: Option<Instant>,
}

impl Link for ThreadLink<'_> {
    fn wire(&mut self, dest: usize, tag: i64, data: Vec<f64>, _direct: bool) {
        let from = self.raw.rank;
        // A send can only fail when `dest` dropped its receiver a moment
        // after `peer_done` said otherwise; the next poll prunes for it.
        let _ = self.raw.senders[dest].send(Message { from, tag, data });
    }

    fn arrivals(&mut self) -> Vec<Message> {
        let mut out = std::mem::take(&mut self.inbox);
        while let Ok(msg) = self.raw.receiver.try_recv() {
            out.push(msg);
        }
        out
    }

    fn peer_done(&self, rank: usize) -> bool {
        self.raw.watch.is_done(rank)
    }

    fn progress(&self) {
        self.raw.watch.bump();
    }

    fn deadlock_grace(&self) -> Duration {
        self.raw.cfg.deadlock_grace
    }

    fn deadlock_check(&self, _op: &dyn Fn() -> String) -> Option<Vec<BlockedRank>> {
        // This rank's own operation is already in the watchdog's table.
        self.raw.watch.deadlock_check(self.raw.cfg.deadlock_grace)
    }

    fn park(&mut self, op: String, wake_at: Instant) {
        if !self.parked {
            self.raw.watch.enter(self.raw.rank, op);
            self.parked = true;
        }
        self.wake_at = Some(wake_at);
    }

    fn unpark(&mut self) {
        if std::mem::take(&mut self.parked) {
            self.raw.watch.exit(self.raw.rank);
        }
    }
}

/// Fault-tolerant communication context of one rank thread: the blocking
/// shell over a [`Transport`] and the thread link.
pub struct ResilientCtx<'a> {
    link: ThreadLink<'a>,
    transport: Transport,
}

impl<'a> ResilientCtx<'a> {
    /// Wrap `raw` with the resilient protocol under `plan`.
    pub fn new(raw: &'a mut RankCtx, plan: &FaultPlan, cfg: ResilientConfig) -> Self {
        Self {
            transport: Transport::new(raw.rank, raw.size, plan, cfg),
            link: ThreadLink {
                raw,
                inbox: Vec::new(),
                parked: false,
                wake_at: None,
            },
        }
    }

    /// Reliable send (see [`Transport::send`]).
    pub fn send(&mut self, dest: usize, tag: i64, data: Vec<f64>) -> Result<(), MpiSimError> {
        self.transport.send(&mut self.link, dest, tag, data)
    }

    /// Blocking = poll + wait: call `poll` until it completes, sleeping on
    /// the channel in between until a message arrives or the wake instant
    /// the transport named (capped at the runtime's poll interval so
    /// communicator poison is noticed promptly).
    fn wait_for<T>(
        &mut self,
        mut poll: impl FnMut(&mut Transport, &mut ThreadLink<'a>) -> Result<Option<T>, MpiSimError>,
    ) -> Result<T, MpiSimError> {
        let result = loop {
            if let Some(done) = poll(&mut self.transport, &mut self.link).transpose() {
                break done;
            }
            let raw = &*self.link.raw;
            if let Some(e) = raw.watch.poison_error() {
                break Err(e);
            }
            // No wake instant: the body yielded without blocking.
            if let Some(wake_at) = self.link.wake_at.take() {
                let dur = wake_at
                    .saturating_duration_since(Instant::now())
                    .min(raw.cfg.poll)
                    .max(Duration::from_micros(100));
                if let Ok(msg) = raw.receiver.recv_timeout(dur) {
                    self.link.inbox.push(msg);
                }
            }
        };
        self.link.unpark();
        result
    }

    /// Reliable receive: deliver the next in-sequence payload of the
    /// `(src, tag)` stream, driving the protocol while waiting. Fails with
    /// a structured error on deadline, detected deadlock, retry
    /// exhaustion, or communicator poison.
    pub fn recv(&mut self, src: usize, tag: i64) -> Result<Vec<f64>, MpiSimError> {
        self.wait_for(|t, link| t.recv_poll(link, src, tag))
    }

    /// Fault-tolerant barrier (see [`Transport::barrier_poll`]).
    pub fn barrier(&mut self) -> Result<(), MpiSimError> {
        self.wait_for(|t, link| Ok(t.barrier_poll(link)?.then_some(())))
    }

    /// End-of-body flush (see [`Transport::drain_poll`]).
    pub fn drain(&mut self) -> Result<(), MpiSimError> {
        self.wait_for(|t, link| Ok(t.drain_poll(link)?.then_some(())))
    }

    /// Run a poll-form rank body to completion on this rank's thread.
    pub fn block_on<K: RankTask>(&mut self, task: &mut K) -> Result<K::Out, MpiSimError> {
        self.wait_for(|t, link| {
            Ok(match task.step(t, link)? {
                Step::Done(out) => Some(out),
                Step::Blocked | Step::Yield => None,
            })
        })
    }
}

/// Everything that cannot block — `rank`, `size`, `stats`, checkpoint,
/// crash and restore — is the [`Transport`]'s own.
impl std::ops::Deref for ResilientCtx<'_> {
    type Target = Transport;
    fn deref(&self) -> &Transport {
        &self.transport
    }
}

impl std::ops::DerefMut for ResilientCtx<'_> {
    fn deref_mut(&mut self) -> &mut Transport {
        &mut self.transport
    }
}

/// Run `size` ranks under the resilient protocol with fault plan `plan`,
/// collecting each rank's result and fault counters. A rank body returns
/// `Result`; any failure is propagated with the communicator poisoned so
/// the group exits promptly.
// `panic_any` is `run_ranks`' error channel, not a failure of this code: the
// runtime catches it per rank and downcasts the `MpiSimError` back out.
#[allow(clippy::panic)]
pub fn run_resilient<T, F>(
    size: usize,
    plan: FaultPlan,
    cfg: ResilientConfig,
    body: F,
) -> Result<Vec<(T, FaultStats)>, MpiSimError>
where
    T: Send + 'static,
    F: Fn(&mut ResilientCtx) -> Result<T, MpiSimError> + Send + Sync + 'static,
{
    plan.validate()?;
    if let Some(c) = plan.crash {
        if c.rank >= size {
            return Err(MpiSimError::InvalidConfig(format!(
                "crash rank {} out of range for {size} ranks",
                c.rank
            )));
        }
    }
    run_ranks(size, move |raw| {
        let mut ctx = ResilientCtx::new(raw, &plan, cfg);
        match body(&mut ctx).and_then(|v| {
            ctx.drain()?;
            Ok(v)
        }) {
            Ok(v) => (v, ctx.stats),
            Err(e) => std::panic::panic_any(e),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coop::{run_tasks, CoopConfig, Resilient};

    /// A poll-form rank body as a closure over its own state: `Ok(None)`
    /// means "blocked, call me again".
    struct Body<F>(F);

    impl<T, F> RankTask for Body<F>
    where
        T: Send,
        F: FnMut(&mut Transport, &mut dyn Link) -> Result<Option<T>, MpiSimError> + Send,
    {
        type Out = T;
        fn step<L: Link>(
            &mut self,
            t: &mut Transport,
            link: &mut L,
        ) -> Result<Step<T>, MpiSimError> {
            Ok(match (self.0)(t, link)? {
                Some(out) => Step::Done(out),
                None => Step::Blocked,
            })
        }
    }

    fn body<T, F>(f: F) -> Body<F>
    where
        F: FnMut(&mut Transport, &mut dyn Link) -> Result<Option<T>, MpiSimError>,
    {
        Body(f)
    }

    type Outcome<T> = Result<Vec<(T, FaultStats)>, MpiSimError>;

    /// The one helper every protocol test goes through: run the body
    /// `make(rank)` builds on `size` ranks under `plan`, once over the
    /// thread link and once over the coop link.
    fn on_both_links<K>(
        size: usize,
        plan: FaultPlan,
        cfg: ResilientConfig,
        make: impl Fn(usize) -> K + Clone + Send + Sync + 'static,
    ) -> [(&'static str, Outcome<K::Out>); 2]
    where
        K: RankTask + 'static,
        K::Out: 'static,
    {
        let on_threads = {
            let make = make.clone();
            run_resilient(size, plan.clone(), cfg, move |ctx| {
                ctx.block_on(&mut make(ctx.rank()))
            })
        };
        let on_coop = run_tasks(size, CoopConfig::default(), |rank| {
            Resilient::new(make(rank), rank, size, &plan, cfg)
        })
        .map(|(outs, _)| outs);
        [("thread link", on_threads), ("coop link", on_coop)]
    }

    /// A link that only records what is wired.
    #[derive(Default)]
    struct Capture(Vec<Message>);

    impl Link for Capture {
        fn wire(&mut self, _dest: usize, tag: i64, data: Vec<f64>, _direct: bool) {
            self.0.push(Message { from: 0, tag, data });
        }
        fn arrivals(&mut self) -> Vec<Message> {
            Vec::new()
        }
        fn peer_done(&self, _rank: usize) -> bool {
            false
        }
        fn progress(&self) {}
        fn deadlock_grace(&self) -> Duration {
            Duration::from_secs(1)
        }
        fn deadlock_check(&self, _op: &dyn Fn() -> String) -> Option<Vec<BlockedRank>> {
            None
        }
        fn park(&mut self, _op: String, _wake_at: Instant) {}
    }

    /// What a fresh rank 1 makes of `data` arriving from rank 0 on tag 7:
    /// (corruptions detected, payloads logged, acks sent back).
    fn delivered(data: Vec<f64>) -> (u64, Vec<Vec<f64>>, usize) {
        let mut rx = Transport::new(1, 2, &FaultPlan::none(1), ResilientConfig::default());
        let mut acks = Capture::default();
        let (from, tag) = (0, 7);
        rx.handle(&mut acks, Message { from, tag, data });
        let logged = rx.received.values().flat_map(|m| m.values().cloned());
        (
            rx.stats.corruptions_detected,
            logged.collect(),
            acks.0.len(),
        )
    }

    #[test]
    fn any_single_bit_flip_or_word_swap_in_an_envelope_is_rejected() {
        for words in [0usize, 1, 8] {
            let payload: Vec<f64> = (0..words).map(|i| 1.25 * i as f64 - 3.5).collect();
            let mut tx = Transport::new(0, 2, &FaultPlan::none(1), ResilientConfig::default());
            let mut wire = Capture::default();
            tx.send(&mut wire, 1, 7, payload.clone()).unwrap();
            let envelope = wire.0.pop().unwrap().data;
            assert_eq!(envelope.len(), words + 2, "payload + two-word trailer");
            assert_eq!(delivered(envelope.clone()), (0, vec![payload], 1));
            // Payload, sequence word and checksum word alike.
            for (w, bit) in (0..envelope.len()).flat_map(|w| (0..64).map(move |b| (w, b))) {
                let mut bad = envelope.clone();
                bad[w] = f64::from_bits(bad[w].to_bits() ^ (1 << bit));
                assert_eq!(delivered(bad), (1, vec![], 0), "word {w}, bit {bit}");
            }
            if words >= 2 {
                let mut swapped = envelope.clone();
                swapped.swap(0, words - 1);
                assert_eq!(delivered(swapped), (1, vec![], 0), "{words} words");
            }
        }
    }

    #[test]
    fn a_negative_user_tag_is_an_error_and_sends_nothing() {
        let mut tx = Transport::new(0, 2, &FaultPlan::none(1), ResilientConfig::default());
        let mut wire = Capture::default();
        let err = tx.send(&mut wire, 1, -1, vec![1.0]).unwrap_err();
        assert!(matches!(err, MpiSimError::InvalidConfig(_)), "{err}");
        assert!(wire.0.is_empty() && tx.stats.data_msgs == 0);
    }

    #[test]
    fn resilient_ring_no_faults() {
        let runs = on_both_links(4, FaultPlan::none(1), ResilientConfig::default(), |rank| {
            let mut sent = false;
            body(move |t, link| {
                let size = t.size();
                if !std::mem::replace(&mut sent, true) {
                    t.send(link, (rank + 1) % size, 0, vec![rank as f64])?;
                }
                let got = t.recv_poll(link, (rank + size - 1) % size, 0)?;
                Ok(got.map(|v| v[0]))
            })
        });
        for (link, results) in runs {
            let results = results.unwrap();
            let vals: Vec<f64> = results.iter().map(|(v, _)| *v).collect();
            assert_eq!(vals, vec![3.0, 0.0, 1.0, 2.0], "{link}");
            // Zero-fault plan must inject nothing and retry nothing.
            assert!(
                results
                    .iter()
                    .all(|(_, s)| s.injected() == 0 && s.retries == 0),
                "{link}"
            );
        }
    }

    #[test]
    fn streams_deliver_in_sequence_order() {
        let runs = on_both_links(2, FaultPlan::none(3), ResilientConfig::default(), |rank| {
            let mut next = 0;
            body(move |t, link| {
                if rank == 0 {
                    for i in 0..16 {
                        t.send(link, 1, 7, vec![i as f64])?;
                    }
                    return Ok(Some(0.0));
                }
                while next < 16 {
                    let Some(v) = t.recv_poll(link, 0, 7)? else {
                        return Ok(None);
                    };
                    assert_eq!(v[0], next as f64, "in-order delivery");
                    next += 1;
                }
                Ok(Some(15.0))
            })
        });
        for (link, results) in runs {
            assert_eq!(results.unwrap()[1].0, 15.0, "{link}");
        }
    }

    #[test]
    fn drops_and_dups_recover_transparently() {
        let plan = FaultPlan {
            drop_prob: 0.15,
            dup_prob: 0.1,
            reorder_prob: 0.1,
            ..FaultPlan::none(99)
        };
        let runs = on_both_links(3, plan, ResilientConfig::default(), |rank| {
            let (mut round, mut sent, mut peer, mut acc) = (0i64, false, 0usize, 0.0);
            body(move |t, link| {
                while round < 8 {
                    if !std::mem::replace(&mut sent, true) {
                        for p in (0..t.size()).filter(|&p| p != rank) {
                            t.send(link, p, round, vec![(rank * 100) as f64 + round as f64])?;
                        }
                    }
                    while peer < t.size() {
                        if peer != rank {
                            let Some(v) = t.recv_poll(link, peer, round)? else {
                                return Ok(None);
                            };
                            assert_eq!(v[0], (peer * 100) as f64 + round as f64);
                            acc += v[0];
                        }
                        peer += 1;
                    }
                    if !t.barrier_poll(link)? {
                        return Ok(None);
                    }
                    (round, sent, peer) = (round + 1, false, 0);
                }
                Ok(Some(acc))
            })
        });
        for (link, results) in runs {
            let results = results.unwrap();
            let total_injected: u64 = results.iter().map(|(_, s)| s.injected()).sum();
            let total_retries: u64 = results.iter().map(|(_, s)| s.retries).sum();
            assert!(total_injected > 0, "{link}: plan must have injected faults");
            assert!(total_retries > 0, "{link}: drops must have forced retries");
        }
    }

    #[test]
    fn corruption_is_detected_and_recovered() {
        let plan = FaultPlan {
            corrupt_prob: 0.3,
            ..FaultPlan::none(5)
        };
        let runs = on_both_links(2, plan, ResilientConfig::default(), |rank| {
            let mut next = 0;
            body(move |t, link| {
                if rank == 0 {
                    for i in 0..12 {
                        t.send(link, 1, 0, vec![i as f64, (i * i) as f64])?;
                    }
                    return Ok(Some(()));
                }
                while next < 12 {
                    let Some(v) = t.recv_poll(link, 0, 0)? else {
                        return Ok(None);
                    };
                    assert_eq!(v, vec![next as f64, (next * next) as f64], "payload intact");
                    next += 1;
                }
                Ok(Some(()))
            })
        });
        for (link, results) in runs {
            let results = results.unwrap();
            let injected = results[0].1.injected_corruptions;
            let detected = results[1].1.corruptions_detected;
            assert!(injected > 0, "{link}: plan must have corrupted something");
            assert!(detected > 0, "{link}: checksum must have caught it");
        }
    }

    #[test]
    fn retries_exhaust_against_a_black_hole() {
        // 100% drop: nothing ever arrives, acks never come back, and the
        // bounded retry must fail the run with a structured diagnosis —
        // never the watchdog's, which every retransmission keeps quiet.
        let plan = FaultPlan {
            drop_prob: 1.0,
            ..FaultPlan::none(2)
        };
        let cfg = ResilientConfig {
            rto: Duration::from_millis(5),
            max_retries: 4,
            recv_deadline: Duration::from_secs(5),
            checkpoint_interval: 0,
        };
        let runs = on_both_links(2, plan, cfg, |rank| {
            let mut sent = false;
            body(move |t, link| {
                if rank == 0 && !std::mem::replace(&mut sent, true) {
                    t.send(link, 1, 0, vec![1.0])?;
                }
                // Rank 0 waits on a reply that cannot come; its polls fire
                // the retry timers.
                let got = t.recv_poll(link, 1 - rank, rank as i64)?;
                Ok(got.map(|v| v[0]))
            })
        });
        for (link, results) in runs {
            match results.unwrap_err() {
                MpiSimError::RetriesExhausted { attempts, .. } => assert_eq!(attempts, 4, "{link}"),
                other => panic!("{link}: expected RetriesExhausted, got {other:?}"),
            }
        }
    }

    /// Ten ping-pong rounds between two ranks: rank 0 serves, rank 1
    /// returns.
    fn ping_pong(rank: usize) -> impl RankTask<Out = f64> {
        let (mut round, mut served) = (0, false);
        body(move |t, link| {
            while round < 10 {
                if rank == 0 && !std::mem::replace(&mut served, true) {
                    t.send(link, 1, 0, vec![round as f64])?;
                }
                let Some(ball) = t.recv_poll(link, 1 - rank, 0)? else {
                    return Ok(None);
                };
                assert_eq!(ball[0], round as f64);
                if rank == 1 {
                    t.send(link, 0, 0, ball)?;
                }
                (round, served) = (round + 1, false);
            }
            Ok(Some(round as f64))
        })
    }

    #[test]
    fn heavy_loss_inside_the_retry_budget_is_not_a_deadlock() {
        // 60% of all transmissions (data and acks) vanish, but no stream
        // comes near its 60-attempt budget: the run must complete. Before
        // retransmissions counted as watchdog progress, four drops in a
        // row outlasted the grace and most seeds died with `Deadlock`.
        let cfg = ResilientConfig {
            max_retries: 60,
            ..ResilientConfig::default()
        };
        // Six seeds (the parent commit deadlocks on four of them), side by
        // side: a run is a few seconds of retry timers and almost no CPU.
        std::thread::scope(|s| {
            for seed in 0..6 {
                s.spawn(move || {
                    let plan = FaultPlan {
                        drop_prob: 0.6,
                        ..FaultPlan::none(seed)
                    };
                    for (link, results) in on_both_links(2, plan, cfg, ping_pong) {
                        let results =
                            results.unwrap_or_else(|e| panic!("{link}, seed {seed}: {e}"));
                        assert!(results.iter().all(|(v, _)| *v == 10.0), "{link}");
                    }
                });
            }
        });
    }

    /// Two ranks exchange running sums for eight iterations, checkpointing
    /// on even ones.
    fn running_sums(rank: usize) -> impl RankTask<Out = f64> {
        let (mut x, mut it, mut sent) = (vec![(rank + 1) as f64], 0usize, false);
        body(move |t, link| {
            let peer = 1 - rank;
            while it < 8 {
                if !sent {
                    if it.is_multiple_of(2) {
                        t.save_checkpoint(it, || vec![x.clone()]);
                    }
                    if t.crash_pending(it) {
                        let (restored_it, state) = t.crash_and_restore(it)?;
                        it = restored_it;
                        x = state.into_iter().next().unwrap();
                        continue;
                    }
                    t.send(link, peer, 0, x.clone())?;
                    sent = true;
                }
                let Some(got) = t.recv_poll(link, peer, 0)? else {
                    return Ok(None);
                };
                x[0] = x[0] * 0.5 + got[0] * 0.5 + (it as f64);
                (it, sent) = (it + 1, false);
            }
            Ok(Some(x[0]))
        })
    }

    #[test]
    fn checkpoint_restore_replays_to_identical_state() {
        // Rank 1 crashes at iteration 5 and must recover to the same final
        // value as the fault-free run.
        let cfg = ResilientConfig::default();
        let clean = on_both_links(2, FaultPlan::none(11), cfg, running_sums);
        let crashed = on_both_links(2, FaultPlan::none(11).with_crash(1, 5), cfg, running_sums);
        let reference = clean[0].1.as_ref().unwrap()[0].0.to_bits();
        for ((link, clean), (_, crashed)) in clean.iter().zip(&crashed) {
            let (clean, crashed) = (clean.as_ref().unwrap(), crashed.as_ref().unwrap());
            assert_eq!(clean[0].0.to_bits(), reference, "{link}: links agree");
            assert_eq!(
                clean[0].0.to_bits(),
                crashed[0].0.to_bits(),
                "{link}: bit-identical after recovery"
            );
            assert_eq!(clean[1].0.to_bits(), crashed[1].0.to_bits(), "{link}");
            assert_eq!(crashed[1].1.restores, 1, "{link}");
            assert!(crashed[1].1.replayed_iterations >= 1, "{link}");
            assert_eq!(clean[1].1.restores, 0, "{link}");
        }
    }

    #[test]
    fn crash_before_checkpoint_is_a_structured_error() {
        let plan = FaultPlan::none(4).with_crash(0, 0);
        let runs = on_both_links(2, plan, ResilientConfig::default(), |_| {
            body(|t, _| {
                if t.crash_pending(0) {
                    t.crash_and_restore(0)?;
                }
                Ok(Some(0.0))
            })
        });
        for (link, results) in runs {
            let err = results.unwrap_err();
            assert!(
                matches!(err, MpiSimError::InvalidConfig(_)),
                "{link}: {err:?}"
            );
        }
    }

    /// Six checkpointed exchange-and-barrier iterations between mirrored
    /// rank pairs.
    fn mirrored_exchange(rank: usize) -> impl RankTask<Out = f64> {
        let (mut iter, mut value, mut sent, mut got) = (0usize, rank as f64, false, false);
        body(move |t, link| {
            let peer = t.size() - 1 - rank;
            while iter < 6 {
                if !std::mem::replace(&mut sent, true) {
                    if t.crash_pending(iter) {
                        let (restored, state) = t.crash_and_restore(iter)?;
                        (iter, value) = (restored, state[0][0]);
                    }
                    if iter.is_multiple_of(2) {
                        t.save_checkpoint(iter, || vec![vec![value]]);
                    }
                    t.send(link, peer, 5, vec![value])?;
                }
                if !got {
                    let Some(data) = t.recv_poll(link, peer, 5)? else {
                        return Ok(None);
                    };
                    (value, got) = (data[0] + 1.0, true);
                }
                if !t.barrier_poll(link)? {
                    return Ok(None);
                }
                (iter, sent, got) = (iter + 1, false, false);
            }
            Ok(Some(value))
        })
    }

    #[test]
    fn every_fault_kind_and_a_crash_together_change_nothing() {
        let cfg = ResilientConfig::default();
        let lossy = FaultPlan {
            corrupt_prob: 0.05,
            delay_prob: 0.05,
            max_delay_ms: 5,
            ..FaultPlan::lossy(42, 0.1)
        }
        .with_crash(1, 3);
        let values = |o: &Outcome<f64>| -> Vec<f64> {
            o.as_ref().unwrap().iter().map(|(v, _)| *v).collect()
        };
        let clean = on_both_links(4, FaultPlan::none(42), cfg, mirrored_exchange);
        for (link, faulty) in on_both_links(4, lossy, cfg, mirrored_exchange) {
            for (_, clean) in &clean {
                assert_eq!(
                    values(clean),
                    values(&faulty),
                    "{link}: faults must not change results"
                );
            }
            let mut stats = FaultStats::default();
            for (_, s) in faulty.unwrap() {
                stats.merge(&s);
            }
            assert!(stats.injected() > 0, "{link}: plan must actually inject");
            assert_eq!((stats.injected_crashes, stats.restores), (1, 1), "{link}");
            assert!(stats.checkpoints > 0, "{link}");
        }
    }
}
