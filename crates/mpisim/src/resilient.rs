//! Self-healing message transport over the rank runtime.
//!
//! [`ResilientCtx`] wraps a [`RankCtx`] with the protocol a production
//! stencil stack layers over an unreliable interconnect:
//!
//! * **sequence-numbered envelopes** per `(peer, tag)` stream, with an FNV
//!   checksum over the payload — duplicates are deduplicated, corruption is
//!   detected and discarded;
//! * **ack + bounded retry**: every data message is acknowledged; unacked
//!   messages retransmit with exponential backoff (capped below the
//!   deadlock-watchdog grace so a retry storm never looks like a hang) up
//!   to a bounded attempt count, after which the run fails with
//!   [`MpiSimError::RetriesExhausted`];
//! * **deadlines everywhere**: `recv` and the message-based `barrier` poll
//!   with deadlines and consult the shared watchdog, so a lost peer
//!   surfaces as a structured error naming the stuck ranks;
//! * **checkpoint / restore-and-replay**: ranks snapshot their state (and
//!   the protocol's stream counters) periodically; a fail-stop crash
//!   restores the snapshot and replays forward. Receives during replay are
//!   served from the durable receive log (pessimistic message logging) and
//!   replayed sends are deduplicated by their original sequence numbers at
//!   the receiver, so recovery is bit-identical to the fault-free run.
//!
//! Faults are injected on the *send* side by a deterministic seeded
//! [`FaultInjector`]; every injected fault and every recovery action is
//! counted in [`FaultStats`].

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use crossbeam::channel::RecvTimeoutError;
use fsc_ir::hash::Fnv64;

use crate::error::MpiSimError;
use crate::fault::{FaultInjector, FaultPlan, FaultStats, SendAction};
use crate::runtime::{run_ranks_cfg, Message, RankConfig, RankCtx};

/// Tag reserved for acknowledgements (never collides with user tags, which
/// must be non-negative).
pub(crate) const ACK_TAG: i64 = i64::MIN + 1;
/// Tag reserved for the message-based barrier.
pub(crate) const BARRIER_TAG: i64 = i64::MIN + 2;
/// Ceiling of the exponential retransmit backoff. Kept below the deadlock
/// watchdog's grace period so a pending retransmit never reads as a hang.
pub(crate) const BACKOFF_CAP: Duration = Duration::from_millis(120);

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

/// A message sent but not yet acknowledged (sender-side message log: kept
/// across a simulated crash, like a log on node-local stable storage).
#[derive(Debug, Clone)]
struct Pending {
    dest: usize,
    tag: i64,
    seq: u64,
    /// Fully encoded wire data (header + payload).
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

/// Fault-tolerant communication context layered over [`RankCtx`].
pub struct ResilientCtx<'a> {
    raw: &'a mut RankCtx,
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
    /// Injected-fault and recovery counters for this rank.
    pub stats: FaultStats,
}

/// FNV-1a over the header fields and payload bits. Sender and receiver
/// are this one function in one process; the value never persists.
pub(crate) fn checksum(from: usize, tag: i64, seq: u64, payload: &[f64]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(from as u64);
    h.write_u64(tag as u64);
    h.write_u64(seq);
    for &x in payload {
        h.write_u64(x.to_bits());
    }
    h.finish()
}

impl<'a> ResilientCtx<'a> {
    /// Wrap `raw` with the resilient protocol under `plan`.
    pub fn new(raw: &'a mut RankCtx, plan: &FaultPlan, cfg: ResilientConfig) -> Self {
        let injector = FaultInjector::new(plan, raw.rank);
        Self {
            raw,
            cfg,
            injector,
            next_seq: HashMap::new(),
            expected: HashMap::new(),
            received: HashMap::new(),
            unacked: Vec::new(),
            delayed: Vec::new(),
            held: Vec::new(),
            checkpoint: None,
            barrier_epoch: 0,
            stats: FaultStats::default(),
        }
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.raw.rank
    }

    /// Total ranks.
    pub fn size(&self) -> usize {
        self.raw.size
    }

    /// Reliable send: sequence the payload, remember it until acked, and
    /// hand it to the (possibly faulty) network.
    pub fn send(&mut self, dest: usize, tag: i64, data: Vec<f64>) {
        assert!(
            tag >= 0,
            "user tags must be non-negative (negative tags are protocol-reserved)"
        );
        self.send_tagged(dest, tag, data);
    }

    fn send_tagged(&mut self, dest: usize, tag: i64, data: Vec<f64>) {
        let seq_slot = self.next_seq.entry((dest, tag)).or_insert(0);
        let seq = *seq_slot;
        *seq_slot += 1;
        let mut encoded = Vec::with_capacity(data.len() + 2);
        encoded.push(f64::from_bits(seq));
        encoded.push(f64::from_bits(checksum(self.raw.rank, tag, seq, &data)));
        encoded.extend_from_slice(&data);
        self.stats.data_msgs += 1;
        self.unacked.push(Pending {
            dest,
            tag,
            seq,
            data: encoded.clone(),
            next_retry: Instant::now() + self.cfg.rto,
            retries: 0,
        });
        self.transmit(dest, tag, encoded, false);
    }

    /// Hand one encoded message to the network, applying the injector.
    fn transmit(&mut self, dest: usize, tag: i64, mut encoded: Vec<f64>, retransmit: bool) {
        let action = self.injector.on_send(retransmit);
        match action {
            SendAction::Drop => {
                self.stats.injected_drops += 1;
            }
            SendAction::Duplicate => {
                self.stats.injected_dups += 1;
                self.raw_send(dest, tag, encoded.clone());
                self.raw_send(dest, tag, encoded);
            }
            SendAction::Corrupt => {
                self.stats.injected_corruptions += 1;
                // Flip one payload bit; the receiver's checksum rejects the
                // message and the retry timer recovers it. A header-only
                // message gets its checksum word flipped instead.
                if encoded.len() > 2 {
                    let w = 2 + self.injector.corrupt_word(encoded.len() - 2);
                    encoded[w] = f64::from_bits(encoded[w].to_bits() ^ 1);
                } else {
                    encoded[1] = f64::from_bits(encoded[1].to_bits() ^ 1);
                }
                self.raw_send(dest, tag, encoded);
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
                self.raw_send(dest, tag, encoded);
            }
        }
        // A physical send to `dest` flushes anything held back for it, so a
        // reorder is exactly an adjacent-pair swap.
        if !matches!(action, SendAction::HoldUntilNext) {
            self.release_held(Some(dest), Instant::now());
        }
    }

    fn raw_send(&mut self, dest: usize, tag: i64, data: Vec<f64>) {
        let msg = Message {
            from: self.raw.rank,
            tag,
            data,
        };
        if self.raw.senders[dest].send(msg).is_err() {
            // The destination finished and dropped its receiver: it has
            // completed all of its receives, so treat every in-flight
            // message to it as acknowledged instead of retrying forever.
            self.unacked.retain(|p| p.dest != dest);
        }
    }

    fn send_ack(&mut self, dest: usize, orig_tag: i64, seq: u64) {
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
            _ => self.raw_send(dest, ACK_TAG, data),
        }
    }

    /// Process one arrived wire message.
    fn handle(&mut self, msg: Message) {
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
                self.raw.watch.bump();
            }
            return;
        }
        if msg.data.len() < 2 {
            return; // malformed; unreachable from our own sender
        }
        let seq = msg.data[0].to_bits();
        let ck = msg.data[1].to_bits();
        let payload = &msg.data[2..];
        if checksum(msg.from, msg.tag, seq, payload) != ck {
            // Corrupted in flight: discard without acking; the sender's
            // retry timer re-delivers a clean copy.
            self.stats.corruptions_detected += 1;
            return;
        }
        let payload = payload.to_vec();
        // Always ack — even a duplicate means the sender missed our first
        // ack and is still retrying.
        self.send_ack(msg.from, msg.tag, seq);
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
            self.raw.watch.bump();
        } else {
            self.stats.duplicates_dropped += 1;
        }
    }

    /// Release injector-delayed and reorder-held messages whose time has
    /// come. `dest` limits held-message release to one destination (the
    /// flush triggered by a newer send); timed release covers the rest.
    fn release_held(&mut self, dest: Option<usize>, now: Instant) {
        let rto = self.cfg.rto;
        let due: Vec<(usize, i64, Vec<f64>)> = {
            let mut due = Vec::new();
            self.held.retain(|(since, d, t, data)| {
                let release = dest == Some(*d) || now.duration_since(*since) >= rto;
                if release {
                    due.push((*d, *t, data.clone()));
                }
                !release
            });
            due
        };
        for (d, t, data) in due {
            self.raw_send(d, t, data);
        }
    }

    fn release_delayed(&mut self, now: Instant) {
        let due: Vec<(usize, i64, Vec<f64>)> = {
            let mut due = Vec::new();
            self.delayed.retain(|(when, d, t, data)| {
                if *when <= now {
                    due.push((*d, *t, data.clone()));
                    false
                } else {
                    true
                }
            });
            due
        };
        for (d, t, data) in due {
            self.raw_send(d, t, data);
        }
    }

    /// Retransmit every unacked message whose timer expired; error out of
    /// the run once a stream exceeds the retry bound.
    fn retransmit_due(&mut self, now: Instant) -> Result<(), MpiSimError> {
        let mut due = Vec::new();
        for p in &mut self.unacked {
            if now < p.next_retry {
                continue;
            }
            if p.retries + 1 >= self.cfg.max_retries {
                return Err(MpiSimError::RetriesExhausted {
                    rank: self.raw.rank,
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
            self.transmit(dest, tag, data, true);
        }
        Ok(())
    }

    /// Drive the protocol for up to `wait`: deliver arrivals, release
    /// delayed messages, and fire retry timers. Returns as soon as any
    /// message has been processed (the caller re-checks its own condition
    /// and pumps again if unsatisfied — returning early keeps delivery at
    /// channel speed instead of sleeping out the full quantum), on
    /// protocol failure, or once `wait` elapses with nothing arriving.
    fn pump(&mut self, wait: Duration) -> Result<(), MpiSimError> {
        let deadline = Instant::now() + wait;
        loop {
            let now = Instant::now();
            self.release_delayed(now);
            self.release_held(None, now);
            let mut handled = false;
            while let Ok(msg) = self.raw.receiver.try_recv() {
                self.handle(msg);
                handled = true;
            }
            self.retransmit_due(Instant::now())?;
            let now = Instant::now();
            if handled || now >= deadline {
                return Ok(());
            }
            // Sleep until the deadline, the next protocol timer, or the
            // next arrival — whichever comes first (bounded by the poll
            // interval so poison is noticed promptly).
            let mut until = deadline;
            for p in &self.unacked {
                until = until.min(p.next_retry);
            }
            for (when, ..) in &self.delayed {
                until = until.min(*when);
            }
            let dur = until
                .saturating_duration_since(now)
                .min(self.raw.cfg.poll)
                .max(Duration::from_micros(100));
            match self.raw.receiver.recv_timeout(dur) {
                Ok(msg) => {
                    self.handle(msg);
                    return Ok(());
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Ok(()),
            }
        }
    }

    /// Reliable receive: deliver the next in-sequence payload of the
    /// `(src, tag)` stream, pumping the protocol while waiting. Fails with
    /// a structured error on deadline, detected deadlock, retry
    /// exhaustion, or communicator poison.
    pub fn recv(&mut self, src: usize, tag: i64) -> Result<Vec<f64>, MpiSimError> {
        let key = (src, tag);
        let deadline = Instant::now() + self.cfg.recv_deadline;
        let mut registered = false;
        let result = loop {
            let exp = *self.expected.get(&key).unwrap_or(&0);
            if let Some(p) = self.received.get(&key).and_then(|m| m.get(&exp)) {
                let out = p.clone();
                self.expected.insert(key, exp + 1);
                break Ok(out);
            }
            if !registered {
                self.raw.watch.enter(
                    self.raw.rank,
                    format!("resilient recv(src={src}, tag={tag}, seq={exp})"),
                );
                registered = true;
            }
            if let Some(e) = self.raw.watch.poison_error() {
                break Err(e);
            }
            if let Some(blocked) = self.raw.watch.deadlock_check(self.raw.cfg.deadlock_grace) {
                let err = MpiSimError::Deadlock { blocked };
                self.raw.watch.poison(self.raw.rank, err.to_string());
                break Err(err);
            }
            let now = Instant::now();
            if now >= deadline {
                break Err(MpiSimError::Timeout {
                    rank: self.raw.rank,
                    op: format!("resilient recv(src={src}, tag={tag}, seq={exp})"),
                    waited_ms: self.cfg.recv_deadline.as_millis() as u64,
                });
            }
            if let Err(e) = self.pump(self.raw.cfg.poll) {
                break Err(e);
            }
        };
        if registered {
            self.raw.watch.exit(self.raw.rank);
        }
        result
    }

    /// Fault-tolerant barrier: all-to-rank-0 gather plus broadcast, built
    /// on the resilient streams so dropped barrier messages retransmit and
    /// a crashed rank replays through it deterministically.
    pub fn barrier(&mut self) -> Result<(), MpiSimError> {
        let epoch = self.barrier_epoch;
        self.barrier_epoch += 1;
        let (rank, size) = (self.raw.rank, self.raw.size);
        if size == 1 {
            return Ok(());
        }
        if rank == 0 {
            for r in 1..size {
                self.recv(r, BARRIER_TAG)?;
            }
            for r in 1..size {
                self.send_tagged(r, BARRIER_TAG, vec![epoch as f64]);
            }
        } else {
            self.send_tagged(0, BARRIER_TAG, vec![epoch as f64]);
            self.recv(0, BARRIER_TAG)?;
        }
        Ok(())
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
        let cp = match &self.checkpoint {
            Some(cp) => cp.clone(),
            None => {
                return Err(MpiSimError::InvalidConfig(format!(
                    "rank {} crashed at iteration {at_iter} before any checkpoint",
                    self.raw.rank
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
        Ok((cp.iter, cp.state))
    }

    /// Flush protocol duties at the end of a rank body: give unacked
    /// messages a last chance to land (peers still running may depend on
    /// them) without blocking the shutdown on peers that already left.
    pub fn drain(&mut self) -> Result<(), MpiSimError> {
        let deadline = Instant::now() + self.cfg.recv_deadline;
        while !self.unacked.is_empty() || !self.delayed.is_empty() || !self.held.is_empty() {
            if Instant::now() >= deadline {
                break; // peers that needed the data would have kept acking
            }
            if self.raw.watch.poison_error().is_some() {
                break;
            }
            self.pump(self.raw.cfg.poll)?;
        }
        Ok(())
    }
}

/// Run `size` ranks under the resilient protocol with fault plan `plan`,
/// collecting each rank's result and fault counters. A rank body returns
/// `Result`; any failure is propagated with the communicator poisoned so
/// the group exits promptly.
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
    let rank_cfg = RankConfig {
        // The raw layer's deadline backs up the resilient one.
        recv_deadline: cfg.recv_deadline + Duration::from_secs(5),
        ..RankConfig::default()
    };
    run_ranks_cfg(size, rank_cfg, move |raw| {
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

    #[test]
    fn envelope_checksum_is_pinned() {
        assert_eq!(checksum(1, -2, 3, &[1.0, -0.5]), 0x2922_325e_5643_5bae);
    }

    #[test]
    fn resilient_ring_no_faults() {
        let results = run_resilient(4, FaultPlan::none(1), ResilientConfig::default(), |ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            ctx.send(next, 0, vec![ctx.rank() as f64]);
            let got = ctx.recv(prev, 0)?;
            Ok(got[0])
        })
        .unwrap();
        let vals: Vec<f64> = results.iter().map(|(v, _)| *v).collect();
        assert_eq!(vals, vec![3.0, 0.0, 1.0, 2.0]);
        // Zero-fault plan must inject nothing.
        assert!(results.iter().all(|(_, s)| s.injected() == 0));
    }

    #[test]
    fn streams_deliver_in_sequence_order() {
        let results = run_resilient(2, FaultPlan::none(3), ResilientConfig::default(), |ctx| {
            if ctx.rank() == 0 {
                for i in 0..16 {
                    ctx.send(1, 7, vec![i as f64]);
                }
                Ok(0.0)
            } else {
                let mut out = 0.0;
                for i in 0..16 {
                    let v = ctx.recv(0, 7)?;
                    assert_eq!(v[0], i as f64, "in-order delivery");
                    out = v[0];
                }
                Ok(out)
            }
        })
        .unwrap();
        assert_eq!(results[1].0, 15.0);
    }

    #[test]
    fn drops_and_dups_recover_transparently() {
        let plan = FaultPlan {
            drop_prob: 0.15,
            dup_prob: 0.1,
            reorder_prob: 0.1,
            ..FaultPlan::none(99)
        };
        let results = run_resilient(3, plan, ResilientConfig::default(), |ctx| {
            let mut acc = 0.0;
            for round in 0..8i64 {
                for peer in 0..ctx.size() {
                    if peer != ctx.rank() {
                        ctx.send(peer, round, vec![(ctx.rank() * 100) as f64 + round as f64]);
                    }
                }
                for peer in 0..ctx.size() {
                    if peer != ctx.rank() {
                        let v = ctx.recv(peer, round)?;
                        assert_eq!(v[0], (peer * 100) as f64 + round as f64);
                        acc += v[0];
                    }
                }
                ctx.barrier()?;
            }
            Ok(acc)
        })
        .unwrap();
        let total_injected: u64 = results.iter().map(|(_, s)| s.injected()).sum();
        let total_retries: u64 = results.iter().map(|(_, s)| s.retries).sum();
        assert!(total_injected > 0, "plan must have injected faults");
        assert!(total_retries > 0, "drops must have forced retries");
    }

    #[test]
    fn corruption_is_detected_and_recovered() {
        let plan = FaultPlan {
            corrupt_prob: 0.3,
            ..FaultPlan::none(5)
        };
        let results = run_resilient(2, plan, ResilientConfig::default(), |ctx| {
            if ctx.rank() == 0 {
                for i in 0..12 {
                    ctx.send(1, 0, vec![i as f64, (i * i) as f64]);
                }
                Ok(0u64)
            } else {
                for i in 0..12 {
                    let v = ctx.recv(0, 0)?;
                    assert_eq!(v, vec![i as f64, (i * i) as f64], "payload intact");
                }
                Ok(ctx.stats.corruptions_detected)
            }
        })
        .unwrap();
        let (detected_by_receiver, injected): (u64, u64) = (
            results[1].1.corruptions_detected,
            results[0].1.injected_corruptions,
        );
        assert!(injected > 0, "plan must have corrupted something");
        assert!(detected_by_receiver > 0, "checksum must have caught it");
    }

    #[test]
    fn retries_exhaust_against_a_black_hole() {
        // 100% drop: nothing ever arrives, acks never come back, and the
        // bounded retry must fail the run with a structured diagnosis.
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
        let err = run_resilient(2, plan, cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, vec![1.0]);
                // Pumping happens inside recv; wait on an ack that cannot
                // come.
                ctx.recv(1, 1).map(|v| v[0])
            } else {
                ctx.recv(0, 0).map(|v| v[0])
            }
        })
        .unwrap_err();
        match err {
            MpiSimError::RetriesExhausted { attempts, .. } => assert_eq!(attempts, 4),
            MpiSimError::Deadlock { .. } => {} // watchdog may win the race
            other => panic!("expected RetriesExhausted or Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_restore_replays_to_identical_state() {
        // Two ranks exchange running sums; rank 1 crashes at iteration 5
        // and must recover to the same final value as the fault-free run.
        let body = |ctx: &mut ResilientCtx| -> Result<f64, MpiSimError> {
            let me = ctx.rank();
            let peer = 1 - me;
            let mut x = vec![(me + 1) as f64];
            let mut it = 0usize;
            while it < 8 {
                if it.is_multiple_of(2) {
                    ctx.save_checkpoint(it, || vec![x.clone()]);
                }
                if ctx.crash_pending(it) {
                    let (restored_it, state) = ctx.crash_and_restore(it)?;
                    it = restored_it;
                    x = state.into_iter().next().unwrap();
                    continue;
                }
                ctx.send(peer, 0, x.clone());
                let got = ctx.recv(peer, 0)?;
                x[0] = x[0] * 0.5 + got[0] * 0.5 + (it as f64);
                it += 1;
            }
            Ok(x[0])
        };
        let clean =
            run_resilient(2, FaultPlan::none(11), ResilientConfig::default(), body).unwrap();
        let crashed = run_resilient(
            2,
            FaultPlan::none(11).with_crash(1, 5),
            ResilientConfig::default(),
            body,
        )
        .unwrap();
        assert_eq!(
            clean[0].0.to_bits(),
            crashed[0].0.to_bits(),
            "bit-identical after recovery"
        );
        assert_eq!(clean[1].0.to_bits(), crashed[1].0.to_bits());
        assert_eq!(crashed[1].1.restores, 1);
        assert!(crashed[1].1.replayed_iterations >= 1);
        assert_eq!(clean[1].1.restores, 0);
    }

    #[test]
    fn crash_before_checkpoint_is_a_structured_error() {
        let err = run_resilient(
            2,
            FaultPlan::none(4).with_crash(0, 0),
            ResilientConfig::default(),
            |ctx| {
                if ctx.crash_pending(0) {
                    ctx.crash_and_restore(0)?;
                }
                Ok(0.0)
            },
        )
        .unwrap_err();
        assert!(matches!(err, MpiSimError::InvalidConfig(_)), "{err:?}");
    }
}
