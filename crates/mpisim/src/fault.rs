//! Deterministic fault injection for the MPI-sim substrate.
//!
//! A [`FaultPlan`] describes *what* the network and the machines may do to
//! a run — drop, duplicate, corrupt, delay, or reorder messages, and crash
//! a rank at a chosen iteration — and a seeded [`FaultInjector`] turns the
//! plan into per-rank deterministic decisions (xorshift64\*, seeded from
//! `plan.seed ^ rank`), so every injected fault sequence is reproducible
//! run-to-run. [`FaultStats`] counts what was injected and what the
//! recovery protocol did about it; the counters flow into `RunReport` so
//! resilience overhead is attested, not assumed.

use std::time::Duration;

use crate::error::MpiSimError;

/// Crash one rank at one iteration (fail-stop, then restart from its last
/// local checkpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// The rank to crash.
    pub rank: usize,
    /// The iteration (0-based) at whose start the crash fires.
    pub at_iteration: usize,
}

/// A seeded, deterministic description of injected faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; the same plan injects the same faults every run.
    pub seed: u64,
    /// Probability a sent data message is silently dropped.
    pub drop_prob: f64,
    /// Probability a sent data message is delivered twice.
    pub dup_prob: f64,
    /// Probability a sent data message has one payload bit flipped.
    pub corrupt_prob: f64,
    /// Probability a sent data message is delayed by up to
    /// [`Self::max_delay_ms`] before entering the network.
    pub delay_prob: f64,
    /// Upper bound of an injected delay, in milliseconds.
    pub max_delay_ms: u64,
    /// Probability a sent data message is held back until the *next* send
    /// to the same destination (an adjacent-pair reorder).
    pub reorder_prob: f64,
    /// Optional fail-stop crash of one rank.
    pub crash: Option<CrashSpec>,
}

impl FaultPlan {
    /// A plan that injects nothing: the resilient protocol still runs
    /// (sequence numbers, acks, checkpoints) so its overhead is measurable
    /// at 0% faults.
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            drop_prob: 0.0,
            dup_prob: 0.0,
            corrupt_prob: 0.0,
            delay_prob: 0.0,
            max_delay_ms: 0,
            reorder_prob: 0.0,
            crash: None,
        }
    }

    /// A lossy-network plan: `drop_prob` drops plus light duplication and
    /// reordering — the standard stress configuration of the tests.
    pub fn lossy(seed: u64, drop_prob: f64) -> Self {
        Self {
            drop_prob,
            dup_prob: drop_prob / 2.0,
            reorder_prob: drop_prob / 2.0,
            ..Self::none(seed)
        }
    }

    /// Add a rank crash to the plan.
    pub fn with_crash(mut self, rank: usize, at_iteration: usize) -> Self {
        self.crash = Some(CrashSpec { rank, at_iteration });
        self
    }

    /// Validate probabilities and delay bounds.
    pub fn validate(&self) -> Result<(), MpiSimError> {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("dup_prob", self.dup_prob),
            ("corrupt_prob", self.corrupt_prob),
            ("delay_prob", self.delay_prob),
            ("reorder_prob", self.reorder_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(MpiSimError::InvalidConfig(format!(
                    "fault plan {name} = {p} outside [0, 1]"
                )));
            }
        }
        if self.delay_prob > 0.0 && self.max_delay_ms == 0 {
            return Err(MpiSimError::InvalidConfig(
                "delay_prob > 0 requires max_delay_ms > 0".into(),
            ));
        }
        Ok(())
    }

    /// True when the plan can perturb message traffic at all.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.dup_prob > 0.0
            || self.corrupt_prob > 0.0
            || self.delay_prob > 0.0
            || self.reorder_prob > 0.0
            || self.crash.is_some()
    }
}

/// What the injector decided to do to one outgoing data message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendAction {
    /// Deliver normally.
    Deliver,
    /// Silently drop (the sender's retry timer will recover it).
    Drop,
    /// Deliver twice (the receiver's sequence dedup drops the extra).
    Duplicate,
    /// Flip one payload bit (the receiver's checksum rejects it).
    Corrupt,
    /// Hold the message for this long before it enters the network.
    Delay(Duration),
    /// Hold until the next send to the same destination (reorder).
    HoldUntilNext,
}

/// xorshift64\* — deterministic, allocation-free, good enough for fault
/// schedules (same generator family as the proptest shim).
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed | 0x9e37_79b9_7f4a_7c15)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        self.next_u64() % span
    }
}

/// Per-rank deterministic realisation of a [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rank: usize,
    rng: Rng,
    crash_armed: bool,
}

impl FaultInjector {
    /// Injector for `rank` under `plan`.
    pub fn new(plan: &FaultPlan, rank: usize) -> Self {
        // Mix the rank into the seed so each rank draws an independent but
        // reproducible stream.
        let seed = plan
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((rank as u64).wrapping_mul(0xff51_afd7_ed55_8ccd));
        Self {
            plan: plan.clone(),
            rank,
            rng: Rng::new(seed),
            crash_armed: plan.crash.is_some_and(|c| c.rank == rank),
        }
    }

    /// The plan this injector realises.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decide the fate of one outgoing data message. `retransmit` draws
    /// skip the reorder hold (a retransmission must not wait for a next
    /// send that may never come) but still face drops, corruption, and
    /// delays — retrying once is not a guarantee of delivery.
    pub fn on_send(&mut self, retransmit: bool) -> SendAction {
        let u = self.rng.unit();
        let mut edge = self.plan.drop_prob;
        if u < edge {
            return SendAction::Drop;
        }
        edge += self.plan.dup_prob;
        if u < edge {
            return SendAction::Duplicate;
        }
        edge += self.plan.corrupt_prob;
        if u < edge {
            return SendAction::Corrupt;
        }
        edge += self.plan.delay_prob;
        if u < edge {
            let ms = 1 + self.rng.below(self.plan.max_delay_ms.max(1));
            return SendAction::Delay(Duration::from_millis(ms));
        }
        edge += self.plan.reorder_prob;
        if u < edge && !retransmit {
            return SendAction::HoldUntilNext;
        }
        SendAction::Deliver
    }

    /// Pick the payload bit to flip for a corruption (word index drawn
    /// deterministically; the caller maps it into the payload).
    pub fn corrupt_word(&mut self, payload_len: usize) -> usize {
        if payload_len == 0 {
            0
        } else {
            self.rng.below(payload_len as u64) as usize
        }
    }

    /// The user state a checkpoint must hold. The state copy is read only
    /// by `crash_and_restore`, which only a rank whose planned crash has not
    /// fired yet can reach — so `state` is called while that crash is still
    /// armed and every other checkpoint (all of them, in a fault-free run)
    /// stores no copy. Protocol counters are checkpointed regardless.
    pub fn checkpoint_state(&self, state: impl FnOnce() -> Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        if self.crash_armed {
            state()
        } else {
            Vec::new()
        }
    }

    /// True exactly once, at the start of the crash iteration of the
    /// crashing rank.
    pub fn should_crash(&mut self, iteration: usize) -> bool {
        if self.crash_armed {
            if let Some(c) = self.plan.crash {
                if c.rank == self.rank && iteration >= c.at_iteration {
                    self.crash_armed = false;
                    return true;
                }
            }
        }
        false
    }
}

/// Counters attesting injected faults and the recovery work they caused.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Data messages sent (first transmissions, not retries).
    pub data_msgs: u64,
    /// Acknowledgements sent.
    pub acks_sent: u64,
    /// Injected: messages dropped in the network.
    pub injected_drops: u64,
    /// Injected: messages delivered twice.
    pub injected_dups: u64,
    /// Injected: messages with a flipped payload bit.
    pub injected_corruptions: u64,
    /// Injected: messages delayed.
    pub injected_delays: u64,
    /// Injected: messages held back past a later send (reorders).
    pub injected_reorders: u64,
    /// Injected: rank crashes.
    pub injected_crashes: u64,
    /// Protocol: retransmissions after a missing ack.
    pub retries: u64,
    /// Protocol: duplicate deliveries discarded by sequence dedup.
    pub duplicates_dropped: u64,
    /// Protocol: deliveries rejected by the checksum.
    pub corruptions_detected: u64,
    /// Protocol: local checkpoints taken.
    pub checkpoints: u64,
    /// Protocol: restores from a checkpoint after a crash.
    pub restores: u64,
    /// Protocol: iterations re-executed during restore-and-replay.
    pub replayed_iterations: u64,
    /// Wall-clock seconds of work discarded by crashes (checkpoint-to-crash
    /// compute that must be replayed).
    pub wasted_seconds: f64,
}

impl FaultStats {
    /// Total injected network faults (excludes crashes).
    pub fn injected(&self) -> u64 {
        self.injected_drops
            + self.injected_dups
            + self.injected_corruptions
            + self.injected_delays
            + self.injected_reorders
    }

    /// Fold another rank's counters into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.data_msgs += other.data_msgs;
        self.acks_sent += other.acks_sent;
        self.injected_drops += other.injected_drops;
        self.injected_dups += other.injected_dups;
        self.injected_corruptions += other.injected_corruptions;
        self.injected_delays += other.injected_delays;
        self.injected_reorders += other.injected_reorders;
        self.injected_crashes += other.injected_crashes;
        self.retries += other.retries;
        self.duplicates_dropped += other.duplicates_dropped;
        self.corruptions_detected += other.corruptions_detected;
        self.checkpoints += other.checkpoints;
        self.restores += other.restores;
        self.replayed_iterations += other.replayed_iterations;
        self.wasted_seconds += other.wasted_seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_is_deterministic_per_rank() {
        let plan = FaultPlan::lossy(42, 0.2);
        let mut a = FaultInjector::new(&plan, 3);
        let mut b = FaultInjector::new(&plan, 3);
        let seq_a: Vec<SendAction> = (0..64).map(|_| a.on_send(false)).collect();
        let seq_b: Vec<SendAction> = (0..64).map(|_| b.on_send(false)).collect();
        assert_eq!(seq_a, seq_b);
        // A different rank draws a different stream.
        let mut c = FaultInjector::new(&plan, 4);
        let seq_c: Vec<SendAction> = (0..64).map(|_| c.on_send(false)).collect();
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan {
            drop_prob: 0.25,
            ..FaultPlan::none(7)
        };
        let mut inj = FaultInjector::new(&plan, 0);
        let drops = (0..4000)
            .filter(|_| inj.on_send(false) == SendAction::Drop)
            .count();
        let rate = drops as f64 / 4000.0;
        assert!((0.2..=0.3).contains(&rate), "rate {rate}");
    }

    #[test]
    fn crash_fires_exactly_once_on_the_right_rank() {
        let plan = FaultPlan::none(1).with_crash(2, 5);
        let mut wrong = FaultInjector::new(&plan, 1);
        assert!(!wrong.should_crash(5));
        let mut right = FaultInjector::new(&plan, 2);
        assert!(!right.should_crash(4));
        assert!(right.should_crash(5));
        assert!(!right.should_crash(6), "crash must be one-shot");
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        let mut p = FaultPlan::none(0);
        p.drop_prob = 1.5;
        assert!(p.validate().is_err());
        let mut q = FaultPlan::none(0);
        q.delay_prob = 0.1;
        assert!(q.validate().is_err(), "delay without max_delay_ms");
        q.max_delay_ms = 5;
        assert!(q.validate().is_ok());
    }

    #[test]
    fn zero_plan_is_inactive_and_injects_nothing() {
        let plan = FaultPlan::none(9);
        assert!(!plan.is_active());
        let mut inj = FaultInjector::new(&plan, 0);
        assert!((0..256).all(|_| inj.on_send(false) == SendAction::Deliver));
    }
}
