//! Seeded chaos injection for the compile server.
//!
//! Modeled on the MPI substrate's `FaultPlan` (DESIGN.md §6): a
//! [`ChaosPlan`] says *what* may go wrong and how often, a
//! [`ChaosInjector`] turns it into per-site deterministic decision
//! streams (xorshift64\*, seeded from `plan.seed ^ site`), and
//! [`ChaosStats`] counts what was actually injected so a soak can assert
//! the chaos fired at all (a fault test that injects nothing is vacuous).
//!
//! Injection sites, mapped to the failure modes of DESIGN.md §11:
//!
//! | site              | what happens                                     |
//! |-------------------|--------------------------------------------------|
//! | worker panic      | `panic!` in the worker loop, outside any
//! |                   | `catch_unwind` — the thread dies, the supervisor
//! |                   | must answer `E0804` and respawn                  |
//! | slow compile      | a sleep inside the singleflight leader's critical
//! |                   | section (via the service pre-compile hook) — the
//! |                   | watchdog must answer `E0803` and reclaim the slot|
//! | frame truncation  | a response line is cut mid-frame and the socket
//! |                   | shut down — the client sees a transport error and
//! |                   | must retry idempotently                          |
//! | artifact purge    | the in-memory artifact cache is dropped — every
//! |                   | fingerprint recompiles; results must stay
//! |                   | bit-identical                                    |
//! | memory pressure   | a job's first memory reservation is forced to
//! |                   | fail — admission must squeeze or answer `E0806`  |
//!
//! Decisions are drawn from per-site sequence streams, so a fixed seed
//! pins the decision sequence at each site; which *request* lands on a
//! given decision depends on thread interleaving, but the injected fault
//! density is reproducible. [`ChaosInjector::disarm`] turns every site
//! off at once — the post-chaos verification phase runs on the same
//! (scarred) server with injection disabled.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// What the chaos layer may do to a running server, and how often.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// RNG seed; the same plan draws the same decision streams.
    pub seed: u64,
    /// Probability a picked-up job kills its worker thread with a raw
    /// panic (outside any `catch_unwind`).
    pub worker_panic_prob: f64,
    /// Probability a compile is artificially slowed by
    /// [`Self::slow_compile_ms`] inside the singleflight leader section.
    /// Sampled per *actual compile* (not per request): the artifact cache
    /// makes compiles rare by design, so this rate runs much higher than
    /// the per-request sites to land a comparable fault count.
    pub slow_compile_prob: f64,
    /// Injected compile slowdown, in milliseconds. Set it beyond the
    /// server deadline to exercise watchdog kills; the sleep is bounded,
    /// so a slowed worker always returns (and its late result is
    /// discarded via the answered flag).
    pub slow_compile_ms: u64,
    /// Probability a response line is truncated mid-frame and the
    /// connection shut down.
    pub truncate_prob: f64,
    /// Probability a job pick-up purges the in-memory artifact cache.
    pub purge_artifacts_prob: f64,
    /// Probability a job's *first* memory-reservation attempt is forced to
    /// fail as if the server ledger were exhausted — the admission path
    /// must squeeze (reduce the rung) or answer a coded `E0806`, never
    /// abort. Makes memory-pressure handling non-vacuous even when the
    /// configured budget is never organically hit.
    pub mem_pressure_prob: f64,
}

impl ChaosPlan {
    /// A plan that injects nothing (all probabilities zero).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            worker_panic_prob: 0.0,
            slow_compile_prob: 0.0,
            slow_compile_ms: 0,
            truncate_prob: 0.0,
            purge_artifacts_prob: 0.0,
            mem_pressure_prob: 0.0,
        }
    }

    /// The standard soak configuration: every failure mode armed at a
    /// few percent, slow compiles long enough to trip a `deadline_ms`
    /// budget of ~250 ms.
    pub fn soak(seed: u64) -> Self {
        Self {
            seed,
            worker_panic_prob: 0.04,
            slow_compile_prob: 0.30,
            slow_compile_ms: 600,
            truncate_prob: 0.03,
            purge_artifacts_prob: 0.02,
            mem_pressure_prob: 0.05,
        }
    }
}

/// Counters of injected faults (monotonic; surfaced in `stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Worker panics injected.
    pub panics: u64,
    /// Slow compiles injected.
    pub slow_compiles: u64,
    /// Response frames truncated.
    pub truncations: u64,
    /// Artifact-cache purges injected.
    pub artifact_purges: u64,
    /// Forced memory-reservation failures injected.
    pub mem_pressures: u64,
}

impl ChaosStats {
    /// Total faults injected across every site.
    pub fn total(&self) -> u64 {
        self.panics
            + self.slow_compiles
            + self.truncations
            + self.artifact_purges
            + self.mem_pressures
    }
}

/// One deterministic per-site decision stream.
struct Site {
    state: AtomicU64,
    hits: AtomicU64,
}

impl Site {
    fn new(seed: u64, tag: u64) -> Self {
        // Never seed xorshift with 0; fold the tag in with a splitmix step.
        let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Self {
            state: AtomicU64::new((z ^ (z >> 31)) | 1),
            hits: AtomicU64::new(0),
        }
    }

    /// Draw the next decision: true with probability `prob`.
    fn decide(&self, prob: f64) -> bool {
        if prob <= 0.0 {
            return false;
        }
        // xorshift64* advanced with a CAS loop so concurrent workers share
        // one stream without locking.
        let mut cur = self.state.load(Ordering::Relaxed);
        let next = loop {
            let mut x = cur;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match self
                .state
                .compare_exchange_weak(cur, x, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break x,
                Err(seen) => cur = seen,
            }
        };
        let draw = (next.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64;
        let hit = draw < prob;
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }
}

/// The armed chaos layer: one decision stream per site, plus a global
/// arm/disarm switch.
pub struct ChaosInjector {
    plan: ChaosPlan,
    armed: AtomicBool,
    worker_panic: Site,
    slow_compile: Site,
    truncate: Site,
    purge_artifacts: Site,
    mem_pressure: Site,
}

impl ChaosInjector {
    /// Build an armed injector for `plan`.
    pub fn new(plan: ChaosPlan) -> Self {
        let seed = plan.seed;
        Self {
            armed: AtomicBool::new(true),
            worker_panic: Site::new(seed, 1),
            slow_compile: Site::new(seed, 2),
            truncate: Site::new(seed, 3),
            // Tags are fixed per site (4 is retired), so a seed draws the
            // same decisions at a site whatever other sites exist.
            purge_artifacts: Site::new(seed, 5),
            mem_pressure: Site::new(seed, 6),
            plan,
        }
    }

    /// The plan this injector draws from.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// Turn every site off (idempotent). Used between a soak's storm and
    /// its verification phase.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// True while injection is active.
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    fn on(&self, site: &Site, prob: f64) -> bool {
        self.armed() && site.decide(prob)
    }

    /// Should this job pick-up kill its worker?
    pub fn worker_panic(&self) -> bool {
        self.on(&self.worker_panic, self.plan.worker_panic_prob)
    }

    /// Should this compile be slowed? Returns the sleep to inject.
    pub fn slow_compile(&self) -> Option<std::time::Duration> {
        if self.on(&self.slow_compile, self.plan.slow_compile_prob) {
            Some(std::time::Duration::from_millis(self.plan.slow_compile_ms))
        } else {
            None
        }
    }

    /// Should this response frame be truncated mid-write?
    pub fn truncate_frame(&self) -> bool {
        self.on(&self.truncate, self.plan.truncate_prob)
    }

    /// Should the artifact cache be purged now?
    pub fn purge_artifacts(&self) -> bool {
        self.on(&self.purge_artifacts, self.plan.purge_artifacts_prob)
    }

    /// Should this job's first memory reservation be forced to fail?
    pub fn mem_pressure(&self) -> bool {
        self.on(&self.mem_pressure, self.plan.mem_pressure_prob)
    }

    /// Snapshot of what has been injected so far.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            panics: self.worker_panic.hits.load(Ordering::Relaxed),
            slow_compiles: self.slow_compile.hits.load(Ordering::Relaxed),
            truncations: self.truncate.hits.load(Ordering::Relaxed),
            artifact_purges: self.purge_artifacts.hits.load(Ordering::Relaxed),
            mem_pressures: self.mem_pressure.hits.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_streams_are_seed_deterministic() {
        let a = ChaosInjector::new(ChaosPlan::soak(42));
        let b = ChaosInjector::new(ChaosPlan::soak(42));
        let draws_a: Vec<bool> = (0..256).map(|_| a.worker_panic()).collect();
        let draws_b: Vec<bool> = (0..256).map(|_| b.worker_panic()).collect();
        assert_eq!(draws_a, draws_b, "same seed must draw the same stream");
        let c = ChaosInjector::new(ChaosPlan::soak(43));
        let draws_c: Vec<bool> = (0..256).map(|_| c.worker_panic()).collect();
        assert_ne!(draws_a, draws_c, "different seeds must differ");
    }

    #[test]
    fn hit_rates_track_probabilities() {
        let inj = ChaosInjector::new(ChaosPlan {
            worker_panic_prob: 0.25,
            ..ChaosPlan::soak(7)
        });
        let n = 10_000;
        let hits = (0..n).filter(|_| inj.worker_panic()).count();
        let rate = hits as f64 / n as f64;
        assert!(
            (rate - 0.25).abs() < 0.03,
            "rate {rate} too far from 0.25 over {n} draws"
        );
        assert_eq!(inj.stats().panics, hits as u64);
    }

    #[test]
    fn disarm_silences_every_site() {
        let inj = ChaosInjector::new(ChaosPlan {
            worker_panic_prob: 1.0,
            slow_compile_prob: 1.0,
            truncate_prob: 1.0,
            purge_artifacts_prob: 1.0,
            mem_pressure_prob: 1.0,
            ..ChaosPlan::soak(1)
        });
        assert!(inj.worker_panic());
        inj.disarm();
        assert!(!inj.worker_panic());
        assert!(inj.slow_compile().is_none());
        assert!(!inj.truncate_frame());
        assert!(!inj.purge_artifacts());
        assert!(!inj.mem_pressure());
        assert_eq!(inj.stats().total(), 1, "disarmed sites must not count");
    }

    #[test]
    fn zero_probability_never_fires() {
        let inj = ChaosInjector::new(ChaosPlan::none(9));
        assert!((0..1000).all(|_| !inj.worker_panic()));
        assert_eq!(inj.stats().total(), 0);
    }
}
