//! Compile sessions and the shared, singleflight compile service.
//!
//! This is the library layer behind compile-server mode (`fsc-serve`): a
//! [`CompileRequest`] names *what* to build (source + options, reduced to
//! a stable [`fingerprint`](CompileRequest::fingerprint)), a
//! [`CompileService`] is the process-wide build authority, and a
//! [`Session`] is one client's cheap handle onto it. The service gives
//! concurrent clients three guarantees:
//!
//! * **artifact sharing** — finished [`Compiled`] artifacts live in a
//!   bounded cache keyed by fingerprint and are handed out as
//!   `Arc<Compiled>`: a hit costs a map lookup, never a recompile.
//!   (`Compiled::run(&self)` takes `&self`, so any number of sessions can
//!   execute one artifact concurrently.)
//! * **singleflight deduplication** — when many sessions request the same
//!   fingerprint *at the same time*, exactly one of them (the leader)
//!   runs the compiler; the rest park on the leader's slot and receive
//!   the same `Arc` (or the same coded error). A thousand identical
//!   requests cost one compile.
//! * **attested outcomes** — every request reports how it was satisfied
//!   ([`ArtifactSource`]: fresh / deduped / cached) and what it cost, so
//!   the server's per-request attestation and `/stats` metrics are
//!   measurements, not guesses.
//!
//! **Failure containment** (DESIGN.md §11): slots are crash-safe. A
//! leader that times out or dies does not wedge its slot — an external
//! watchdog calls [`CompileService::abandon_stale`], every parked
//! follower is woken, and exactly one is promoted to leader under a fresh
//! slot. A follower whose own [`CompileRequest::deadline`] expires while
//! parked gets a coded `E0803` error instead of an unbounded wait. A
//! stale leader's late result is still cached (late ≠ wrong), it just no
//! longer owns the slot.
//!
//! Compile *errors* propagate to every deduplicated waiter but are not
//! cached: a later identical request recompiles. Errors from this
//! compiler are deterministic, so retries are wasted work in the common
//! case — but caching them would pin transient environment failures
//! (e.g. a denied allocation) forever, which is worse.

use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fsc_ir::diag::{codes, Diagnostic};
use fsc_ir::hash::Fnv64;
use fsc_ir::{IrError, Result};

use crate::{CompileOptions, Compiled, Compiler, Execution};

/// One unit of work for the compile service: source text plus the full
/// compile configuration.
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// Fortran source text.
    pub source: String,
    /// Compile configuration (target, hardening, rung forcing, ...).
    pub options: CompileOptions,
    /// Optional time budget for *acquiring* the artifact. A deduplicated
    /// follower whose budget expires while parked on a leader's slot gets
    /// a coded `E0803` error instead of waiting forever. Leaders are not
    /// self-interrupting (a thread cannot abort its own compile); leader
    /// overruns are enforced externally via
    /// [`CompileService::abandon_stale`] (the server watchdog does this).
    /// Deliberately **excluded from the fingerprint**: two requests that
    /// differ only in budget must still dedupe onto one compile.
    pub deadline: Option<Duration>,
}

impl CompileRequest {
    /// A request for `source` with default options.
    pub fn new(source: impl Into<String>) -> Self {
        Self {
            source: source.into(),
            options: CompileOptions::default(),
            deadline: None,
        }
    }

    /// A request with explicit options.
    pub fn with_options(source: impl Into<String>, options: CompileOptions) -> Self {
        Self {
            source: source.into(),
            options,
            deadline: None,
        }
    }

    /// Attach an acquisition budget (see [`CompileRequest::deadline`]).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Stable fingerprint of the request: FNV-1a-64 over the source bytes
    /// and the `Debug` rendering of the options (which covers every field,
    /// deterministically — targets, tiles, rung forcing, halo depth).
    /// Identical fingerprints mean "the same compile would run", which is
    /// exactly the singleflight/caching equivalence the service needs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write(self.source.as_bytes());
        h.write(format!("{:?}", self.options).as_bytes());
        h.finish()
    }
}

/// How a request's artifact was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactSource {
    /// This request ran the compiler itself (it was the singleflight
    /// leader, or nothing identical was in flight).
    Fresh,
    /// An identical compile was already in flight; this request waited on
    /// it and shares its artifact.
    Deduped,
    /// Served from the bounded artifact cache — no compiler involvement.
    Cached,
}

impl ArtifactSource {
    /// Stable lowercase name (used in server responses and attestations).
    pub fn describe(self) -> &'static str {
        match self {
            ArtifactSource::Fresh => "fresh",
            ArtifactSource::Deduped => "deduped",
            ArtifactSource::Cached => "cached",
        }
    }
}

/// A satisfied compile request: the shared artifact plus the attestation
/// of how it was produced.
#[derive(Clone)]
pub struct CompileOutcome {
    /// The compiled program, shared with every other holder.
    pub compiled: Arc<Compiled>,
    /// The request fingerprint the artifact is keyed under.
    pub fingerprint: u64,
    /// How this particular request was satisfied.
    pub source: ArtifactSource,
    /// Wall-clock this request spent acquiring the artifact (compile time
    /// for the leader, wait time for deduped followers, ~zero for cache
    /// hits).
    pub wall: Duration,
}

/// Lifetime counters for a [`CompileService`] (monotonic; the server's
/// `/stats` endpoint snapshots them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Compiles actually executed (each unique fingerprint costs one,
    /// plus one per post-eviction or post-error retry).
    pub compiles: u64,
    /// Requests that parked behind an identical in-flight compile.
    pub dedup_waits: u64,
    /// Requests served straight from the artifact cache.
    pub artifact_hits: u64,
    /// Compiles that ended in an error.
    pub errors: u64,
    /// Followers whose deadline expired while parked (`E0803`).
    pub deadline_timeouts: u64,
    /// Singleflight slots reclaimed from a dead or overdue leader.
    pub abandoned_slots: u64,
    /// Leaders that finished after their slot had been reclaimed (their
    /// artifact is still cached; their slot ownership was gone).
    pub stale_publishes: u64,
    /// Estimated bytes currently held by the artifact cache (gauge).
    pub artifact_bytes: u64,
    /// Cumulative artifacts evicted from the cache (pressure + purges).
    pub evicted_artifacts: u64,
    /// Cumulative bytes evicted from the cache (pressure + purges).
    pub evicted_bytes: u64,
    /// Artifacts refused caching because they alone exceed the byte cap.
    pub oversize_rejects: u64,
}

impl ServiceMetrics {
    /// Fraction of requests that avoided running the compiler.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.compiles + self.dedup_waits + self.artifact_hits;
        if total == 0 {
            return 0.0;
        }
        (self.dedup_waits + self.artifact_hits) as f64 / total as f64
    }
}

/// State of one in-flight compile, shared between the leader and any
/// deduplicated followers.
enum SlotState {
    /// The leader is still compiling.
    Pending,
    /// The leader was declared dead (timed out or crashed) and the slot
    /// reclaimed: waiters must re-contend for leadership from scratch.
    /// A late publish from the stale leader still overwrites this with
    /// `Done`, so a waiter that has not yet re-contended can take the
    /// result anyway.
    Abandoned,
    /// The compile finished; followers take their copy from here.
    Done(std::result::Result<Arc<Compiled>, IrError>),
}

/// What a follower's wait ended with.
enum WaitOutcome {
    /// The leader published; here is the shared result.
    Done(std::result::Result<Arc<Compiled>, IrError>),
    /// The slot was reclaimed — go back and re-contend for leadership.
    Abandoned,
    /// The follower's own deadline expired while parked.
    TimedOut,
}

struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
    /// When the leader took the slot — the watchdog's staleness clock.
    started: Instant,
}

impl Slot {
    fn new() -> Self {
        Self {
            state: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
            started: Instant::now(),
        }
    }

    fn publish(&self, result: std::result::Result<Arc<Compiled>, IrError>) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = SlotState::Done(result);
        self.ready.notify_all();
    }

    /// Flip a still-pending slot to `Abandoned` and wake every waiter.
    /// Returns false if the compile already finished (nothing to reclaim).
    fn abandon(&self) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(*state, SlotState::Pending) {
            *state = SlotState::Abandoned;
            self.ready.notify_all();
            true
        } else {
            false
        }
    }

    /// Park until the slot resolves, the slot is reclaimed, or `deadline`
    /// passes (when one is set).
    fn wait(&self, deadline: Option<Instant>) -> WaitOutcome {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match &*state {
                SlotState::Done(result) => return WaitOutcome::Done(result.clone()),
                SlotState::Abandoned => return WaitOutcome::Abandoned,
                SlotState::Pending => match deadline {
                    None => {
                        state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
                    }
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            return WaitOutcome::TimedOut;
                        }
                        let (s, timeout) = self
                            .ready
                            .wait_timeout(state, d - now)
                            .unwrap_or_else(|e| e.into_inner());
                        state = s;
                        if timeout.timed_out() && matches!(*state, SlotState::Pending) {
                            return WaitOutcome::TimedOut;
                        }
                    }
                },
            }
        }
    }
}

/// Bounded FIFO artifact cache. FIFO (not LRU) keeps eviction decisions
/// deterministic and the hot path a single map lookup; the cache exists
/// to absorb request storms for a working set of programs, not to be a
/// perfect reuse oracle.
///
/// The cache is bounded twice: by entry count *and* by estimated bytes
/// (each entry is charged its [`Compiled::approx_bytes`] at insert).
/// An artifact whose own size exceeds the byte ceiling is **not cached
/// at all** — admitting it would evict every other entry and still leave
/// the cache over budget, so the giant is served fresh each time and the
/// working set survives (`oversize_rejects` counts these).
struct ArtifactCache {
    capacity: usize,
    byte_capacity: u64,
    /// Estimated bytes currently retained (sum of per-entry charges).
    bytes: u64,
    /// Cumulative entries evicted (FIFO pressure and purges).
    evicted_artifacts: u64,
    /// Cumulative bytes evicted (FIFO pressure and purges).
    evicted_bytes: u64,
    /// Artifacts refused admission because they alone exceed the byte cap.
    oversize_rejects: u64,
    map: HashMap<u64, (Arc<Compiled>, u64)>,
    order: VecDeque<u64>,
}

impl ArtifactCache {
    fn new(capacity: usize, byte_capacity: u64) -> Self {
        Self {
            capacity: capacity.max(1),
            byte_capacity: byte_capacity.max(1),
            bytes: 0,
            evicted_artifacts: 0,
            evicted_bytes: 0,
            oversize_rejects: 0,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&self, fp: u64) -> Option<Arc<Compiled>> {
        self.map.get(&fp).map(|(artifact, _)| artifact.clone())
    }

    fn insert(&mut self, fp: u64, artifact: Arc<Compiled>, size: u64) {
        if self.map.contains_key(&fp) {
            return;
        }
        if size > self.byte_capacity {
            self.oversize_rejects += 1;
            return;
        }
        self.map.insert(fp, (artifact, size));
        self.order.push_back(fp);
        self.bytes = self.bytes.saturating_add(size);
        while self.order.len() > self.capacity || self.bytes > self.byte_capacity {
            let Some(&victim) = self.order.front() else {
                break;
            };
            if victim == fp {
                // The entry just admitted is never its own victim; it
                // fits (size <= byte_capacity), so the loop terminates.
                break;
            }
            self.order.pop_front();
            if let Some((_, sz)) = self.map.remove(&victim) {
                self.bytes = self.bytes.saturating_sub(sz);
                self.evicted_artifacts += 1;
                self.evicted_bytes += sz;
            }
        }
    }

    /// Drop every entry but keep the caps and the cumulative counters
    /// (a purge is an eviction of everything, and `/stats` must not go
    /// backwards).
    fn purge(&mut self) {
        self.evicted_artifacts += self.map.len() as u64;
        self.evicted_bytes += self.bytes;
        self.map.clear();
        self.order.clear();
        self.bytes = 0;
    }
}

/// The process-wide compile authority: a bounded artifact cache plus a
/// singleflight table of in-flight compiles. See the module docs for the
/// guarantees. Cheap to share (`Arc<CompileService>`); every [`Session`]
/// and every server worker holds the same instance.
pub struct CompileService {
    artifacts: Mutex<ArtifactCache>,
    inflight: Mutex<HashMap<u64, Arc<Slot>>>,
    compiles: AtomicU64,
    dedup_waits: AtomicU64,
    artifact_hits: AtomicU64,
    errors: AtomicU64,
    deadline_timeouts: AtomicU64,
    abandoned_slots: AtomicU64,
    stale_publishes: AtomicU64,
    next_session: AtomicU64,
    /// Pre-compile hook, called by the leader inside its `catch_unwind`
    /// right before the compiler runs. Production servers leave it unset;
    /// the chaos harness uses it to inject slow compiles and leader
    /// panics *inside* the singleflight critical section.
    pre_compile: Mutex<Option<CompileHook>>,
}

/// A pre-compile hook: runs on the singleflight leader, under its
/// `catch_unwind`, just before the compiler. See
/// [`CompileService::set_compile_hook`].
pub type CompileHook = Arc<dyn Fn(&CompileRequest) + Send + Sync>;

/// Default artifact-cache capacity (distinct fingerprints retained).
pub const DEFAULT_ARTIFACT_CAPACITY: usize = 256;

/// Default artifact-cache byte ceiling (estimated bytes retained).
pub const DEFAULT_ARTIFACT_BYTES: u64 = 64 << 20;

impl Default for CompileService {
    fn default() -> Self {
        Self::new(DEFAULT_ARTIFACT_CAPACITY)
    }
}

impl CompileService {
    /// A service retaining at most `artifact_capacity` compiled programs
    /// (with the default byte ceiling).
    pub fn new(artifact_capacity: usize) -> Self {
        Self::with_limits(artifact_capacity, DEFAULT_ARTIFACT_BYTES)
    }

    /// A service bounded by both an entry count and a byte ceiling.
    pub fn with_limits(artifact_capacity: usize, artifact_bytes: u64) -> Self {
        Self {
            artifacts: Mutex::new(ArtifactCache::new(artifact_capacity, artifact_bytes)),
            inflight: Mutex::new(HashMap::new()),
            compiles: AtomicU64::new(0),
            dedup_waits: AtomicU64::new(0),
            artifact_hits: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            deadline_timeouts: AtomicU64::new(0),
            abandoned_slots: AtomicU64::new(0),
            stale_publishes: AtomicU64::new(0),
            next_session: AtomicU64::new(1),
            pre_compile: Mutex::new(None),
        }
    }

    /// Install (or clear) the pre-compile hook. See the field docs — this
    /// exists for fault injection; it runs under the leader's
    /// `catch_unwind`, so a panicking hook becomes a coded compile error.
    pub fn set_compile_hook(&self, hook: Option<CompileHook>) {
        *self.pre_compile.lock().unwrap_or_else(|e| e.into_inner()) = hook;
    }

    /// Open a new session on this service.
    pub fn session(self: &Arc<Self>) -> Session {
        Session {
            service: self.clone(),
            id: self.next_session.fetch_add(1, Ordering::Relaxed),
            requests: AtomicU64::new(0),
        }
    }

    /// Satisfy a compile request: artifact cache, then singleflight, then
    /// a real compile. Never blocks other fingerprints — the service locks
    /// are held only for map operations, never across a compile.
    ///
    /// Failure containment: a follower parked behind an abandoned slot
    /// (leader timed out or crashed — see [`CompileService::abandon_stale`])
    /// is woken and re-contends for leadership rather than blocking
    /// forever; a follower whose own [`CompileRequest::deadline`] expires
    /// while waiting gets a coded `E0803` error.
    pub fn compile(&self, request: &CompileRequest) -> Result<CompileOutcome> {
        let fp = request.fingerprint();
        let t0 = Instant::now();
        let deadline = request.deadline.map(|d| t0 + d);

        loop {
            if let Some(artifact) = self
                .artifacts
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(fp)
            {
                self.artifact_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(CompileOutcome {
                    compiled: artifact,
                    fingerprint: fp,
                    source: ArtifactSource::Cached,
                    wall: t0.elapsed(),
                });
            }

            // Singleflight: first requester of a fingerprint becomes leader,
            // everyone else parks on the leader's slot.
            let (slot, leader) = {
                let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
                match inflight.get(&fp) {
                    Some(slot) => (slot.clone(), false),
                    None => {
                        let slot = Arc::new(Slot::new());
                        inflight.insert(fp, slot.clone());
                        (slot, true)
                    }
                }
            };

            if leader {
                return self.lead(fp, &slot, request, t0);
            }

            match slot.wait(deadline) {
                WaitOutcome::Done(result) => {
                    self.dedup_waits.fetch_add(1, Ordering::Relaxed);
                    return result.map(|compiled| CompileOutcome {
                        compiled,
                        fingerprint: fp,
                        source: ArtifactSource::Deduped,
                        wall: t0.elapsed(),
                    });
                }
                // The leader died; loop back and re-contend. Exactly one
                // waker wins the inflight-map insert race and becomes the
                // new leader — the rest park on the new slot.
                WaitOutcome::Abandoned => continue,
                WaitOutcome::TimedOut => {
                    self.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
                    return Err(IrError::from_diagnostic(Diagnostic::error(
                        codes::SERVER_DEADLINE,
                        format!(
                            "deadline exceeded after {:.1} ms waiting on an in-flight compile",
                            t0.elapsed().as_secs_f64() * 1000.0
                        ),
                    )));
                }
            }
        }
    }

    /// The leader path: run the compiler, cache the artifact, publish to
    /// followers, retire the slot. A good artifact is cached **even if the
    /// slot was reclaimed mid-compile** — a late result is still a correct
    /// result, and caching it makes the retry that replaced this leader
    /// cheap or free.
    fn lead(
        &self,
        fp: u64,
        slot: &Arc<Slot>,
        request: &CompileRequest,
        t0: Instant,
    ) -> Result<CompileOutcome> {
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let hook = self
            .pre_compile
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        // A panic that escapes the hardened pipeline must still release the
        // followers, so it is caught and published as a coded error.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(hook) = &hook {
                hook(request);
            }
            Compiler::compile(&request.source, &request.options)
        }))
        .unwrap_or_else(|payload| {
            let msg = fsc_passes::pipeline::payload_message(payload.as_ref());
            Err(IrError::from_diagnostic(Diagnostic::error(
                codes::KERNEL,
                format!("compile panicked: {msg}"),
            )))
        })
        .map(Arc::new);

        if let Ok(artifact) = &result {
            let size = artifact.approx_bytes();
            self.artifacts
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(fp, artifact.clone(), size);
        } else {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        // Retire the slot, but only if it is still ours — a watchdog may
        // have reclaimed it (and a new leader may already be compiling
        // under a fresh slot for the same fingerprint). Ordering matters:
        // the artifact is cached *before* the map entry goes away, so a
        // late joiner either finds the slot (and gets the published
        // result) or misses it and hits the artifact cache.
        let still_current = {
            let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            match inflight.get(&fp) {
                Some(current) if Arc::ptr_eq(current, slot) => {
                    inflight.remove(&fp);
                    true
                }
                _ => false,
            }
        };
        // Publish regardless: a waiter that has not yet re-contended after
        // an abandonment can still take the real result.
        slot.publish(result.clone());
        if !still_current {
            self.stale_publishes.fetch_add(1, Ordering::Relaxed);
        }

        result.map(|compiled| CompileOutcome {
            compiled,
            fingerprint: fp,
            source: ArtifactSource::Fresh,
            wall: t0.elapsed(),
        })
    }

    /// Reclaim the singleflight slot for `fp` if (and only if) its leader
    /// has held it for at least `min_age`. Every parked follower is woken
    /// to re-contend for leadership; the stale leader's eventual result is
    /// still published and cached but no longer owns the slot. The age
    /// guard makes the call race-safe: a *fresh* slot (a new leader that
    /// replaced an already-reclaimed one) is younger than `min_age` and is
    /// left alone. Returns true when a slot was actually reclaimed.
    ///
    /// This is the external enforcement point for leader deadlines — the
    /// server watchdog calls it when a worker overruns its budget, and the
    /// supervisor calls it when a worker thread dies.
    pub fn abandon_stale(&self, fp: u64, min_age: Duration) -> bool {
        let slot = {
            let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            match inflight.get(&fp) {
                Some(slot) if slot.started.elapsed() >= min_age => {
                    let slot = slot.clone();
                    inflight.remove(&fp);
                    slot
                }
                _ => return false,
            }
        };
        if slot.abandon() {
            self.abandoned_slots.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Number of singleflight slots currently registered (compiles in
    /// flight). After a drained server quiesces this must be zero — the
    /// chaos harness asserts it ("zero wedged slots").
    pub fn inflight_len(&self) -> usize {
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Drop every cached artifact (chaos injection: forces the next
    /// request of each fingerprint to recompile; results must still be
    /// bit-identical).
    pub fn purge_artifacts(&self) {
        self.artifacts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .purge();
    }

    /// Compile and run in one call.
    pub fn run(&self, request: &CompileRequest) -> Result<(CompileOutcome, Execution)> {
        let outcome = self.compile(request)?;
        let execution = outcome.compiled.run()?;
        Ok((outcome, execution))
    }

    /// Snapshot of the lifetime counters.
    pub fn metrics(&self) -> ServiceMetrics {
        let (artifact_bytes, evicted_artifacts, evicted_bytes, oversize_rejects) = {
            let cache = self.artifacts.lock().unwrap_or_else(|e| e.into_inner());
            (
                cache.bytes,
                cache.evicted_artifacts,
                cache.evicted_bytes,
                cache.oversize_rejects,
            )
        };
        ServiceMetrics {
            compiles: self.compiles.load(Ordering::Relaxed),
            dedup_waits: self.dedup_waits.load(Ordering::Relaxed),
            artifact_hits: self.artifact_hits.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            deadline_timeouts: self.deadline_timeouts.load(Ordering::Relaxed),
            abandoned_slots: self.abandoned_slots.load(Ordering::Relaxed),
            stale_publishes: self.stale_publishes.load(Ordering::Relaxed),
            artifact_bytes,
            evicted_artifacts,
            evicted_bytes,
            oversize_rejects,
        }
    }
}

/// One client's handle onto a shared [`CompileService`]: an id for
/// attribution plus a per-session request counter. Sessions are cheap —
/// the server opens one per connection.
pub struct Session {
    service: Arc<CompileService>,
    /// Monotonic session id, unique within the service.
    pub id: u64,
    requests: AtomicU64,
}

impl Session {
    /// Satisfy a compile request through the shared service.
    pub fn compile(&self, request: &CompileRequest) -> Result<CompileOutcome> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.service.compile(request)
    }

    /// Compile and run through the shared service.
    pub fn run(&self, request: &CompileRequest) -> Result<(CompileOutcome, Execution)> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.service.run(request)
    }

    /// Requests issued through this session so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// The shared service this session rides on.
    pub fn service(&self) -> &Arc<CompileService> {
        &self.service
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Target;
    use std::sync::Barrier;

    fn request(n: usize) -> CompileRequest {
        CompileRequest::with_options(
            fsc_workloads::gauss_seidel::fortran_source(n, 1),
            CompileOptions::for_target(Target::StencilCpu),
        )
    }

    #[test]
    fn fingerprint_covers_source_and_options() {
        let a = request(4);
        let b = request(5);
        assert_ne!(a.fingerprint(), b.fingerprint(), "source must matter");
        let mut c = request(4);
        c.options.target = Target::StencilOpenMp { threads: 2 };
        assert_ne!(a.fingerprint(), c.fingerprint(), "options must matter");
        assert_eq!(a.fingerprint(), request(4).fingerprint(), "must be stable");
    }

    /// Pins the hash itself, not just its sensitivity. (An added or removed
    /// `CompileOptions` field changes the `Debug` text and this value.)
    #[test]
    fn fingerprint_is_pinned() {
        let req = CompileRequest::new("program p\nend program p\n");
        assert_eq!(req.fingerprint(), 0x2a7d_58f9_8c8f_ea46);
    }

    #[test]
    fn repeat_requests_hit_the_artifact_cache() {
        let service = Arc::new(CompileService::default());
        let req = request(4);
        let first = service.compile(&req).unwrap();
        assert_eq!(first.source, ArtifactSource::Fresh);
        let second = service.compile(&req).unwrap();
        assert_eq!(second.source, ArtifactSource::Cached);
        assert!(Arc::ptr_eq(&first.compiled, &second.compiled));
        let m = service.metrics();
        assert_eq!((m.compiles, m.artifact_hits, m.errors), (1, 1, 0));
    }

    /// The singleflight guarantee: many identical concurrent requests run
    /// the compiler exactly once, and every requester gets the same
    /// artifact.
    #[test]
    fn identical_concurrent_requests_compile_once() {
        let service = Arc::new(CompileService::default());
        let req = request(6);
        let n = 8;
        let barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let (service, req, barrier) = (service.clone(), req.clone(), barrier.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    service.compile(&req).unwrap()
                })
            })
            .collect();
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let m = service.metrics();
        assert_eq!(m.compiles, 1, "identical requests must compile once");
        assert_eq!(
            m.dedup_waits + m.artifact_hits,
            (n - 1) as u64,
            "everyone else must reuse: {m:?}"
        );
        let first = &outcomes[0].compiled;
        for o in &outcomes {
            assert!(
                Arc::ptr_eq(first, &o.compiled),
                "all must share one artifact"
            );
        }
    }

    #[test]
    fn distinct_requests_compile_independently() {
        let service = Arc::new(CompileService::default());
        service.compile(&request(4)).unwrap();
        service.compile(&request(5)).unwrap();
        assert_eq!(service.metrics().compiles, 2);
    }

    #[test]
    fn errors_reach_every_waiter_and_are_not_cached() {
        let service = Arc::new(CompileService::default());
        let bad = CompileRequest::new("program p\n  this is not fortran\nend program p");
        assert!(service.compile(&bad).is_err());
        assert!(service.compile(&bad).is_err());
        let m = service.metrics();
        assert_eq!(m.errors, 2, "errors are retried, not cached: {m:?}");
        assert_eq!(m.artifact_hits, 0);
    }

    #[test]
    fn artifact_cache_evicts_fifo_beyond_capacity() {
        let service = Arc::new(CompileService::new(2));
        service.compile(&request(4)).unwrap();
        service.compile(&request(5)).unwrap();
        service.compile(&request(6)).unwrap(); // evicts request(4)
        let again = service.compile(&request(4)).unwrap();
        assert_eq!(again.source, ArtifactSource::Fresh);
        assert_eq!(service.metrics().compiles, 4);
    }

    #[test]
    fn sessions_share_the_service_and_count_requests() {
        let service = Arc::new(CompileService::default());
        let a = service.session();
        let b = service.session();
        assert_ne!(a.id, b.id);
        let req = request(4);
        a.compile(&req).unwrap();
        let outcome = b.compile(&req).unwrap();
        assert_eq!(outcome.source, ArtifactSource::Cached);
        assert_eq!(a.requests(), 1);
        assert_eq!(b.requests(), 1);
        assert_eq!(service.metrics().compiles, 1);
    }

    #[test]
    fn run_through_a_session_produces_results() {
        let service = Arc::new(CompileService::default());
        let session = service.session();
        let (outcome, exec) = session.run(&request(4)).unwrap();
        assert_eq!(outcome.source, ArtifactSource::Fresh);
        assert!(exec.array("u").is_some());
    }

    /// Install a hook that blocks the *first* leader until `release` goes
    /// true; later calls pass straight through.
    fn stuck_first_leader_hook(
        service: &Arc<CompileService>,
        release: &Arc<std::sync::atomic::AtomicBool>,
    ) {
        let calls = Arc::new(AtomicU64::new(0));
        let release = release.clone();
        service.set_compile_hook(Some(Arc::new(move |_req: &CompileRequest| {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                while !release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        })));
    }

    /// The leader-death path the original Mutex+Condvar slots never
    /// exercised: a stuck leader's slot is reclaimed and a parked follower
    /// is promoted to leader instead of blocking forever. The stuck
    /// leader's late result is still published (stale) and does not
    /// disturb the promoted compile.
    #[test]
    fn abandoned_slot_promotes_a_waiting_follower() {
        let service = Arc::new(CompileService::default());
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        stuck_first_leader_hook(&service, &release);
        let req = request(4);
        let fp = req.fingerprint();

        let leader = {
            let (service, req) = (service.clone(), req.clone());
            std::thread::spawn(move || service.compile(&req))
        };
        while service.inflight_len() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let follower = {
            let (service, req) = (service.clone(), req.clone());
            std::thread::spawn(move || service.compile(&req))
        };
        // Let the follower park, then declare the leader dead.
        std::thread::sleep(Duration::from_millis(30));
        assert!(service.abandon_stale(fp, Duration::ZERO));

        // The follower must complete *while the original leader is still
        // stuck* — it re-contended, won the fresh slot, and compiled.
        let outcome = follower.join().unwrap().unwrap();
        assert_eq!(outcome.source, ArtifactSource::Fresh);

        release.store(true, Ordering::SeqCst);
        let stale = leader.join().unwrap().unwrap();
        assert_eq!(stale.source, ArtifactSource::Fresh);

        let m = service.metrics();
        assert_eq!(m.abandoned_slots, 1, "{m:?}");
        assert_eq!(m.compiles, 2, "promotion costs one extra compile: {m:?}");
        assert_eq!(m.stale_publishes, 1, "{m:?}");
        assert_eq!(service.inflight_len(), 0, "no wedged slots");
    }

    /// A follower whose own deadline expires while parked gets a coded
    /// E0803 error, not an unbounded wait.
    #[test]
    fn follower_deadline_expires_with_coded_error() {
        let service = Arc::new(CompileService::default());
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        stuck_first_leader_hook(&service, &release);
        let req = request(4);

        let leader = {
            let (service, req) = (service.clone(), req.clone());
            std::thread::spawn(move || service.compile(&req))
        };
        while service.inflight_len() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let err = match service.compile(&req.clone().with_deadline(Duration::from_millis(50))) {
            Err(e) => e,
            Ok(_) => panic!("a parked follower must time out, not succeed"),
        };
        assert_eq!(
            err.primary().map(|d| d.code),
            Some(codes::SERVER_DEADLINE),
            "{err:?}"
        );
        assert_eq!(service.metrics().deadline_timeouts, 1);

        release.store(true, Ordering::SeqCst);
        leader.join().unwrap().unwrap();
        assert_eq!(service.inflight_len(), 0);
    }

    /// Deadline is excluded from the fingerprint: budgets must not split
    /// the singleflight/cache equivalence class.
    #[test]
    fn deadline_does_not_change_the_fingerprint() {
        let req = request(4);
        let budgeted = req.clone().with_deadline(Duration::from_millis(5));
        assert_eq!(req.fingerprint(), budgeted.fingerprint());
    }

    #[test]
    fn purge_artifacts_forces_a_fresh_compile() {
        let service = Arc::new(CompileService::default());
        let req = request(4);
        service.compile(&req).unwrap();
        service.purge_artifacts();
        let again = service.compile(&req).unwrap();
        assert_eq!(again.source, ArtifactSource::Fresh);
        assert_eq!(service.metrics().compiles, 2);
    }

    /// abandon_stale's age guard: a young slot (fresh leader) is left
    /// alone, so a watchdog firing late cannot kill a healthy retry.
    #[test]
    fn abandon_stale_spares_young_slots() {
        let service = Arc::new(CompileService::default());
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        stuck_first_leader_hook(&service, &release);
        let req = request(4);
        let fp = req.fingerprint();
        let leader = {
            let (service, req) = (service.clone(), req.clone());
            std::thread::spawn(move || service.compile(&req))
        };
        while service.inflight_len() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            !service.abandon_stale(fp, Duration::from_secs(3600)),
            "a slot younger than min_age must not be reclaimed"
        );
        release.store(true, Ordering::SeqCst);
        leader.join().unwrap().unwrap();
        assert_eq!(service.metrics().abandoned_slots, 0);
    }

    /// Satellite regression: one artifact bigger than the whole byte cap
    /// must be refused admission instead of evicting every resident
    /// entry, and byte-pressure eviction must stay FIFO and accounted.
    #[test]
    fn oversized_artifact_cannot_evict_the_cache() {
        let req = request(4);
        let artifact = Arc::new(Compiler::compile(&req.source, &req.options).unwrap());
        let mut cache = ArtifactCache::new(8, 1000);
        cache.insert(1, artifact.clone(), 400);
        cache.insert(2, artifact.clone(), 400);
        assert_eq!(cache.bytes, 800);

        // A giant larger than the entire cache: refused, residents intact.
        cache.insert(3, artifact.clone(), 5000);
        assert!(cache.get(3).is_none(), "the giant must not be cached");
        assert!(cache.get(1).is_some() && cache.get(2).is_some());
        assert_eq!((cache.bytes, cache.oversize_rejects), (800, 1));
        assert_eq!(cache.evicted_artifacts, 0);

        // A fitting artifact evicts exactly enough, oldest first.
        cache.insert(4, artifact.clone(), 400);
        assert!(cache.get(1).is_none(), "byte pressure evicts FIFO");
        assert!(cache.get(2).is_some() && cache.get(4).is_some());
        assert_eq!((cache.bytes, cache.evicted_artifacts), (800, 1));
        assert_eq!(cache.evicted_bytes, 400);
    }

    /// Each artifact owns its stitched jit programs, so they are priced
    /// into its charge: a cap the artifact would have met without them
    /// refuses it.
    #[test]
    fn stitched_programs_count_towards_the_artifact_charge() {
        let req = request(4);
        let artifact = Compiler::compile(&req.source, &req.options).unwrap();
        let stitched: u64 = artifact
            .kernels
            .values()
            .flat_map(|k| &k.nests)
            .filter_map(|n| n.jit.as_ref())
            .map(|j| j.approx_bytes())
            .sum();
        assert!(stitched > 0, "GS nests must carry stitched programs");
        let cap = artifact.approx_bytes() - 1;
        assert!(cap >= artifact.approx_bytes() - stitched);

        let service = CompileService::with_limits(8, cap);
        service.compile(&req).unwrap();
        let again = service.compile(&req).unwrap();
        assert_eq!(again.source, ArtifactSource::Fresh, "never admitted");
        let m = service.metrics();
        assert_eq!((m.oversize_rejects, m.artifact_bytes), (2, 0), "{m:?}");
    }

    /// Byte-cap eviction through the full service path keeps the hit
    /// metrics consistent: every request is exactly one of
    /// compile/dedup/hit, and the byte gauge never exceeds the cap.
    #[test]
    fn byte_cap_eviction_keeps_hit_metrics_consistent() {
        let probe = Arc::new(CompileService::default());
        probe.compile(&request(4)).unwrap();
        let one = probe.metrics().artifact_bytes;
        assert!(one > 0, "artifacts must have a nonzero size estimate");

        // Room for one artifact but not two.
        let cap = one + one / 2;
        let service = Arc::new(CompileService::with_limits(8, cap));
        service.compile(&request(4)).unwrap();
        service.compile(&request(5)).unwrap(); // byte pressure evicts 4
        let again = service.compile(&request(4)).unwrap();
        assert_eq!(again.source, ArtifactSource::Fresh, "4 was evicted");
        let hit = service.compile(&request(4)).unwrap();
        assert_eq!(hit.source, ArtifactSource::Cached);

        let m = service.metrics();
        assert_eq!((m.compiles, m.artifact_hits, m.dedup_waits), (3, 1, 0));
        assert!(m.evicted_artifacts >= 1, "{m:?}");
        assert!(m.evicted_bytes >= one.min(m.evicted_bytes), "{m:?}");
        assert!(m.artifact_bytes <= cap, "gauge must respect the cap: {m:?}");
        assert!(
            (m.reuse_rate() - 0.25).abs() < 1e-9,
            "1 reuse in 4 requests: {m:?}"
        );
    }

    /// Purging counts as eviction (counters are monotonic) and leaves
    /// the byte gauge at zero.
    #[test]
    fn purge_keeps_cumulative_eviction_counters() {
        let service = Arc::new(CompileService::default());
        service.compile(&request(4)).unwrap();
        let before = service.metrics();
        assert!(before.artifact_bytes > 0);
        service.purge_artifacts();
        let after = service.metrics();
        assert_eq!(after.artifact_bytes, 0);
        assert_eq!(after.evicted_artifacts, before.evicted_artifacts + 1);
        assert_eq!(
            after.evicted_bytes,
            before.evicted_bytes + before.artifact_bytes
        );
    }
}
