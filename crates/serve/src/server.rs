//! The compile server: a Unix-socket daemon multiplexing many concurrent
//! compile+run sessions onto one shared [`CompileService`].
//!
//! Architecture (one box per thread kind):
//!
//! ```text
//!             ┌───────────┐   accept   ┌──────────────┐  parse + admit
//!  clients ──▶│  accept   │───────────▶│ connection   │────────┐
//!             │  thread   │  (per conn)│ reader       │        ▼
//!             └───────────┘            └──────────────┘  bounded queue
//!                                            │            (reject E0801
//!                      inline: ping/stats,   │             beyond depth,
//!                      and a cache hit when  │             brownout below)
//!                      the queue is empty    │                 │
//!                      and a slot is free    ▼                 ▼
//!                                       response line    ┌──────────┐
//!                                            ▲───────────│ worker   │×N
//!                                            │           │ pool     │
//!                                            │           └──────────┘
//!                                            │                 ▲ respawn
//!                                            │           ┌──────────┐
//!                                            └───────────│supervisor│
//!                                         E0803/E0804    │+watchdog │
//!                                                        └──────────┘
//! ```
//!
//! * **Who runs a job**: a cache hit runs on its connection's reader when
//!   nothing is queued and a slot is free (no worker wake-up); the rest
//!   queue for the pool. Jobs on workers and readers together never exceed
//!   `workers`. A connection's next frame waits while its reader runs one.
//! * **Admission control**: the work queue is bounded; a request arriving
//!   when it is full is answered `E0801` immediately by the connection
//!   thread — backpressure is explicit and cheap, never a hang or a
//!   dropped connection.
//! * **Deadlines**: every admitted job carries a compile/run budget
//!   (request `deadline_ms` or the server default). The supervisor's
//!   watchdog answers overdue jobs `E0803` and reclaims the singleflight
//!   slot (`CompileService::abandon_stale`) so parked duplicates are
//!   promoted instead of wedged. The executing thread's own late result is
//!   discarded through a per-job `answered` flag — every request is
//!   answered **exactly once**.
//! * **Crash-only execution**: a job runs with no `catch_unwind`; a panic
//!   kills its thread. Worker and reader alike register the job with the
//!   supervisor before anything can hang or die, so the supervisor
//!   detects the death, answers the in-flight request `E0804`, releases
//!   both slots, and respawns a worker. A job stuck past
//!   `deadline + hang_grace` gives its slot back; a stuck worker is
//!   retired in place and a replacement spawned so pool capacity
//!   recovers.
//! * **Brownout**: under queue pressure the server sheds *cost* before
//!   shedding requests — occupancy ≥ `brownout_l2` forces the
//!   cheaper-to-compile scf rung (bit-identical results, see DESIGN.md
//!   §7), and a full queue rejects `E0801`. The applied level is attested
//!   per-response (`brownout` field) and in `stats`. Queue occupancy is
//!   itself an integral of overload (it only builds while arrivals outrun
//!   service), so thresholds on it are inherently "sustained" signals.
//! * **Bounded frames**: request lines are capped (`max_frame_bytes`,
//!   oversized → inline `E0802` + resync at the next newline) and a
//!   connection holding a *partial* frame longer than `idle_timeout` is
//!   closed (slow-loris containment). Client half-close just ends the
//!   reader; already-queued jobs still answer into the write half.
//! * **Sharing**: every thread holds the same `Arc<CompileService>`
//!   (singleflight + bounded artifact cache, see `fsc_core::session`).
//! * **Attestation**: each response reports how its artifact was obtained
//!   (fresh/deduped/cached), the degradation rung that ran, the brownout
//!   level applied, coded warnings (e.g. `E0705` jit stitching skips),
//!   and queue/compile/run wall times.
//! * **Chaos**: an optional seeded [`ChaosInjector`] (see [`crate::chaos`])
//!   injects worker panics, slow compiles, mid-frame response truncation,
//!   artifact purges and memory pressure — the soak harness
//!   (`loadgen --chaos`) drives a server with all of it armed and asserts
//!   the exactly-once, no-wedge, bit-identity invariants.

// Readers run jobs too: a coded answer, never a panic (but chaos's own).
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fsc_core::{
    CompileOutcome, CompileRequest, CompileService, DegradationRung, Execution, Target,
};
use fsc_exec::MemoryBudget;
use fsc_ir::diag::codes;
use fsc_ir::json::{Json, ObjBuilder};

use crate::chaos::{ChaosInjector, ChaosPlan};
use crate::checksum_arrays;
use crate::metrics::ServerMetrics;
use crate::proto::{
    busy_response, crash_response, deadline_response, error_json, error_response, mem_reject_json,
    CompileSpec, Op, Request,
};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing compile/run jobs (0 = admit but never
    /// process, used by the admission-control tests).
    pub workers: usize,
    /// Work-queue bound: requests beyond this depth are rejected `E0801`.
    pub queue_depth: usize,
    /// Compiled artifacts retained by the shared service.
    pub artifact_capacity: usize,
    /// Ignored: there is no plan cache. Kept only because `benchmark/`
    /// still sets it; it goes when a `[benchmark]` PR (ROADMAP 2(a)) stops
    /// using it.
    pub plan_cache: Option<PathBuf>,
    /// Default compile/run budget for requests that do not carry their own
    /// `deadline_ms`. The clock starts at admission.
    pub default_deadline: Duration,
    /// Extra time beyond a job's deadline before its (already-answered)
    /// worker is considered hung: the worker is retired in place and a
    /// replacement spawned so the pool recovers capacity.
    pub hang_grace: Duration,
    /// Request-line size cap; longer lines answer `E0802` inline and the
    /// reader resyncs at the next newline.
    pub max_frame_bytes: usize,
    /// How long a connection may hold a *partial* request line before the
    /// server closes it (slow-loris containment). Idle connections with
    /// no partial frame are left alone.
    pub idle_timeout: Duration,
    /// Hard bound on [`Server::stop`]: workers still running when it
    /// expires are detached (never blocking shutdown) and any still-queued
    /// jobs are answered with a coded rejection.
    pub stop_timeout: Duration,
    /// Queue-occupancy fraction at which brownout starts: requests are
    /// compiled on the cheaper scf rung (results stay bit-identical).
    pub brownout_l2: f64,
    /// Optional seeded chaos plan — armed at start, disarmable at runtime
    /// via [`Server::chaos`].
    pub chaos: Option<ChaosPlan>,
    /// Server-wide run-memory budget in bytes (`None` = unbounded). Every
    /// run request must reserve its attested [`fsc_exec::MemoryEstimate`]
    /// on this ledger before executing; a reservation that cannot be made
    /// even after the squeeze rung and a bounded park is answered `E0806`.
    /// Reserved-fraction also feeds the brownout threshold, so memory
    /// pressure sheds cost (the rung) before it sheds requests.
    pub mem_budget: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: fsc_ir::par::available_threads().clamp(2, 8),
            queue_depth: 64,
            artifact_capacity: fsc_core::session::DEFAULT_ARTIFACT_CAPACITY,
            plan_cache: None,
            default_deadline: Duration::from_secs(30),
            hang_grace: Duration::from_secs(5),
            max_frame_bytes: 4 << 20,
            idle_timeout: Duration::from_secs(30),
            stop_timeout: Duration::from_secs(10),
            brownout_l2: 0.8,
            chaos: None,
            mem_budget: None,
        }
    }
}

/// How much cost the server is shedding for one request (a rejection —
/// `E0801` — never reaches a worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BrownoutLevel {
    /// Full service.
    Normal,
    /// Compile at the cheaper scf rung (bit-identical results).
    ReducedRung,
}

impl BrownoutLevel {
    /// Stable lowercase name used in response attestations and `stats`.
    pub fn describe(self) -> &'static str {
        match self {
            BrownoutLevel::Normal => "none",
            BrownoutLevel::ReducedRung => "reduced-rung",
        }
    }

    fn gauge(self) -> u64 {
        match self {
            BrownoutLevel::Normal => 0,
            BrownoutLevel::ReducedRung => 1,
        }
    }
}

/// One admitted compile or run request.
struct Job {
    id: i64,
    spec: CompileSpec,
    /// The arrays a run returns; `None` for a compile.
    arrays: Option<Vec<String>>,
    reply: Arc<Mutex<UnixStream>>,
    admitted: Instant,
    /// Compile/run budget, measured from `admitted`.
    deadline: Duration,
    /// Brownout level in force when the job was admitted.
    brownout: BrownoutLevel,
    /// Exactly-once answer guard, shared with the watchdog/supervisor.
    answered: Arc<AtomicBool>,
}

/// What the supervisor can see of a job a thread is executing.
struct ActiveJob {
    id: i64,
    fingerprint: u64,
    reply: Arc<Mutex<UnixStream>>,
    answered: Arc<AtomicBool>,
    admitted: Instant,
    deadline: Duration,
    /// The watchdog already answered `E0803` and reclaimed the slot.
    killed: bool,
    /// The watchdog gave this hung job's pool slot back.
    slot_released: bool,
}

/// What the supervisor sees of a thread that runs jobs: the registered
/// in-flight job plus a retire flag (a retired worker exits at its next
/// loop head; readers ignore it).
#[derive(Default)]
struct JobCell {
    active: Mutex<Option<ActiveJob>>,
    retired: AtomicBool,
}

/// A thread the supervisor watches: a pool worker or a connection reader.
struct Watched {
    handle: Option<JoinHandle<()>>,
    cell: Arc<JobCell>,
}

/// The work queue and the execution slots, under one lock: a job starts
/// (popped by a worker, or run by its reader) only while
/// `running < workers`.
#[derive(Default)]
struct Pool {
    jobs: VecDeque<Job>,
    /// Jobs executing, on workers and connection readers together.
    running: usize,
}

struct ServerInner {
    config: ServerConfig,
    service: Arc<CompileService>,
    pool: Mutex<Pool>,
    work_ready: Condvar,
    metrics: ServerMetrics,
    shutdown: AtomicBool,
    supervisor_stop: AtomicBool,
    workers: Mutex<Vec<Watched>>,
    /// Connection readers, watched like workers while they run a job.
    conns: Mutex<Vec<Watched>>,
    next_worker: AtomicU64,
    chaos: Option<Arc<ChaosInjector>>,
    /// Server-wide run-memory reservation ledger (see
    /// [`ServerConfig::mem_budget`]).
    mem_ledger: Arc<MemoryBudget>,
}

/// A running compile server. Dropping it (or calling [`Server::stop`])
/// stops accepting, drains queued work, and joins the worker pool.
pub struct Server {
    socket_path: PathBuf,
    inner: Arc<ServerInner>,
    accept: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `socket_path` (replacing any stale socket file) and start the
    /// accept loop, the worker pool and the supervisor.
    pub fn start(socket_path: &Path, config: ServerConfig) -> std::io::Result<Server> {
        let _ = std::fs::remove_file(socket_path);
        if let Some(parent) = socket_path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let listener = UnixListener::bind(socket_path)?;
        let service = Arc::new(CompileService::new(config.artifact_capacity));
        let chaos = config
            .chaos
            .clone()
            .map(|p| Arc::new(ChaosInjector::new(p)));
        if let Some(ch) = &chaos {
            // Slow compiles are injected *inside* the singleflight leader's
            // critical section, so the slot is genuinely held while slow —
            // exactly the hang the watchdog must contain.
            let ch = ch.clone();
            service.set_compile_hook(Some(Arc::new(move |_req: &CompileRequest| {
                if let Some(nap) = ch.slow_compile() {
                    std::thread::sleep(nap);
                }
            })));
        }
        let mem_ledger = match config.mem_budget {
            Some(bytes) => MemoryBudget::limited(bytes.max(1)),
            None => MemoryBudget::unlimited(),
        };
        let inner = Arc::new(ServerInner {
            service,
            mem_ledger,
            config,
            pool: Mutex::new(Pool::default()),
            work_ready: Condvar::new(),
            metrics: ServerMetrics::new(),
            shutdown: AtomicBool::new(false),
            supervisor_stop: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
            conns: Mutex::new(Vec::new()),
            next_worker: AtomicU64::new(0),
            chaos,
        });
        // A failed spawn below drops `server`, and `stop` winds down the rest.
        let mut server = Server {
            socket_path: socket_path.to_path_buf(),
            inner: inner.clone(),
            accept: None,
            supervisor: None,
        };
        for _ in 0..inner.config.workers {
            let worker = spawn_worker(&inner)?;
            lock(&inner.workers).push(worker);
        }
        let accepting = inner.clone();
        server.accept = Some(
            std::thread::Builder::new()
                .name("fsc-accept".into())
                .spawn(move || accept_loop(&listener, &accepting))?,
        );
        server.supervisor = Some(
            std::thread::Builder::new()
                .name("fsc-supervisor".into())
                .spawn(move || supervisor_loop(&inner))?,
        );
        Ok(server)
    }

    /// The socket path clients connect to.
    pub fn socket_path(&self) -> &Path {
        &self.socket_path
    }

    /// The shared compile service (tests inspect its metrics directly).
    pub fn service(&self) -> &Arc<CompileService> {
        &self.inner.service
    }

    /// The armed chaos injector, when the config carried a plan (soaks
    /// disarm it between the storm and the verification phase).
    pub fn chaos(&self) -> Option<&Arc<ChaosInjector>> {
        self.inner.chaos.as_ref()
    }

    /// True until a shutdown request (or [`Server::stop`]) lands.
    pub fn running(&self) -> bool {
        !self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Stop accepting, drain queued jobs, join every thread — within the
    /// configured hard `stop_timeout`. In-flight requests complete (their
    /// workers drain the queue before exiting, and jobs running on
    /// connection readers are waited for); a worker still stuck when
    /// the timeout expires is detached, and any job left in the queue is
    /// answered with a coded rejection rather than dropped. Idempotent.
    pub fn stop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.work_ready.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = UnixStream::connect(&self.socket_path);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }

        let hard = Instant::now() + self.inner.config.stop_timeout;
        loop {
            {
                let mut workers = lock(&self.inner.workers);
                workers.retain_mut(|slot| !reap(&self.inner, slot));
                if workers.is_empty() && lock(&self.inner.pool).running == 0 {
                    break;
                }
                if Instant::now() >= hard {
                    // Detach laggards: a hung compile must not hold the
                    // process hostage. Their eventual answers are
                    // suppressed by the per-job answered flags.
                    for slot in workers.drain(..) {
                        slot.cell.retired.store(true, Ordering::SeqCst);
                        self.inner
                            .metrics
                            .detached_workers
                            .fetch_add(1, Ordering::Relaxed);
                        drop(slot.handle);
                    }
                    break;
                }
            }
            self.inner.work_ready.notify_all();
            std::thread::sleep(Duration::from_millis(2));
        }

        // Anything still queued has no worker left to run it: answer it
        // (coded), never drop it silently.
        let leftovers: Vec<Job> = lock(&self.inner.pool).jobs.drain(..).collect();
        for job in leftovers {
            if !job.answered.swap(true, Ordering::SeqCst) {
                self.inner
                    .metrics
                    .drain_flushed
                    .fetch_add(1, Ordering::Relaxed);
                write_line(
                    &job.reply,
                    error_response(
                        job.id,
                        codes::SERVER_BUSY,
                        "server stopped before processing this request; retry elsewhere",
                    ),
                );
            }
        }

        self.inner.supervisor_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.socket_path);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

fn spawn_worker(inner: &Arc<ServerInner>) -> std::io::Result<Watched> {
    let cell = Arc::new(JobCell::default());
    let idx = inner.next_worker.fetch_add(1, Ordering::Relaxed);
    let (inner, worker_cell) = (inner.clone(), cell.clone());
    let handle = std::thread::Builder::new()
        .name(format!("fsc-worker-{idx}"))
        .spawn(move || worker_loop(&inner, &worker_cell))?;
    Ok(Watched {
        handle: Some(handle),
        cell,
    })
}

fn accept_loop(listener: &UnixListener, inner: &Arc<ServerInner>) {
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let cell = Arc::new(JobCell::default());
        let (reader, reader_cell) = (inner.clone(), cell.clone());
        // Connection readers are never joined on shutdown: they exit within
        // one read-timeout tick of it (or on client EOF). The supervisor
        // watches them for the jobs they run.
        let spawned = std::thread::Builder::new()
            .name("fsc-conn".into())
            .spawn(move || connection_loop(stream, &reader, &reader_cell));
        if let Ok(handle) = spawned {
            lock(&inner.conns).push(Watched {
                handle: Some(handle),
                cell,
            });
        }
    }
}

/// Read newline-delimited frames with a hard per-line byte cap and a
/// partial-frame idle deadline. Oversized frames answer `E0802` inline
/// and the reader resyncs at the next newline; a connection that dribbles
/// a partial frame for longer than `idle_timeout` is closed.
fn connection_loop(stream: UnixStream, inner: &Arc<ServerInner>, cell: &JobCell) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    // Bounded writes: a client that stops reading must never wedge a
    // worker, the watchdog, or this reader on a full socket buffer.
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let reply = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut stream = stream;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    let mut partial_since: Option<Instant> = None;
    let mut discarding = false;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return, // client closed (or half-closed its write side)
            Ok(n) => {
                for &b in &chunk[..n] {
                    if b == b'\n' {
                        if discarding {
                            discarding = false;
                            partial_since = None;
                            continue;
                        }
                        let line = String::from_utf8_lossy(&buf).into_owned();
                        buf.clear();
                        partial_since = None;
                        let trimmed = line.trim();
                        if !trimmed.is_empty() {
                            handle_line(trimmed, &reply, inner, cell);
                        }
                    } else if !discarding {
                        buf.push(b);
                        if buf.len() > inner.config.max_frame_bytes {
                            inner
                                .metrics
                                .oversized_frames
                                .fetch_add(1, Ordering::Relaxed);
                            inner
                                .metrics
                                .protocol_errors
                                .fetch_add(1, Ordering::Relaxed);
                            write_line(
                                &reply,
                                error_response(
                                    0,
                                    codes::SERVER_PROTOCOL,
                                    &format!(
                                        "request line exceeds the {} byte frame cap",
                                        inner.config.max_frame_bytes
                                    ),
                                ),
                            );
                            buf.clear();
                            buf.shrink_to(64 * 1024);
                            discarding = true;
                        }
                    }
                }
                if (!buf.is_empty() || discarding) && partial_since.is_none() {
                    partial_since = Some(Instant::now());
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(t0) = partial_since {
                    if t0.elapsed() > inner.config.idle_timeout {
                        inner.metrics.idle_closes.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
            }
            Err(_) => return,
        }
    }
}

/// Send `line` and its newline as one write: the reader wakes once per
/// frame.
fn write_line(reply: &Arc<Mutex<UnixStream>>, mut line: String) {
    line.push('\n');
    let mut w = lock(reply);
    let _ = w.write_all(line.as_bytes());
    let _ = w.flush();
}

/// Write a job response, possibly truncated mid-frame by the chaos layer
/// (the client sees a cut line + EOF — a transport error it must retry).
fn write_response(inner: &ServerInner, reply: &Arc<Mutex<UnixStream>>, line: String) {
    if let Some(ch) = &inner.chaos {
        if ch.truncate_frame() {
            inner
                .metrics
                .truncated_writes
                .fetch_add(1, Ordering::Relaxed);
            let mut w = lock(reply);
            let cut = line.len() / 2;
            let _ = w.write_all(&line.as_bytes()[..cut]);
            let _ = w.flush();
            let _ = w.shutdown(std::net::Shutdown::Both);
            return;
        }
    }
    write_line(reply, line);
}

/// The brownout level implied by `occupancy` (fraction of the queue bound
/// taken by the jobs already waiting, the request being admitted not
/// counted: an idle server never browns out).
fn brownout_level(config: &ServerConfig, occupancy: f64) -> BrownoutLevel {
    if occupancy >= config.brownout_l2 {
        BrownoutLevel::ReducedRung
    } else {
        BrownoutLevel::Normal
    }
}

/// Fraction of the server memory budget currently reserved (0.0 when the
/// budget is unbounded). Feeds the same brownout threshold as queue
/// occupancy: a mostly-reserved ledger sheds the rung before the
/// admission path has to start rejecting `E0806`.
fn mem_occupancy(inner: &ServerInner) -> f64 {
    match inner.mem_ledger.limit() {
        Some(limit) if limit > 0 => inner.mem_ledger.used() as f64 / limit as f64,
        _ => 0.0,
    }
}

/// Parse, then either answer inline (ping/stats/shutdown/protocol error/
/// admission rejection, and a cache hit that may start now) or enqueue for
/// the worker pool.
fn handle_line(
    line: &str,
    reply: &Arc<Mutex<UnixStream>>,
    inner: &Arc<ServerInner>,
    cell: &JobCell,
) {
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(e) => {
            inner
                .metrics
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            write_line(
                reply,
                error_response(Request::recover_id(line), codes::SERVER_PROTOCOL, &e),
            );
            return;
        }
    };
    match request.op {
        Op::Ping => write_line(
            reply,
            ObjBuilder::new()
                .num("id", request.id as f64)
                .bool("ok", true)
                .bool("pong", true)
                .build()
                .render(),
        ),
        Op::Stats => write_line(
            reply,
            ObjBuilder::new()
                .num("id", request.id as f64)
                .bool("ok", true)
                .set("stats", stats_snapshot(inner))
                .build()
                .render(),
        ),
        Op::Shutdown => {
            write_line(
                reply,
                ObjBuilder::new()
                    .num("id", request.id as f64)
                    .bool("ok", true)
                    .bool("stopping", true)
                    .build()
                    .render(),
            );
            inner.shutdown.store(true, Ordering::SeqCst);
            inner.work_ready.notify_all();
        }
        Op::Compile(spec) => admit(request.id, spec, None, reply, inner, cell),
        Op::Run(spec, arrays) => admit(request.id, spec, Some(arrays), reply, inner, cell),
    }
}

/// Admission control for a compile or run job: reject it, run it here (a
/// cache hit that may start now), or queue it for the pool.
fn admit(
    id: i64,
    spec: CompileSpec,
    arrays: Option<Vec<String>>,
    reply: &Arc<Mutex<UnixStream>>,
    inner: &Arc<ServerInner>,
    cell: &JobCell,
) {
    if inner.shutdown.load(Ordering::SeqCst) {
        // Workers may already have drained and exited; admitting now could
        // strand the job. Shed it instead.
        inner.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        let message = "server is shutting down; retry elsewhere";
        return write_line(reply, error_response(id, codes::SERVER_BUSY, message));
    }
    let deadline = spec
        .deadline_ms
        .map(Duration::from_millis)
        .unwrap_or(inner.config.default_deadline);
    let mut pool = lock(&inner.pool);
    if pool.jobs.len() >= inner.config.queue_depth {
        drop(pool);
        inner.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        inner.metrics.brownout_level.store(2, Ordering::Relaxed);
        return write_line(reply, busy_response(id, inner.config.queue_depth));
    }
    let occupancy = pool.jobs.len() as f64 / inner.config.queue_depth.max(1) as f64;
    // Memory pressure browns out on the same ladder: the request is served
    // leaner while reservations are scarce.
    let brownout = brownout_level(&inner.config, occupancy.max(mem_occupancy(inner)));
    if brownout == BrownoutLevel::ReducedRung {
        inner
            .metrics
            .brownout_reduced_rung
            .fetch_add(1, Ordering::Relaxed);
    }
    inner
        .metrics
        .brownout_level
        .store(brownout.gauge(), Ordering::Relaxed);
    inner.metrics.accepted.fetch_add(1, Ordering::Relaxed);
    let job = Job {
        id,
        spec,
        arrays,
        reply: reply.clone(),
        admitted: Instant::now(),
        deadline,
        brownout,
        answered: Arc::new(AtomicBool::new(false)),
    };
    // A hit runs here when it overtakes nothing and a slot is free. The
    // slot is taken first and the cache probed outside the pool lock, so a
    // probe waiting on the cache never holds up the pool (a miss may then
    // find the queue refilled, and overshoot its depth by a few jobs).
    if pool.jobs.is_empty()
        && pool.running < inner.config.workers
        && !inner.shutdown.load(Ordering::SeqCst)
    {
        pool.running += 1;
        drop(pool);
        let request = to_compile_request(&job);
        if let Some(hit) = inner.service.cached(&request) {
            return execute(inner, cell, job, request, Some(hit));
        }
        pool = lock(&inner.pool);
        pool.running -= 1;
    }
    pool.jobs.push_back(job);
    inner
        .metrics
        .queue_depth
        .store(pool.jobs.len() as u64, Ordering::Relaxed);
    drop(pool);
    inner.work_ready.notify_one();
}

/// The worker body: take a queued job when a slot is free, run it, repeat.
fn worker_loop(inner: &Arc<ServerInner>, cell: &JobCell) {
    loop {
        let job = {
            let mut pool = lock(&inner.pool);
            loop {
                if cell.retired.load(Ordering::SeqCst) {
                    break None;
                }
                if pool.running < inner.config.workers {
                    if let Some(job) = pool.jobs.pop_front() {
                        pool.running += 1;
                        inner
                            .metrics
                            .queue_depth
                            .store(pool.jobs.len() as u64, Ordering::Relaxed);
                        break Some(job);
                    }
                }
                if inner.shutdown.load(Ordering::SeqCst) && pool.jobs.is_empty() {
                    break None;
                }
                pool = inner
                    .work_ready
                    .wait(pool)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { return };
        let request = to_compile_request(&job);
        execute(inner, cell, job, request, None);
    }
}

/// Run one admitted job on the calling thread, which holds one pool slot
/// for it: a worker that took the job off the queue, or the connection
/// reader that admitted it with its artifact already cached (`hit`).
/// Deliberately **no** `catch_unwind`: a panic anywhere in here
/// (chaos-injected or real) kills the thread, and the supervisor's death
/// detection answers the client `E0804` and releases the singleflight and
/// pool slots — the crash-only discipline under test.
fn execute(
    inner: &Arc<ServerInner>,
    cell: &JobCell,
    job: Job,
    request: CompileRequest,
    hit: Option<CompileOutcome>,
) {
    let on_reader = hit.is_some();
    inner.metrics.queue_wait.record(job.admitted.elapsed());

    // A job that already overran its budget while queued is answered
    // E0803 without burning a compile on it.
    if job.admitted.elapsed() > job.deadline {
        if !job.answered.swap(true, Ordering::SeqCst) {
            inner.metrics.deadline_kills.fetch_add(1, Ordering::Relaxed);
            let line = deadline_response(job.id, job.deadline.as_millis() as u64);
            answer(inner, &job, false, on_reader, line);
        }
        return release_slot(inner);
    }

    // Register with the watchdog before anything can hang or die — from
    // here on, a thread death is answered `E0804` by the supervisor and a
    // budget overrun `E0803` by the watchdog, so the job can no longer be
    // lost.
    *lock(&cell.active) = Some(ActiveJob {
        id: job.id,
        fingerprint: hit
            .as_ref()
            .map_or_else(|| request.fingerprint(), |o| o.fingerprint),
        reply: job.reply.clone(),
        answered: job.answered.clone(),
        admitted: job.admitted,
        deadline: job.deadline,
        killed: false,
        slot_released: false,
    });

    if let Some(ch) = &inner.chaos {
        if ch.purge_artifacts() {
            inner.service.purge_artifacts();
        }
        if ch.worker_panic() {
            chaos_panic();
        }
    }

    let response = process_job(&job, &request, hit, inner);

    // The slot is still this job's unless the watchdog gave it back; it is
    // released once the answer is out, so `stop` waits for the answer.
    let slot_released = lock(&cell.active).take().is_some_and(|a| a.slot_released);
    if job.answered.swap(true, Ordering::SeqCst) {
        // The watchdog (or supervisor at stop) got there first; the late
        // result is discarded — exactly-once holds.
        inner
            .metrics
            .late_completions
            .fetch_add(1, Ordering::Relaxed);
    } else {
        let ok = response.get("ok").and_then(Json::as_bool) == Some(true);
        answer(inner, &job, ok, on_reader, response.render());
    }
    if !slot_released {
        release_slot(inner);
    }
}

/// The chaos worker-panic site. Outside any catch_unwind — the thread dies
/// here, with its job registered, so the supervisor owns the answer.
#[allow(clippy::panic, reason = "an injected crash is this site's purpose")]
fn chaos_panic() -> ! {
    panic!("chaos: injected worker panic");
}

/// Count and write the one answer of a job its executing thread answers.
fn answer(inner: &ServerInner, job: &Job, ok: bool, on_reader: bool, line: String) {
    let m = &inner.metrics;
    if ok {
        m.completed.fetch_add(1, Ordering::Relaxed);
    } else {
        m.failed.fetch_add(1, Ordering::Relaxed);
    }
    if on_reader {
        m.answered_inline.fetch_add(1, Ordering::Relaxed);
    }
    m.latency.record(job.admitted.elapsed());
    write_response(inner, &job.reply, line);
}

/// Give a pool slot back, waking a worker when a queued job waits for one.
fn release_slot(inner: &ServerInner) {
    let mut pool = lock(&inner.pool);
    pool.running = pool.running.saturating_sub(1);
    if !pool.jobs.is_empty() {
        inner.work_ready.notify_one();
    }
}

/// Join `slot`'s thread if it has finished; one that died by panic has its
/// registered job answered `E0804`, its singleflight slot reclaimed and
/// its pool slot released. Returns whether the thread is gone.
fn reap(inner: &ServerInner, slot: &mut Watched) -> bool {
    let Some(handle) = slot.handle.take_if(|h| h.is_finished()) else {
        return slot.handle.is_none();
    };
    if handle.join().is_ok() {
        return true;
    }
    inner.metrics.worker_crashes.fetch_add(1, Ordering::Relaxed);
    if let Some(job) = lock(&slot.cell.active).take() {
        // The dead thread may have been a singleflight leader; reclaim so
        // duplicates are promoted.
        inner.service.abandon_stale(job.fingerprint, Duration::ZERO);
        if !job.slot_released {
            release_slot(inner);
        }
        if !job.answered.swap(true, Ordering::SeqCst) {
            inner.metrics.failed.fetch_add(1, Ordering::Relaxed);
            inner.metrics.latency.record(job.admitted.elapsed());
            write_response(inner, &job.reply, crash_response(job.id));
        }
    }
    true
}

/// The deadline watchdog over `cell`'s registered job. Past its budget the
/// client is answered `E0803` and the singleflight slot reclaimed; past
/// `deadline + hang_grace` the job's pool slot is given back, and the
/// return is true so a hung worker can be retired and replaced.
fn watch(inner: &ServerInner, cell: &JobCell) -> bool {
    let mut active = lock(&cell.active);
    let Some(job) = active.as_mut() else {
        return false;
    };
    let elapsed = job.admitted.elapsed();
    if !job.killed && elapsed > job.deadline {
        job.killed = true;
        // Reclaim the singleflight slot so parked duplicates are promoted.
        // The age guard (half this job's budget) spares a freshly-promoted
        // healthy leader from a cascading kill.
        inner
            .service
            .abandon_stale(job.fingerprint, job.deadline / 2);
        if !job.answered.swap(true, Ordering::SeqCst) {
            inner.metrics.deadline_kills.fetch_add(1, Ordering::Relaxed);
            inner.metrics.failed.fetch_add(1, Ordering::Relaxed);
            inner.metrics.latency.record(elapsed);
            write_response(
                inner,
                &job.reply,
                deadline_response(job.id, job.deadline.as_millis() as u64),
            );
        }
    }
    // Hang containment: stuck well past its budget, the job gives its slot
    // back (its late answer is already suppressed).
    if job.killed
        && !job.slot_released
        && elapsed > job.deadline + inner.config.hang_grace
        && !inner.shutdown.load(Ordering::SeqCst)
    {
        job.slot_released = true;
        release_slot(inner);
        return true;
    }
    false
}

/// The supervisor: death detection + deadline watchdog + hang
/// replacement, on a short tick, over the workers and the connection
/// readers alike. Runs until [`Server::stop`] has drained everything.
fn supervisor_loop(inner: &Arc<ServerInner>) {
    while !inner.supervisor_stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(5));
        let mut hung = 0usize;
        let mut workers = lock(&inner.workers);
        workers.retain_mut(|slot| {
            if !reap(inner, slot) {
                if watch(inner, &slot.cell) {
                    // Retire the hung worker in place (it exits at its next
                    // loop head) and restore pool capacity below.
                    slot.cell.retired.store(true, Ordering::SeqCst);
                    hung += 1;
                }
                return true;
            }
            // A worker exits cleanly only when retired or at shutdown; one
            // that died is respawned in place (crash-only), a failed spawn
            // retried on the next tick.
            if slot.cell.retired.load(Ordering::SeqCst) || inner.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            if let Ok(fresh) = spawn_worker(inner) {
                *slot = fresh;
            }
            true
        });
        for _ in 0..hung {
            workers.extend(spawn_worker(inner).ok());
        }
        drop(workers);
        // A hung reader keeps its connection; it only gives its slot back.
        lock(&inner.conns).retain_mut(|conn| {
            let gone = reap(inner, conn);
            if !gone {
                watch(inner, &conn.cell);
            }
            !gone
        });
    }
}

/// An admitted run's reservation on the server-wide memory ledger. RAII:
/// every exit path (including a chaos-injected worker panic mid-run)
/// refunds the reservation, so the ledger can never leak bytes.
struct MemReservation {
    ledger: Arc<MemoryBudget>,
    bytes: u64,
}

impl Drop for MemReservation {
    fn drop(&mut self) {
        self.ledger.release(self.bytes);
    }
}

/// The memory-pressure squeeze: the same program compiled on the cheaper
/// scf rung (bit-identical results, DESIGN.md §7). Applied when the
/// full-service estimate fails reservation, before parking or rejecting.
fn squeeze_request(request: &CompileRequest) -> CompileRequest {
    let mut lean = request.clone();
    if !matches!(lean.options.target, Target::FlangOnly) {
        lean.options.force_rung = Some(DegradationRung::ScfFallback);
    }
    lean
}

/// Memory admission for a run job: estimate, reserve on the server
/// ledger, squeeze, park (bounded by the job's remaining deadline),
/// reject `E0806`. Returns the (possibly squeezed) outcome, its
/// estimated bytes, and the held reservation — or the rejection
/// response.
fn admit_memory(
    job: &Job,
    request: &CompileRequest,
    outcome: CompileOutcome,
    inner: &Arc<ServerInner>,
) -> std::result::Result<(CompileOutcome, u64, MemReservation), Json> {
    let estimate = |o: &CompileOutcome| o.compiled.estimate().map(|e| e.total().max(1));
    let mut outcome = outcome;
    let mut need = match estimate(&outcome) {
        Ok(n) => n,
        Err(e) => return Err(ir_error_json(job.id, &e)),
    };
    // The chaos memory-pressure site forces the first attempt to fail as
    // if the ledger were exhausted, driving the squeeze path even when
    // the configured budget is never organically hit.
    let chaos_deny = inner.chaos.as_ref().is_some_and(|c| c.mem_pressure());
    let mut reserved = !chaos_deny && inner.mem_ledger.try_reserve(need).is_ok();

    if !reserved {
        // Squeeze: recompile lean and retry with the smaller estimate
        // (kept only when it actually shrinks — a lean recompile of an
        // already-lean request is free via the artifact cache).
        inner.metrics.mem_squeezes.fetch_add(1, Ordering::Relaxed);
        match inner.service.compile(&squeeze_request(request)) {
            Ok(lean) => match estimate(&lean) {
                Ok(lean_need) => {
                    if lean_need <= need {
                        outcome = lean;
                        need = lean_need;
                    }
                }
                Err(e) => return Err(ir_error_json(job.id, &e)),
            },
            Err(e) => return Err(ir_error_json(job.id, &e)),
        }
        reserved = inner.mem_ledger.try_reserve(need).is_ok();
    }

    if !reserved {
        // Park: admitted-but-unreservable requests wait (within their
        // deadline) for in-flight runs to release their reservations,
        // instead of failing a retryable-looking burst.
        inner.metrics.mem_parked.fetch_add(1, Ordering::Relaxed);
        while job.admitted.elapsed() + Duration::from_millis(10) < job.deadline
            && !job.answered.load(Ordering::SeqCst)
        {
            std::thread::sleep(Duration::from_millis(5));
            if inner.mem_ledger.try_reserve(need).is_ok() {
                reserved = true;
                break;
            }
        }
    }

    if !reserved {
        inner.metrics.mem_rejected.fetch_add(1, Ordering::Relaxed);
        return Err(mem_reject_json(job.id, need, inner.mem_ledger.limit()));
    }
    let reservation = MemReservation {
        ledger: inner.mem_ledger.clone(),
        bytes: need,
    };
    Ok((outcome, need, reservation))
}

/// Compile (unless `hit` already holds the artifact) and run one admitted
/// job, producing the response value.
fn process_job(
    job: &Job,
    request: &CompileRequest,
    hit: Option<CompileOutcome>,
    inner: &Arc<ServerInner>,
) -> Json {
    let outcome = match hit.map_or_else(|| inner.service.compile(request), Ok) {
        Ok(o) => o,
        Err(e) => return ir_error_json(job.id, &e),
    };
    let Some(arrays) = &job.arrays else {
        // Compile-only jobs execute nothing: no run-memory admission.
        return attest(job.id, &outcome, job.brownout).build();
    };
    let (outcome, est_bytes, _reservation) = match admit_memory(job, request, outcome, inner) {
        Ok(admitted) => admitted,
        Err(response) => return response,
    };
    let mut b = attest(job.id, &outcome, job.brownout);
    let t0 = Instant::now();
    // The per-request budget *is* the attested estimate: by construction
    // the run's measured peak cannot exceed the estimate, or it fails
    // with a coded E0805 instead of overrunning the reservation.
    let budget = MemoryBudget::limited(est_bytes);
    let execution = match outcome.compiled.run_governed(budget) {
        Ok(x) => x,
        Err(e) => return ir_error_json(job.id, &e),
    };
    {
        // Per-tier execution gauges: one tick per tier the run attested.
        let m = &inner.metrics;
        for path in &execution.report.exec_paths {
            let counter = match path {
                fsc_exec::ExecPath::Specialized => &m.exec_specialized,
                fsc_exec::ExecPath::Jit => &m.exec_jit,
                fsc_exec::ExecPath::FusedVm => &m.exec_fused_vm,
                fsc_exec::ExecPath::GenericVm => &m.exec_generic_vm,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }
    if let Some(d) = &execution.report.distributed {
        let m = &inner.metrics;
        m.dist_runs.fetch_add(1, Ordering::Relaxed);
        m.dist_steals.fetch_add(d.steals, Ordering::Relaxed);
        m.dist_parks.fetch_add(d.parks, Ordering::Relaxed);
        m.dist_logical_messages
            .fetch_add(d.logical_messages, Ordering::Relaxed);
        m.dist_physical_messages
            .fetch_add(d.physical_messages, Ordering::Relaxed);
        m.dist_halo_depth
            .fetch_max(u64::from(d.halo_depth), Ordering::Relaxed);
        let scheduler = match d.scheduler {
            Some(fsc_core::DistMode::Threads) => 1,
            Some(fsc_core::DistMode::Coop) => 2,
            None => 0,
        };
        if scheduler > 0 {
            m.dist_scheduler.store(scheduler, Ordering::Relaxed);
        }
    }
    b = b
        .num("run_ms", t0.elapsed().as_secs_f64() * 1000.0)
        .str(
            "checksum",
            &format!("{:016x}", checksum_arrays(&execution, arrays)),
        )
        .str("rung_ran", execution.report.degradation.ran.describe())
        .num("est_bytes", est_bytes as f64)
        .num("peak_bytes", execution.report.peak_bytes as f64);
    b = b.set("arrays", render_arrays(&execution, arrays));
    b.build()
}

fn to_compile_request(job: &Job) -> CompileRequest {
    let mut options = job.spec.options();
    // Brownout: compile on the cheap scf rung (fewer passes, bit-identical
    // results — DESIGN.md §7's ladder guarantee).
    if job.brownout == BrownoutLevel::ReducedRung && !matches!(options.target, Target::FlangOnly) {
        options.force_rung = Some(DegradationRung::ScfFallback);
    }
    let mut request = CompileRequest::with_options(job.spec.source.clone(), options);
    // Parked followers must give up in step with the watchdog: their
    // session-level budget is what remains of the job's budget.
    request.deadline = Some(job.deadline.saturating_sub(job.admitted.elapsed()));
    request
}

/// The per-request attestation: artifact provenance, degradation rung,
/// brownout level, coded warnings, wall times.
fn attest(id: i64, outcome: &CompileOutcome, brownout: BrownoutLevel) -> ObjBuilder {
    let compiled = &outcome.compiled;
    // Coded warnings accumulated during compilation (E0705 jit stitching
    // skips) — visible to the client, so "degraded but served" is
    // attested, not silent.
    let warnings: Vec<Json> = {
        let mut codes: Vec<&str> = compiled
            .kernels
            .values()
            .flat_map(|k| k.jit_warnings.iter().map(|d| d.code))
            .collect();
        codes.sort();
        codes.dedup();
        codes
            .into_iter()
            .map(|c| Json::Str(c.to_string()))
            .collect()
    };
    // Tier attestation: which rungs of the specialization ladder the
    // compiled nests will run through.
    let exec_tiers: Vec<Json> = {
        let mut tiers: Vec<String> = compiled
            .kernels
            .values()
            .flat_map(|k| k.nests.iter())
            .map(|n| n.path.to_string())
            .collect();
        tiers.sort();
        tiers.dedup();
        tiers.into_iter().map(Json::Str).collect()
    };
    ObjBuilder::new()
        .num("id", id as f64)
        .bool("ok", true)
        .str("artifact", outcome.source.describe())
        .str("fingerprint", &format!("{:016x}", outcome.fingerprint))
        .str("rung", compiled.degradation.ran.describe())
        .bool("degraded", compiled.degradation.degraded())
        .str("brownout", brownout.describe())
        .set("exec_tiers", Json::Arr(exec_tiers))
        .set("warnings", Json::Arr(warnings))
        .num("compile_ms", outcome.wall.as_secs_f64() * 1000.0)
}

fn render_arrays(execution: &Execution, names: &[String]) -> Json {
    let mut b = ObjBuilder::new();
    for name in names {
        let value = match execution.array(name) {
            Some(data) => Json::Arr(data.iter().copied().map(Json::Num).collect()),
            None => Json::Null,
        };
        b = b.set(name, value);
    }
    b.build()
}

fn ir_error_json(id: i64, error: &fsc_ir::IrError) -> Json {
    let code = error.primary().map(|d| d.code).unwrap_or(codes::EXEC);
    error_json(id, code, &error.message)
}

fn stats_snapshot(inner: &Arc<ServerInner>) -> Json {
    let m = &inner.metrics;
    let s = inner.service.metrics();
    let mut b = ObjBuilder::new()
        .num("workers", inner.config.workers as f64)
        .num("queue_capacity", inner.config.queue_depth as f64)
        .num("queue_depth", m.queue_depth.load(Ordering::Relaxed) as f64)
        .num("accepted", m.accepted.load(Ordering::Relaxed) as f64)
        .num("rejected", m.rejected.load(Ordering::Relaxed) as f64)
        .num("completed", m.completed.load(Ordering::Relaxed) as f64)
        .num(
            "answered_inline",
            m.answered_inline.load(Ordering::Relaxed) as f64,
        )
        .num("failed", m.failed.load(Ordering::Relaxed) as f64)
        .num(
            "protocol_errors",
            m.protocol_errors.load(Ordering::Relaxed) as f64,
        )
        .num(
            "deadline_kills",
            m.deadline_kills.load(Ordering::Relaxed) as f64,
        )
        .num(
            "worker_crashes",
            m.worker_crashes.load(Ordering::Relaxed) as f64,
        )
        .num(
            "late_completions",
            m.late_completions.load(Ordering::Relaxed) as f64,
        )
        .num(
            "oversized_frames",
            m.oversized_frames.load(Ordering::Relaxed) as f64,
        )
        .num("idle_closes", m.idle_closes.load(Ordering::Relaxed) as f64)
        .num(
            "truncated_writes",
            m.truncated_writes.load(Ordering::Relaxed) as f64,
        )
        .num(
            "brownout_level",
            m.brownout_level.load(Ordering::Relaxed) as f64,
        )
        .num(
            "brownout_reduced_rung",
            m.brownout_reduced_rung.load(Ordering::Relaxed) as f64,
        )
        .num(
            "detached_workers",
            m.detached_workers.load(Ordering::Relaxed) as f64,
        )
        .num(
            "drain_flushed",
            m.drain_flushed.load(Ordering::Relaxed) as f64,
        )
        .num(
            "mem_rejected",
            m.mem_rejected.load(Ordering::Relaxed) as f64,
        )
        .num("mem_parked", m.mem_parked.load(Ordering::Relaxed) as f64)
        .num(
            "mem_squeezes",
            m.mem_squeezes.load(Ordering::Relaxed) as f64,
        )
        .num(
            "mem_budget_bytes",
            inner.mem_ledger.limit().map(|l| l as f64).unwrap_or(-1.0),
        )
        .num("mem_reserved_bytes", inner.mem_ledger.used() as f64)
        .num("mem_peak_bytes", inner.mem_ledger.peak() as f64)
        .num("compiles", s.compiles as f64)
        .num("dedup_waits", s.dedup_waits as f64)
        .num("artifact_hits", s.artifact_hits as f64)
        .num("compile_errors", s.errors as f64)
        .num("deadline_timeouts", s.deadline_timeouts as f64)
        .num("abandoned_slots", s.abandoned_slots as f64)
        .num("stale_publishes", s.stale_publishes as f64)
        .num("artifact_bytes", s.artifact_bytes as f64)
        .num("evicted_artifacts", s.evicted_artifacts as f64)
        .num("evicted_bytes", s.evicted_bytes as f64)
        .num("oversize_rejects", s.oversize_rejects as f64)
        .num("inflight", inner.service.inflight_len() as f64)
        .num("reuse_rate", s.reuse_rate())
        .num("p50_ms", m.latency.quantile_ms(0.5))
        .num("p99_ms", m.latency.quantile_ms(0.99))
        .num("mean_ms", m.latency.mean_ms())
        .num("queue_wait_p99_ms", m.queue_wait.quantile_ms(0.99));
    // Per-tier execution counts and the process-wide jit stitch counters
    // (every session this server compiles for).
    let j = fsc_core::jit_cache_stats();
    b = b
        .num(
            "exec_specialized",
            m.exec_specialized.load(Ordering::Relaxed) as f64,
        )
        .num("exec_jit", m.exec_jit.load(Ordering::Relaxed) as f64)
        .num(
            "exec_fused_vm",
            m.exec_fused_vm.load(Ordering::Relaxed) as f64,
        )
        .num(
            "exec_generic_vm",
            m.exec_generic_vm.load(Ordering::Relaxed) as f64,
        )
        .num("jit_builds", j.builds as f64)
        .num("jit_skips", j.skips as f64)
        .num("jit_codegen_count", j.codegen_count as f64)
        .num("jit_codegen_mean_ms", j.codegen_mean_ms)
        .num("jit_codegen_p50_ms", j.codegen_p50_ms)
        .num("jit_codegen_p99_ms", j.codegen_p99_ms);
    if let Some(ch) = &inner.chaos {
        let c = ch.stats();
        b = b
            .bool("chaos_armed", ch.armed())
            .num("chaos_injected", c.total() as f64)
            .num("chaos_panics", c.panics as f64)
            .num("chaos_slow_compiles", c.slow_compiles as f64)
            .num("chaos_truncations", c.truncations as f64)
            .num("chaos_artifact_purges", c.artifact_purges as f64)
            .num("chaos_mem_pressures", c.mem_pressures as f64);
    }
    let logical = m.dist_logical_messages.load(Ordering::Relaxed);
    let physical = m.dist_physical_messages.load(Ordering::Relaxed);
    b = b
        .num("dist_runs", m.dist_runs.load(Ordering::Relaxed) as f64)
        .str(
            "dist_scheduler",
            match m.dist_scheduler.load(Ordering::Relaxed) {
                1 => "threads",
                2 => "coop",
                _ => "none",
            },
        )
        .num("dist_steals", m.dist_steals.load(Ordering::Relaxed) as f64)
        .num("dist_parks", m.dist_parks.load(Ordering::Relaxed) as f64)
        .num(
            "dist_aggregation_ratio",
            if physical == 0 {
                1.0
            } else {
                logical as f64 / physical as f64
            },
        )
        .num(
            "dist_halo_depth",
            m.dist_halo_depth.load(Ordering::Relaxed) as f64,
        );
    b.build()
}
