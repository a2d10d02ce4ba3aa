//! `serve_hot` and `serve_unique`: an in-process `fsc-serve` on a private
//! socket, driven by two closed-loop clients (callers that wait for each
//! reply before sending the next request). `serve_hot` draws from seven
//! repeating shapes, so nearly every request reuses a cached artifact and
//! the socket, queue, admission and serialisation are the work;
//! `serve_unique` sends a never-repeating program each time, so every
//! lookup misses, compiles, inserts and (past 256 artifacts) evicts.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fsc_core::{CompileOptions, CompileRequest, CompileService};
use fsc_ir::json::Json;
use fsc_serve::{checksum_arrays, parse_target, Client, Server, ServerConfig};

use super::{compile, corrupt, interpret, Config, Expected, Pass, Workload};
use crate::layers;
use crate::metrics::Outcome;
use crate::probe;
use crate::programs::{Kernel, LinearStencil};
use crate::rng::Rng;
use crate::stats::{median, quantile};
use crate::trace::{Tracer, REQUEST_OPS};

const CLIENTS: usize = 2;

/// Requests per client after which a timed pass samples peak memory: the
/// server's caches grow with the requests served, so the sample is taken
/// at a fixed count, not at the end of a pass of fixed length. A timed
/// pass sends at least this many per client however slow the server is,
/// so the sample is always taken.
const RSS_AFTER: usize = 300;

/// When a client stops sending.
#[derive(Clone, Copy)]
enum Stop {
    /// After this many requests (warm-up).
    Count(usize),
    /// After `seconds`, and not before `at_least` requests (timed pass).
    Timed { seconds: f64, at_least: usize },
}

/// One of the repeating request shapes.
struct Shape {
    source: String,
    target: &'static str,
    autotune: bool,
    arrays: &'static [&'static str],
    expected: Vec<Expected>,
    /// The server's checksum over the oracle's arrays, as it prints it.
    checksum: String,
}

/// One closed-loop client and what it saw.
struct Lane {
    client: Client,
    rng: Rng,
    /// Next never-repeating program id of this lane.
    next_id: u64,
    seen: Outcome,
    busy_retries: u64,
    /// Self-test hook: spoil the next generated expectation.
    spoil_next: bool,
    /// Keep, per request, the server-reported compile + run ms, what the
    /// client waited beyond that, and the response size (per-layer run
    /// only).
    detail: bool,
    server_ms: Vec<f64>,
    wire_ms: Vec<f64>,
    resp_bytes: Vec<f64>,
}

pub struct Serve {
    hot: bool,
    /// [`RSS_AFTER`], or a handful at the self-test's sizes.
    rss_after: usize,
    server: Server,
    files: [PathBuf; 2],
    shapes: Vec<Shape>,
    lanes: Vec<Lane>,
}

fn shapes(quick: bool) -> Result<Vec<Shape>, String> {
    let (a, b, c) = if quick { (3, 4, 5) } else { (4, 6, 8) };
    let gs = |n| (Kernel::Gs, Kernel::Gs.source(n, 2));
    let pw = (Kernel::Pw, Kernel::Pw.source(if quick { 4 } else { 6 }, 1));
    // Duplicate-heavy on purpose: three of the seven share their source
    // with another shape and differ only in target or tuning.
    let mix = [
        (gs(a), "cpu", false),
        (gs(b), "cpu", false),
        (gs(c), "cpu", false),
        (pw, "cpu", false),
        (gs(a), "omp:2", false),
        (gs(b), "omp:2", false),
        (gs(c), "cpu", true),
    ];
    mix.into_iter()
        .map(|((kernel, source), target, autotune)| {
            let oracle = interpret(&source)?;
            let arrays = kernel.outputs();
            let names: Vec<String> = arrays.iter().map(|a| a.to_string()).collect();
            let expected = arrays
                .iter()
                .map(|a| Expected::new(a, oracle.array(a).unwrap_or(&[]).to_vec(), 0.0))
                .collect();
            Ok(Shape {
                checksum: format!("{:016x}", checksum_arrays(&oracle, &names)),
                source,
                target,
                autotune,
                arrays,
                expected,
            })
        })
        .collect()
}

/// Check one response: success, every requested array equal to its
/// reference value for value, and (where known) the bit-level checksum.
fn check_response(v: &Json, expected: &[Expected], checksum: Option<&str>) -> Result<(), String> {
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("refused or failed: {}", v.render()));
    }
    for e in expected {
        let got = v
            .get("arrays")
            .and_then(|a| a.get(&e.array))
            .and_then(Json::as_array)
            .ok_or_else(|| format!("response carries no array '{}'", e.array))?;
        let same = got.len() == e.values.len()
            && got
                .iter()
                .zip(&e.values)
                .all(|(g, x)| g.as_f64() == Some(*x));
        if !same {
            return Err(format!("array '{}' differs from its reference", e.array));
        }
    }
    match (checksum, v.get("checksum").and_then(Json::as_str)) {
        (Some(want), got) if got != Some(want) => {
            Err(format!("checksum {got:?}, the oracle's is {want}"))
        }
        _ => Ok(()),
    }
}

impl Lane {
    /// One request, timed from send to parsed reply; a busy rejection
    /// (`E0801`) is retried inside the same operation. Verification is
    /// outside the timed interval. Returns the latency in ms.
    fn request(&mut self, shapes: &[Shape], mut tr: Option<(&mut Tracer, u64)>) -> f64 {
        let generated;
        let (source, target, autotune, arrays, expected, checksum): (
            &str,
            &str,
            bool,
            &[&str],
            &[Expected],
            Option<&str>,
        ) = if shapes.is_empty() {
            let spec = LinearStencil::generate(&mut self.rng, self.next_id);
            self.next_id += 1;
            let mut expected = [Expected::new("r", spec.expected(), 0.0)];
            if std::mem::take(&mut self.spoil_next) {
                corrupt(&mut expected);
            }
            generated = (spec.source(), expected);
            (&generated.0, "cpu", false, &["r"], &generated.1, None)
        } else {
            let s = &shapes[self.rng.below(shapes.len() as u64) as usize];
            (
                &s.source,
                s.target,
                s.autotune,
                s.arrays,
                &s.expected,
                Some(&s.checksum),
            )
        };

        self.seen.attempted += 1;
        let spans = tr.as_mut().map(|(t, op)| {
            let id = t.open("op", *op);
            (id, t.open("client.call", *op))
        });
        let t0 = Instant::now();
        let response = loop {
            match self.client.run(source, target, autotune, arrays) {
                Ok(v) if v.get("code").and_then(Json::as_str) == Some("E0801") => {
                    self.busy_retries += 1;
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                other => break other,
            }
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let (Some((t, op)), Some((id, call))) = (tr.as_mut(), spans) {
            if let Ok(v) = &response {
                let ns = |key| (v.get(key).and_then(Json::as_f64).unwrap_or(0.0) * 1e6) as u64;
                t.reported(
                    *op,
                    &[
                        ("serve.compile".into(), ns("compile_ms")),
                        ("serve.run".into(), ns("run_ms")),
                    ],
                );
            }
            t.close(call);
            t.close(id);
        }
        match response {
            Err(e) => self.seen.fail(format!("transport: {e}")),
            Ok(v) => {
                if let Err(e) = check_response(&v, expected, checksum) {
                    self.seen.fail(e);
                }
                if self.detail {
                    let num = |key| v.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                    let server_ms = num("compile_ms") + num("run_ms");
                    self.server_ms.push(server_ms);
                    self.wire_ms.push(ms - server_ms);
                    self.resp_bytes.push(v.render().len() as f64);
                }
            }
        }
        ms
    }
}

impl Serve {
    /// Both clients in closed loop until `stop`. With `traced` (the
    /// trace's time origin) every request is recorded as spans.
    fn storm(
        &mut self,
        stop: Stop,
        traced: Option<Instant>,
        out: &mut Outcome,
    ) -> (Pass, Vec<Tracer>) {
        let shapes = &self.shapes;
        let start = Instant::now();
        let sample_rss_at = match stop {
            Stop::Count(_) => None,
            Stop::Timed { at_least, .. } => Some(at_least),
        };
        let rss_mb = Mutex::new(None);
        let results: Vec<(Vec<f64>, Option<Tracer>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .enumerate()
                .map(|(lane_no, lane)| {
                    let rss_mb = &rss_mb;
                    scope.spawn(move || {
                        let mut tracer = traced.map(Tracer::new);
                        let mut op_ms = Vec::new();
                        let done = |sent: usize| match stop {
                            Stop::Count(c) => sent >= c,
                            Stop::Timed { seconds, at_least } => {
                                sent >= at_least && start.elapsed().as_secs_f64() >= seconds
                            }
                        };
                        while !done(op_ms.len()) {
                            let op = REQUEST_OPS + (op_ms.len() * CLIENTS + lane_no) as u64;
                            let tr = tracer.as_mut().map(|t| (t, op));
                            op_ms.push(lane.request(shapes, tr));
                            if lane_no == 0 && Some(op_ms.len()) == sample_rss_at {
                                *rss_mb.lock().expect("no holder panics") =
                                    Some(probe::peak_rss_mb());
                            }
                        }
                        (op_ms, tracer)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        for lane in &mut self.lanes {
            out.attempted += std::mem::take(&mut lane.seen.attempted);
            out.failed += std::mem::take(&mut lane.seen.failed);
        }
        let (mut op_ms, mut tracers) = (Vec::new(), Vec::new());
        for (ms, tracer) in results {
            op_ms.extend(ms);
            tracers.extend(tracer);
        }
        let rss_mb = rss_mb.into_inner().expect("no holder panics");
        (
            Pass {
                op_ms,
                wall_s,
                rss_mb,
            },
            tracers,
        )
    }

    /// A timed pass of `seconds`.
    fn timed(&self, seconds: f64) -> Stop {
        Stop::Timed {
            seconds,
            at_least: self.rss_after,
        }
    }

    fn stats(&mut self) -> Result<Json, String> {
        self.lanes[0].client.stats()
    }
}

/// `count` draws of the request mix (`shapes` empty: never-repeating
/// programs) as in-process compile requests, for the layers under the
/// socket. `stream` keeps the draws apart from the clients' own.
fn draw_requests(
    shapes: &[Shape],
    seed: u64,
    stream: u64,
    count: usize,
) -> Result<Vec<CompileRequest>, String> {
    let mut rng = Rng::fork(seed, stream);
    (0..count)
        .map(|i| {
            if shapes.is_empty() {
                let spec = LinearStencil::generate(&mut rng, (stream << 40) + i as u64);
                return Ok(CompileRequest::new(spec.source()));
            }
            let s = &shapes[rng.below(shapes.len() as u64) as usize];
            // Tuning is the server's business (its plan cache); under
            // the socket a shape is its source and target.
            Ok(CompileRequest::with_options(
                s.source.clone(),
                CompileOptions::for_target(parse_target(s.target)?),
            ))
        })
        .collect()
}

/// Median µs of `f(0..samples)`.
fn p50_us(samples: usize, mut f: impl FnMut(usize)) -> f64 {
    let us: Vec<f64> = (0..samples)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&us)
}

impl Workload for Serve {
    fn setup(cfg: &Config, out: &mut Outcome) -> Result<Self, String> {
        let hot = cfg.workload == "serve_hot";
        let pid = std::process::id();
        let files = [
            cfg.out_dir.join(format!("serve-{pid}.sock")),
            cfg.out_dir.join(format!("plans-{pid}.json")),
        ];
        // A fresh plan cache each set-up, so every set-up does the same.
        let _ = std::fs::remove_file(&files[1]);
        let mut shapes = if hot { shapes(cfg.quick)? } else { Vec::new() };
        if let (true, Some(first)) = (cfg.corrupt_expected, shapes.first_mut()) {
            corrupt(&mut first.expected);
        }
        let server = Server::start(
            &files[0],
            ServerConfig {
                workers: CLIENTS,
                plan_cache: Some(files[1].clone()),
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("cannot start the server on {}: {e}", files[0].display()))?;
        let lanes = (0..CLIENTS)
            .map(|lane| {
                Ok(Lane {
                    client: Client::connect(&files[0])
                        .map_err(|e| format!("cannot connect to the server: {e}"))?,
                    rng: Rng::fork(cfg.seed, lane as u64),
                    next_id: (lane as u64) << 32,
                    seen: Outcome::default(),
                    busy_retries: 0,
                    spoil_next: cfg.corrupt_expected && !hot && lane == 0,
                    detail: false,
                    server_ms: Vec::new(),
                    wire_ms: Vec::new(),
                    resp_bytes: Vec::new(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut this = Self {
            hot,
            rss_after: if cfg.quick { 4 } else { RSS_AFTER },
            server,
            files,
            shapes,
            lanes,
        };
        let warm_up = match (cfg.quick, hot) {
            (true, _) => 8,
            (false, true) => 1000,
            (false, false) => 150,
        };
        this.storm(Stop::Count(warm_up), None, out);
        Ok(this)
    }

    fn measure(&mut self, seconds: f64, out: &mut Outcome) -> Pass {
        self.storm(self.timed(seconds), None, out).0
    }

    fn layers(&mut self, cfg: &Config, out: &mut Outcome) -> Result<(), String> {
        let untraced = self.measure(cfg.seconds / 4.0, out);

        // Traced pass, bracketed by the server's own counters.
        let before = self.stats()?;
        for lane in &mut self.lanes {
            lane.detail = true;
        }
        let (traced, tracers) = self.storm(self.timed(cfg.seconds / 3.0), Some(cfg.origin), out);
        let after = self.stats()?;
        let stat = |s: &Json, key: &str| s.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let delta = |key: &str| stat(&after, key) - stat(&before, key);
        let sent = traced.op_ms.len() as f64;
        let gather = |f: fn(&Lane) -> &Vec<f64>| -> Vec<f64> {
            self.lanes.iter().flat_map(f).copied().collect()
        };
        let (server_ms, wire_ms, resp_bytes) = (
            gather(|l| &l.server_ms),
            gather(|l| &l.wire_ms),
            gather(|l| &l.resp_bytes),
        );
        out.set("serve.req_ms_p90", quantile(&traced.op_ms, 0.9));
        out.set("serve.req_ms_p99", quantile(&traced.op_ms, 0.99));
        if !server_ms.is_empty() {
            out.set("serve.server_ms_p50", median(&server_ms));
            // Request by request, what the client waited beyond the
            // server's own compile and run: socket, parse, queue,
            // admission, serialisation, and the reply's parse.
            out.set("serve.wire_overhead_ms", median(&wire_ms));
            out.set(
                "serve.resp_bytes_mean",
                resp_bytes.iter().sum::<f64>() / resp_bytes.len() as f64,
            );
        }
        out.set("serve.queue_wait_ms_p99", stat(&after, "queue_wait_p99_ms"));
        out.set("serve.reuse_rate", stat(&after, "reuse_rate"));
        out.set("serve.compiles_per_req", delta("compiles") / sent);
        out.set("serve.evictions_per_req", delta("evicted_artifacts") / sent);
        out.set(
            "serve.busy_retries",
            self.lanes.iter().map(|l| l.busy_retries).sum::<u64>() as f64,
        );
        // Once warm the hit path must compile nothing; the miss path must
        // compile every request exactly once.
        out.attempted += 1;
        let compiles = delta("compiles");
        let wanted = if self.hot { 0.0 } else { sent };
        out.check(compiles == wanted, || {
            format!("the server compiled {compiles} times for {sent} requests, not {wanted}")
        });

        let client = &mut self.lanes[0].client;
        out.set("serve.ping_us", p50_us(200, |_| drop(client.ping())));
        out.set("serve.stats_us", p50_us(20, |_| drop(client.stats())));

        // Under the socket: the compile service's own parts, on draws of
        // the same mix, on this thread.
        let draws = match (cfg.quick, self.hot) {
            (true, _) => 8,
            (false, true) => 400,
            (false, false) => 64,
        };
        let mix = draw_requests(&self.shapes, cfg.seed, 3, draws)?;
        let service = CompileService::default();
        for r in &mix {
            service
                .compile(r)
                .map_err(|e| format!("in-process compile failed: {e}"))?;
        }
        out.set(
            "core.fingerprint_us",
            p50_us(mix.len(), |i| {
                std::hint::black_box(mix[i].fingerprint());
            }),
        );
        out.set(
            "core.artifact_hit_us",
            p50_us(mix.len(), |i| drop(service.compile(&mix[i]))),
        );
        // A miss through the service against the bare compile of the same
        // program. Each program is compiled once untimed first, so both
        // timed compiles find the process-wide jit cache warm; the service
        // has still never seen it. The order alternates.
        let fresh = draw_requests(&[], cfg.seed, 4, if cfg.quick { 2 } else { 48 })?;
        let mut extra_us = Vec::new();
        for (i, r) in fresh.iter().enumerate() {
            compile(&r.source, &r.options)?;
            let mut us = [0.0; 2];
            for via_service in [i % 2 == 0, i % 2 != 0] {
                // The artifact is dropped after the clock is read: the
                // service keeps its own alive, the bare compile must not
                // be charged for freeing one.
                let t = Instant::now();
                let artifact = match via_service {
                    true => service.compile(r).map(|o| o.compiled).ok(),
                    false => compile(&r.source, &r.options).ok().map(Arc::new),
                };
                us[usize::from(via_service)] = t.elapsed().as_secs_f64() * 1e6;
                drop(artifact);
            }
            extra_us.push(us[1] - us[0]);
        }
        out.set("core.artifact_miss_overhead_us", median(&extra_us));
        let artifact = compile(&mix[0].source, &mix[0].options)?;
        out.set(
            "core.estimate_us",
            p50_us(200, |_| drop(std::hint::black_box(artifact.estimate()))),
        );

        // What the server's compiles are made of: the distinct programs
        // of the mix replayed stage by stage.
        let mut programs: Vec<(String, CompileOptions)> = Vec::new();
        for r in &mix {
            if programs.len() < 16
                && !programs
                    .iter()
                    .any(|(s, o)| *s == r.source && o.target == r.options.target)
            {
                programs.push((r.source.clone(), r.options.clone()));
            }
        }
        let rounds = if cfg.quick { 2 } else { 3 };
        let layers::Replay { mut tracer, .. } = layers::replay_compiles(
            &programs,
            (0.0, rounds),
            cfg.origin,
            out,
            |_, _, _, _, _| (),
        )?;
        if !self.hot {
            out.set(
                "compile.generated.ms_p50",
                out.get("core.compile_ms_geomean").unwrap_or(0.0),
            );
        }
        for t in tracers {
            tracer.absorb(t);
        }
        layers::finish_trace(cfg, tracer, untraced.p50(), traced.p50(), out)
    }

    fn teardown(mut self) {
        self.lanes.clear();
        self.server.stop();
        for f in &self.files {
            let _ = std::fs::remove_file(f);
        }
    }
}
