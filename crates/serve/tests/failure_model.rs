//! End-to-end tests of the compile server's failure model (DESIGN.md
//! §11): deadlines, crash-only worker recovery, brownout degradation,
//! bounded frames, and graceful shutdown — each
//! exercised through the real Unix socket with a real client, asserting
//! the *coded response* contract: every admitted request is answered
//! exactly once, success or stable error code, and degraded service is
//! attested, never silent.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use fsc_core::{CompileOptions, Compiler, Target};
use fsc_ir::json::Json;
use fsc_serve::{checksum_arrays, ChaosPlan, Client, Server, ServerConfig};

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("fsc-failmodel-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn source() -> String {
    fsc_workloads::gauss_seidel::fortran_source(4, 1)
}

fn config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_depth: 16,
        ..ServerConfig::default()
    }
}

fn ok(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool) == Some(true)
}

fn code(v: &Json) -> Option<&str> {
    v.get("code").and_then(Json::as_str)
}

fn stat(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// A compile stuck past its budget is answered `E0803` by the watchdog,
/// and the singleflight slot is released: the same shape succeeds
/// immediately once the chaos is disarmed, without waiting for the stuck
/// leader to finish its injected 1.5 s nap.
#[test]
fn deadline_overrun_answers_e0803_and_releases_the_slot() {
    let scratch = Scratch::new("deadline");
    let mut cfg = config();
    cfg.chaos = Some(ChaosPlan {
        slow_compile_prob: 1.0,
        slow_compile_ms: 1500,
        ..ChaosPlan::none(11)
    });
    let mut server = Server::start(&scratch.join("serve.sock"), cfg).unwrap();

    let mut client = Client::connect(server.socket_path()).unwrap();
    let t0 = Instant::now();
    let v = client
        .call(
            fsc_ir::json::ObjBuilder::new()
                .str("op", "run")
                .str("source", &source())
                .str("target", "cpu")
                .num("deadline_ms", 150.0),
        )
        .unwrap();
    assert!(!ok(&v), "budget overrun must not succeed: {}", v.render());
    assert_eq!(code(&v), Some("E0803"), "got: {}", v.render());
    assert!(
        t0.elapsed() < Duration::from_millis(1200),
        "the E0803 answer must not wait out the stuck compile"
    );

    server.chaos().unwrap().disarm();
    let t1 = Instant::now();
    let v = client.run(&source(), "cpu", false, &[]).unwrap();
    assert!(ok(&v), "post-disarm retry must succeed: {}", v.render());
    assert!(
        t1.elapsed() < Duration::from_millis(1500),
        "the retry must ride a fresh slot, not the abandoned leader"
    );

    let stats = client.stats().unwrap();
    assert!(stat(&stats, "deadline_kills") >= 1.0);
    assert!(stat(&stats, "abandoned_slots") >= 1.0);
    server.stop();
}

/// A worker that dies by panic is detected by the supervisor: the
/// in-flight request is answered `E0804` and the worker respawned — with
/// a single-worker pool, the follow-up request succeeding proves the
/// respawn actually happened.
#[test]
fn worker_crash_answers_e0804_and_respawns() {
    let scratch = Scratch::new("crash");
    let mut cfg = config();
    cfg.workers = 1;
    cfg.chaos = Some(ChaosPlan {
        worker_panic_prob: 1.0,
        ..ChaosPlan::none(13)
    });
    let mut server = Server::start(&scratch.join("serve.sock"), cfg).unwrap();

    let mut client = Client::connect(server.socket_path()).unwrap();
    let v = client.run(&source(), "cpu", false, &[]).unwrap();
    assert_eq!(code(&v), Some("E0804"), "got: {}", v.render());

    server.chaos().unwrap().disarm();
    let v = client.run(&source(), "cpu", false, &[]).unwrap();
    assert!(ok(&v), "the respawned worker must serve: {}", v.render());

    let stats = client.stats().unwrap();
    assert!(stat(&stats, "worker_crashes") >= 1.0);
    assert_eq!(stat(&stats, "completed"), 1.0);
    server.stop();
}

/// Graceful shutdown: in-flight and queued requests complete (slowly —
/// every compile carries an injected 300 ms nap), nothing is dropped, and
/// `stop()` joins well within its hard timeout.
#[test]
fn graceful_drain_completes_inflight_and_queued_work() {
    let scratch = Scratch::new("drain");
    let mut cfg = config();
    cfg.workers = 1;
    cfg.chaos = Some(ChaosPlan {
        slow_compile_prob: 1.0,
        slow_compile_ms: 300,
        ..ChaosPlan::none(17)
    });
    let socket = scratch.join("serve.sock");
    let mut server = Server::start(&socket, cfg).unwrap();

    // Three distinct shapes: one in flight, two queued behind it.
    let shapes: Vec<String> = (4..7)
        .map(|n| fsc_workloads::gauss_seidel::fortran_source(n, 1))
        .collect();
    let clients: Vec<_> = shapes
        .into_iter()
        .map(|src| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&socket).unwrap();
                c.run(&src, "cpu", false, &[]).unwrap()
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100)); // let them enqueue

    let t0 = Instant::now();
    server.stop();
    let stop_wall = t0.elapsed();
    assert!(
        stop_wall < Duration::from_secs(5),
        "stop took {stop_wall:?}, beyond any reasonable drain"
    );

    for handle in clients {
        let v = handle.join().expect("client thread");
        assert!(ok(&v), "queued work must drain, not drop: {}", v.render());
    }
}

/// `stop()` must honor its hard timeout even when a worker is wedged in a
/// compile far longer than the budget: the worker is detached (the
/// process is not held hostage) and the client still gets its answer from
/// the detached thread when the compile eventually finishes.
#[test]
fn stop_detaches_a_wedged_worker_within_its_hard_bound() {
    let scratch = Scratch::new("wedge");
    let mut cfg = config();
    cfg.workers = 1;
    cfg.stop_timeout = Duration::from_millis(300);
    cfg.chaos = Some(ChaosPlan {
        slow_compile_prob: 1.0,
        slow_compile_ms: 2500,
        ..ChaosPlan::none(19)
    });
    let socket = scratch.join("serve.sock");
    let mut server = Server::start(&socket, cfg).unwrap();

    let client = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&socket).unwrap();
            c.run(&source(), "cpu", false, &[]).unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(200)); // compile is in flight

    let t0 = Instant::now();
    server.stop();
    let stop_wall = t0.elapsed();
    assert!(
        stop_wall < Duration::from_secs(2),
        "stop must detach the wedged worker, took {stop_wall:?}"
    );

    let v = client.join().expect("client thread");
    assert!(
        ok(&v),
        "the detached worker still answers its client: {}",
        v.render()
    );
}

/// An oversized request line is answered `E0802` inline and the reader
/// resyncs at the next newline: the same connection then serves a normal
/// request.
#[test]
fn oversized_frame_answers_e0802_and_the_connection_survives() {
    let scratch = Scratch::new("frames");
    let mut cfg = config();
    cfg.max_frame_bytes = 1024;
    let mut server = Server::start(&scratch.join("serve.sock"), cfg).unwrap();

    let mut raw = UnixStream::connect(server.socket_path()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let oversized = vec![b'x'; 64 * 1024];
    raw.write_all(&oversized).unwrap();
    raw.write_all(b"\n").unwrap();
    raw.write_all(b"{\"op\":\"ping\",\"id\":42}\n").unwrap();

    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    let v = Json::parse(line.trim()).unwrap();
    assert_eq!(code(&v), Some("E0802"), "got: {}", v.render());

    line.clear();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    let v = Json::parse(line.trim()).unwrap();
    assert!(
        v.get("pong").and_then(Json::as_bool) == Some(true),
        "the connection must survive the oversized frame: {}",
        v.render()
    );

    let mut client = Client::connect(server.socket_path()).unwrap();
    let stats = client.stats().unwrap();
    assert!(stat(&stats, "oversized_frames") >= 1.0);
    server.stop();
}

/// A connection dribbling a partial frame past the idle deadline is
/// closed (slow-loris containment) — the client reads EOF, and the
/// server counts the eviction.
#[test]
fn slow_loris_partial_frame_is_evicted() {
    let scratch = Scratch::new("loris");
    let mut cfg = config();
    cfg.idle_timeout = Duration::from_millis(300);
    let mut server = Server::start(&scratch.join("serve.sock"), cfg).unwrap();

    let mut raw = UnixStream::connect(server.socket_path()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(b"{\"op\":\"ping\"").unwrap(); // never finishes the line

    let mut buf = [0u8; 64];
    let t0 = Instant::now();
    let n = raw.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "the server must close the dribbling connection");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "eviction must come from the idle deadline, not a hang"
    );

    let mut client = Client::connect(server.socket_path()).unwrap();
    let stats = client.stats().unwrap();
    assert!(stat(&stats, "idle_closes") >= 1.0);
    server.stop();
}

/// Brownout (threshold at zero: every request is "pressured"): the cheap
/// scf rung is forced — attested in the response, with the checksum still
/// bit-identical to the full-pipeline library run.
#[test]
fn brownout_forces_the_scf_rung_bit_identically() {
    let scratch = Scratch::new("brownout");
    let mut cfg = config();
    cfg.brownout_l2 = 0.0;
    let mut server = Server::start(&scratch.join("serve.sock"), cfg).unwrap();

    let mut client = Client::connect(server.socket_path()).unwrap();
    let v = client.run(&source(), "cpu", false, &["u"]).unwrap();
    assert!(ok(&v), "brownout sheds cost, not requests: {}", v.render());
    assert_eq!(
        v.get("brownout").and_then(Json::as_str),
        Some("reduced-rung"),
        "got: {}",
        v.render()
    );
    assert_eq!(
        v.get("rung_ran").and_then(Json::as_str),
        Some("sequential scf fallback")
    );

    // The ladder guarantee: the cheap rung is bit-identical to the full
    // stencil pipeline.
    let exec = Compiler::run(&source(), &CompileOptions::for_target(Target::StencilCpu)).unwrap();
    assert_eq!(
        v.get("checksum").and_then(Json::as_str).unwrap(),
        format!("{:016x}", checksum_arrays(&exec, &["u".to_string()])),
    );

    let stats = client.stats().unwrap();
    assert!(stat(&stats, "brownout_reduced_rung") >= 1.0);
    server.stop();
}
