//! `loadgen` — drive a compile server with a mixed request storm and
//! report throughput, latency quantiles and cache effectiveness.
//!
//! ```text
//! loadgen [--requests N] [--clients N] [--socket PATH] [--smoke]
//!         [--chaos] [--mem] [--seed N]
//! ```
//!
//! Without `--socket` the generator self-hosts a server inside this
//! process (on a private socket) so one command produces a full
//! closed-loop measurement. `--smoke` is the CI gate:
//! a small storm that must finish with **zero failed requests**, a
//! **non-zero artifact reuse rate**, and **singleflight holding**
//! (server-side compiles == distinct request shapes issued).
//!
//! Busy rejections (`E0801`) are part of the admission-control contract,
//! not failures: the generator retries them with linear backoff and
//! reports how often it had to.
//!
//! ## `--chaos`: the fault-injection soak
//!
//! Self-hosts a server with a seeded [`ChaosPlan`] armed (worker panics,
//! slow compiles past the request deadline, truncated response frames,
//! artifact-cache purges, memory pressure) and drives it through
//! [`ResilientClient`]s. The soak asserts the failure-model contract of
//! DESIGN.md §11:
//!
//! 1. **every** request ends in a success after bounded retries — coded
//!    rejections (`E0801`/`E0803`/`E0804`) and transport breakage are
//!    recoverable by construction, and nothing is silently lost;
//! 2. every successful response's checksum is **bit-identical** to a
//!    direct in-process library run — chaos (purges, brownout rungs,
//!    crash-recompiles) may cost time, never answers;
//! 3. each chaos site actually **fired** (a fault test that injects
//!    nothing is vacuous);
//! 4. the scarred server **drains clean** (queue and in-flight reach
//!    zero), serves every shape bit-identically after `disarm()` + an
//!    artifact purge, and stops within its hard timeout.
//!
//! A fixed `--seed` pins each site's decision stream, so fault density is
//! reproducible run-to-run.
//!
//! ## `--mem`: the memory-governance soak
//!
//! Self-hosts a server with a hard `--mem-budget` and mixes over-budget
//! *giants* (a program whose attested estimate is more than double the
//! budget) into normal traffic. Asserts the DESIGN.md §12 contract:
//! every giant is answered **exactly once** with the coded `E0806`
//! rejection, every normal request completes bit-identically with its
//! attested `est_bytes` bounding its measured `peak_bytes`, the server's
//! reservation ledger drains back to zero, and no worker dies. CI runs
//! this under `ulimit -v`, so an accounting hole becomes a hard
//! allocator failure rather than a missed assertion.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fsc_core::{CompileOptions, Compiler};
use fsc_ir::json::Json;
use fsc_serve::{
    checksum_arrays, ChaosPlan, Client, ResilientClient, RetryPolicy, Server, ServerConfig,
};

/// One request shape in the mix.
#[derive(Clone)]
struct Shape {
    label: &'static str,
    source: String,
    target: &'static str,
}

/// The mixed workload: distinct programs × targets — deliberately heavy
/// on duplicates so reuse and singleflight matter.
fn shapes() -> Vec<Shape> {
    let gs4 = fsc_workloads::gauss_seidel::fortran_source(4, 2);
    let gs6 = fsc_workloads::gauss_seidel::fortran_source(6, 2);
    let gs8 = fsc_workloads::gauss_seidel::fortran_source(8, 2);
    let pw6 = fsc_workloads::pw_advection::fortran_source(6);
    vec![
        Shape {
            label: "gs4/cpu",
            source: gs4.clone(),
            target: "cpu",
        },
        Shape {
            label: "gs6/cpu",
            source: gs6.clone(),
            target: "cpu",
        },
        Shape {
            label: "gs8/cpu",
            source: gs8,
            target: "cpu",
        },
        Shape {
            label: "pw6/cpu",
            source: pw6,
            target: "cpu",
        },
        Shape {
            label: "gs4/omp2",
            source: gs4,
            target: "omp:2",
        },
        Shape {
            label: "gs6/omp2",
            source: gs6,
            target: "omp:2",
        },
    ]
}

/// Ground truth per shape: direct in-process library runs, no server
/// involved. Both soaks compare server checksums against these.
fn reference_checksums(shapes: &[Shape]) -> Vec<u64> {
    shapes
        .iter()
        .map(|s| {
            let target = fsc_serve::parse_target(s.target).expect("loadgen target grammar");
            let exec = Compiler::run(&s.source, &CompileOptions::for_target(target))
                .expect("reference run must succeed");
            checksum_arrays(&exec, &["u".to_string()])
        })
        .collect()
}

struct Outcome {
    ok: u64,
    failed: u64,
    busy_retries: u64,
    latencies_us: Vec<u64>,
}

fn drive_client(
    socket: &std::path::Path,
    indices: Vec<usize>,
    shapes: &[Shape],
    counters: &(AtomicU64, AtomicU64, AtomicU64),
) -> Outcome {
    let mut client = match Client::connect(socket) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadgen: connect failed: {e}");
            return Outcome {
                ok: 0,
                failed: indices.len() as u64,
                busy_retries: 0,
                latencies_us: vec![],
            };
        }
    };
    let mut out = Outcome {
        ok: 0,
        failed: 0,
        busy_retries: 0,
        latencies_us: Vec::with_capacity(indices.len()),
    };
    for i in indices {
        let shape = &shapes[i % shapes.len()];
        let t0 = Instant::now();
        let mut attempt = 0u64;
        let response = loop {
            match client.run(&shape.source, shape.target, false, &[]) {
                Ok(v) => {
                    let busy = v.get("code").and_then(Json::as_str) == Some("E0801");
                    if busy && attempt < 200 {
                        attempt += 1;
                        out.busy_retries += 1;
                        std::thread::sleep(Duration::from_millis(attempt.min(20)));
                        continue;
                    }
                    break Ok(v);
                }
                Err(e) => break Err(e),
            }
        };
        out.latencies_us.push(t0.elapsed().as_micros() as u64);
        match response {
            Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => out.ok += 1,
            Ok(v) => {
                out.failed += 1;
                eprintln!(
                    "loadgen: request {} ({}) failed: {}",
                    i,
                    shape.label,
                    v.render()
                );
            }
            Err(e) => {
                out.failed += 1;
                eprintln!(
                    "loadgen: request {} ({}) transport error: {e}",
                    i, shape.label
                );
            }
        }
    }
    counters.0.fetch_add(out.ok, Ordering::Relaxed);
    counters.1.fetch_add(out.failed, Ordering::Relaxed);
    counters.2.fetch_add(out.busy_retries, Ordering::Relaxed);
    out
}

fn quantile(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((q * (sorted_us.len() - 1) as f64).round() as usize).min(sorted_us.len() - 1);
    sorted_us[idx] as f64 / 1000.0
}

/// Per-request budget in the chaos soak: below the injected 600 ms slow
/// compile, so every slow-compile draw trips the watchdog, but generous
/// against the honest few-ms compiles of the mix.
const CHAOS_DEADLINE_MS: u64 = 400;

struct ChaosCounts {
    ok: AtomicU64,
    failed: AtomicU64,
    retries: AtomicU64,
    reconnects: AtomicU64,
    mismatches: AtomicU64,
}

fn drive_chaos_client(
    socket: &Path,
    indices: Vec<usize>,
    shapes: &[Shape],
    reference: &[u64],
    seed: u64,
    counts: &ChaosCounts,
) {
    let mut client = ResilientClient::new(
        socket,
        RetryPolicy {
            max_attempts: 12,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            seed,
        },
    );
    for i in indices {
        let slot = i % shapes.len();
        let shape = &shapes[slot];
        match client.run(&shape.source, shape.target, &["u"], Some(CHAOS_DEADLINE_MS)) {
            Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => {
                let checksum = v.get("checksum").and_then(Json::as_str).unwrap_or("");
                if checksum != format!("{:016x}", reference[slot]) {
                    counts.mismatches.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "chaos: request {i} ({}) checksum {checksum} != reference {:016x}",
                        shape.label, reference[slot]
                    );
                } else {
                    counts.ok.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(v) => {
                counts.failed.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "chaos: request {i} ({}) definitive failure: {}",
                    shape.label,
                    v.render()
                );
            }
            Err(e) => {
                counts.failed.fetch_add(1, Ordering::Relaxed);
                eprintln!("chaos: request {i} ({}) gave up: {e}", shape.label);
            }
        }
    }
    counts
        .retries
        .fetch_add(client.retries(), Ordering::Relaxed);
    counts
        .reconnects
        .fetch_add(client.reconnects(), Ordering::Relaxed);
}

/// The chaos soak. Returns the process exit code.
fn chaos_soak(requests: usize, clients: usize, seed: u64) -> i32 {
    // Injected worker panics are the point of the exercise; keep their
    // backtraces out of the report. Real panics still print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains("chaos: injected"))
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));

    let scratch = std::env::temp_dir().join(format!("fsc-chaos-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&scratch);
    let socket_path = scratch.join("serve.sock");
    let shapes = Arc::new(shapes());
    let reference = Arc::new(reference_checksums(&shapes));

    let config = ServerConfig {
        queue_depth: 16,
        default_deadline: Duration::from_secs(2),
        chaos: Some(ChaosPlan::soak(seed)),
        ..ServerConfig::default()
    };
    let mut server = Server::start(&socket_path, config).unwrap_or_else(|e| {
        eprintln!("chaos: could not self-host server: {e}");
        std::process::exit(1);
    });

    println!("chaos: seed {seed}, {requests} requests, {clients} clients, deadline {CHAOS_DEADLINE_MS} ms");
    let counts = Arc::new(ChaosCounts {
        ok: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        retries: AtomicU64::new(0),
        reconnects: AtomicU64::new(0),
        mismatches: AtomicU64::new(0),
    });
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let indices: Vec<usize> = (0..requests).skip(c).step_by(clients).collect();
            let (shapes, reference, counts, socket_path) = (
                shapes.clone(),
                reference.clone(),
                counts.clone(),
                socket_path.clone(),
            );
            let client_seed = seed ^ (c as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            std::thread::spawn(move || {
                drive_chaos_client(
                    &socket_path,
                    indices,
                    &shapes,
                    &reference,
                    client_seed,
                    &counts,
                )
            })
        })
        .collect();
    for h in handles {
        let _ = h.join();
    }
    let storm_wall = t0.elapsed();

    let (ok, failed, mismatches) = (
        counts.ok.load(Ordering::Relaxed),
        counts.failed.load(Ordering::Relaxed),
        counts.mismatches.load(Ordering::Relaxed),
    );
    println!(
        "chaos: storm done in {:.2} s — ok {ok}  failed {failed}  mismatches {mismatches}  \
         retries {}  reconnects {}",
        storm_wall.as_secs_f64(),
        counts.retries.load(Ordering::Relaxed),
        counts.reconnects.load(Ordering::Relaxed),
    );

    // Clean drain: queue and in-flight slots must reach zero.
    let mut drained = false;
    let drain_t0 = Instant::now();
    while drain_t0.elapsed() < Duration::from_secs(15) {
        let stats = Client::connect(&socket_path)
            .ok()
            .and_then(|mut c| c.stats().ok());
        if let Some(s) = stats {
            let depth = s.get("queue_depth").and_then(Json::as_f64).unwrap_or(-1.0);
            let inflight = s.get("inflight").and_then(Json::as_f64).unwrap_or(-1.0);
            if depth == 0.0 && inflight == 0.0 {
                drained = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    // Disarm, scar-check: purge artifacts so every shape recompiles on
    // the scarred server, and demand bit-identity against the library
    // ground truth.
    let injected = server.chaos().expect("chaos armed").stats();
    server.chaos().expect("chaos armed").disarm();
    server.service().purge_artifacts();
    let mut post_ok = true;
    match Client::connect(&socket_path) {
        Ok(mut c) => {
            for (slot, shape) in shapes.iter().enumerate() {
                match c.run(&shape.source, shape.target, false, &["u"]) {
                    Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => {
                        let checksum = v.get("checksum").and_then(Json::as_str).unwrap_or("");
                        if checksum != format!("{:016x}", reference[slot]) {
                            eprintln!(
                                "chaos: post-chaos {} checksum {checksum} != {:016x}",
                                shape.label, reference[slot]
                            );
                            post_ok = false;
                        }
                    }
                    other => {
                        eprintln!("chaos: post-chaos {} failed: {other:?}", shape.label);
                        post_ok = false;
                    }
                }
            }
        }
        Err(e) => {
            eprintln!("chaos: post-chaos connect failed: {e}");
            post_ok = false;
        }
    }

    let stats = Client::connect(&socket_path)
        .ok()
        .and_then(|mut c| c.stats().ok());
    let stat = |key: &str| -> f64 {
        stats
            .as_ref()
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    println!(
        "chaos: injected — panics {}  slow {}  truncations {}  purges {}  mem-pressures {}",
        injected.panics,
        injected.slow_compiles,
        injected.truncations,
        injected.artifact_purges,
        injected.mem_pressures,
    );
    println!(
        "chaos: server — crashes {:.0}  deadline-kills {:.0}  late-completions {:.0}  \
         session-timeouts {:.0}  abandoned-slots {:.0}  stale-publishes {:.0}  rejected {:.0}",
        stat("worker_crashes"),
        stat("deadline_kills"),
        stat("late_completions"),
        stat("deadline_timeouts"),
        stat("abandoned_slots"),
        stat("stale_publishes"),
        stat("rejected"),
    );
    println!(
        "chaos: brownout — reduced-rung {:.0}",
        stat("brownout_reduced_rung")
    );

    let stop_t0 = Instant::now();
    server.stop();
    let stop_wall = stop_t0.elapsed();
    println!("chaos: stop() joined in {:.2} s", stop_wall.as_secs_f64());
    let _ = std::fs::remove_dir_all(&scratch);

    let mut verdict = 0;
    let mut fail = |msg: &str| {
        eprintln!("chaos: FAILED — {msg}");
        verdict = 1;
    };
    if failed > 0 {
        fail(&format!("{failed} requests never reached a success"));
    }
    if mismatches > 0 {
        fail(&format!("{mismatches} checksum mismatches under chaos"));
    }
    if ok + failed + mismatches != requests as u64 {
        fail("response accounting does not add up to the request count");
    }
    if !drained {
        fail("queue/in-flight did not drain to zero after the storm");
    }
    if !post_ok {
        fail("post-chaos verification was not bit-identical");
    }
    for (name, count) in [
        ("worker-panic", injected.panics),
        ("slow-compile", injected.slow_compiles),
        ("frame-truncation", injected.truncations),
        ("artifact-purge", injected.artifact_purges),
        ("mem-pressure", injected.mem_pressures),
    ] {
        if count == 0 {
            fail(&format!("chaos site '{name}' never fired — vacuous soak"));
        }
    }
    if stop_wall > Duration::from_secs(30) {
        fail("stop() exceeded its hard bound");
    }
    if verdict == 0 {
        println!(
            "chaos: OK — {requests} requests, every one answered exactly once with a \
             bit-identical result, clean drain, bounded stop"
        );
    }
    verdict
}

/// Server budget for the memory soak: small enough that the giant shape
/// can never fit, large enough that the whole normal mix runs untouched.
const MEM_SOAK_BUDGET: u64 = 256 << 20;

/// Per-request budget for giants: long enough to observe the bounded
/// park, short enough that rejected giants do not dominate wall-clock.
const MEM_GIANT_DEADLINE_MS: u64 = 400;

/// Every tenth-ish request is a giant (request index mod 10 == 3).
fn is_giant(i: usize) -> bool {
    i % 10 == 3
}

struct MemCounts {
    ok: AtomicU64,
    failed: AtomicU64,
    mismatches: AtomicU64,
    peak_violations: AtomicU64,
    giant_rejected: AtomicU64,
    giant_bad: AtomicU64,
    retries: AtomicU64,
    reconnects: AtomicU64,
}

#[allow(clippy::too_many_arguments)]
fn drive_mem_client(
    socket: &Path,
    indices: Vec<usize>,
    shapes: &[Shape],
    reference: &[u64],
    giant_source: &str,
    seed: u64,
    counts: &MemCounts,
) {
    let mut client = ResilientClient::new(
        socket,
        RetryPolicy {
            max_attempts: 12,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            seed,
        },
    );
    for i in indices {
        if is_giant(i) {
            // A giant must be answered exactly once with the coded
            // memory rejection — never served, never silently dropped.
            match client.run(giant_source, "cpu", &[], Some(MEM_GIANT_DEADLINE_MS)) {
                Ok(v) => {
                    let ok = v.get("ok").and_then(Json::as_bool) == Some(true);
                    let code = v.get("code").and_then(Json::as_str);
                    if !ok && code == Some("E0806") {
                        counts.giant_rejected.fetch_add(1, Ordering::Relaxed);
                    } else {
                        counts.giant_bad.fetch_add(1, Ordering::Relaxed);
                        eprintln!("mem: giant {i} answered wrongly: {}", v.render());
                    }
                }
                Err(e) => {
                    counts.giant_bad.fetch_add(1, Ordering::Relaxed);
                    eprintln!("mem: giant {i} gave up: {e}");
                }
            }
            continue;
        }
        let slot = i % shapes.len();
        let shape = &shapes[slot];
        match client.run(&shape.source, shape.target, &["u"], None) {
            Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => {
                let checksum = v.get("checksum").and_then(Json::as_str).unwrap_or("");
                if checksum != format!("{:016x}", reference[slot]) {
                    counts.mismatches.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "mem: request {i} ({}) checksum {checksum} != reference {:016x}",
                        shape.label, reference[slot]
                    );
                } else {
                    counts.ok.fetch_add(1, Ordering::Relaxed);
                }
                // The attestation contract: the static estimate bounds
                // the measured high-water mark for every admitted run.
                let est = v.get("est_bytes").and_then(Json::as_f64);
                let peak = v.get("peak_bytes").and_then(Json::as_f64);
                match (est, peak) {
                    (Some(e), Some(p)) if p <= e && e > 0.0 => {}
                    _ => {
                        counts.peak_violations.fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "mem: request {i} ({}) attestation violated: est {est:?} peak {peak:?}",
                            shape.label
                        );
                    }
                }
            }
            Ok(v) => {
                counts.failed.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "mem: request {i} ({}) definitive failure: {}",
                    shape.label,
                    v.render()
                );
            }
            Err(e) => {
                counts.failed.fetch_add(1, Ordering::Relaxed);
                eprintln!("mem: request {i} ({}) gave up: {e}", shape.label);
            }
        }
    }
    counts
        .retries
        .fetch_add(client.retries(), Ordering::Relaxed);
    counts
        .reconnects
        .fetch_add(client.reconnects(), Ordering::Relaxed);
}

/// The memory-governance soak. Self-hosts a server under a hard
/// `--mem-budget` and mixes over-budget giants into normal traffic,
/// asserting the §12 contract: every giant gets exactly one coded
/// `E0806`, every normal request completes bit-identically with its
/// attested estimate bounding its measured peak, the reservation ledger
/// drains to zero, and no worker dies. Run under `ulimit -v` in CI so an
/// accounting hole would surface as a real allocator failure, not just a
/// failed assertion. Returns the process exit code.
fn mem_soak(requests: usize, clients: usize, seed: u64) -> i32 {
    let scratch = std::env::temp_dir().join(format!("fsc-memsoak-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&scratch);
    let socket_path = scratch.join("serve.sock");
    let shapes = Arc::new(shapes());
    let reference = Arc::new(reference_checksums(&shapes));
    // The giant: two (n+2)³ double-precision arrays ≈ 534 MB estimated,
    // more than double the 256 MiB server budget, so no squeeze rung can
    // make it fit and admission must answer E0806.
    let giant_source = Arc::new(fsc_workloads::gauss_seidel::fortran_source(320, 1));

    let config = ServerConfig {
        queue_depth: 32,
        default_deadline: Duration::from_secs(5),
        mem_budget: Some(MEM_SOAK_BUDGET),
        ..ServerConfig::default()
    };
    let mut server = Server::start(&socket_path, config).unwrap_or_else(|e| {
        eprintln!("mem: could not self-host server: {e}");
        std::process::exit(1);
    });

    let giants_issued = (0..requests).filter(|&i| is_giant(i)).count() as u64;
    let normals_issued = requests as u64 - giants_issued;
    println!(
        "mem: seed {seed}, {requests} requests ({giants_issued} giants), {clients} clients, \
         budget {} MiB",
        MEM_SOAK_BUDGET >> 20
    );
    let counts = Arc::new(MemCounts {
        ok: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        mismatches: AtomicU64::new(0),
        peak_violations: AtomicU64::new(0),
        giant_rejected: AtomicU64::new(0),
        giant_bad: AtomicU64::new(0),
        retries: AtomicU64::new(0),
        reconnects: AtomicU64::new(0),
    });
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let indices: Vec<usize> = (0..requests).skip(c).step_by(clients).collect();
            let (shapes, reference, giant_source, counts, socket_path) = (
                shapes.clone(),
                reference.clone(),
                giant_source.clone(),
                counts.clone(),
                socket_path.clone(),
            );
            let client_seed = seed ^ (c as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            std::thread::spawn(move || {
                drive_mem_client(
                    &socket_path,
                    indices,
                    &shapes,
                    &reference,
                    &giant_source,
                    client_seed,
                    &counts,
                )
            })
        })
        .collect();
    for h in handles {
        let _ = h.join();
    }
    let storm_wall = t0.elapsed();

    let (ok, failed, mismatches, peak_violations, giant_rejected, giant_bad) = (
        counts.ok.load(Ordering::Relaxed),
        counts.failed.load(Ordering::Relaxed),
        counts.mismatches.load(Ordering::Relaxed),
        counts.peak_violations.load(Ordering::Relaxed),
        counts.giant_rejected.load(Ordering::Relaxed),
        counts.giant_bad.load(Ordering::Relaxed),
    );
    println!(
        "mem: storm done in {:.2} s — ok {ok}  failed {failed}  mismatches {mismatches}  \
         peak-violations {peak_violations}  giants rejected {giant_rejected} / bad {giant_bad}  \
         retries {}  reconnects {}",
        storm_wall.as_secs_f64(),
        counts.retries.load(Ordering::Relaxed),
        counts.reconnects.load(Ordering::Relaxed),
    );

    // Clean drain: queue, in-flight, and the reservation ledger must all
    // reach zero — a leaked reservation would show up here forever.
    let mut drained = false;
    let mut ledger_drained = false;
    let drain_t0 = Instant::now();
    while drain_t0.elapsed() < Duration::from_secs(15) {
        let stats = Client::connect(&socket_path)
            .ok()
            .and_then(|mut c| c.stats().ok());
        if let Some(s) = stats {
            let depth = s.get("queue_depth").and_then(Json::as_f64).unwrap_or(-1.0);
            let inflight = s.get("inflight").and_then(Json::as_f64).unwrap_or(-1.0);
            let reserved = s
                .get("mem_reserved_bytes")
                .and_then(Json::as_f64)
                .unwrap_or(-1.0);
            if depth == 0.0 && inflight == 0.0 {
                drained = true;
                ledger_drained = reserved == 0.0;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    // Post-storm: every normal shape must still serve bit-identically.
    let mut post_ok = true;
    match Client::connect(&socket_path) {
        Ok(mut c) => {
            for (slot, shape) in shapes.iter().enumerate() {
                match c.run(&shape.source, shape.target, false, &["u"]) {
                    Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => {
                        let checksum = v.get("checksum").and_then(Json::as_str).unwrap_or("");
                        if checksum != format!("{:016x}", reference[slot]) {
                            eprintln!(
                                "mem: post-soak {} checksum {checksum} != {:016x}",
                                shape.label, reference[slot]
                            );
                            post_ok = false;
                        }
                    }
                    other => {
                        eprintln!("mem: post-soak {} failed: {other:?}", shape.label);
                        post_ok = false;
                    }
                }
            }
        }
        Err(e) => {
            eprintln!("mem: post-soak connect failed: {e}");
            post_ok = false;
        }
    }

    let stats = Client::connect(&socket_path)
        .ok()
        .and_then(|mut c| c.stats().ok());
    let stat = |key: &str| -> f64 {
        stats
            .as_ref()
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    println!(
        "mem: server — rejected(E0806) {:.0}  parked {:.0}  squeezes {:.0}  \
         ledger peak {:.1} MiB  crashes {:.0}  deadline-kills {:.0}",
        stat("mem_rejected"),
        stat("mem_parked"),
        stat("mem_squeezes"),
        stat("mem_peak_bytes") / (1024.0 * 1024.0),
        stat("worker_crashes"),
        stat("deadline_kills"),
    );

    let stop_t0 = Instant::now();
    server.stop();
    let stop_wall = stop_t0.elapsed();
    println!("mem: stop() joined in {:.2} s", stop_wall.as_secs_f64());
    let _ = std::fs::remove_dir_all(&scratch);

    let mut verdict = 0;
    let mut fail = |msg: &str| {
        eprintln!("mem: FAILED — {msg}");
        verdict = 1;
    };
    if failed > 0 {
        fail(&format!("{failed} normal requests never reached a success"));
    }
    if mismatches > 0 {
        fail(&format!(
            "{mismatches} checksum mismatches under memory pressure"
        ));
    }
    if peak_violations > 0 {
        fail(&format!(
            "{peak_violations} admitted runs exceeded (or lacked) their attested estimate"
        ));
    }
    if giant_bad > 0 {
        fail(&format!(
            "{giant_bad} giants were not answered with the coded E0806 rejection"
        ));
    }
    if ok + failed + mismatches != normals_issued {
        fail("normal-request accounting does not add up");
    }
    if giant_rejected + giant_bad != giants_issued {
        fail("giant-request accounting does not add up");
    }
    if giants_issued > 0 && stat("mem_rejected") == 0.0 {
        fail("server never rejected on memory — vacuous soak");
    }
    if giants_issued > 0 && stat("mem_parked") == 0.0 {
        fail("no request ever parked for memory — vacuous soak");
    }
    if stat("worker_crashes") > 0.0 {
        fail("a worker died under memory pressure");
    }
    if !drained {
        fail("queue/in-flight did not drain to zero after the storm");
    }
    if !ledger_drained {
        fail("the memory ledger did not drain to zero after the storm");
    }
    if !post_ok {
        fail("post-soak verification was not bit-identical");
    }
    if stop_wall > Duration::from_secs(30) {
        fail("stop() exceeded its hard bound");
    }
    if verdict == 0 {
        println!(
            "mem: OK — {requests} requests under a {} MiB budget: every giant coded E0806, \
             every admitted run bit-identical within its attested estimate, ledger drained",
            MEM_SOAK_BUDGET >> 20
        );
    }
    verdict
}

fn main() {
    let mut requests: Option<usize> = None;
    let mut clients = 16usize;
    let mut socket: Option<PathBuf> = None;
    let mut smoke = false;
    let mut chaos = false;
    let mut mem = false;
    let mut seed = 0x5eed_cafe_u64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--requests" => requests = args.next().and_then(|v| v.parse().ok()).or(requests),
            "--clients" => clients = args.next().and_then(|v| v.parse().ok()).unwrap_or(clients),
            "--socket" => socket = args.next().map(PathBuf::from),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--chaos" => chaos = true,
            "--mem" => mem = true,
            "--smoke" => {
                smoke = true;
                clients = 8;
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: loadgen [--requests N] [--clients N] [--socket PATH] [--smoke] \
                     [--chaos] [--mem] [--seed N]"
                );
                std::process::exit(2);
            }
            other => {
                eprintln!("loadgen: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    let clients = clients.max(1);

    if chaos {
        // The soak minimum (500) is part of the acceptance contract: the
        // fault probabilities are a few percent, so a short storm risks a
        // vacuous site.
        let requests = requests.unwrap_or(if smoke { 500 } else { 1000 }).max(500);
        std::process::exit(chaos_soak(requests, clients, seed));
    }
    if mem {
        // Same ≥500 floor: with one giant per ten requests, a short storm
        // would under-sample the reject/park/squeeze admission paths.
        let requests = requests.unwrap_or(if smoke { 500 } else { 1000 }).max(500);
        std::process::exit(mem_soak(requests, clients, seed));
    }
    let requests = requests.unwrap_or(if smoke { 200 } else { 2000 });

    // Self-host unless pointed at an external server.
    let scratch = std::env::temp_dir().join(format!("fsc-loadgen-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&scratch);
    let mut hosted: Option<Server> = None;
    let socket_path = match &socket {
        Some(p) => p.clone(),
        None => {
            let path = scratch.join("serve.sock");
            let config = ServerConfig {
                queue_depth: 64,
                ..ServerConfig::default()
            };
            let server = Server::start(&path, config).unwrap_or_else(|e| {
                eprintln!("loadgen: could not self-host server: {e}");
                std::process::exit(1);
            });
            hosted = Some(server);
            path
        }
    };

    let shapes = Arc::new(shapes());
    let counters = Arc::new((AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)));
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            // Interleave the global request index space across clients so
            // every client sees the full mix.
            let indices: Vec<usize> = (0..requests).skip(c).step_by(clients).collect();
            let (shapes, counters, socket_path) =
                (shapes.clone(), counters.clone(), socket_path.clone());
            std::thread::spawn(move || drive_client(&socket_path, indices, &shapes, &counters))
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(requests);
    for h in handles {
        if let Ok(outcome) = h.join() {
            latencies.extend(outcome.latencies_us);
        }
    }
    let wall = t0.elapsed();
    latencies.sort_unstable();

    let (ok, failed, busy_retries) = (
        counters.0.load(Ordering::Relaxed),
        counters.1.load(Ordering::Relaxed),
        counters.2.load(Ordering::Relaxed),
    );

    let stats = Client::connect(&socket_path)
        .ok()
        .and_then(|mut c| c.stats().ok());
    let stat = |key: &str| -> f64 {
        stats
            .as_ref()
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let unique_shapes = shapes.len() as f64;
    let compiles = stat("compiles");
    let reuse = stat("artifact_hits") + stat("dedup_waits");

    println!(
        "loadgen: {requests} requests, {clients} clients, {}",
        match &socket {
            Some(p) => format!("external server at {}", p.display()),
            None => "self-hosted server".to_string(),
        }
    );
    println!("  ok {ok}  failed {failed}  busy-retries {busy_retries}");
    println!(
        "  wall {:.2} s  throughput {:.1} req/s",
        wall.as_secs_f64(),
        ok as f64 / wall.as_secs_f64().max(1e-9)
    );
    println!(
        "  client latency p50 {:.2} ms  p90 {:.2} ms  p99 {:.2} ms  max {:.2} ms",
        quantile(&latencies, 0.50),
        quantile(&latencies, 0.90),
        quantile(&latencies, 0.99),
        quantile(&latencies, 1.0),
    );
    println!(
        "  server: compiles {:.0} (request shapes {unique_shapes:.0}), dedup_waits {:.0}, artifact_hits {:.0}, reuse {:.1}%",
        compiles,
        stat("dedup_waits"),
        stat("artifact_hits"),
        stat("reuse_rate") * 100.0,
    );
    println!(
        "  server latency p50 {:.2} ms  p99 {:.2} ms  queue-wait p99 {:.2} ms  rejected {:.0}",
        stat("p50_ms"),
        stat("p99_ms"),
        stat("queue_wait_p99_ms"),
        stat("rejected"),
    );
    let singleflight_ok = stats.is_some() && compiles <= unique_shapes && compiles > 0.0;
    println!(
        "  singleflight: {}",
        if singleflight_ok {
            "OK (compiles <= distinct request shapes)"
        } else {
            "VIOLATED"
        }
    );

    if let Some(mut server) = hosted.take() {
        server.stop();
    }
    let _ = std::fs::remove_dir_all(&scratch);

    if failed > 0 {
        eprintln!("loadgen: FAILED — {failed} requests did not complete ok");
        std::process::exit(1);
    }
    if smoke {
        if reuse <= 0.0 {
            eprintln!("loadgen: FAILED — no artifact reuse under a duplicate-heavy mix");
            std::process::exit(1);
        }
        if !singleflight_ok {
            eprintln!("loadgen: FAILED — singleflight violated (compiles {compiles} > shapes {unique_shapes})");
            std::process::exit(1);
        }
    }
}
