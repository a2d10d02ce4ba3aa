//! End-to-end compile-server suite (ISSUE 6 satellite 4).
//!
//! The flagship test fires 64 concurrent requests — duplicates across a
//! handful of programs/targets plus one invalid program — at a live
//! server over its real Unix socket and asserts:
//!
//! * every valid request succeeds, and its result is **bit-identical** to
//!   a direct in-process library compile+run (compared via an FNV
//!   checksum over the arrays' `f64` bit patterns);
//! * **singleflight holds**: the server ran exactly one compile per
//!   unique (source, options) fingerprint, plus one for the invalid
//!   program;
//! * the invalid program gets a **coded diagnostic response** — not a
//!   hang, not a dropped connection.
//!
//! A second test pins the admission-control contract deterministically:
//! with zero workers and a queue bound of one, the second job is rejected
//! `E0801` while the first — a run whose artifact is cached — sits queued.

use std::collections::HashSet;
use std::sync::{Arc, Barrier};

use fsc_core::{CompileOptions, CompileRequest, Compiler, Target};
use fsc_ir::json::Json;
use fsc_serve::{checksum_arrays, Client, Server, ServerConfig};

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fsc-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The request mix: (label, source, target string, library target).
fn mix() -> Vec<(&'static str, String, &'static str, Target)> {
    vec![
        (
            "gs4/cpu",
            fsc_workloads::gauss_seidel::fortran_source(4, 2),
            "cpu",
            Target::StencilCpu,
        ),
        (
            "gs6/cpu",
            fsc_workloads::gauss_seidel::fortran_source(6, 2),
            "cpu",
            Target::StencilCpu,
        ),
        (
            "gs8/cpu",
            fsc_workloads::gauss_seidel::fortran_source(8, 2),
            "cpu",
            Target::StencilCpu,
        ),
        (
            "gs6/omp2",
            fsc_workloads::gauss_seidel::fortran_source(6, 2),
            "omp:2",
            Target::StencilOpenMp { threads: 2 },
        ),
    ]
}

const INVALID_SOURCE: &str = "program broken\n  this is not fortran at all\nend program broken";
const INVALID_SLOT: usize = 37;

#[test]
fn sixty_four_concurrent_mixed_requests() {
    let dir = scratch_dir("storm");
    let config = ServerConfig {
        workers: 4,
        queue_depth: 128, // >= request count: nothing may be rejected here
        ..ServerConfig::default()
    };
    let server = Server::start(&dir.join("serve.sock"), config).unwrap();
    let socket = server.socket_path().to_path_buf();
    let mix = Arc::new(mix());

    // Reference results straight from the library, bypassing the server.
    let reference: Vec<u64> = mix
        .iter()
        .map(|(_, source, _, target)| {
            let exec = Compiler::run(source, &CompileOptions::for_target(target.clone())).unwrap();
            checksum_arrays(&exec, &["u".to_string()])
        })
        .collect();

    let n = 64;
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let (mix, barrier, socket) = (mix.clone(), barrier.clone(), socket.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket).unwrap();
                barrier.wait();
                if i == INVALID_SLOT {
                    return (i, client.run(INVALID_SOURCE, "cpu", false, &["u"]));
                }
                let (_, source, target, _) = &mix[i % mix.len()];
                (i, client.run(source, target, false, &["u"]))
            })
        })
        .collect();

    let mut checksums_seen = vec![HashSet::new(); mix.len()];
    for h in handles {
        let (i, response) = h.join().unwrap();
        let v = response.unwrap_or_else(|e| panic!("request {i} transport error: {e}"));
        if i == INVALID_SLOT {
            // The invalid program fails *with a coded diagnostic*.
            assert_eq!(
                v.get("ok").and_then(Json::as_bool),
                Some(false),
                "{}",
                v.render()
            );
            let code = v.get("code").and_then(Json::as_str).unwrap();
            assert!(
                code.starts_with('E') && code != "E0801" && code != "E0802",
                "expected a compiler diagnostic code, got {code}"
            );
            continue;
        }
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "request {i} failed: {}",
            v.render()
        );
        // Bit-identity vs the direct library run.
        let slot = i % mix.len();
        let checksum = v
            .get("checksum")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        assert_eq!(
            checksum,
            format!("{:016x}", reference[slot]),
            "request {i} ({}) differs from the direct library result",
            mix[slot].0
        );
        checksums_seen[slot].insert(checksum);
        // The attestation names how the artifact was obtained and what ran.
        let artifact = v.get("artifact").and_then(Json::as_str).unwrap();
        assert!(matches!(artifact, "fresh" | "deduped" | "cached"));
        assert_eq!(
            v.get("rung").and_then(Json::as_str),
            Some("full stencil pipeline")
        );
    }
    // Every duplicate of a shape produced the same bits.
    for (slot, seen) in checksums_seen.iter().enumerate() {
        assert_eq!(
            seen.len(),
            1,
            "shape {} produced divergent results",
            mix[slot].0
        );
    }

    // Singleflight: exactly one compile per unique fingerprint. The mix
    // has 4 unique shapes plus the invalid program's one (failed) compile.
    let m = server.service().metrics();
    assert_eq!(
        m.compiles,
        mix.len() as u64 + 1,
        "expected one compile per unique request shape (+1 invalid): {m:?}"
    );
    assert_eq!(m.errors, 1);
    assert_eq!(
        m.compiles + m.dedup_waits + m.artifact_hits,
        n as u64,
        "every request must be accounted for: {m:?}"
    );

    // The server-side stats endpoint agrees.
    let mut client = Client::connect(&socket).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("compiles").and_then(Json::as_i64), Some(5));
    assert_eq!(stats.get("completed").and_then(Json::as_i64), Some(63));
    assert_eq!(stats.get("failed").and_then(Json::as_i64), Some(1));
    assert_eq!(stats.get("rejected").and_then(Json::as_i64), Some(0));
    // Per-tier gauges: every valid run's GS nests attest the jit tier
    // (GS has no specialized template), and the jit stitch-counter
    // section is present.
    assert_eq!(stats.get("exec_jit").and_then(Json::as_i64), Some(63));
    assert_eq!(
        stats.get("exec_specialized").and_then(Json::as_i64),
        Some(0)
    );
    assert!(stats.get("jit_builds").and_then(Json::as_i64).is_some());

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control, deterministically: no workers ever drain the
/// queue, so with a bound of one the first job is admitted and the
/// second is rejected with the stable `E0801` code — immediately, by the
/// connection thread, while the first job still sits queued. The first
/// job is a run whose artifact is cached: with no slot to run in, it is
/// queued like any other, never run on its reader.
#[test]
fn admission_control_rejects_beyond_queue_depth() {
    let dir = scratch_dir("admission");
    let config = ServerConfig {
        workers: 0,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let server = Server::start(&dir.join("serve.sock"), config).unwrap();
    let source = fsc_workloads::gauss_seidel::fortran_source(4, 1);
    let options = CompileOptions::for_target(Target::StencilCpu);
    let request = CompileRequest::with_options(source.clone(), options);
    server.service().compile(&request).unwrap();

    // Fill the queue. The run response will never come (no workers),
    // so fire-and-forget on a dedicated connection; the inline stats
    // round-trip afterwards proves the job was admitted first.
    let mut filler = Client::connect(server.socket_path()).unwrap();
    {
        use std::io::Write;
        let raw = std::os::unix::net::UnixStream::connect(server.socket_path()).unwrap();
        let mut w = &raw;
        let line = format!(
            "{{\"op\":\"run\",\"id\":1,\"source\":{},\"target\":\"cpu\"}}\n",
            fsc_ir::json::escape_string(&source)
        );
        w.write_all(line.as_bytes()).unwrap();
        w.flush().unwrap();
        // Same connection: requests are handled in order, so once stats
        // answers, the run job is in the queue.
        let stats = loop {
            let s = filler.stats().unwrap();
            if s.get("accepted").and_then(Json::as_i64) == Some(1) {
                break s;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };
        assert_eq!(stats.get("queue_depth").and_then(Json::as_i64), Some(1));
        assert_eq!(stats.get("answered_inline").and_then(Json::as_i64), Some(0));
        // Keep `raw` alive until after the rejection below.
        let mut rejected_client = Client::connect(server.socket_path()).unwrap();
        let v = rejected_client.compile(&source, "cpu").unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Json::as_str), Some("E0801"));
        assert!(v
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("capacity"));
    }
    let stats = filler.stats().unwrap();
    assert_eq!(stats.get("rejected").and_then(Json::as_i64), Some(1));
    // Never run: no probe of the cache, no answer.
    assert_eq!(stats.get("artifact_hits").and_then(Json::as_i64), Some(0));
    assert_eq!(stats.get("completed").and_then(Json::as_i64), Some(0));

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Occupancy counts the jobs already waiting, not the request being
/// admitted: an idle server with a queue bound of one answers a run at
/// brownout level 0, on the top rung.
#[test]
fn an_idle_server_with_a_queue_of_one_does_not_brown_out() {
    let dir = scratch_dir("idle-brownout");
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let server = Server::start(&dir.join("serve.sock"), config).unwrap();
    let source = fsc_workloads::gauss_seidel::fortran_source(4, 1);
    let mut client = Client::connect(server.socket_path()).unwrap();
    let v = client.run(&source, "cpu", false, &["u"]).unwrap();
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        v.render()
    );
    assert_eq!(v.get("brownout").and_then(Json::as_str), Some("none"));
    assert_eq!(
        v.get("rung").and_then(Json::as_str),
        Some("full stencil pipeline")
    );
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("brownout_level").and_then(Json::as_i64), Some(0));
    assert_eq!(
        stats.get("brownout_reduced_rung").and_then(Json::as_i64),
        Some(0)
    );

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `autotune` is accepted and ignored: two run requests that differ only
/// in it share one compile and answer the same bits, and nothing is
/// written or warned about — even with `plan_cache` pointing under a
/// regular file, where no file could be created.
#[test]
fn autotune_is_accepted_and_ignored() {
    let dir = scratch_dir("autotune");
    std::fs::write(dir.join("blocker"), b"i am not a directory").unwrap();
    let server = Server::start(
        &dir.join("serve.sock"),
        ServerConfig {
            workers: 1,
            plan_cache: Some(dir.join("blocker").join("plans.json")),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let source = fsc_workloads::gauss_seidel::fortran_source(4, 1);
    let run = |autotune: bool| {
        fsc_ir::json::ObjBuilder::new()
            .str("op", "run")
            .str("source", &source)
            .str("target", "cpu")
            .bool("autotune", autotune)
            .set("arrays", Json::Arr(vec![Json::Str("u".into())]))
    };

    let mut client = Client::connect(server.socket_path()).unwrap();
    let plain = client.call(run(false)).unwrap();
    let tuned = client.call(run(true)).unwrap();
    for v in [&plain, &tuned] {
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "{}",
            v.render()
        );
        assert_eq!(
            v.get("warnings").and_then(Json::as_array).map(Vec::len),
            Some(0),
            "{}",
            v.render()
        );
    }
    let checksum = |v: &Json| v.get("checksum").and_then(Json::as_str).map(str::to_string);
    assert!(checksum(&plain).is_some(), "{}", plain.render());
    assert_eq!(checksum(&plain), checksum(&tuned));
    assert_eq!(tuned.get("artifact").and_then(Json::as_str), Some("cached"));
    assert_eq!(server.service().metrics().compiles, 1);

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Protocol errors answer `E0802` with the recovered id — malformed input
/// never kills the connection.
#[test]
fn malformed_requests_get_coded_protocol_errors() {
    let dir = scratch_dir("proto");
    let server = Server::start(
        &dir.join("serve.sock"),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    use std::io::{BufRead, BufReader, Write};
    let stream = std::os::unix::net::UnixStream::connect(server.socket_path()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut w = &stream;
    for (line, expect_id) in [
        ("{\"op\":\"warp\",\"id\":42}\n", 42),
        ("not json\n", 0),
        ("{\"op\":\"run\",\"id\":43}\n", 43), // missing source
    ] {
        w.write_all(line.as_bytes()).unwrap();
        w.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let v = Json::parse(response.trim()).unwrap();
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(false),
            "{response}"
        );
        assert_eq!(v.get("code").and_then(Json::as_str), Some("E0802"));
        assert_eq!(v.get("id").and_then(Json::as_i64), Some(expect_id));
    }
    // The connection still works after three protocol errors.
    let mut client = Client::connect(server.socket_path()).unwrap();
    assert_eq!(
        client.ping().unwrap().get("pong").and_then(Json::as_bool),
        Some(true)
    );

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compiled code is kept in exactly one place — the artifact cache, keyed
/// by request fingerprint. A *textually different* program with identical
/// bytecode (same body, renamed program) therefore misses it, compiles
/// and stitches afresh, runs on the jit tier and returns bit-identical
/// arrays. The stats endpoint surfaces the per-tier run counts and the
/// stitch counters, and no jit-cache keys.
#[test]
fn renamed_program_recompiles_and_restitches_bit_identically() {
    let dir = scratch_dir("jitwarm");
    let server = Server::start(
        &dir.join("serve.sock"),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let source = fsc_workloads::jit_kernels::sqrt_source(5, 1);
    let renamed = source.replace("program jit_sqrt", "program jit_sqrt_b");
    assert_ne!(source, renamed);
    let serial = Compiler::run(&source, &CompileOptions::for_target(Target::StencilCpu)).unwrap();
    let want = format!("{:016x}", checksum_arrays(&serial, &["u".to_string()]));

    let contains = |v: &Json, field: &str, s: &str| -> bool {
        v.get(field)
            .and_then(Json::as_array)
            .map(|a| a.iter().any(|x| x.as_str() == Some(s)))
            .unwrap_or(false)
    };

    let mut client = Client::connect(server.socket_path()).unwrap();
    for program in [&source, &renamed] {
        let v = client.run(program, "cpu", false, &["u"]).unwrap();
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "{}",
            v.render()
        );
        assert_eq!(v.get("artifact").and_then(Json::as_str), Some("fresh"));
        // One tier: the sqrt sweep and the copy sweep both run on the jit.
        assert!(contains(&v, "exec_tiers", "jit"), "{}", v.render());
        assert!(!contains(&v, "exec_tiers", "specialized"), "{}", v.render());
        assert!(v.get("jit_artifacts").is_none(), "{}", v.render());
        assert_eq!(
            v.get("checksum").and_then(Json::as_str),
            Some(want.as_str())
        );
    }

    let stats = client.stats().unwrap();
    let count = |key: &str| stats.get(key).and_then(Json::as_i64).unwrap();
    assert!(count("exec_jit") >= 2);
    assert_eq!(count("exec_specialized"), 0);
    assert!(count("jit_builds") >= 2, "{}", stats.render());
    assert!(
        count("jit_codegen_count") >= 2,
        "the stitch-time histogram must record stitches: {}",
        stats.render()
    );
    for gone in ["jit_entries", "jit_hits", "jit_bytes", "jit_evictions"] {
        assert!(stats.get(gone).is_none(), "{gone}: {}", stats.render());
    }

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A distributed request surfaces the rank-scheduler gauges in the stats
/// endpoint: which substrate ran, how many parks/steals the cooperative
/// scheduler took, the halo depth carried, and the node-aggregation
/// ratio — while the result stays bit-identical to the direct serial run.
#[test]
fn distributed_runs_surface_scheduler_gauges() {
    let dir = scratch_dir("distgauges");
    let server = Server::start(
        &dir.join("serve.sock"),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let source = fsc_workloads::gauss_seidel::fortran_source(8, 2);
    let serial = Compiler::run(&source, &CompileOptions::for_target(Target::StencilCpu)).unwrap();
    let want = format!("{:016x}", checksum_arrays(&serial, &["u".to_string()]));

    let mut client = Client::connect(server.socket_path()).unwrap();
    let v = client.run(&source, "dist:2x2", false, &["u"]).unwrap();
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        v.render()
    );
    assert_eq!(
        v.get("checksum").and_then(Json::as_str),
        Some(want.as_str()),
        "distributed result differs from the direct serial run"
    );

    let stats = client.stats().unwrap();
    assert_eq!(stats.get("dist_runs").and_then(Json::as_i64), Some(1));
    assert_eq!(
        stats.get("dist_scheduler").and_then(Json::as_str),
        Some("coop"),
        "the cooperative scheduler is the default substrate"
    );
    assert!(
        stats.get("dist_parks").and_then(Json::as_i64).unwrap() > 0,
        "rank bodies must park on blocking halo recvs: {}",
        stats.render()
    );
    assert!(stats.get("dist_halo_depth").and_then(Json::as_i64).unwrap() >= 1);
    assert!(
        stats
            .get("dist_aggregation_ratio")
            .and_then(Json::as_f64)
            .unwrap()
            >= 1.0
    );

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Negative values, values below `1e-7` and values above `1e16`: the
/// layouts a positional float printer gets wrong first.
fn wide_range_source(n: usize) -> String {
    format!(
        "program wide_range
  implicit none
  integer, parameter :: n = {n}
  integer :: i, j, k
  real(kind=8) :: u(0:n+1, 0:n+1, 0:n+1), s(0:n+1, 0:n+1, 0:n+1), b(0:n+1, 0:n+1, 0:n+1)
  do k = 0, n+1
    do j = 0, n+1
      do i = 0, n+1
        u(i, j, k) = 0.37 * i - 0.51 * j + 0.13 * k - 0.7
      end do
    end do
  end do
  do k = 1, n
    do j = 1, n
      do i = 1, n
        s(i, j, k) = (u(i-1, j, k) + u(i+1, j, k) - u(i, j-1, k)) * 3.3d-9
        b(i, j, k) = (u(i, j, k-1) - u(i, j, k+1) + u(i, j+1, k)) * 7.1d16
      end do
    end do
  end do
end program wide_range
"
    )
}

/// The arrays a `run` reply carries are the library's arrays: every value
/// parsed off the wire has the bits `Compiler::run` produced. (`checksum`
/// is computed from the run's bits, not from the text sent, so it cannot
/// catch a printing error.) The one exception is `-0.0`, which the wire
/// prints as `0`.
#[test]
fn served_arrays_match_the_library_bit_for_bit() {
    let dir = scratch_dir("wirevalues");
    let server = Server::start(
        &dir.join("serve.sock"),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let programs = [
        (fsc_workloads::gauss_seidel::fortran_source(6, 3), vec!["u"]),
        (
            fsc_workloads::pw_advection::fortran_source(6),
            vec!["su", "sv", "sw"],
        ),
        (wide_range_source(6), vec!["u", "s", "b"]),
    ];
    let mut client = Client::connect(server.socket_path()).unwrap();
    let (mut negative, mut tiny, mut huge) = (0, 0, 0);
    for (source, names) in &programs {
        let exec = Compiler::run(source, &CompileOptions::for_target(Target::StencilCpu)).unwrap();
        let v = client.run(source, "cpu", false, names).unwrap();
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "{}",
            v.render()
        );
        for name in names {
            let want = exec.array(name).unwrap();
            let got = v
                .get("arrays")
                .and_then(|a| a.get(name))
                .and_then(Json::as_array)
                .unwrap();
            assert_eq!(got.len(), want.len(), "{name}");
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                let g = g.as_f64().unwrap();
                let w = if *w == 0.0 { 0.0 } else { *w };
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{name}[{i}]: wire {g:e}, library {w:e}"
                );
                negative += (w < 0.0) as usize;
                tiny += (w != 0.0 && w.abs() < 1e-7) as usize;
                huge += (w.abs() > 1e16) as usize;
            }
        }
    }
    assert!(
        negative > 0 && tiny > 0 && huge > 0,
        "{negative} negative, {tiny} tiny, {huge} huge"
    );

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
