//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response per line, over a Unix domain
//! socket. Requests carry a client-chosen `id` that the matching response
//! echoes, so a pipelining client can correlate out-of-order completions
//! (the bundled [`crate::client::Client`] is strictly sequential and does
//! not need to).
//!
//! ```text
//! → {"op":"run","id":1,"source":"program p\n...","target":"omp:4","arrays":["u"]}
//! ← {"id":1,"ok":true,"artifact":"fresh","rung":"full stencil pipeline",...}
//! → {"op":"stats","id":2}
//! ← {"id":2,"ok":true,"stats":{...}}
//! ```
//!
//! Unknown keys are ignored; so is `autotune`, which older clients still
//! send (plans come from the IR, nothing tunes them).
//!
//! Malformed requests get an `ok:false` response carrying the stable
//! `E0802` protocol code; a server at capacity answers `E0801` instead of
//! queueing (see [`crate::server`] for the admission-control contract).
//! Both are *responses*, never closed connections — a client can always
//! tell rejection from a crash.

use fsc_core::{CompileOptions, Target};
use fsc_ir::diag::codes;
use fsc_ir::json::{Json, ObjBuilder};

/// What a request asks the server to do with a program.
#[derive(Debug, Clone)]
pub struct CompileSpec {
    /// Fortran source text.
    pub source: String,
    /// Execution target.
    pub target: Target,
    /// Optional compile/run budget in milliseconds. The clock starts at
    /// admission; a request still unanswered when it runs out is answered
    /// `E0803` by the watchdog and its singleflight slot is reclaimed.
    /// Absent means the server default applies. The budget does **not**
    /// enter the request fingerprint — two requests differing only in
    /// budget still dedupe onto one compile.
    pub deadline_ms: Option<u64>,
}

impl CompileSpec {
    /// Compile options equivalent to this spec.
    pub fn options(&self) -> CompileOptions {
        CompileOptions::for_target(self.target.clone())
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub enum Op {
    /// Liveness probe.
    Ping,
    /// Server + service metrics snapshot.
    Stats,
    /// Stop accepting, drain the queue, exit.
    Shutdown,
    /// Compile only (warms caches; returns the compile attestation).
    Compile(CompileSpec),
    /// Compile and run; optionally return named arrays' final contents.
    Run(CompileSpec, Vec<String>),
}

/// A request line: the echoed id plus the operation.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id (echoed in the response).
    pub id: i64,
    /// The operation.
    pub op: Op,
}

/// Parse a target spec string.
///
/// Accepted forms: `flang` (FIR interpretation), `unopt` (the "Flang
/// only" line: unfused lift, no CSE, generic VM), `cpu` (serial stencil), `omp` / `omp:N` (OpenMP, N threads,
/// 0 = all cores), `dist:AxB...` (distributed over a process grid),
/// `gpu` (modeled V100, explicit data movement).
pub fn parse_target(s: &str) -> Result<Target, String> {
    match s {
        "flang" => return Ok(Target::FlangOnly),
        "unopt" => return Ok(Target::UnoptimizedCpu),
        "cpu" | "" => return Ok(Target::StencilCpu),
        "omp" => return Ok(Target::StencilOpenMp { threads: 0 }),
        "gpu" => {
            return Ok(Target::StencilGpu {
                explicit_data: true,
                tile: [32, 32, 1],
            })
        }
        _ => {}
    }
    if let Some(n) = s.strip_prefix("omp:") {
        let threads = n
            .parse::<u32>()
            .map_err(|_| format!("bad thread count '{n}'"))?;
        return Ok(Target::StencilOpenMp { threads });
    }
    if let Some(g) = s.strip_prefix("dist:") {
        let grid = g
            .split('x')
            .map(|d| d.parse::<i64>().map_err(|_| format!("bad grid dim '{d}'")))
            .collect::<Result<Vec<_>, _>>()?;
        if grid.is_empty() || grid.iter().any(|&d| d < 1) {
            return Err(format!("bad process grid '{g}'"));
        }
        return Ok(Target::StencilDistributed { grid });
    }
    Err(format!(
        "unknown target '{s}' (expected flang|unopt|cpu|omp[:N]|dist:AxB|gpu)"
    ))
}

impl Request {
    /// Parse one request line. Errors are protocol errors: the caller
    /// should answer with [`error_response`] under [`codes::SERVER_PROTOCOL`],
    /// using the id recovered by [`Request::recover_id`] when possible.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line)?;
        let id = v.get("id").and_then(Json::as_i64).unwrap_or(0);
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing 'op' field")?;
        let spec = |v: &Json| -> Result<CompileSpec, String> {
            let source = v
                .get("source")
                .and_then(Json::as_str)
                .ok_or("missing 'source' field")?
                .to_string();
            let target = parse_target(v.get("target").and_then(Json::as_str).unwrap_or("cpu"))?;
            let deadline_ms = v
                .get("deadline_ms")
                .and_then(Json::as_i64)
                .and_then(|d| u64::try_from(d).ok());
            Ok(CompileSpec {
                source,
                target,
                deadline_ms,
            })
        };
        let op = match op {
            "ping" => Op::Ping,
            "stats" => Op::Stats,
            "shutdown" => Op::Shutdown,
            "compile" => Op::Compile(spec(&v)?),
            "run" => {
                let arrays = v
                    .get("arrays")
                    .and_then(Json::as_array)
                    .map(|a| {
                        a.iter()
                            .filter_map(Json::as_str)
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default();
                Op::Run(spec(&v)?, arrays)
            }
            other => return Err(format!("unknown op '{other}'")),
        };
        Ok(Request { id, op })
    }

    /// Best-effort id extraction from a line that failed to parse as a
    /// request, so even a malformed request's error response correlates.
    pub fn recover_id(line: &str) -> i64 {
        Json::parse(line)
            .ok()
            .and_then(|v| v.get("id").and_then(Json::as_i64))
            .unwrap_or(0)
    }
}

/// Render an `ok:false` response line (no trailing newline).
pub fn error_response(id: i64, code: &str, message: &str) -> String {
    ObjBuilder::new()
        .num("id", id as f64)
        .bool("ok", false)
        .str("code", code)
        .str("error", message)
        .build()
        .render()
}

/// The stable busy rejection for a request that failed admission control.
pub fn busy_response(id: i64, queue_depth: usize) -> String {
    error_response(
        id,
        codes::SERVER_BUSY,
        &format!("server at capacity (queue depth {queue_depth}); retry with backoff"),
    )
}

/// The stable deadline-exceeded answer the watchdog writes when a
/// request's compile/run budget runs out.
pub fn deadline_response(id: i64, budget_ms: u64) -> String {
    error_response(
        id,
        codes::SERVER_DEADLINE,
        &format!("deadline exceeded ({budget_ms} ms budget); slot reclaimed, safe to retry"),
    )
}

/// The stable worker-crash answer the supervisor writes when the worker
/// holding a request dies.
pub fn crash_response(id: i64) -> String {
    error_response(
        id,
        codes::SERVER_WORKER_CRASH,
        "worker crashed while processing this request; worker respawned, safe to retry",
    )
}

/// The stable memory-admission rejection: the request's attested memory
/// estimate cannot be reserved against the server budget even after the
/// squeeze rung and a bounded park. **Not** retryable on this server — a
/// request this size will keep failing until the budget is raised.
pub fn mem_reject_response(id: i64, est_bytes: u64, budget_bytes: Option<u64>) -> String {
    let budget = budget_bytes
        .map(|b| format!("{b} byte server budget"))
        .unwrap_or_else(|| "unbounded server budget".to_string());
    error_response(
        id,
        codes::SERVER_MEM_REJECT,
        &format!(
            "memory reservation unavailable ({est_bytes} bytes estimated, {budget}); \
             not retryable here — raise --mem-budget or shrink the program"
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_run_requests() {
        let r = Request::parse(
            r#"{"op":"run","id":7,"source":"program p\nend program p","target":"omp:4","arrays":["u","v"]}"#,
        )
        .unwrap();
        assert_eq!(r.id, 7);
        match r.op {
            Op::Run(spec, arrays) => {
                assert_eq!(spec.target, Target::StencilOpenMp { threads: 4 });
                assert_eq!(arrays, vec!["u", "v"]);
                assert!(spec.source.starts_with("program p"));
            }
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn target_grammar_round_trips() {
        assert_eq!(parse_target("cpu").unwrap(), Target::StencilCpu);
        assert_eq!(parse_target("flang").unwrap(), Target::FlangOnly);
        assert_eq!(
            parse_target("dist:2x3").unwrap(),
            Target::StencilDistributed { grid: vec![2, 3] }
        );
        assert!(parse_target("dist:0x2").is_err());
        assert!(parse_target("omp:x").is_err());
        assert!(parse_target("warp9").is_err());
    }

    #[test]
    fn malformed_lines_recover_ids_when_present() {
        assert!(Request::parse("{\"op\":\"warp\",\"id\":3}").is_err());
        assert_eq!(Request::recover_id("{\"op\":\"warp\",\"id\":3}"), 3);
        assert_eq!(Request::recover_id("not json at all"), 0);
    }

    #[test]
    fn error_responses_carry_stable_codes() {
        let line = busy_response(9, 64);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Json::as_str), Some("E0801"));
        assert_eq!(v.get("id").and_then(Json::as_i64), Some(9));
    }
}
