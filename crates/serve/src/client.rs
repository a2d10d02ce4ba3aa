//! Blocking clients for the compile-server protocol.
//!
//! [`Client`] is the minimal, strictly sequential transport: each call
//! writes one request line and blocks for the matching response line (ids
//! are still checked, so a protocol violation surfaces as an error rather
//! than silent misattribution). Tests use it as the reference protocol
//! implementation.
//!
//! [`ResilientClient`] wraps it with the retry discipline a chaotic
//! server demands: reconnect on transport errors (closed sockets,
//! truncated frames, id mismatches) and bounded exponential backoff with
//! seeded jitter on the retryable coded rejections (`E0801` busy, `E0803`
//! deadline, `E0804` worker crash).
//!
//! ## Why blind retry is safe (idempotency)
//!
//! A compile/run request is a *pure function* of `(source, options)`: the
//! server's only side effect is a cache keyed by the request fingerprint
//! (the artifact cache), and writing the same key twice converges
//! to the same state. The retryable error codes additionally attest that
//! the server already cleaned up: `E0803` means the singleflight slot was
//! reclaimed, `E0804` means the dead worker was respawned. A retry
//! therefore re-contends from a clean slate — at worst it costs a
//! duplicate compile that the singleflight layer collapses anyway. There
//! is no request in the protocol whose double-delivery changes observable
//! results (even `shutdown` is idempotent), which is what makes
//! fingerprint-keyed blind retry correct rather than merely convenient.

// A client runs against servers that fail on purpose: every failure is an
// error the caller sees.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use fsc_ir::json::{Json, ObjBuilder};

/// A connected, synchronous protocol client.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    next_id: i64,
}

impl Client {
    /// Connect to a server socket.
    pub fn connect(socket_path: &Path) -> std::io::Result<Client> {
        let stream = UnixStream::connect(socket_path)?;
        // Anti-hang backstop, far beyond any server deadline: the server
        // answers every admitted request within its budget (+ grace), so
        // this only ever fires if the response was truly lost — which
        // must surface as an error, never a wedged client.
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
            next_id: 1,
        })
    }

    /// Send a pre-built request body (the client assigns and checks the
    /// id) and return the parsed response.
    pub fn call(&mut self, body: ObjBuilder) -> Result<Json, String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = body.num("id", id as f64).build().render();
        // One write per frame: the server's reader wakes once.
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.flush())
            .map_err(|e| format!("write failed: {e}"))?;
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| format!("read failed: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        let v = Json::parse(response.trim())?;
        match v.get("id").and_then(Json::as_i64) {
            Some(got) if got == id => Ok(v),
            got => Err(format!("response id {got:?} does not match request {id}")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<Json, String> {
        self.call(ObjBuilder::new().str("op", "ping"))
    }

    /// Metrics snapshot (`stats` object of the response).
    pub fn stats(&mut self) -> Result<Json, String> {
        let v = self.call(ObjBuilder::new().str("op", "stats"))?;
        v.get("stats").cloned().ok_or("missing stats".into())
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<Json, String> {
        self.call(ObjBuilder::new().str("op", "shutdown"))
    }

    /// Compile only.
    pub fn compile(&mut self, source: &str, target: &str) -> Result<Json, String> {
        self.call(compile_body(source, target, None))
    }

    /// Compile and run, returning the named arrays' final contents.
    ///
    /// `_autotune` is not sent: the server has nothing to tune. The
    /// argument stays only because `benchmark/` still passes it; it goes
    /// when a `[benchmark]` PR (ROADMAP 2(a)) stops using it.
    pub fn run(
        &mut self,
        source: &str,
        target: &str,
        _autotune: bool,
        arrays: &[&str],
    ) -> Result<Json, String> {
        self.call(run_body(source, target, arrays, None))
    }
}

fn compile_body(source: &str, target: &str, deadline_ms: Option<u64>) -> ObjBuilder {
    let mut b = ObjBuilder::new()
        .str("op", "compile")
        .str("source", source)
        .str("target", target);
    if let Some(ms) = deadline_ms {
        b = b.num("deadline_ms", ms as f64);
    }
    b
}

fn run_body(source: &str, target: &str, arrays: &[&str], deadline_ms: Option<u64>) -> ObjBuilder {
    let mut b = ObjBuilder::new()
        .str("op", "run")
        .str("source", source)
        .str("target", target)
        .set(
            "arrays",
            Json::Arr(arrays.iter().map(|a| Json::Str(a.to_string())).collect()),
        );
    if let Some(ms) = deadline_ms {
        b = b.num("deadline_ms", ms as f64);
    }
    b
}

/// How hard a [`ResilientClient`] tries before giving up.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Cap on a single backoff (before jitter).
    pub max_backoff: Duration,
    /// Jitter seed: the same seed sleeps the same schedule, keeping soak
    /// runs reproducible.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(400),
            seed: 0x5eed,
        }
    }
}

/// The retryable coded rejections: busy (shed), deadline (slot already
/// reclaimed), worker crash (worker already respawned). Everything else
/// coded is a *definitive* answer (e.g. a semantic compile error) and is
/// returned to the caller as-is.
fn retryable_code(code: Option<&str>) -> bool {
    matches!(code, Some("E0801" | "E0803" | "E0804"))
}

/// A client that survives a chaotic server: transport failures reconnect,
/// retryable coded rejections back off (exponential, jittered, bounded)
/// and resend. See the module docs for why blind resend is idempotent.
pub struct ResilientClient {
    socket_path: PathBuf,
    policy: RetryPolicy,
    conn: Option<Client>,
    rng: u64,
    retries: u64,
    reconnects: u64,
}

impl ResilientClient {
    /// Build a client for `socket_path`; connects lazily on first call.
    pub fn new(socket_path: &Path, policy: RetryPolicy) -> Self {
        let rng = policy.seed | 1;
        Self {
            socket_path: socket_path.to_path_buf(),
            policy,
            conn: None,
            rng,
            retries: 0,
            reconnects: 0,
        }
    }

    /// Retries performed so far (attempts beyond each call's first).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Reconnections performed after a transport failure.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Exponential backoff for retry number `retry` (0-based), capped,
    /// with ±50% deterministic jitter so synchronized clients desynchronize.
    fn backoff(&mut self, retry: u32) -> Duration {
        let exp = self
            .policy
            .base_backoff
            .saturating_mul(1u32 << retry.min(16))
            .min(self.policy.max_backoff);
        let jitter_frac = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(0.5 + jitter_frac)
    }

    /// Send `make()`'s request until a definitive response arrives or the
    /// attempt budget runs out. `Ok` responses with `ok:false` and a
    /// non-retryable code are definitive and returned to the caller.
    pub fn call_with_retry(&mut self, make: impl Fn() -> ObjBuilder) -> Result<Json, String> {
        let mut last = String::from("no attempt made");
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                self.retries += 1;
                let nap = self.backoff(attempt - 1);
                std::thread::sleep(nap);
            }
            let conn = match self.conn.take() {
                Some(c) => c,
                None => match Client::connect(&self.socket_path) {
                    Ok(c) => {
                        if attempt > 0 {
                            self.reconnects += 1;
                        }
                        c
                    }
                    Err(e) => {
                        last = format!("connect failed: {e}");
                        continue;
                    }
                },
            };
            let conn = self.conn.insert(conn);
            match conn.call(make()) {
                Ok(v) => {
                    if v.get("ok").and_then(Json::as_bool) == Some(true) {
                        return Ok(v);
                    }
                    let code = v.get("code").and_then(Json::as_str);
                    if retryable_code(code) {
                        last = format!(
                            "retryable rejection {}: {}",
                            code.unwrap_or("?"),
                            v.get("error").and_then(Json::as_str).unwrap_or("")
                        );
                        continue;
                    }
                    // Definitive coded failure (semantic error): not ours
                    // to mask.
                    return Ok(v);
                }
                Err(e) => {
                    // Transport breakage (closed/truncated/mismatched):
                    // the connection state is unknown — drop and redial.
                    self.conn = None;
                    last = e;
                }
            }
        }
        Err(format!(
            "gave up after {} attempts; last error: {last}",
            self.policy.max_attempts
        ))
    }

    /// Compile only, with retries; `deadline_ms` rides on every attempt.
    pub fn compile(
        &mut self,
        source: &str,
        target: &str,
        deadline_ms: Option<u64>,
    ) -> Result<Json, String> {
        self.call_with_retry(|| compile_body(source, target, deadline_ms))
    }

    /// Compile and run with retries, returning named arrays.
    pub fn run(
        &mut self,
        source: &str,
        target: &str,
        arrays: &[&str],
        deadline_ms: Option<u64>,
    ) -> Result<Json, String> {
        self.call_with_retry(|| run_body(source, target, arrays, deadline_ms))
    }

    /// Metrics snapshot with retries.
    pub fn stats(&mut self) -> Result<Json, String> {
        let v = self.call_with_retry(|| ObjBuilder::new().str("op", "stats"))?;
        v.get("stats").cloned().ok_or("missing stats".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            seed: 7,
        };
        let mut a = ResilientClient::new(Path::new("/nonexistent"), policy.clone());
        let mut b = ResilientClient::new(Path::new("/nonexistent"), policy);
        let sched_a: Vec<Duration> = (0..6).map(|r| a.backoff(r)).collect();
        let sched_b: Vec<Duration> = (0..6).map(|r| b.backoff(r)).collect();
        assert_eq!(sched_a, sched_b, "same seed, same schedule");
        // Jitter spans [0.5x, 1.5x] of the capped exponential.
        for (r, d) in sched_a.iter().enumerate() {
            let exp = (10u64 << r).min(100) as f64;
            assert!(d.as_secs_f64() * 1000.0 >= exp * 0.5 - 1e-9);
            assert!(d.as_secs_f64() * 1000.0 <= exp * 1.5 + 1e-9);
        }
    }

    #[test]
    fn retryable_codes_are_exactly_the_transient_ones() {
        assert!(retryable_code(Some("E0801")));
        assert!(retryable_code(Some("E0803")));
        assert!(retryable_code(Some("E0804")));
        assert!(!retryable_code(Some("E0802"))); // a malformed request stays malformed
        assert!(!retryable_code(Some("E0101"))); // semantic errors are definitive
        assert!(!retryable_code(None));
    }

    #[test]
    fn unreachable_socket_exhausts_the_attempt_budget() {
        let mut c = ResilientClient::new(
            Path::new("/nonexistent/fsc.sock"),
            RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                seed: 1,
            },
        );
        let err = c.ping_err();
        assert!(err.contains("3 attempts"), "got: {err}");
        assert_eq!(c.retries(), 2);
    }

    impl ResilientClient {
        fn ping_err(&mut self) -> String {
            self.call_with_retry(|| ObjBuilder::new().str("op", "ping"))
                .unwrap_err()
        }
    }
}
