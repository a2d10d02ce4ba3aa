//! # fsc-serve — compile-server mode
//!
//! A persistent daemon that amortises compilation across many clients:
//! instead of paying frontend + pass-pipeline + kernel-compile +
//! autotune-calibration cost per invocation, a long-lived server keeps
//!
//! * a **singleflight compile service** (`fsc_core::session`) — identical
//!   concurrent requests compile once; finished artifacts are shared from
//!   a bounded cache;
//! * a **shared plan cache** (`fsc_exec::sharded`) — autotuned execution
//!   plans discovered by any session serve every later one, in process
//!   via RCU-style snapshot reads and across restarts via the
//!   merge-on-save JSON cache;
//! * a **bounded work queue with admission control** — overload is
//!   answered with a coded `E0801` rejection, not latency collapse;
//! * an explicit **failure model** (DESIGN.md §11) — per-request
//!   deadlines (`E0803`), crash-only workers with supervisor respawn
//!   (`E0804`), brownout degradation under queue pressure, bounded
//!   request frames, and a hard-bounded graceful drain. Every admitted
//!   request is answered exactly once, success or coded error;
//! * a **seeded chaos layer** ([`chaos`]) — worker panics, slow compiles,
//!   truncated response frames and cache corruption, injected
//!   deterministically so `loadgen --chaos` soaks are reproducible.
//!
//! The wire protocol is line-delimited JSON over a Unix domain socket
//! ([`proto`]); [`server`] hosts the daemon, [`client`] carries the
//! blocking [`client::Client`] and the retrying
//! [`client::ResilientClient`], and [`metrics`] the lock-free counters
//! behind `/stats`. The `fsc-serve` binary wraps [`server::Server`]; the
//! `loadgen` binary drives a server (self-hosted or external) with
//! thousands of mixed requests and reports throughput and latency
//! quantiles — or, with `--chaos`, runs the fault-injection soak.

pub mod chaos;
pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;

pub use chaos::{ChaosInjector, ChaosPlan, ChaosStats};
pub use client::{Client, ResilientClient, RetryPolicy};
pub use metrics::ServerMetrics;
pub use proto::{parse_target, CompileSpec, Op, Request};
pub use server::{BrownoutLevel, Server, ServerConfig};

use fsc_core::Execution;
use fsc_ir::hash::Fnv64;

/// Order- and name-sensitive FNV-1a-64 checksum over the *bit patterns*
/// of the named arrays' final contents. The e2e suite compares a server
/// run's checksum against a direct in-process library run — equality
/// means bit-identical results, independent of JSON float formatting.
pub fn checksum_arrays(execution: &Execution, names: &[String]) -> u64 {
    let mut h = Fnv64::new();
    for name in names {
        h.write(name.as_bytes());
        match execution.array(name) {
            Some(data) => {
                for v in data {
                    h.write_u64(v.to_bits());
                }
            }
            None => h.write(b"<absent>"),
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_core::{CompileOptions, Compiler};

    /// Clients compare this value across the wire: it must not drift.
    #[test]
    fn checksum_arrays_is_pinned() {
        let source = fsc_workloads::gauss_seidel::fortran_source(4, 1);
        let exec = Compiler::run(&source, &CompileOptions::default()).unwrap();
        let names = ["u".to_string(), "nope".to_string()];
        assert_eq!(checksum_arrays(&exec, &names), 0xd993_ea72_aac6_79c5);
    }
}
