//! Memory governance: byte ledgers and static footprint estimates.
//!
//! Stencil programs make their memory footprint statically predictable —
//! every buffer the executor will ever allocate is sized by IR view bounds
//! known at compile time. This module turns that property into governance:
//!
//! * [`MemoryBudget`] — a thread-safe byte ledger. Allocation paths
//!   *reserve* bytes before touching the allocator and *release* them when
//!   the storage is logically freed; a reservation that would exceed the
//!   limit fails with coded `E0805` instead of aborting the process. The
//!   ledger also tracks the high-water mark, so a run can attest its
//!   measured peak against the promised estimate.
//! * [`MemoryEstimate`] — the static estimate itself, broken into the
//!   components a compiled program can need (program arrays, snapshot
//!   copies, halo staging, distributed per-rank replication), so
//!   admission control can reserve before running.
//! * [`checked_elems`] / [`elems_to_bytes`] — overflow-checked extent
//!   arithmetic. Element counts near `usize::MAX` produce coded `E0807`
//!   instead of wrapping silently into a tiny (or enormous) allocation.
//!
//! Invariants the ledger maintains:
//!
//! * `used` never exceeds `limit` (reservations are compare-and-swap, so
//!   concurrent reservers cannot jointly overshoot);
//! * `peak` is the monotone maximum of `used` over the ledger's lifetime;
//! * `release` never underflows (saturating), so a mismatched release is
//!   harmless rather than corrupting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fsc_ir::diag::{codes, Diagnostic};
use fsc_ir::IrError;

/// Sentinel limit meaning "no cap".
const UNLIMITED: u64 = u64::MAX;

/// A shared byte ledger with a hard limit, current usage and peak tracking.
///
/// Cloneable by `Arc`: one ledger can govern several [`crate::Memory`]
/// instances at once (e.g. every rank body of a distributed dispatch), and
/// a server can layer a per-request ledger under a server-wide one.
#[derive(Debug)]
pub struct MemoryBudget {
    limit: AtomicU64,
    used: AtomicU64,
    peak: AtomicU64,
}

impl MemoryBudget {
    /// A ledger capped at `bytes`.
    pub fn limited(bytes: u64) -> Arc<Self> {
        Arc::new(Self {
            limit: AtomicU64::new(bytes),
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        })
    }

    /// A ledger that never rejects (but still tracks usage and peak).
    pub fn unlimited() -> Arc<Self> {
        Self::limited(UNLIMITED)
    }

    /// The configured limit, `None` when unlimited.
    pub fn limit(&self) -> Option<u64> {
        match self.limit.load(Ordering::Relaxed) {
            UNLIMITED => None,
            v => Some(v),
        }
    }

    /// Replace the limit (an already-over-limit `used` is not clawed back;
    /// future reservations simply fail until usage drains).
    pub fn set_limit(&self, bytes: Option<u64>) {
        self.limit
            .store(bytes.unwrap_or(UNLIMITED), Ordering::Relaxed);
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// High-water mark of `used` over the ledger's lifetime.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Try to reserve `bytes` against the limit. On success the bytes are
    /// charged (release them with [`release`](Self::release)); on failure
    /// nothing changes and a coded `E0805` error describes the shortfall.
    pub fn try_reserve(&self, bytes: u64) -> fsc_ir::Result<()> {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let limit = self.limit.load(Ordering::Relaxed);
            let next = match cur.checked_add(bytes) {
                Some(n) if n <= limit => n,
                _ => {
                    return Err(IrError::from_diagnostic(
                        Diagnostic::error(
                            codes::MEM_BUDGET,
                            format!(
                                "allocation denied: reserving {bytes} bytes would exceed the \
                                 memory budget ({cur} of {limit} bytes in use)"
                            ),
                        )
                        .note("the request fails cleanly; the process keeps serving"),
                    ));
                }
            };
            match self
                .used
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.peak.fetch_max(next, Ordering::Relaxed);
                    return Ok(());
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Return `bytes` to the ledger (saturating — never underflows).
    pub fn release(&self, bytes: u64) {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self
                .used
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Static memory footprint of one compiled program, by component. All
/// figures are bytes; [`total`](Self::total) is what admission control
/// reserves before the run starts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryEstimate {
    /// Program arrays allocated by the FIR interpreter (`fir.alloca`,
    /// `fir.allocmem`, `memref.alloc`).
    pub base_bytes: u64,
    /// Value-semantics snapshot copies the stencil kernels allocate.
    pub snapshot_bytes: u64,
    /// Halo staging: pack/unpack payloads and per-view exchange regions.
    pub halo_bytes: u64,
    /// Distributed replication: every real rank holds full-size, globally
    /// addressed buffers plus per-phase checkpoint clones.
    pub replication_bytes: u64,
    /// Fixed interpreter slack (scalars, environments, bookkeeping).
    pub slack_bytes: u64,
}

impl MemoryEstimate {
    /// The sum of every component (saturating: each component is already
    /// overflow-checked at construction, so saturation is unreachable in
    /// practice but keeps the sum total).
    pub fn total(&self) -> u64 {
        self.base_bytes
            .saturating_add(self.snapshot_bytes)
            .saturating_add(self.halo_bytes)
            .saturating_add(self.replication_bytes)
            .saturating_add(self.slack_bytes)
    }
}

/// Overflow-checked element count of an extent vector: the product of
/// `max(e, 0)` over every extent, rejected with coded `E0807` when it
/// does not fit `usize`.
pub fn checked_elems(extents: &[i64]) -> fsc_ir::Result<usize> {
    let mut acc: usize = 1;
    for &e in extents {
        let e = e.max(0) as u64;
        let e: usize = e.try_into().map_err(|_| extent_overflow(extents))?;
        acc = acc.checked_mul(e).ok_or_else(|| extent_overflow(extents))?;
    }
    Ok(acc)
}

/// Overflow-checked byte size of `elems` f64 cells (coded `E0807` when the
/// ×8 does not fit `u64`).
pub fn elems_to_bytes(elems: usize) -> fsc_ir::Result<u64> {
    (elems as u64)
        .checked_mul(8)
        .ok_or_else(|| extent_overflow(&[elems as i64]))
}

fn extent_overflow(extents: &[i64]) -> IrError {
    IrError::from_diagnostic(
        Diagnostic::error(
            codes::EXTENT_OVERFLOW,
            format!("extent arithmetic overflow computing the size of shape {extents:?}"),
        )
        .note("element counts must fit the address space; the request is rejected, not wrapped"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_reserves_releases_and_tracks_peak() {
        let b = MemoryBudget::limited(100);
        assert_eq!(b.limit(), Some(100));
        b.try_reserve(60).unwrap();
        b.try_reserve(40).unwrap();
        assert_eq!(b.used(), 100);
        let err = b.try_reserve(1).unwrap_err();
        assert!(err.diagnostics[0].render().contains("E0805"), "{err}");
        b.release(70);
        assert_eq!(b.used(), 30);
        b.try_reserve(50).unwrap();
        assert_eq!(b.used(), 80);
        assert_eq!(b.peak(), 100, "peak is the monotone high-water mark");
    }

    #[test]
    fn release_saturates_instead_of_underflowing() {
        let b = MemoryBudget::limited(10);
        b.try_reserve(5).unwrap();
        b.release(1_000);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn unlimited_ledger_still_accounts() {
        let b = MemoryBudget::unlimited();
        assert_eq!(b.limit(), None);
        b.try_reserve(1 << 40).unwrap();
        assert_eq!(b.peak(), 1 << 40);
    }

    #[test]
    fn concurrent_reservers_never_jointly_overshoot() {
        let b = MemoryBudget::limited(1_000);
        let granted: u64 = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let b = &b;
                    s.spawn(move || {
                        let mut got = 0u64;
                        for _ in 0..100 {
                            if b.try_reserve(7).is_ok() {
                                got += 7;
                            }
                        }
                        got
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(granted, b.used());
        assert!(b.used() <= 1_000);
        assert!(b.peak() <= 1_000);
    }

    #[test]
    fn checked_elems_matches_small_products() {
        assert_eq!(checked_elems(&[3, 4, 5]).unwrap(), 60);
        assert_eq!(checked_elems(&[]).unwrap(), 1);
        assert_eq!(
            checked_elems(&[7, -2, 9]).unwrap(),
            0,
            "negatives clamp to 0"
        );
    }

    /// Hand-rolled property test (no external proptest crate): a seeded
    /// xorshift64* stream generates extent vectors mixing small values with
    /// near-`usize::MAX` ones; a u128 oracle decides whether the product
    /// overflows, and `checked_elems` must agree — flagging coded E0807 on
    /// overflow and never panicking or wrapping.
    #[test]
    fn prop_checked_elems_agrees_with_wide_oracle_near_usize_max() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for case in 0..2_000 {
            let ndims = (next() % 4 + 1) as usize;
            let extents: Vec<i64> = (0..ndims)
                .map(|_| match next() % 5 {
                    0 => i64::MAX - (next() % 7) as i64,
                    1 => (u32::MAX as i64) + (next() % 1_000) as i64,
                    2 => -((next() % 100) as i64),
                    3 => (next() % 65_536) as i64,
                    _ => (next() % 7) as i64,
                })
                .collect();
            let oracle = extents
                .iter()
                .map(|&e| e.max(0) as u128)
                .try_fold(1u128, |acc, e| {
                    let p = acc.checked_mul(e)?;
                    (p <= usize::MAX as u128).then_some(p)
                });
            match (checked_elems(&extents), oracle) {
                (Ok(got), Some(want)) => {
                    assert_eq!(got as u128, want, "case {case}: {extents:?}")
                }
                (Err(e), None) => {
                    assert!(
                        e.diagnostics[0].render().contains("E0807"),
                        "case {case}: overflow must carry E0807, got {e}"
                    );
                }
                (got, want) => panic!(
                    "case {case}: checked_elems disagrees with oracle for {extents:?}: \
                     got {got:?}, oracle {want:?}"
                ),
            }
        }
    }

    #[test]
    fn estimate_total_sums_components() {
        let e = MemoryEstimate {
            base_bytes: 10,
            snapshot_bytes: 20,
            halo_bytes: 5,
            replication_bytes: 40,
            slack_bytes: 1,
        };
        assert_eq!(e.total(), 76);
        assert_eq!(MemoryEstimate::default().total(), 0);
    }
}
