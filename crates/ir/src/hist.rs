//! The workspace's one log₂-bucketed duration histogram: good enough for
//! p50/p99 without recording individual samples.
//!
//! Everything is relaxed atomics — a metric must never contend with the
//! path it is measuring. Quantiles are read as the upper bound of the
//! bucket containing the target rank, i.e. conservative to within a
//! factor of two, which is the right fidelity for a load-shedding
//! daemon's `stats` endpoint and for the jit stitch-time counter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Bucket count: bucket *i* holds samples in `[2^i, 2^(i+1))` microseconds,
/// covering ~1µs to ~2.3 hours.
const BUCKETS: usize = 43;

/// A log₂ histogram of durations (microsecond resolution).
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// A fresh, empty histogram (`const`, so it can sit in a `static`).
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, d: Duration) {
        let micros = (d.as_micros() as u64).max(1);
        let idx = (micros.ilog2() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_micros.load(Ordering::Relaxed) as f64 / n as f64 / 1000.0
    }

    /// The `q`-quantile (0.0–1.0) in milliseconds: the upper bound of the
    /// bucket containing the target rank. 0 when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return (1u64 << (i + 1)) as f64 / 1000.0;
            }
        }
        (1u64 << BUCKETS) as f64 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_walk_buckets_conservatively() {
        let h = Log2Histogram::new();
        for _ in 0..99 {
            h.record(Duration::from_micros(100)); // bucket [64, 128)
        }
        h.record(Duration::from_millis(50)); // bucket [32768, 65536)
        assert_eq!(h.count(), 100);
        // p50 lands in the 100µs bucket: upper bound 128µs = 0.128ms.
        assert_eq!(h.quantile_ms(0.5), 0.128);
        // p99 still in the fast bucket; p100 reaches the slow sample.
        assert_eq!(h.quantile_ms(0.99), 0.128);
        assert_eq!(h.quantile_ms(1.0), 65.536);
        // Out-of-range quantiles clamp instead of walking off the end.
        assert_eq!(h.quantile_ms(7.0), 65.536);
        assert_eq!(h.quantile_ms(-1.0), 0.128);
        assert!(h.mean_ms() > 0.0);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Log2Histogram::new();
        assert_eq!(h.quantile_ms(0.5), 0.0);
        assert_eq!(h.mean_ms(), 0.0);
    }

    #[test]
    fn sub_microsecond_and_huge_samples_clamp() {
        let h = Log2Histogram::new();
        h.record(Duration::from_nanos(10));
        h.record(Duration::from_secs(100_000));
        assert_eq!(h.count(), 2);
        assert!(h.quantile_ms(1.0) > 0.0);
    }
}
