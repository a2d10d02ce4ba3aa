//! # fsc-bench — harnesses regenerating every figure of the paper
//!
//! One binary per figure (`fig2` … `fig8_jit_tier`), each printing the same
//! series the paper plots, with companion tables for the ablations. Shared
//! here: wall-clock measurement helpers, throughput formatting, and the
//! ARCHER2 thread-scaling model used where this machine cannot supply the
//! hardware (the build environment exposes a single CPU core, so Figures
//! 3–4 combine *measured single-core rates* with a roofline thread model —
//! documented in EXPERIMENTS.md).

use std::time::{Duration, Instant};

pub mod figures;
pub mod fuzz;

/// Best-of-`reps` wall time of `f`.
pub fn measure<T>(reps: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed();
        if dt < best {
            best = dt;
        }
        last = Some(out);
    }
    (best, last.unwrap())
}

/// Million cells per second.
pub fn mcells_per_sec(cells: u64, seconds: f64) -> f64 {
    cells as f64 / seconds / 1e6
}

/// One row of a figure's series.
#[derive(Debug, Clone)]
pub struct Row {
    /// Series label ("Cray", "Flang only", "Stencil", ...).
    pub series: String,
    /// X value (problem size, thread count, node count).
    pub x: String,
    /// Throughput in MCells/s.
    pub mcells: f64,
}

impl Row {
    /// Convenience constructor.
    pub fn new(series: impl Into<String>, x: impl std::fmt::Display, mcells: f64) -> Self {
        Self {
            series: series.into(),
            x: x.to_string(),
            mcells,
        }
    }
}

/// Print rows as an aligned table.
pub fn print_rows(title: &str, x_label: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    println!("{:<36} {:>12} {:>14}", "series", x_label, "MCells/s");
    for r in rows {
        println!("{:<36} {:>12} {:>14.1}", r.series, r.x, r.mcells);
    }
}

/// ARCHER2-node thread-scaling model: combines a measured single-core rate
/// with a memory-bandwidth roofline and parallel-region overheads.
///
/// * one node = 2×64-core AMD Rome, 8 NUMA regions;
/// * aggregate STREAM-class bandwidth ≈ 190 GB/s, saturated once ~4 threads
///   per NUMA region are active (32 total);
/// * each parallel region pays a fork/join-style overhead growing with the
///   team size — larger for an OpenMP runtime that forks per region (the
///   hand-written baselines) than for a persistent worker pool (the
///   automatic path).
#[derive(Debug, Clone, Copy)]
pub struct ThreadScalingModel {
    /// Aggregate node memory bandwidth (B/s).
    pub node_bw: f64,
    /// Threads needed to saturate the node bandwidth.
    pub bw_saturation_threads: f64,
    /// Fixed per-parallel-region overhead (s).
    pub region_overhead: f64,
    /// Additional per-thread region overhead (s).
    pub region_overhead_per_thread: f64,
}

impl ThreadScalingModel {
    /// The hand-written OpenMP baselines (fork/join per region).
    pub fn openmp_runtime() -> Self {
        Self {
            node_bw: 190e9,
            bw_saturation_threads: 32.0,
            region_overhead: 4e-6,
            region_overhead_per_thread: 0.12e-6,
        }
    }

    /// The automatic path's persistent pool.
    pub fn persistent_pool() -> Self {
        Self {
            node_bw: 190e9,
            bw_saturation_threads: 32.0,
            region_overhead: 1.2e-6,
            region_overhead_per_thread: 0.03e-6,
        }
    }

    /// Seconds for one sweep of a workload at `threads`, given the measured
    /// single-thread time and the sweep's DRAM traffic. `bw_efficiency`
    /// de-rates the achievable bandwidth per implementation: code with
    /// poorly vectorised inner loops (fewer outstanding loads, no
    /// prefetch-friendly streams) reaches only a fraction of STREAM — the
    /// reason the paper's curves flatten at different heights.
    pub fn sweep_time(
        &self,
        threads: u32,
        serial_seconds: f64,
        bytes_moved: u64,
        regions: u32,
        bw_efficiency: f64,
    ) -> f64 {
        let t = threads.max(1) as f64;
        let compute = serial_seconds / t;
        let bw = self.node_bw
            * bw_efficiency.clamp(0.05, 1.0)
            * (t / self.bw_saturation_threads).min(1.0);
        let memory = bytes_moved as f64 / bw;
        compute.max(memory)
            + regions as f64 * (self.region_overhead + self.region_overhead_per_thread * t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_result() {
        let (d, v) = measure(3, || 41 + 1);
        assert_eq!(v, 42);
        let _ = d;
    }

    #[test]
    fn scaling_model_monotone_then_floors() {
        let m = ThreadScalingModel::openmp_runtime();
        let t1 = m.sweep_time(1, 1.0, 6_400_000_000, 1, 1.0);
        let t16 = m.sweep_time(16, 1.0, 6_400_000_000, 1, 1.0);
        let t64 = m.sweep_time(64, 1.0, 6_400_000_000, 1, 1.0);
        let t128 = m.sweep_time(128, 1.0, 6_400_000_000, 1, 1.0);
        assert!(t16 < t1);
        assert!(t64 <= t16);
        // Memory floor: 6.4 GB / 190 GB/s ≈ 34 ms.
        assert!(t128 >= 6_400_000_000f64 / 190e9 * 0.99);
        assert!((t128 - t64).abs() / t64 < 0.3);
    }

    #[test]
    fn persistent_pool_has_lower_overheads() {
        let omp = ThreadScalingModel::openmp_runtime();
        let pool = ThreadScalingModel::persistent_pool();
        let t_omp = omp.sweep_time(128, 1e-5, 1000, 2, 1.0);
        let t_pool = pool.sweep_time(128, 1e-5, 1000, 2, 1.0);
        assert!(t_pool < t_omp);
    }

    #[test]
    fn mcells_formatting() {
        assert!((mcells_per_sec(1_000_000, 1.0) - 1.0).abs() < 1e-12);
        assert!((mcells_per_sec(2_100_000_000, 0.5) - 4200.0).abs() < 1e-9);
    }
}
