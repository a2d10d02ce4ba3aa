//! # fsc-gpusim — an analytic Nvidia V100 performance model
//!
//! The paper's GPU experiments (Figure 5) ran on Cirrus V100-SXM2-16GB
//! cards; no GPU exists in this reproduction environment, so kernels execute
//! on the CPU for *correctness* while this crate charges *modeled* time.
//! The substitution preserves what Figure 5 actually measures, because that
//! figure's story is entirely about **data movement strategy**:
//!
//! * `gpu.host_register` (the paper's initial approach) demand-pages every
//!   registered buffer across PCIe on every kernel launch — "allocating
//!   data on the host and moving it across on demand, without effective
//!   caching" (§4.3);
//! * the bespoke explicit-management pass keeps buffers resident on the
//!   device, paying one transfer per buffer generation;
//! * hand-written OpenACC with unified memory sits in between: resident
//!   data, but "numerous data access stalls" from the page-fault-driven
//!   migration engine.
//!
//! The kernel execution model is a roofline: time = max(compute, memory)
//! with a thread-block occupancy factor, so the Listing-4 tile-size
//! sensitivity is reproducible (`fig5`'s companion table sweeps it).

use std::collections::HashMap;

/// Static V100-SXM2-16GB machine parameters.
#[derive(Debug, Clone, Copy)]
pub struct V100Model {
    /// Peak FP64 throughput (FLOP/s).
    pub fp64_flops: f64,
    /// Device memory bandwidth (B/s), de-rated to achievable STREAM level.
    pub mem_bw: f64,
    /// Host↔device PCIe bandwidth (B/s), effective.
    pub pcie_bw: f64,
    /// Fixed kernel launch overhead (s).
    pub launch_overhead: f64,
    /// Page size used by the unified-memory migration engine (bytes).
    pub page_size: u64,
    /// Cost of one demand page fault + migration setup (s).
    pub page_fault_cost: f64,
    /// Number of page faults the migration engine overlaps.
    pub fault_concurrency: f64,
    /// Fraction of pages that stall an access in unified-memory mode once
    /// data is resident (re-validation traffic).
    pub unified_stall_fraction: f64,
}

impl Default for V100Model {
    fn default() -> Self {
        Self {
            fp64_flops: 7.0e12,
            mem_bw: 790e9,
            pcie_bw: 11e9,
            launch_overhead: 6e-6,
            page_size: 64 * 1024,
            page_fault_cost: 25e-6,
            fault_concurrency: 8.0,
            unified_stall_fraction: 0.04,
        }
    }
}

/// Work of one kernel invocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelLoad {
    /// Grid cells processed.
    pub cells: u64,
    /// FP operations.
    pub flops: u64,
    /// Bytes read from device memory.
    pub bytes_read: u64,
    /// Bytes written to device memory.
    pub bytes_written: u64,
}

/// Data-movement strategy being modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// `gpu.host_register` demand paging (the paper's initial approach).
    HostRegister,
    /// Explicit device residency (the paper's optimised pass).
    Explicit,
    /// CUDA unified/managed memory (the OpenACC baseline).
    UnifiedManaged,
}

/// How a launch touches one buffer.
#[derive(Debug, Clone, Copy)]
pub struct BufferUse {
    /// Caller-chosen stable id.
    pub id: u64,
    /// Buffer size in bytes.
    pub bytes: u64,
    /// Read by the kernel.
    pub read: bool,
    /// Written by the kernel.
    pub written: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct BufState {
    resident: bool,
    /// Device copy is newer than the host's.
    device_dirty: bool,
    /// Host copy is newer than the device's.
    host_dirty: bool,
}

/// Transfer/time accounting for one modeled GPU run.
#[derive(Debug, Clone, Copy, Default)]
pub struct GpuCounters {
    /// Kernel launches.
    pub launches: u64,
    /// Host→device bytes moved.
    pub h2d_bytes: u64,
    /// Device→host bytes moved.
    pub d2h_bytes: u64,
    /// Page faults serviced.
    pub page_faults: u64,
    /// Seconds spent in kernels.
    pub kernel_seconds: f64,
    /// Seconds spent moving data.
    pub transfer_seconds: f64,
}

/// A modeled GPU execution session: owns the residency ledger and the
/// accumulated timeline.
#[derive(Debug)]
pub struct GpuSession {
    /// Machine parameters.
    pub model: V100Model,
    ledger: HashMap<u64, BufState>,
    /// Accounting.
    pub counters: GpuCounters,
}

impl GpuSession {
    /// New session with the given machine model.
    pub fn new(model: V100Model) -> Self {
        Self {
            model,
            ledger: HashMap::new(),
            counters: GpuCounters::default(),
        }
    }

    /// Total modeled seconds so far.
    pub fn elapsed(&self) -> f64 {
        self.counters.kernel_seconds + self.counters.transfer_seconds
    }

    /// Occupancy factor of a thread-block shape: blocks need enough warps
    /// to hide latency; tiny blocks crater throughput (the Listing 4 tile
    /// sensitivity).
    pub fn block_efficiency(&self, block: [i64; 3]) -> f64 {
        let threads = (block[0] * block[1] * block[2]).max(1) as f64;
        // 128 threads (4 warps) per block reaches full throughput; below
        // that, throughput degrades proportionally to issued warps, with a
        // floor for fully serial launches. Above 1024 is invalid on V100.
        if threads > 1024.0 {
            return 0.0;
        }
        (threads / 128.0).clamp(1.0 / 128.0, 1.0)
    }

    /// Pure kernel execution time (roofline + launch overhead).
    pub fn kernel_time(&self, load: KernelLoad, block: [i64; 3]) -> f64 {
        let eff = self.block_efficiency(block);
        let t_compute = load.flops as f64 / (self.model.fp64_flops * eff);
        let t_mem = (load.bytes_read + load.bytes_written) as f64 / (self.model.mem_bw * eff);
        t_compute.max(t_mem) + self.model.launch_overhead
    }

    /// Model one kernel launch under `strategy`, charging transfers
    /// according to the residency ledger. Returns seconds charged for this
    /// launch (also accumulated in the session).
    pub fn launch(
        &mut self,
        load: KernelLoad,
        block: [i64; 3],
        strategy: Strategy,
        buffers: &[BufferUse],
    ) -> f64 {
        if self.block_efficiency(block) == 0.0 {
            // The paper notes some tile sizes "can result in runtime
            // failures on the GPU" — block > 1024 threads is one of them.
            // Model it as an effectively unusable configuration.
            return f64::INFINITY;
        }
        let mut transfer = 0.0f64;
        for b in buffers {
            let state = self.ledger.entry(b.id).or_default();
            match strategy {
                Strategy::HostRegister => {
                    // No caching: every launch re-migrates what it touches,
                    // page by page, and writes fault back eagerly.
                    let mut moved = 0u64;
                    if b.read {
                        moved += b.bytes;
                        self.counters.h2d_bytes += b.bytes;
                    }
                    if b.written {
                        moved += b.bytes;
                        self.counters.d2h_bytes += b.bytes;
                    }
                    let pages = moved.div_ceil(self.model.page_size);
                    self.counters.page_faults += pages;
                    transfer += moved as f64 / self.model.pcie_bw
                        + pages as f64 * self.model.page_fault_cost / self.model.fault_concurrency;
                }
                Strategy::Explicit => {
                    // Ensure-valid: pay PCIe only when the host copy is
                    // newer or the buffer was never uploaded.
                    if b.read && (!state.resident || state.host_dirty) {
                        transfer += b.bytes as f64 / self.model.pcie_bw;
                        self.counters.h2d_bytes += b.bytes;
                    }
                    if b.read || b.written {
                        state.resident = true;
                        state.host_dirty = false;
                    }
                    if b.written {
                        state.device_dirty = true;
                    }
                }
                Strategy::UnifiedManaged => {
                    // First touch migrates; afterwards a small fraction of
                    // pages stall per launch (driver re-validation).
                    let pages = b.bytes.div_ceil(self.model.page_size);
                    if !state.resident {
                        transfer += b.bytes as f64 / self.model.pcie_bw
                            + pages as f64 * self.model.page_fault_cost
                                / self.model.fault_concurrency;
                        self.counters.h2d_bytes += b.bytes;
                        self.counters.page_faults += pages;
                        state.resident = true;
                    } else {
                        let stalled = (pages as f64 * self.model.unified_stall_fraction).ceil();
                        self.counters.page_faults += stalled as u64;
                        transfer +=
                            stalled * self.model.page_fault_cost / self.model.fault_concurrency;
                    }
                    if b.written {
                        state.device_dirty = true;
                    }
                }
            }
        }
        let kt = self.kernel_time(load, block);
        self.counters.launches += 1;
        self.counters.kernel_seconds += kt;
        self.counters.transfer_seconds += transfer;
        kt + transfer
    }

    /// The host touches a buffer (verification read / program end): charge
    /// the lazy device→host migration if the device copy is newer.
    pub fn host_access(&mut self, id: u64, bytes: u64) -> f64 {
        let state = self.ledger.entry(id).or_default();
        if state.device_dirty {
            state.device_dirty = false;
            state.host_dirty = false;
            let t = bytes as f64 / self.model.pcie_bw;
            self.counters.d2h_bytes += bytes;
            self.counters.transfer_seconds += t;
            t
        } else {
            0.0
        }
    }

    /// The host writes a buffer: device copy becomes stale.
    pub fn host_write(&mut self, id: u64) {
        let state = self.ledger.entry(id).or_default();
        state.host_dirty = true;
        state.device_dirty = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load_1m() -> KernelLoad {
        KernelLoad {
            cells: 1_000_000,
            flops: 6_000_000,
            bytes_read: 48_000_000,
            bytes_written: 8_000_000,
        }
    }

    fn buf(id: u64, read: bool, written: bool) -> BufferUse {
        BufferUse {
            id,
            bytes: 8_000_000,
            read,
            written,
        }
    }

    #[test]
    fn kernel_time_is_roofline() {
        let s = GpuSession::new(V100Model::default());
        let t = s.kernel_time(load_1m(), [32, 32, 1]);
        // Memory bound: 56 MB / 790 GB/s ≈ 71 µs (plus launch overhead).
        assert!(t > 60e-6 && t < 120e-6, "t = {t}");
    }

    #[test]
    fn tiny_blocks_are_slow_and_huge_blocks_fail() {
        let mut s = GpuSession::new(V100Model::default());
        let t_good = s.kernel_time(load_1m(), [32, 32, 1]);
        let t_tiny = s.kernel_time(load_1m(), [1, 1, 1]);
        assert!(t_tiny > 20.0 * t_good, "tiny {t_tiny} vs good {t_good}");
        let t_bad = s.launch(load_1m(), [64, 32, 1], Strategy::Explicit, &[]);
        assert!(t_bad.is_infinite(), "2048-thread blocks cannot launch");
    }

    #[test]
    fn explicit_strategy_amortises_transfers() {
        let mut s = GpuSession::new(V100Model::default());
        let buffers = [buf(1, true, false), buf(2, false, true)];
        let t_first = s.launch(load_1m(), [32, 32, 1], Strategy::Explicit, &buffers);
        let t_second = s.launch(load_1m(), [32, 32, 1], Strategy::Explicit, &buffers);
        assert!(t_first > t_second, "first launch pays the upload");
        // Steady-state: no transfer at all.
        let t_third = s.launch(load_1m(), [32, 32, 1], Strategy::Explicit, &buffers);
        assert!((t_second - t_third).abs() < 1e-12);
        assert_eq!(s.counters.h2d_bytes, 8_000_000);
    }

    #[test]
    fn host_register_pays_every_launch() {
        let mut s = GpuSession::new(V100Model::default());
        let buffers = [buf(1, true, false), buf(2, false, true)];
        let t1 = s.launch(load_1m(), [32, 32, 1], Strategy::HostRegister, &buffers);
        let t2 = s.launch(load_1m(), [32, 32, 1], Strategy::HostRegister, &buffers);
        assert!((t1 - t2).abs() < 1e-12, "no caching: identical cost");
        assert_eq!(s.counters.h2d_bytes, 16_000_000);
        assert_eq!(s.counters.d2h_bytes, 16_000_000);
        // And it is far slower than explicit steady state.
        let mut e = GpuSession::new(V100Model::default());
        e.launch(load_1m(), [32, 32, 1], Strategy::Explicit, &buffers);
        let t_explicit = e.launch(load_1m(), [32, 32, 1], Strategy::Explicit, &buffers);
        assert!(t1 > 5.0 * t_explicit, "{t1} vs {t_explicit}");
    }

    #[test]
    fn unified_sits_between_host_register_and_explicit() {
        let buffers = [buf(1, true, false), buf(2, false, true)];
        let steady = |strategy: Strategy| {
            let mut s = GpuSession::new(V100Model::default());
            s.launch(load_1m(), [32, 32, 1], strategy, &buffers);
            s.launch(load_1m(), [32, 32, 1], strategy, &buffers)
        };
        let hr = steady(Strategy::HostRegister);
        let um = steady(Strategy::UnifiedManaged);
        let ex = steady(Strategy::Explicit);
        assert!(hr > um, "host_register {hr} should exceed unified {um}");
        assert!(um > ex, "unified {um} should exceed explicit {ex}");
    }

    #[test]
    fn lazy_d2h_charged_once_on_host_access() {
        let mut s = GpuSession::new(V100Model::default());
        let buffers = [buf(7, false, true)];
        s.launch(load_1m(), [32, 32, 1], Strategy::Explicit, &buffers);
        let t1 = s.host_access(7, 8_000_000);
        assert!(t1 > 0.0);
        let t2 = s.host_access(7, 8_000_000);
        assert_eq!(t2, 0.0, "clean copy: no second transfer");
    }

    #[test]
    fn host_write_invalidates_device() {
        let mut s = GpuSession::new(V100Model::default());
        let buffers = [buf(3, true, false)];
        s.launch(load_1m(), [32, 32, 1], Strategy::Explicit, &buffers);
        s.host_write(3);
        let t = s.launch(load_1m(), [32, 32, 1], Strategy::Explicit, &buffers);
        // Upload paid again.
        assert!(t > s.kernel_time(load_1m(), [32, 32, 1]));
        assert_eq!(s.counters.h2d_bytes, 16_000_000);
    }
}
