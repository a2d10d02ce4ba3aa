//! # fsc-mpisim — a distributed-memory (MPI) simulation substrate
//!
//! The paper's Figure 6 runs on up to 8192 cores of ARCHER2 (Cray-EX,
//! Slingshot interconnect). This crate substitutes two pieces:
//!
//! * [`runtime`] — a **functional** rank runtime: every rank is a thread
//!   with point-to-point message channels, `send`/`recv`/`barrier`, used by
//!   the hand-MPI baseline and by tests to validate halo-exchange logic
//!   end-to-end at small scale;
//! * [`CostModel`] — a **Slingshot-like analytic model** charging latency +
//!   bandwidth for halo exchanges, with the per-node NIC shared by the 128
//!   ranks of a node. Figure 6's scaling curves come from real per-rank
//!   compute on scaled-down grids plus this model's communication time.

//! * [`fault`] / [`resilient`] — a **fault-injection and recovery layer**:
//!   deterministic seeded fault plans (drop / duplicate / corrupt / delay /
//!   reorder / rank crash) and one self-healing protocol
//!   ([`resilient::Transport`]: sequenced + acked envelopes, bounded retry,
//!   checkpoint/restore-and-replay) with every blocking wait
//!   deadline-protected and deadlock surfaced as a structured
//!   [`MpiSimError`]. It drives either of two [`resilient::Link`]s: a rank
//!   thread of [`runtime`], or a task of the work-stealing [`coop`]
//!   scheduler.

pub mod coop;
mod error;
pub mod fault;
pub mod resilient;
pub mod runtime;

pub use error::{BlockedRank, MpiSimError};

/// Cartesian process-grid helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessGrid {
    /// Ranks along each decomposed dimension.
    pub shape: Vec<i64>,
}

impl ProcessGrid {
    /// New grid; total ranks is the product of `shape`. Panics on an empty
    /// shape or a non-positive extent (a zero-rank dimension cannot index).
    pub fn new(shape: Vec<i64>) -> Self {
        assert!(!shape.is_empty(), "process grid shape must be non-empty");
        assert!(
            shape.iter().all(|&s| s > 0),
            "process grid extents must be positive, got {shape:?}"
        );
        Self { shape }
    }

    /// Total ranks.
    pub fn size(&self) -> i64 {
        self.shape.iter().product()
    }

    /// Rank → grid coordinates (first grid dim fastest).
    pub fn coords(&self, rank: i64) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.shape.len());
        let mut r = rank;
        for &s in &self.shape {
            out.push(r % s);
            r /= s;
        }
        out
    }

    /// Grid coordinates → rank.
    pub fn rank_of(&self, coords: &[i64]) -> i64 {
        let mut rank = 0;
        let mut mul = 1;
        for (c, s) in coords.iter().zip(&self.shape) {
            rank += c * mul;
            mul *= s;
        }
        rank
    }

    /// The neighbour of `rank` along grid dim `dim` in `direction` (±1);
    /// `None` at the domain boundary (non-periodic).
    pub fn neighbor(&self, rank: i64, dim: usize, direction: i64) -> Option<i64> {
        let mut coords = self.coords(rank);
        coords[dim] += direction;
        if coords[dim] < 0 || coords[dim] >= self.shape[dim] {
            None
        } else {
            Some(self.rank_of(&coords))
        }
    }

    /// Partition `[lb, ub)` into `parts` near-equal contiguous ranges and
    /// return the `index`-th. When `parts` exceeds the range length, the
    /// trailing sub-ranges are empty but the parts still cover `[lb, ub)`
    /// exactly. Panics on `parts <= 0` or an out-of-range `index`.
    pub fn partition(lb: i64, ub: i64, parts: i64, index: i64) -> (i64, i64) {
        assert!(parts > 0, "partition requires parts > 0, got {parts}");
        assert!(
            (0..parts).contains(&index),
            "partition index {index} outside [0, {parts})"
        );
        let total = (ub - lb).max(0);
        let base = total / parts;
        let extra = total % parts;
        let start = lb + index * base + index.min(extra);
        let len = base + i64::from(index < extra);
        (start, start + len)
    }
}

/// Slingshot-like interconnect + node parameters (ARCHER2 flavoured).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Point-to-point small-message latency (s).
    pub latency: f64,
    /// Per-NIC bandwidth, one direction (B/s). ARCHER2: 2×100 Gbps links.
    pub nic_bw: f64,
    /// NICs per node.
    pub nics_per_node: f64,
    /// Intra-node (shared-memory) bandwidth per rank pair (B/s).
    pub shm_bw: f64,
    /// MPI ranks per node (ARCHER2: 128).
    pub ranks_per_node: u32,
    /// Per-message software overhead (s).
    pub sw_overhead: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            latency: 1.8e-6,
            nic_bw: 12.5e9,
            nics_per_node: 2.0,
            shm_bw: 8e9,
            ranks_per_node: 128,
            sw_overhead: 0.4e-6,
        }
    }
}

impl CostModel {
    /// Time for one halo-exchange phase where every rank exchanges
    /// `msg_bytes` with each of `neighbors` neighbours, `offnode_fraction`
    /// of which live on another node. All ranks proceed concurrently; the
    /// phase ends when the slowest class of message completes.
    pub fn halo_exchange_time(
        &self,
        msg_bytes: u64,
        neighbors: usize,
        offnode_fraction: f64,
    ) -> f64 {
        if neighbors == 0 || msg_bytes == 0 {
            return 0.0;
        }
        let offnode_fraction = offnode_fraction.clamp(0.0, 1.0);
        // Off-node messages share the node's NICs: with R ranks each sending
        // f*n messages off node, per-rank effective bandwidth shrinks.
        let offnode_msgs_per_node =
            self.ranks_per_node as f64 * neighbors as f64 * offnode_fraction;
        let node_bw = self.nic_bw * self.nics_per_node;
        let per_msg_bw_off = if offnode_msgs_per_node > 0.0 {
            (node_bw / offnode_msgs_per_node).min(self.nic_bw)
        } else {
            f64::INFINITY
        };
        let t_off = if offnode_fraction > 0.0 {
            self.latency + self.sw_overhead + msg_bytes as f64 / per_msg_bw_off
        } else {
            0.0
        };
        let t_on = if offnode_fraction < 1.0 {
            self.latency / 4.0 + self.sw_overhead + msg_bytes as f64 / self.shm_bw
        } else {
            0.0
        };
        t_off.max(t_on)
    }

    /// Modeled time of the resilience protocol's extra traffic and
    /// recovery work, so fig6-style curves can show what fault tolerance
    /// costs: each ack is a latency-bound small message, each
    /// retransmission re-pays the full data-message cost, and crash
    /// recovery charges the checkpoint-to-crash compute that was thrown
    /// away (`wasted_seconds`) plus the replayed deliveries served from the
    /// local log (charged at shared-memory speed — they never cross the
    /// wire again).
    pub fn resilience_time(&self, stats: &fault::FaultStats, msg_bytes: u64) -> f64 {
        let ack = self.latency + self.sw_overhead;
        let data = self.latency + self.sw_overhead + msg_bytes as f64 / self.nic_bw;
        let replayed_local = msg_bytes as f64 / self.shm_bw + self.sw_overhead;
        stats.acks_sent as f64 * ack
            + stats.retries as f64 * data
            + stats.replayed_iterations as f64 * replayed_local
            + stats.wasted_seconds
    }

    /// Fraction of a rank's neighbours in a `grid` that are off-node, when
    /// ranks are packed onto nodes in rank order.
    pub fn offnode_fraction(&self, grid: &ProcessGrid) -> f64 {
        let total = grid.size();
        if total <= self.ranks_per_node as i64 {
            return 0.0;
        }
        // Neighbours along the first grid dimension are (mostly) rank±1 —
        // on-node; higher dimensions stride by shape[0].. — off-node once
        // the stride exceeds the node size.
        let mut off = 0usize;
        let mut all = 0usize;
        let mut stride = 1i64;
        for &s in &grid.shape {
            if s > 1 {
                all += 2;
                if stride >= self.ranks_per_node as i64 {
                    off += 2;
                }
            }
            stride *= s;
        }
        if all == 0 {
            0.0
        } else {
            off as f64 / all as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_coords_roundtrip() {
        let g = ProcessGrid::new(vec![4, 2]);
        assert_eq!(g.size(), 8);
        for r in 0..8 {
            assert_eq!(g.rank_of(&g.coords(r)), r);
        }
        assert_eq!(g.coords(5), vec![1, 1]);
    }

    #[test]
    fn neighbors_respect_boundaries() {
        let g = ProcessGrid::new(vec![4, 2]);
        assert_eq!(g.neighbor(0, 0, -1), None);
        assert_eq!(g.neighbor(0, 0, 1), Some(1));
        assert_eq!(g.neighbor(0, 1, 1), Some(4));
        assert_eq!(g.neighbor(7, 1, 1), None);
        assert_eq!(g.neighbor(5, 0, -1), Some(4));
    }

    #[test]
    fn partition_covers_range_exactly() {
        let mut covered = Vec::new();
        for i in 0..5 {
            let (lo, hi) = ProcessGrid::partition(1, 18, 5, i);
            covered.extend(lo..hi);
        }
        assert_eq!(covered, (1..18).collect::<Vec<_>>());
    }

    #[test]
    fn partition_with_more_parts_than_range_still_covers_exactly() {
        // 3-element range over 7 parts: four parts must be empty, and the
        // non-empty ones must cover [5, 8) exactly, in order.
        let mut covered = Vec::new();
        let mut empties = 0;
        for i in 0..7 {
            let (lo, hi) = ProcessGrid::partition(5, 8, 7, i);
            assert!(lo <= hi, "sub-range must not be inverted");
            assert!((5..=8).contains(&lo) && (5..=8).contains(&hi));
            if lo == hi {
                empties += 1;
            }
            covered.extend(lo..hi);
        }
        assert_eq!(covered, vec![5, 6, 7]);
        assert_eq!(empties, 4);
        // Degenerate empty range: every part is empty but well-formed.
        for i in 0..4 {
            let (lo, hi) = ProcessGrid::partition(9, 9, 4, i);
            assert_eq!(lo, hi);
        }
    }

    #[test]
    #[should_panic(expected = "parts > 0")]
    fn partition_rejects_zero_parts() {
        ProcessGrid::partition(0, 10, 0, 0);
    }

    #[test]
    #[should_panic(expected = "parts > 0")]
    fn partition_rejects_negative_parts() {
        ProcessGrid::partition(0, 10, -3, 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn partition_rejects_out_of_range_index() {
        ProcessGrid::partition(0, 10, 2, 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn process_grid_rejects_zero_extent() {
        ProcessGrid::new(vec![4, 0]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn process_grid_rejects_empty_shape() {
        ProcessGrid::new(vec![]);
    }

    #[test]
    fn partition_is_balanced() {
        for i in 0..7 {
            let (lo, hi) = ProcessGrid::partition(0, 100, 7, i);
            let len = hi - lo;
            assert!((14..=15).contains(&len), "len {len}");
        }
    }

    #[test]
    fn exchange_time_scales_with_bytes_and_latency_floor() {
        let m = CostModel::default();
        let small = m.halo_exchange_time(8, 2, 1.0);
        let big = m.halo_exchange_time(8_000_000, 2, 1.0);
        assert!(small >= m.latency);
        assert!(big > 100.0 * small);
        assert_eq!(m.halo_exchange_time(0, 2, 1.0), 0.0);
        assert_eq!(m.halo_exchange_time(8, 0, 1.0), 0.0);
    }

    #[test]
    fn offnode_messages_cost_more_than_shared_memory() {
        let m = CostModel::default();
        let on = m.halo_exchange_time(1_000_000, 2, 0.0);
        let off = m.halo_exchange_time(1_000_000, 2, 1.0);
        assert!(off > on, "off {off} vs on {on}");
    }

    #[test]
    fn offnode_fraction_grows_with_grid() {
        let m = CostModel::default();
        // 64 ranks fit in one node: all on-node.
        assert_eq!(m.offnode_fraction(&ProcessGrid::new(vec![8, 8])), 0.0);
        // Second-dim neighbours stride by 32 ranks — still inside a
        // 128-rank node.
        assert_eq!(m.offnode_fraction(&ProcessGrid::new(vec![32, 32])), 0.0);
        // Stride 256 crosses nodes: half of the neighbour links off-node.
        let f = m.offnode_fraction(&ProcessGrid::new(vec![256, 32]));
        assert!(f > 0.0 && f <= 1.0, "f = {f}");
    }
}
