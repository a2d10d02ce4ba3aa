//! Distributed executor: real rank bodies over the simulated MPI substrate.
//!
//! The legacy distributed path executed a kernel once on the calling thread
//! and *charged* a cost-model estimate of the per-rank time. This module
//! replaces that with genuine distributed execution: each view is
//! partitioned over the [`ProcessGrid`] (honouring the kernel's
//! `dmp_decomposition`), every rank runs the compiled kernel over its owned
//! block, and halos move as real face pack → send → recv → unpack traffic.
//! The per-rank schedule mirrors the lowered IR (`dmp-to-mpi` +
//! `mpi-overlap-halos`):
//!
//! ```text
//! post-recv → post-send → compute interior → waitall → compute boundary
//! ```
//!
//! with the blocking variant (overlap pass disabled) receiving every face
//! before computing the whole owned block.
//!
//! **One rank task, two links.** The per-rank schedule exists once, as the
//! poll-form `DistTask` over the resilient [`Transport`]
//! (`fsc_mpisim::resilient`). [`DistMode::Coop`] (the default) runs every
//! rank as a resumable task on the work-stealing cooperative scheduler
//! ([`fsc_mpisim::coop::run_tasks`]): thousands of virtual ranks multiplex
//! over a fixed worker pool, parking on blocking receives instead of
//! holding a thread, with optional node-level aggregation coalescing
//! same-edge halo messages between rank groups into single envelopes.
//! [`DistMode::Threads`] runs the same task to completion on one OS thread
//! per rank (`run_resilient` + `block_on`, capped at [`MAX_THREAD_RANKS`])
//! and is kept for differential testing: only the link differs, and the
//! differential proptests hold the two bit-identical.
//!
//! **Memory model — globally addressed, locally windowed.** Every rank
//! addresses each view with *global* column-major strides, so the compiled
//! bytecode's precomputed linear offsets stay valid unchanged — but it only
//! *stores* a window of whole slabs along the slowest dimension: its owned
//! range extended by the halo margin (and to the array edge where it owns
//! the first/last interior cells). The window's flat base offset rides the
//! bytecode's slab-start plumbing, so per-rank memory is `O(domain/ranks)`
//! and 4096 virtual ranks fit on one machine. Iteration coordinates become
//! slab indices by subtracting the view's lower bound
//! ([`ViewSpec::lbs`]). Unowned cells inside the window hold a NaN
//! sentinel: any read that escapes the owned-plus-halo region poisons the
//! result and fails the bit-identity oracle instead of silently passing.
//!
//! **Resident ranks.** Rank memory outlives a dispatch: a [`DistSession`]
//! per kernel keeps every rank's windows between the dispatches of one run.
//! *Scatter* (build each window in one pass — NaN ghosts around the owned
//! slabs copied in — ranks fanned out over the workers) happens when the
//! session is created, and seeds only the views a dispatch may read before
//! writing them; the others start as NaN throughout. A
//! later dispatch whose argument buffers still carry the write generations
//! ([`Memory::generation`]) the session left behind is a *resident hit* and
//! only refreshes snapshots, exchanges halos, computes and barriers.
//!
//! **Queued rank runs.** A dispatch does not run when it is issued: it is
//! queued on the session ([`queue`]), later dispatches of the kernel on the
//! same buffers join it ([`DistSession::join`]), and [`DistSession::run`]
//! runs them all as one run of every rank — one task per rank looping over
//! the dispatches' phases, one transport per rank, one spawn — when the
//! caller flushes it (another dispatch, host access to one of its buffers,
//! the end of the run). Written argument buffers stay marked stale in the
//! caller's [`Memory`] instead of being gathered; [`DistSession::gather`]
//! copies the cells the nests wrote back when something outside the
//! session needs them. After each dispatch the non-owned cells of every
//! written view are re-poisoned with the sentinel, so an exchange narrower
//! than a nest's reads still yields NaN exactly as a fresh scatter would.
//!
//! **Deep halos.** When the `mpi-deep-halos` pass stamps `halo_depth = k ≥
//! 2`, exchange widths are pre-multiplied by `k` and eligible kernels
//! (single exchanging nest, 1-D decomposition) amortise one exchange over
//! `k` consecutive dispatches: cycle 0 exchanges `k·w`-wide faces and every
//! rank redundantly computes `(k−1)·w` ghost cells past its owned block;
//! cycles `1..k` are resident hits that skip the exchange (and the
//! re-poison before them) and shrink the redundant band by `w` per cycle.
//! Ghost replicas stay bit-identical to their owners by induction (same
//! program, same inputs), so results equal `k = 1` exactly while exchange
//! rounds drop `k`-fold. A host write between dispatches changes a
//! generation, misses the session and restarts at cycle 0.
//!
//! **Fallback contract.** [`queue`] returns `Ok(false)` whenever
//! the kernel shape is outside what the executor supports (no proved halo
//! schedule, mismatched nest bounds, rank chunks thinner than the halo
//! width, oversized grids, views without lower bounds). The dispatcher then
//! falls back to the legacy modeled path — degradation, never a wrong
//! answer.

// Rank bodies run on input-derived shapes: every failure is a coded error.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::budget::MemoryBudget;
use crate::kernel::{
    dependence_window, run_nest_box_based, scalar_args, CompiledKernel, HaloSchedule, KernelArg,
    MpiExchange, Nest, Trail, ViewSource, ViewSpec,
};
use crate::value::{BufId, Memory};
use fsc_ir::diag::{codes, Diagnostic};
use fsc_ir::par::fan_out;
use fsc_ir::{IrError, Result};
use fsc_mpisim::coop::{effective_workers, run_tasks, CoopConfig, Resilient, Step};
use fsc_mpisim::fault::{CrashSpec, FaultPlan, FaultStats};
use fsc_mpisim::resilient::{run_resilient, Link, RankTask, ResilientConfig, Transport};
use fsc_mpisim::{MpiSimError, ProcessGrid};
/// Largest rank count the thread-per-rank substrate is asked to host.
pub const MAX_THREAD_RANKS: i64 = 32;

/// Largest rank count the cooperative scheduler is asked to host; larger
/// grids fall back to the modeled path.
pub const MAX_VIRTUAL_RANKS: i64 = 8192;

/// Which substrate executes the rank bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistMode {
    /// One OS thread per rank (capped at [`MAX_THREAD_RANKS`]). Kept for
    /// differential testing against the cooperative scheduler.
    Threads,
    /// Work-stealing cooperative scheduler: rank tasks multiplexed over a
    /// fixed worker pool (up to [`MAX_VIRTUAL_RANKS`] ranks).
    #[default]
    Coop,
}

impl DistMode {
    /// Stable lowercase name for attestation and stats surfaces.
    pub fn as_str(self) -> &'static str {
        match self {
            DistMode::Threads => "threads",
            DistMode::Coop => "coop",
        }
    }
}

/// Execution knobs for one distributed dispatch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DistOptions {
    /// Substrate selection (default: cooperative scheduler).
    pub mode: DistMode,
    /// Worker threads for [`DistMode::Coop`]; `0` = available parallelism.
    pub workers: usize,
    /// Ranks per simulated node for hierarchical halo aggregation;
    /// `0` or `1` disables aggregation.
    pub node_size: usize,
}

/// Measured wall-time breakdown of one rank's run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankMetrics {
    /// All wall time spent for this rank: the rank body plus the driver's
    /// scatter and gather of its windows.
    pub wall_seconds: f64,
    /// Face pack + send posting time.
    pub pack_seconds: f64,
    /// Interior compute time while messages were in flight (overlap
    /// schedule only; zero under blocking).
    pub interior_seconds: f64,
    /// Time blocked in receives + halo unpack (the `waitall`).
    pub wait_seconds: f64,
    /// Boundary-shell compute time (overlap) or whole-block compute time
    /// (blocking).
    pub boundary_seconds: f64,
    /// Halo payload bytes this rank sent.
    pub bytes_sent: u64,
    /// Halo messages this rank sent.
    pub messages_sent: u64,
    /// Driver time building and seeding this rank's windows (session miss).
    pub scatter_seconds: f64,
    /// Driver time copying this rank's owned slabs back to the caller.
    pub gather_seconds: f64,
    /// Scatters of this rank's windows (1 on a session miss).
    pub scatters: u64,
    /// Gathers of this rank's owned slabs.
    pub gathers: u64,
    /// Dispatches of the run that found this rank's windows resident.
    pub resident_hits: u64,
}

/// Outcome of one rank run: the queued dispatches of a kernel.
#[derive(Debug, Clone)]
pub struct DistOutcome {
    /// Per-rank measured metrics, indexed by rank.
    pub per_rank: Vec<RankMetrics>,
    /// Measured makespan: the slowest rank body plus the wall time of the
    /// driver's scatter and of the gather of the session it replaced, both
    /// fanned out over the ranks.
    pub makespan_seconds: f64,
    /// Merged fault/recovery counters from the resilient transport.
    pub fault_stats: FaultStats,
    /// The halo schedule every exchanging nest ran under.
    pub schedule: HaloSchedule,
    /// Dispatches the run executed.
    pub dispatches: u64,
    /// Total halo bytes exchanged across all ranks.
    pub bytes_exchanged: u64,
    /// Total halo messages across all ranks.
    pub messages: u64,
    /// Substrate that executed the rank bodies.
    pub scheduler: DistMode,
    /// Worker threads used (== ranks under [`DistMode::Threads`]).
    pub workers: usize,
    /// Rank tasks popped from another worker's deque (coop only).
    pub steals: u64,
    /// Times a rank task parked on a blocking operation (coop only).
    pub parks: u64,
    /// User-level halo messages the transport carried.
    pub logical_messages: u64,
    /// Physical envelopes those became after node-level aggregation
    /// (== `logical_messages` when aggregation is off or under threads).
    pub physical_messages: u64,
    /// Payload bytes of user-level halo messages.
    pub logical_bytes: u64,
    /// Wire bytes including per-message and per-envelope headers.
    pub physical_bytes: u64,
    /// Ghost-layer depth the kernel ran under (1 = classic halos).
    pub halo_depth: u32,
    /// Exchange rounds the run performed: one per exchanging nest and
    /// dispatch, none on communication-free deep-halo cycles.
    pub exchange_rounds: u64,
}

impl DistOutcome {
    /// Fraction of halo latency hidden behind interior compute:
    /// `Σ interior / (Σ interior + Σ wait)` over all ranks. Zero for the
    /// blocking schedule (no compute overlaps the wait).
    pub fn overlap_fraction(&self) -> f64 {
        let interior: f64 = self.per_rank.iter().map(|r| r.interior_seconds).sum();
        let wait: f64 = self.per_rank.iter().map(|r| r.wait_seconds).sum();
        if interior + wait > 0.0 {
            interior / (interior + wait)
        } else {
            0.0
        }
    }

    /// Logical-to-physical message ratio of the aggregating transport
    /// (1.0 when aggregation is off or nothing was sent).
    pub fn aggregation_ratio(&self) -> f64 {
        if self.physical_messages == 0 {
            1.0
        } else {
            self.logical_messages as f64 / self.physical_messages as f64
        }
    }
}

// --------------------------------------------------------------------------
// Region arithmetic (shared with the proptests)
// --------------------------------------------------------------------------

/// Cell count of a per-dimension half-open region.
pub fn region_cells(region: &[(i64, i64)]) -> usize {
    region
        .iter()
        .map(|&(lb, ub)| (ub - lb).max(0) as usize)
        .product()
}

/// Visit `region` in canonical order (dimension 0 fastest) as runs of
/// consecutive cells: `f(lin, len)` gets the *global* column-major linear
/// index of the run's first cell. A unit-stride dimension 0 makes every row
/// one run (halo faces and slabs move with `copy_from_slice`), and each next
/// dimension whose stride is the run so far joins it, so a region of whole
/// planes is one run; any other layout degrades to one run per cell.
fn for_each_run(strides: &[i64], region: &[(i64, i64)], mut f: impl FnMut(usize, usize)) {
    if region_cells(region) == 0 {
        return;
    }
    let (mut run, mut inner) = (1i64, 0);
    while inner < region.len() && strides[inner] == run {
        run *= region[inner].1 - region[inner].0;
        inner += 1;
    }
    let mut idx: Vec<i64> = region.iter().map(|&(lb, _)| lb).collect();
    loop {
        let lin: i64 = idx.iter().zip(strides).map(|(i, s)| i * s).sum();
        f(lin as usize, run as usize);
        let mut d = inner;
        loop {
            if d == region.len() {
                return;
            }
            idx[d] += 1;
            if idx[d] < region[d].1 {
                break;
            }
            idx[d] = region[d].0;
            d += 1;
        }
    }
}

/// Gather `region` of a column-major buffer into a dense face payload
/// (dimension 0 fastest — the wire format of every halo message). The
/// buffer may be *windowed*: `base` is the flat offset of its origin within
/// the global array (0 for a full-size buffer).
pub fn pack_region_based(
    data: &[f64],
    strides: &[i64],
    region: &[(i64, i64)],
    base: i64,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(region_cells(region));
    for_each_run(strides, region, |lin, len| {
        let at = lin - base as usize;
        out.extend_from_slice(&data[at..at + len]);
    });
    out
}

/// Scatter a dense face payload back into `region` of a (possibly
/// windowed) column-major buffer: the exact inverse of
/// [`pack_region_based`] over the same region and `base`.
pub fn unpack_region_based(
    data: &mut [f64],
    strides: &[i64],
    region: &[(i64, i64)],
    base: i64,
    payload: &[f64],
) {
    let mut cursor = 0usize;
    for_each_run(strides, region, |lin, len| {
        let at = lin - base as usize;
        data[at..at + len].copy_from_slice(&payload[cursor..cursor + len]);
        cursor += len;
    });
    debug_assert_eq!(cursor, payload.len(), "payload size mismatch");
}

/// Copy `region` between two windows of one globally addressed array (flat
/// base offsets `dst_base` / `src_base`) with no staging payload: scatter
/// is caller → rank window, gather the reverse.
pub fn copy_region(
    dst: &mut [f64],
    dst_base: i64,
    src: &[f64],
    src_base: i64,
    strides: &[i64],
    region: &[(i64, i64)],
) {
    for_each_run(strides, region, |lin, len| {
        let (d, s) = (lin - dst_base as usize, lin - src_base as usize);
        dst[d..d + len].copy_from_slice(&src[s..s + len]);
    });
}

/// Split an owned box into a halo-independent interior plus boundary
/// shells. `shrink_lo[d]` / `shrink_hi[d]` give how many cells at each side
/// of dimension `d` depend on incoming halo data. The shells onion-peel:
/// shell `d` spans the interior range in dimensions below `d`, the peeled
/// slab in `d`, and the full owned range above `d`, so interior + shells
/// tile the owned box exactly once — including when the interior collapses
/// to empty (chunks no wider than the halo).
#[allow(clippy::type_complexity)]
pub fn split_interior_boundary(
    own: &[(i64, i64)],
    shrink_lo: &[i64],
    shrink_hi: &[i64],
) -> (Vec<(i64, i64)>, Vec<Vec<(i64, i64)>>) {
    let ndims = own.len();
    let interior: Vec<(i64, i64)> = (0..ndims)
        .map(|d| {
            let ilb = (own[d].0 + shrink_lo[d]).min(own[d].1);
            let iub = (own[d].1 - shrink_hi[d]).max(ilb);
            (ilb, iub)
        })
        .collect();
    let mut shells = Vec::new();
    for d in 0..ndims {
        if shrink_lo[d] == 0 && shrink_hi[d] == 0 {
            continue;
        }
        let frame = |slab: (i64, i64)| -> Vec<(i64, i64)> {
            (0..ndims)
                .map(|k| match k.cmp(&d) {
                    std::cmp::Ordering::Less => interior[k],
                    std::cmp::Ordering::Equal => slab,
                    std::cmp::Ordering::Greater => own[k],
                })
                .collect()
        };
        shells.push(frame((own[d].0, interior[d].0)));
        shells.push(frame((interior[d].1, own[d].1)));
    }
    (interior, shells)
}

// --------------------------------------------------------------------------
// Support analysis
// --------------------------------------------------------------------------

/// Shape-independent facts the rank bodies need, precomputed once.
struct DistSetup {
    /// Canonical partition domain: the iteration bounds shared by every
    /// *exchanging* nest. Pointwise nests may sweep a wider range (e.g. an
    /// init nest covering the Dirichlet shells); they execute on the owned
    /// chunk extended to their own bounds at the domain edges.
    bounds: Vec<(i64, i64)>,
    /// First decomposed data dimension (`ndims - glen`).
    from: usize,
    /// The schedule every exchanging nest runs under.
    schedule: HaloSchedule,
}

impl DistSetup {
    /// Decide whether the kernel fits the real distributed executor.
    /// `None` means "fall back to the modeled path".
    fn build(
        kernel: &CompiledKernel,
        grid: &ProcessGrid,
        args: &[KernelArg],
        mode: DistMode,
    ) -> Option<Self> {
        let glen = kernel.decomposition.len();
        let max_ranks = match mode {
            DistMode::Threads => MAX_THREAD_RANKS,
            DistMode::Coop => MAX_VIRTUAL_RANKS,
        };
        if glen == 0
            || kernel.decomposition != grid.shape
            || grid.size() > max_ranks
            || kernel.nests.is_empty()
        {
            return None;
        }
        // The canonical bounds come from the exchanging nests: they carry
        // the halo dependencies, so their iteration space is what must be
        // block-partitioned consistently across every phase.
        let bounds = kernel
            .nests
            .iter()
            .find(|n| !n.exchanges.is_empty())?
            .bounds
            .clone();
        let ndims = bounds.len();
        if ndims < glen {
            return None;
        }
        let from = ndims - glen;
        let mut schedule = HaloSchedule::Overlap;
        for nest in &kernel.nests {
            if nest.bounds.len() != ndims {
                return None;
            }
            if !nest.exchanges.is_empty() {
                if nest.bounds != bounds {
                    return None;
                }
                // Exchanging nests need the star-shape proof carried by the
                // `halo_schedule` attribute; without it, face messages do
                // not cover the remote dependencies (e.g. corner reads).
                match nest.halo_schedule {
                    Some(HaloSchedule::Overlap) => {}
                    Some(HaloSchedule::Blocking) => schedule = HaloSchedule::Blocking,
                    None => return None,
                }
            } else {
                // Pointwise nests may sweep a different range, covered by
                // extending the edge-owning ranks' chunks
                // ([`nest_exec_box`]); that extension only exists when the
                // canonical domain is non-empty on that dimension.
                for (d, &b) in bounds.iter().enumerate().skip(from) {
                    if nest.bounds[d] != b && b.1 <= b.0 {
                        return None;
                    }
                }
            }
            for e in &nest.exchanges {
                if e.dim < from || e.dim >= ndims || e.width <= 0 {
                    return None;
                }
            }
            for &v in &nest.out_views {
                let ViewSource::Arg(i) = kernel.views[v].source else {
                    return None;
                };
                if !matches!(args.get(i), Some(KernelArg::Buf(_))) {
                    return None;
                }
            }
        }
        // Window and region arithmetic turns iteration coordinates into
        // slab indices per view; a view whose lowering did not carry its
        // lower bounds cannot be placed.
        for view in &kernel.views {
            if view.extents.len() != ndims || view.lbs.as_ref().map(Vec::len) != Some(ndims) {
                return None;
            }
        }
        // Every non-empty rank chunk must be at least as wide as the halo,
        // or a face message would need cells its sender does not own.
        for (d, &b) in bounds.iter().enumerate().skip(from) {
            let a = d - from;
            let parts = kernel.decomposition[a];
            let maxw = kernel
                .nests
                .iter()
                .flat_map(|n| &n.exchanges)
                .filter(|e| e.dim == d)
                .map(|e| e.width)
                .max()
                .unwrap_or(0);
            if maxw == 0 {
                continue;
            }
            for idx in 0..parts {
                let (lo, hi) = ProcessGrid::partition(b.0, b.1, parts, idx);
                if hi > lo && hi - lo < maxw {
                    return None;
                }
            }
        }
        Some(Self {
            bounds,
            from,
            schedule,
        })
    }
}

/// Lower bound of `view` along dimension `d`: iteration coordinate `c`
/// addresses slab `c - lower(view, d)`. ([`DistSetup::build`] admits only
/// views that carry their bounds.)
fn lower(view: &ViewSpec, d: usize) -> i64 {
    view.lbs.as_ref().map_or(0, |l| l[d])
}

/// A rank's owned iteration box: its partition along decomposed dimensions,
/// the full bounds elsewhere.
fn owned_box(
    bounds: &[(i64, i64)],
    decomposition: &[i64],
    coords: &[i64],
    from: usize,
) -> Vec<(i64, i64)> {
    (0..bounds.len())
        .map(|d| {
            if d < from {
                bounds[d]
            } else {
                let a = d - from;
                ProcessGrid::partition(bounds[d].0, bounds[d].1, decomposition[a], coords[a])
            }
        })
        .collect()
}

/// The box one rank executes for a given nest. Exchanging nests have the
/// canonical bounds, so this is exactly the owned chunk. A pointwise nest
/// may sweep a wider range (init covering the Dirichlet shells) or a
/// narrower one: each decomposed dimension takes the owned chunk, extended
/// to the nest's own range where the rank owns the first/last canonical
/// cell, then clipped to the nest's range. The boxes stay disjoint across
/// ranks and cover the nest's full iteration space.
fn nest_exec_box(
    nest_bounds: &[(i64, i64)],
    bounds: &[(i64, i64)],
    decomposition: &[i64],
    coords: &[i64],
    from: usize,
) -> Vec<(i64, i64)> {
    (0..nest_bounds.len())
        .map(|d| {
            if d < from {
                return nest_bounds[d];
            }
            let a = d - from;
            let (olb, oub) =
                ProcessGrid::partition(bounds[d].0, bounds[d].1, decomposition[a], coords[a]);
            if olb >= oub {
                return (0, 0);
            }
            let lo = if olb == bounds[d].0 {
                olb.min(nest_bounds[d].0)
            } else {
                olb
            };
            let hi = if oub == bounds[d].1 {
                oub.max(nest_bounds[d].1)
            } else {
                oub
            };
            let lo = lo.max(nest_bounds[d].0);
            let hi = hi.min(nest_bounds[d].1);
            (lo, hi.max(lo))
        })
        .collect()
}

/// Whether a kernel can amortise exchanges across dispatches: the first
/// nest exchanges over a 1-D decomposition and every other nest is
/// pointwise (no exchanges — all reads local). Multi-dimension grids would
/// need corner exchanges for the redundant ghost band; a *second*
/// exchanging nest would demand mid-kernel traffic on communication-free
/// cycles. Pointwise trailer nests are safe because they run over the same
/// deep-extended box (see [`phase_exec_box`]), keeping every ghost replica
/// bit-identical to its owner by redundant compute.
fn deep_capable(kernel: &CompiledKernel) -> bool {
    kernel.halo_depth >= 2
        && kernel.decomposition.len() == 1
        && !kernel.nests.is_empty()
        && !kernel.nests[0].exchanges.is_empty()
        && kernel.nests[1..].iter().all(|n| n.exchanges.is_empty())
}

// --------------------------------------------------------------------------
// Resident rank memory and the per-kernel session
// --------------------------------------------------------------------------

/// One rank's working set: windowed buffers, per-view flat base offsets and
/// window slab ranges, and the deduplicated checkpoint order.
struct RankMem {
    mem: Memory,
    bufs: Vec<BufId>,
    /// Stable deduplicated buffer order for checkpoint/restore.
    ck_bufs: Vec<BufId>,
    /// Flat offset of each view's buffer origin within the global array.
    bases: Vec<i64>,
    /// Slab range each view's buffer stores along the slowest dimension.
    wins: Vec<(i64, i64)>,
}

impl RankMem {
    /// Window contents in checkpoint order (the state a crash restores).
    fn windows(&self) -> Vec<Vec<f64>> {
        let copy = |&b: &BufId| self.mem.buffer(b).to_vec();
        self.ck_bufs.iter().map(copy).collect()
    }

    fn restore(&mut self, state: Vec<Vec<f64>>) {
        for (&b, data) in self.ck_bufs.iter().zip(state) {
            self.mem.restore_buffer(b, data);
        }
    }
}

/// Whether a view's slowest dimension dominates its layout: every full
/// slab of dimension `l` is contiguous in `[c_l·stride_l, (c_l+1)·stride_l)`,
/// so a window of whole slabs is one contiguous range.
fn slab_major(view: &ViewSpec, l: usize) -> bool {
    let sl = view.strides[l];
    if sl <= 0 {
        return false;
    }
    let mut span = 0i64;
    for d in 0..l {
        let s = view.strides[d];
        if s < 0 {
            return false;
        }
        span += s * (view.extents[d] - 1).max(0);
    }
    span < sl
}

/// Windowing is all-or-nothing per kernel: every view must be slab-major
/// and views sharing a buffer (same argument, or snapshot of it) must agree
/// on the slowest dimension's stride, extent and lower bound, or
/// whole-buffer operations (snapshot refresh) would mix windows. Otherwise
/// every rank holds full-size buffers, so correctness never depends on the
/// memory optimisation.
fn windowable(views: &[ViewSpec], l: usize) -> bool {
    let mut arg_shape: HashMap<usize, (i64, i64, i64)> = HashMap::new();
    views.iter().all(|view| {
        let arg = match view.source {
            ViewSource::Arg(i) => Some(i),
            ViewSource::SnapshotOf(src) => match views[src].source {
                ViewSource::Arg(i) => Some(i),
                ViewSource::SnapshotOf(_) => None,
            },
        };
        let shape = (view.strides[l], view.extents[l], lower(view, l));
        slab_major(view, l) && arg.is_some_and(|i| *arg_shape.entry(i).or_insert(shape) == shape)
    })
}

/// What every dispatch of one session shares: fixed when the session is
/// scattered, read-only afterwards.
struct Plan {
    kernel: CompiledKernel,
    grid: ProcessGrid,
    /// Canonical partition domain (see [`DistSetup`]).
    bounds: Vec<(i64, i64)>,
    /// First decomposed data dimension.
    from: usize,
    /// Pointer arguments the views reference, ascending: (argument index,
    /// caller buffer).
    args: Vec<(usize, BufId)>,
    /// Every written view: (view index, caller buffer behind it).
    outs: Vec<(usize, BufId)>,
    /// Per view, whether a dispatch may read it before writing it: the
    /// scatter seeds an argument's windows only when one of its views may
    /// ([`CompiledKernel::read_first`]).
    read_first: Vec<bool>,
    /// Whether rank buffers are slab windows (see [`windowable`]).
    windowed: bool,
    /// The schedule every exchanging nest runs under.
    schedule: HaloSchedule,
    /// Per nest, the pointwise nests that run in its phase
    /// ([`CompiledKernel::trails`]).
    trails: Vec<Option<Trail>>,
    /// Halo margin on the slowest dimension: the widest exchange. Deep-halo
    /// widths are pre-multiplied by `k`, so the redundant compute band
    /// (`(k−1)·w` cells) is covered automatically.
    margin: i64,
    /// The caller's byte ledger (if any): every rank's windowed buffers
    /// charge against the same budget, so per-rank replication is
    /// governed, not just the caller's own arrays.
    budget: Option<Arc<MemoryBudget>>,
}

impl Plan {
    /// This rank's partition of canonical dimension `d` (a decomposed one).
    fn part(&self, d: usize, coords: &[i64]) -> (i64, i64) {
        let a = d - self.from;
        let (lb, ub) = self.bounds[d];
        ProcessGrid::partition(lb, ub, self.kernel.decomposition[a], coords[a])
    }

    /// The halo region exchange `e` moves, in the view's *slab indices*.
    /// Both sides compute it from the **sender's** partition, so the packed
    /// and unpacked regions are identical by construction (the per-rank
    /// buffers are globally addressed). Decomposed dimensions other than
    /// the exchanged one span the sender's owned range; non-decomposed
    /// dimensions span the full view extent (star accesses may carry
    /// arbitrary offsets there). Empty when the sender owns no cells along
    /// any decomposed dimension.
    fn transfer(&self, e: &MpiExchange, sender_coords: &[i64]) -> Vec<(i64, i64)> {
        let view = &self.kernel.views[e.view];
        (0..view.extents.len())
            .map(|d| {
                if d < self.from {
                    return (0, view.extents[d]);
                }
                let ((olb, oub), lb) = (self.part(d, sender_coords), lower(view, d));
                if olb >= oub {
                    (0, 0)
                } else if d != e.dim {
                    (olb - lb, oub - lb)
                } else if e.direction > 0 {
                    (oub - e.width - lb, oub - lb)
                } else {
                    (olb - lb, olb + e.width - lb)
                }
            })
            .collect()
    }

    /// The slab of view `v` this rank's window is seeded with at scatter
    /// time and contributes back at gather time, in the view's *slab
    /// indices*: the owned range along decomposed dimensions — extended to
    /// the array edge where the rank owns the first/last canonical cell
    /// (edge shells are written by at most their owner's pointwise nests,
    /// and merely round-trip their seeded global values otherwise) — and
    /// the full extent elsewhere. Empty for idle ranks; disjoint across
    /// ranks, covering every view cell.
    fn visible(&self, v: usize, coords: &[i64]) -> Vec<(i64, i64)> {
        let view = &self.kernel.views[v];
        (0..view.extents.len())
            .map(|d| {
                if d < self.from {
                    return (0, view.extents[d]);
                }
                let ((olb, oub), lb) = (self.part(d, coords), lower(view, d));
                if olb >= oub {
                    return (0, 0);
                }
                let lo = if olb == self.bounds[d].0 { 0 } else { olb - lb };
                let hi = if oub == self.bounds[d].1 {
                    view.extents[d]
                } else {
                    oub - lb
                };
                (lo, hi)
            })
            .collect()
    }

    /// The cells of view `v` each nest storing it writes on this rank, in
    /// the view's slab indices, clipped to [`Plan::visible`]: the nest's
    /// box ([`nest_exec_box`]) shifted by its store subscripts (which fold
    /// the lower bound in), spanning them where a nest stores the view at
    /// several (only seeded views do, and a seeded cell that no store
    /// reaches still holds the caller's value). Boxes may overlap.
    fn written(&self, v: usize, coords: &[i64]) -> Vec<Vec<(i64, i64)>> {
        let vis = self.visible(v, coords);
        let nests = self.kernel.nests.iter();
        let boxes = nests.filter_map(|n| {
            let reach = n.subscripts(v, true)?;
            let decomposition = &self.kernel.decomposition;
            let exec = nest_exec_box(&n.bounds, &self.bounds, decomposition, coords, self.from);
            let clip = |d: usize| {
                let ((e, o), w) = ((exec[d], reach[d]), vis[d]);
                ((e.0 + o.0).max(w.0), (e.1 + o.1).min(w.1))
            };
            Some((0..exec.len().min(reach.len())).map(clip).collect())
        });
        boxes.collect()
    }
}

/// Lay `region` of the global array `src` into the growing window `w` whose
/// origin is flat offset `base`, NaN in the gaps: the runs of a column-major
/// view arrive in address order, so each cell is written once. Whatever part
/// of a run lies behind the cursor (exotic strides, a second view of the
/// array) overwrites what is already there.
fn seed_window(w: &mut Vec<f64>, base: i64, src: &[f64], strides: &[i64], region: &[(i64, i64)]) {
    for_each_run(strides, region, |lin, n| {
        let at = lin - base as usize;
        w.resize(w.len().max(at), f64::NAN);
        let behind = (w.len() - at).min(n);
        w[at..at + behind].copy_from_slice(&src[lin..lin + behind]);
        w.extend_from_slice(&src[lin + behind..lin + n]);
    });
}

/// Build one rank's memory and seed it from the caller's buffers: a window
/// of whole slabs along the slowest dimension per buffer — the owned range
/// extended by the halo margin and to the array edge where the rank owns
/// the first/last canonical cell — with every cell of an argument buffer
/// outside the visible region NaN, so any read escaping owned+halo
/// territory poisons the bitwise oracle. An argument none of whose views a
/// dispatch may read before writing it ([`CompiledKernel::read_first`]) is
/// not copied in at all: NaN throughout.
fn scatter_rank(p: &Plan, coords: &[i64], caller: &Memory) -> Result<RankMem> {
    let views = &p.kernel.views;
    let l = p.bounds.len() - 1;
    let part = p.part(l, coords);
    // Window along dim `l`, in the view's slab indices.
    let win_of = |view: &ViewSpec| -> (i64, i64) {
        let (ext, lb, (olb, oub)) = (view.extents[l], lower(view, l), part);
        if !p.windowed {
            return (0, ext);
        } else if olb >= oub {
            return (0, 0);
        }
        let lo = if olb == p.bounds[l].0 {
            0
        } else {
            (olb - p.margin - lb).max(0)
        };
        let hi = if oub == p.bounds[l].1 {
            ext
        } else {
            (oub + p.margin - lb).min(ext)
        };
        (lo, hi.max(lo))
    };

    let mut mem = match &p.budget {
        Some(b) => Memory::with_budget(Arc::clone(b)),
        None => Memory::new(),
    };
    let caller_buf = |i: usize| p.args.iter().find(|a| a.0 == i).map(|a| a.1);
    let mut arg_buf: HashMap<usize, BufId> = HashMap::new();
    let (mut bufs, mut ck_bufs, mut bases, mut wins) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for view in views {
        let win = win_of(view);
        let arg = match view.source {
            ViewSource::Arg(i) => Some(i),
            ViewSource::SnapshotOf(_) => None,
        };
        let buf = match arg.and_then(|i| arg_buf.get(&i)) {
            Some(&b) => b,
            None => {
                let src = arg.and_then(caller_buf).map(|b| caller.buffer(b));
                let len = if p.windowed {
                    (view.strides[l] * (win.1 - win.0)) as usize
                } else if let Some(src) = src {
                    src.len()
                } else {
                    view.checked_len()?
                };
                // Every view of an argument lays its visible region in, in
                // view order (they share the window: see `windowable`).
                let seed = |i: usize, w: &mut Vec<f64>| {
                    let same_arg = |x: &(usize, &ViewSpec)| x.1.source == ViewSource::Arg(i);
                    let mut arg_views = views.iter().enumerate().filter(same_arg);
                    let Some(src) = src.filter(|_| arg_views.any(|(v, _)| p.read_first[v])) else {
                        return;
                    };
                    for (v, view) in views.iter().enumerate().filter(same_arg) {
                        let (base, vis) = (view.strides[l] * win.0, p.visible(v, coords));
                        seed_window(w, base, src, &view.strides, &vis);
                    }
                };
                match arg {
                    None => mem.try_alloc_buffer(len)?,
                    Some(i) => {
                        let b = mem.try_alloc_buffer_with(len, |w| seed(i, w))?;
                        arg_buf.insert(i, b);
                        b
                    }
                }
            }
        };
        if !ck_bufs.contains(&buf) {
            ck_bufs.push(buf);
        }
        bufs.push(buf);
        bases.push(view.strides[l] * win.0);
        wins.push(win);
    }
    Ok(RankMem {
        mem,
        bufs,
        ck_bufs,
        bases,
        wins,
    })
}

/// [`scatter_rank`] for every rank, in contiguous chunks over up to
/// `workers` threads, the caller taking the first ([`fan_out`]): the
/// caller's `Memory` is only read and every write lands in a rank's own
/// `RankMem`. Fails with the lowest failing rank's error; windows already
/// built are dropped, which hands their bytes back to the budget.
fn scatter_ranks(
    p: &Plan,
    caller: &Memory,
    workers: usize,
    per_rank: &mut [RankMetrics],
) -> Result<Vec<RankMem>> {
    let ranks = per_rank.iter_mut().enumerate().collect();
    fan_out(workers, ranks, |(r, m): (usize, &mut RankMetrics)| {
        let t = Instant::now();
        let rm = scatter_rank(p, &p.grid.coords(r as i64), caller)?;
        (m.scatter_seconds, m.scatters) = (t.elapsed().as_secs_f64(), 1);
        Ok(rm)
    })
    .into_iter()
    .collect()
}

/// Resident state of one kernel across the dispatches of a run: every
/// rank's windows, the write generations of the caller's argument buffers
/// as the session last left them, whether the caller's copies of the
/// written arguments are behind the windows, the deep-halo cycle, and the
/// dispatches queued for the next rank run. Owned by the dispatcher, keyed
/// per kernel; opaque outside this module.
pub struct DistSession {
    plan: Arc<Plan>,
    /// Resident rank memories, indexed by rank.
    ranks: Vec<RankMem>,
    /// Write generation of each `plan.args` buffer when this session last
    /// touched it: all equal ⇒ nothing outside the session wrote since.
    seen: Vec<u64>,
    /// The owned slabs of `plan.outs` are newer than the caller's buffers
    /// (which are marked stale in its [`Memory`]).
    stale: bool,
    /// Deep-halo cycle the next dispatch runs; 0 exchanges.
    cycle: i64,
    /// Dispatches queued for the next [`DistSession::run`], in order.
    queue: Vec<Queued>,
    /// The queued run's fault plan: the first dispatch's, carrying the
    /// planned crash of whichever queued dispatch has one, moved to that
    /// dispatch's phases.
    faults: FaultPlan,
    /// What the driver did for the queued run's first dispatch, per rank
    /// (the scatter or resident hit, and the gather of the session it
    /// replaced), and the wall seconds of that gather and scatter.
    driver: Vec<RankMetrics>,
    driver_wall: f64,
}

/// One queued dispatch.
struct Queued {
    scalars: Vec<f64>,
    /// `(stamped ghost depth k ≥ 2, this dispatch's cycle in 0..k)` for
    /// deep-capable kernels; sends/recvs happen only at cycle 0.
    deep: Option<(i64, i64)>,
    /// Re-poison non-owned cells after it: the next dispatch exchanges, so
    /// no ghost this one leaves behind may be read again.
    poison: bool,
}

impl DistSession {
    /// Scatter: place every view of `kernel` over `grid` and seed each
    /// rank's windows from the caller's buffers on up to `workers` threads,
    /// timing each rank.
    fn scatter(
        kernel: &CompiledKernel,
        setup: &DistSetup,
        grid: &ProcessGrid,
        args: &[KernelArg],
        memory: &Memory,
        workers: usize,
        per_rank: &mut [RankMetrics],
    ) -> Result<Self> {
        let l = setup.bounds.len() - 1;
        let mut ptr_args = Vec::new();
        let mut outs = Vec::new();
        for (v, view) in kernel.views.iter().enumerate() {
            let ViewSource::Arg(i) = view.source else {
                continue;
            };
            let Some(KernelArg::Buf(b)) = args.get(i) else {
                continue;
            };
            ptr_args.push((i, *b));
            if kernel.nests.iter().any(|n| n.out_views.contains(&v)) {
                outs.push((v, *b));
            }
        }
        ptr_args.sort_unstable();
        ptr_args.dedup();
        let exchanges = kernel.nests.iter().flat_map(|n| &n.exchanges);
        let plan = Arc::new(Plan {
            kernel: kernel.clone(),
            grid: grid.clone(),
            bounds: setup.bounds.clone(),
            from: setup.from,
            args: ptr_args,
            outs,
            read_first: kernel.read_first(),
            windowed: windowable(&kernel.views, l),
            schedule: setup.schedule,
            trails: kernel.trails(),
            margin: exchanges
                .filter(|e| e.dim == l)
                .map(|e| e.width)
                .max()
                .unwrap_or(0),
            budget: memory.budget().cloned(),
        });
        Ok(Self {
            ranks: scatter_ranks(&plan, memory, workers, per_rank)?,
            plan,
            seen: Vec::new(),
            stale: false,
            cycle: 0,
            queue: Vec::new(),
            faults: FaultPlan::none(0),
            driver: Vec::new(),
            driver_wall: 0.0,
        })
    }

    /// A dispatch of `kernel` over `grid` with `args` may run on the
    /// resident windows: same kernel, same placement, same buffers, and no
    /// buffer written since the session recorded its generation.
    fn matches(
        &self,
        kernel: &CompiledKernel,
        grid: &ProcessGrid,
        args: &[KernelArg],
        memory: &Memory,
    ) -> bool {
        let p = &*self.plan;
        p.kernel.name == kernel.name
            && p.grid.shape == grid.shape
            && p.args.len() == self.seen.len()
            && p.args.iter().zip(&self.seen).all(|(&(i, buf), &gen)| {
                args.get(i) == Some(&KernelArg::Buf(buf)) && memory.generation(buf) == gen
            })
    }

    fn record_generations(&mut self, memory: &Memory) {
        let gen = |&(_, b): &(usize, BufId)| memory.generation(b);
        self.seen = self.plan.args.iter().map(gen).collect();
    }

    /// Queue a dispatch with `args` under `faults` (whose crash, planned at
    /// a phase of this dispatch, moves to the same phase of the run) and
    /// mark every argument buffer stale until the run.
    fn push(&mut self, args: &[KernelArg], faults: &FaultPlan, memory: &mut Memory) {
        let kernel = &self.plan.kernel;
        if self.queue.is_empty() {
            self.faults = faults.clone();
        }
        if let Some(c) = faults.crash {
            let at_iteration = self.queue.len() * (kernel.nests.len() + 1) + c.at_iteration;
            self.faults.crash = Some(CrashSpec { at_iteration, ..c });
        }
        let (depth, cycle) = (kernel.halo_depth as i64, self.cycle);
        let deep = deep_capable(kernel).then_some((depth, cycle));
        self.cycle = if deep.is_some() {
            (cycle + 1) % depth
        } else {
            0
        };
        let (scalars, poison) = (scalar_args(args), self.cycle == 0);
        self.queue.push(Queued {
            scalars,
            deep,
            poison,
        });
        for &(_, buf) in &self.plan.args {
            memory.mark_stale(buf);
        }
        self.record_generations(memory);
    }

    /// Queue a dispatch of `kernel` over `grid` with `args` behind the ones
    /// already queued, when it may run on the same windows
    /// (same kernel, placement and buffers, none written since): its
    /// scalars may differ. `false` leaves
    /// the session as it was.
    pub fn join(
        &mut self,
        kernel: &CompiledKernel,
        grid: &ProcessGrid,
        args: &[KernelArg],
        faults: &FaultPlan,
        memory: &mut Memory,
    ) -> bool {
        let joins = !self.queue.is_empty() && self.matches(kernel, grid, args, memory);
        if joins {
            self.push(args, faults, memory);
        }
        joins
    }

    /// True when the session holds results newer than the caller's copy of
    /// one of `args`: gather before a kernel taking `args` runs elsewhere.
    pub fn holds_results_for(&self, args: &[KernelArg]) -> bool {
        let wanted = |&(_, b): &(usize, BufId)| args.contains(&KernelArg::Buf(b));
        self.stale && self.plan.outs.iter().any(wanted)
    }

    /// The deferred gather: copy the cells each rank's nests wrote of
    /// every written view straight from its window
    /// into the caller's buffer and clear the stale marks; the caller's
    /// other cells are current already (the windows were seeded from them
    /// or never read them). Windowed ranks own disjoint slab ranges of every
    /// buffer, so ranks fan out over up to `opts.workers` threads, one slab
    /// range each; otherwise the ranks copy in turn. The session stays
    /// resident. Returns the seconds spent per rank — empty when the
    /// caller's buffers were already current. Runs only with nothing queued.
    pub fn gather(&mut self, memory: &mut Memory, opts: &DistOptions) -> Vec<f64> {
        debug_assert!(self.queue.is_empty(), "gather with dispatches queued");
        if !std::mem::take(&mut self.stale) {
            return Vec::new();
        }
        let p = Arc::clone(&self.plan);
        let mut bufs: Vec<BufId> = p.outs.iter().map(|o| o.1).collect();
        bufs.sort_unstable();
        bufs.dedup();
        let mut data: Vec<Vec<f64>> = bufs
            .iter()
            .map(|&b| {
                memory.clear_stale(b);
                memory.take_buffer(b)
            })
            .collect();
        // Windowed ranks own disjoint slab ranges of each buffer along the
        // slowest dimension, one range per partition of it (an argument's
        // views agree on that dimension: see `windowable`). Unless two
        // arguments share a buffer, each buffer splits where a partition's
        // slabs end and the partitions fan out.
        let (l, size) = (p.bounds.len() - 1, self.ranks.len());
        let args = &p.args;
        let aliased = (0..args.len()).any(|i| args[..i].iter().any(|a| a.1 == args[i].1));
        let parts = match p.kernel.decomposition.last() {
            Some(&n) if p.windowed && !aliased => n as usize,
            _ => 1,
        };
        let mut members = vec![Vec::new(); parts];
        for r in 0..size {
            let last = p.grid.coords(r as i64).last().map_or(0, |&c| c as usize);
            members[last % parts].push(r);
        }
        let mut chunks: Vec<Vec<(i64, &mut [f64])>> = members.iter().map(|_| Vec::new()).collect();
        for (&b, buf) in bufs.iter().zip(&mut data) {
            let v = p.outs.iter().find(|o| o.1 == b).map_or(0, |o| o.0);
            let stride = p.kernel.views[v].strides[l];
            let (mut rest, mut at) = (&mut buf[..], 0i64);
            for (g, ranks) in members.iter().enumerate() {
                let end = match ranks.first() {
                    _ if g + 1 == parts => at + rest.len() as i64,
                    Some(&r) => (p.visible(v, &p.grid.coords(r as i64))[l].1 * stride).max(at),
                    None => at,
                };
                let (mine, tail) = std::mem::take(&mut rest).split_at_mut((end - at) as usize);
                chunks[g].push((at, mine));
                (rest, at) = (tail, end);
            }
        }
        let ranks = &self.ranks;
        let work: Vec<_> = members.into_iter().zip(chunks).collect();
        let workers = effective_workers(opts.workers, size).min(parts);
        let timed = fan_out(workers, work, |(members, mut chunks)| {
            let per_rank = members.into_iter().map(|r| {
                let t = Instant::now();
                let (rm, coords) = (&ranks[r], p.grid.coords(r as i64));
                for &(v, buf) in &p.outs {
                    let (src, strides) = (rm.mem.buffer(rm.bufs[v]), &p.kernel.views[v].strides);
                    let (at, dst) = &mut chunks[bufs.partition_point(|&b| b < buf)];
                    for region in p.written(v, &coords) {
                        copy_region(dst, *at, src, rm.bases[v], strides, &region);
                    }
                }
                (r, t.elapsed().as_secs_f64())
            });
            per_rank.collect::<Vec<_>>()
        });
        let mut secs = vec![0.0; size];
        for (r, s) in timed.into_iter().flatten() {
            secs[r] = s;
        }
        for (&b, buf) in bufs.iter().zip(data) {
            memory.restore_buffer(b, buf);
        }
        self.record_generations(memory);
        secs
    }
}

/// Queue one dispatch of `kernel` over `grid` under `faults` on `session`:
/// a session that does not match it (first dispatch, other buffers, a
/// buffer written since) is gathered and replaced by a freshly scattered
/// one, the cold case of the same path. Later dispatches join the queue
/// ([`DistSession::join`]) and [`DistSession::run`] runs them all as one
/// rank run. Returns `Ok(false)`, leaving `session` untouched, when the
/// kernel is outside the supported shape — the caller gathers the session
/// and runs the legacy modeled path. `session` must hold nothing queued.
pub fn queue(
    kernel: &CompiledKernel,
    memory: &mut Memory,
    args: &[KernelArg],
    grid: &ProcessGrid,
    faults: &FaultPlan,
    opts: &DistOptions,
    session: &mut Option<DistSession>,
) -> Result<bool> {
    let Some(setup) = DistSetup::build(kernel, grid, args, opts.mode) else {
        return Ok(false);
    };
    let size = grid.size() as usize;
    let mut driver = vec![RankMetrics::default(); size];
    let (mut driver_wall, t) = (0.0, Instant::now());
    let mut s = match session.take() {
        Some(s) if s.ranks.len() == size && s.matches(kernel, grid, args, memory) => {
            driver.iter_mut().for_each(|m| m.resident_hits = 1);
            s
        }
        old => {
            let gathered = old.map_or_else(Vec::new, |mut o| o.gather(memory, opts));
            for (m, secs) in driver.iter_mut().zip(gathered) {
                (m.gather_seconds, m.gathers) = (secs, 1);
            }
            let workers = effective_workers(opts.workers, size);
            let s = DistSession::scatter(kernel, &setup, grid, args, memory, workers, &mut driver)?;
            driver_wall = t.elapsed().as_secs_f64();
            s
        }
    };
    (s.driver, s.driver_wall) = (driver, driver_wall);
    s.push(args, faults, memory);
    *session = Some(s);
    Ok(true)
}

// --------------------------------------------------------------------------
// Rank body building blocks
// --------------------------------------------------------------------------

/// What one rank hands back: its metrics and its (still resident) memory.
struct RankOutput {
    metrics: RankMetrics,
    rm: RankMem,
}

/// Everything the rank bodies of one run share.
struct Shared {
    plan: Arc<Plan>,
    /// The dispatches the run executes, in order.
    runs: Vec<Queued>,
    /// The session's rank memories, each taken by its rank body on entry.
    mems: Vec<Mutex<Option<RankMem>>>,
}

type Result2<T> = std::result::Result<T, MpiSimError>;

fn wrap(rank: usize, e: IrError) -> MpiSimError {
    MpiSimError::compile_failure(rank, e)
}

/// A broken executor invariant on `rank`, as a coded runtime error.
fn exec_err(rank: usize, what: &str) -> MpiSimError {
    let diag = Diagnostic::error(codes::EXEC, format!("distributed executor: {what}"));
    wrap(rank, IrError::from_diagnostic(diag))
}

/// Entry of every rank body: take this rank's resident memory.
fn enter_rank(sh: &Shared, rank: usize) -> Result2<RankMem> {
    let slot = sh.mems.get(rank).and_then(|m| m.lock().ok()?.take());
    slot.ok_or_else(|| exec_err(rank, "rank has no resident memory"))
}

/// End of a dispatch on one rank, after its commit barrier: restore the NaN
/// sentinel outside the owned slab of every written view (unless the next
/// dispatch is a communication-free deep-halo cycle that reads the ghosts).
fn repoison(sh: &Shared, q: &Queued, coords: &[i64], rm: &mut RankMem) {
    let p = &*sh.plan;
    let l = p.bounds.len() - 1;
    let outs = if q.poison { &p.outs[..] } else { &[] };
    for &(v, _) in outs {
        let view = &p.kernel.views[v];
        let mut window: Vec<(i64, i64)> = view.extents.iter().map(|&e| (0, e)).collect();
        window[l] = rm.wins[v];
        let keep = p.visible(v, coords);
        let below: Vec<i64> = window.iter().zip(&keep).map(|(w, k)| k.0 - w.0).collect();
        let above: Vec<i64> = window.iter().zip(&keep).map(|(w, k)| w.1 - k.1).collect();
        // The shells tile `window \ keep` exactly once.
        let (_, shells) = split_interior_boundary(&window, &below, &above);
        let data = rm.mem.buffer_mut(rm.bufs[v]);
        for shell in &shells {
            for_each_run(&view.strides, shell, |lin, len| {
                let at = lin - rm.bases[v] as usize;
                data[at..at + len].fill(f64::NAN);
            });
        }
    }
}

/// A posted halo receive: where it comes from and where it lands.
struct PendingRecv {
    src: usize,
    tag: i64,
    view: usize,
    region: Vec<(i64, i64)>,
    side_lo: bool,
    dim: usize,
    width: i64,
}

/// The box one rank computes for `nest` this phase, and whether this phase
/// exchanges halos. Deep-halo cycles extend the base box by `(k−1−cycle)·w`
/// toward live neighbours (redundant ghost compute) and exchange only at
/// cycle 0. The extension is *kernel-wide* — derived from every nest's
/// exchanges and applied to pointwise nests too — so a trailing copy-back
/// phase updates the same redundant ghost band the exchanging sweep
/// computed, keeping ghost replicas in lockstep across cycles.
fn phase_exec_box(
    sh: &Shared,
    q: &Queued,
    nest: &Nest,
    coords: &[i64],
    own: &[(i64, i64)],
) -> (Vec<(i64, i64)>, bool) {
    let p = &*sh.plan;
    let pointwise = nest.exchanges.is_empty();
    let base = if pointwise {
        nest_exec_box(
            &nest.bounds,
            &p.bounds,
            &p.kernel.decomposition,
            coords,
            p.from,
        )
    } else {
        own.to_vec()
    };
    let Some((depth, cycle)) = q.deep else {
        return (base, true);
    };
    let mut exec = base.clone();
    if region_cells(&base) > 0 {
        let rank_i = p.grid.rank_of(coords);
        for e in p.kernel.nests.iter().flat_map(|n| &n.exchanges) {
            let axis = e.dim - p.from;
            let base_w = e.width / depth;
            let ext = base_w * (depth - 1 - cycle).max(0);
            if ext == 0 {
                continue;
            }
            // I receive from my `-e.direction` neighbour; the ghost band I
            // redundantly compute sits on that side.
            if p.grid.neighbor(rank_i, axis, -e.direction).is_some() {
                if e.direction > 0 {
                    exec[e.dim].0 = exec[e.dim].0.min(base[e.dim].0 - ext);
                } else {
                    exec[e.dim].1 = exec[e.dim].1.max(base[e.dim].1 + ext);
                }
            }
        }
    }
    (exec, pointwise || cycle == 0)
}

/// Refresh value-semantics snapshots from their (pre-exchange) fields; the
/// exchange afterwards patches their halos along with the field's.
fn refresh_snapshots(sh: &Shared, nest: &Nest, rm: &mut RankMem, rank: usize) -> Result2<()> {
    let views = &sh.plan.kernel.views;
    for &sv in &nest.snapshots {
        let ViewSource::SnapshotOf(src) = views[sv].source else {
            return Err(wrap(rank, IrError::new("snapshot refresh of non-snapshot")));
        };
        rm.mem
            .copy_buffer(rm.bufs[src], rm.bufs[sv])
            .map_err(|e| wrap(rank, e))?;
    }
    Ok(())
}

/// Post every halo send of `nest`: my face in `e.direction` to that
/// neighbour, through the transport's `send`. Tags repeat
/// deterministically on both sides, so FIFO per (peer, tag) stream keeps
/// multi-view exchanges paired.
fn post_halo_sends(
    sh: &Shared,
    nest: &Nest,
    coords: &[i64],
    rank: usize,
    rm: &RankMem,
    metrics: &mut RankMetrics,
    mut send: impl FnMut(usize, i64, Vec<f64>) -> Result2<()>,
) -> Result2<()> {
    let p = &*sh.plan;
    let views = &p.kernel.views;
    let t = Instant::now();
    for e in &nest.exchanges {
        let axis = e.dim - p.from;
        let Some(dst) = p.grid.neighbor(rank as i64, axis, e.direction) else {
            continue;
        };
        let region = p.transfer(e, coords);
        if region_cells(&region) == 0 {
            continue;
        }
        let payload = pack_region_based(
            rm.mem.buffer(rm.bufs[e.view]),
            &views[e.view].strides,
            &region,
            rm.bases[e.view],
        );
        metrics.bytes_sent += 8 * payload.len() as u64;
        metrics.messages_sent += 1;
        send(dst as usize, e.tag, payload)?;
    }
    metrics.pack_seconds += t.elapsed().as_secs_f64();
    Ok(())
}

/// Matching receives for `nest`: exchange `e` (everyone sends towards
/// `e.direction`) delivers to me from my `-e.direction` neighbour and fills
/// my halo on that side. Regions derive from the sender's partition —
/// identical on both ends.
fn build_halo_recvs(sh: &Shared, nest: &Nest, rank: usize) -> Vec<PendingRecv> {
    let p = &*sh.plan;
    let mut recvs = Vec::new();
    for e in &nest.exchanges {
        let axis = e.dim - p.from;
        let Some(src) = p.grid.neighbor(rank as i64, axis, -e.direction) else {
            continue;
        };
        let region = p.transfer(e, &p.grid.coords(src));
        if region_cells(&region) == 0 {
            continue;
        }
        recvs.push(PendingRecv {
            src: src as usize,
            tag: e.tag,
            view: e.view,
            region,
            side_lo: e.direction > 0,
            dim: e.dim,
            width: e.width,
        });
    }
    recvs
}

/// Which owned-box cells depend on the incoming halos, per dimension side.
fn halo_shrinks(recvs: &[PendingRecv], ndims: usize) -> (Vec<i64>, Vec<i64>) {
    let mut shrink_lo = vec![0i64; ndims];
    let mut shrink_hi = vec![0i64; ndims];
    for r in recvs {
        if r.side_lo {
            shrink_lo[r.dim] = shrink_lo[r.dim].max(r.width);
        } else {
            shrink_hi[r.dim] = shrink_hi[r.dim].max(r.width);
        }
    }
    (shrink_lo, shrink_hi)
}

/// Land one received halo payload: unpack into the target view and every
/// snapshot of it (snapshots were refreshed before the halos arrived).
/// A rank that owns no cells still consumes its neighbours' faces (the
/// senders post by *their* partition) but has nothing to store them in —
/// its window is empty and the data is never read, so drop the payload.
fn unpack_halo(sh: &Shared, nest: &Nest, rm: &mut RankMem, r: &PendingRecv, payload: &[f64]) {
    let views = &sh.plan.kernel.views;
    if rm.mem.buffer(rm.bufs[r.view]).is_empty() {
        return;
    }
    let snapshots = nest.snapshots.iter().copied();
    let targets = snapshots.filter(|&sv| views[sv].source == ViewSource::SnapshotOf(r.view));
    for v in std::iter::once(r.view).chain(targets) {
        unpack_region_based(
            rm.mem.buffer_mut(rm.bufs[v]),
            &views[v].strides,
            &r.region,
            rm.bases[v],
            payload,
        );
    }
}

/// Run one compute box of `nest` against the rank's windowed buffers.
fn run_rank_box(
    sh: &Shared,
    q: &Queued,
    nest: &Nest,
    rm: &mut RankMem,
    rank: usize,
    local: &[(i64, i64)],
) -> Result2<()> {
    run_nest_box_based(
        nest,
        &sh.plan.kernel.views,
        &rm.bufs,
        &mut rm.mem,
        &q.scalars,
        local,
        &rm.bases,
    )
    .map_err(|e| wrap(rank, e))
}

/// A box of a nest, by nest index.
type NestBox = (usize, Vec<(i64, i64)>);

/// Nest `ph` on one rank up to its first blocking point: refresh
/// snapshots, post the sends and — under the overlap schedule — sweep the
/// interior while the faces are in flight, with the pointwise nests of its
/// trail ([`CompiledKernel::trails`]) interleaved plane by plane on each cell whose
/// dependences ([`dependence_window`]) on every nest before it lie in what
/// that nest swept so far. Returns the receives to wait for and the boxes
/// to sweep, in order, once they have landed: the nest's boundary shells
/// (its whole box under the blocking schedule), then the rest of each
/// trailing nest's box.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn begin_phase(
    sh: &Shared,
    q: &Queued,
    ph: usize,
    rank: usize,
    coords: &[i64],
    own: &[(i64, i64)],
    rm: &mut RankMem,
    metrics: &mut RankMetrics,
    send: impl FnMut(usize, i64, Vec<f64>) -> Result2<()>,
) -> Result2<(Vec<PendingRecv>, Vec<NestBox>)> {
    let (nests, trail) = (&sh.plan.kernel.nests, sh.plan.trails[ph].as_ref());
    let nest = &nests[ph];
    refresh_snapshots(sh, nest, rm, rank)?;
    let (exec_box, exchange) = phase_exec_box(sh, q, nest, coords, own);
    let mut recvs = Vec::new();
    if exchange {
        post_halo_sends(sh, nest, coords, rank, rm, metrics, send)?;
        recvs = build_halo_recvs(sh, nest, rank);
    }
    let trailing = ph + 1..trail.map_or(0, |t| t.end);
    if nest.halo_schedule != Some(HaloSchedule::Overlap) {
        let trailers = trailing.map(|j| (j, phase_exec_box(sh, q, &nests[j], coords, own).0));
        return Ok((
            recvs,
            std::iter::once((ph, exec_box)).chain(trailers).collect(),
        ));
    }
    let (shrink_lo, shrink_hi) = halo_shrinks(&recvs, exec_box.len());
    let (interior, shells) = split_interior_boundary(&exec_box, &shrink_lo, &shrink_hi);
    let mut after: Vec<NestBox> = shells.into_iter().map(|b| (ph, b)).collect();
    // Per nest so far, its box and the part of it swept before the wait.
    let mut early = vec![(exec_box, interior)];
    for j in trailing {
        let (exec, _) = phase_exec_box(sh, q, &nests[j], coords, own);
        let mut inner = exec.clone();
        for (i, (whole, swept)) in early.iter().enumerate() {
            let window = dependence_window(&nests[j], &nests[ph + i]);
            // Only a dimension in which the earlier nest leaves cells for
            // later keeps this one's window inside what it swept.
            let cut = inner.iter_mut().zip(window).zip(whole.iter().zip(swept));
            for ((b, w), (e, s)) in cut {
                if w.0 <= w.1 && e != s {
                    *b = (b.0.max(s.0 - w.0), b.1.min(s.1 - w.1));
                }
            }
        }
        let lo: Vec<i64> = inner.iter().zip(&exec).map(|(i, e)| i.0 - e.0).collect();
        let hi: Vec<i64> = inner.iter().zip(&exec).map(|(i, e)| e.1 - i.1).collect();
        let (inner, rest) = split_interior_boundary(&exec, &lo, &hi);
        after.extend(rest.into_iter().map(|b| (j, b)));
        early.push((exec, inner));
    }
    let t = Instant::now();
    let early: Vec<_> = early.into_iter().map(|(_, swept)| swept).collect();
    match trail {
        Some(trail) => run_steps(sh, q, ph, &early, trail, rm, rank)?,
        None => run_rank_box(sh, q, nest, rm, rank, &early[0])?,
    }
    metrics.interior_seconds += t.elapsed().as_secs_f64();
    Ok((recvs, after))
}

/// Run nest `first + k` over `boxes[k]` plane-interleaved: step `s` sweeps
/// each over the slowest-dimension planes `[s − lag_k, s − lag_k + planes)`
/// of its box, in nest order — the lag rule keeps every dependence between
/// them, as in a host sweep.
fn run_steps(
    sh: &Shared,
    q: &Queued,
    first: usize,
    boxes: &[Vec<(i64, i64)>],
    trail: &Trail,
    rm: &mut RankMem,
    rank: usize,
) -> Result2<()> {
    let slow = sh.plan.bounds.len() - 1;
    let live = || (boxes.iter().zip(&trail.lags)).filter(|(b, _)| region_cells(b) > 0);
    let start = live().map(|(b, lag)| b[slow].0 + lag).min().unwrap_or(0);
    let end = live().map(|(b, lag)| b[slow].1 + lag).max().unwrap_or(0);
    let mut step = start;
    while step < end {
        for (k, (b, lag)) in boxes.iter().zip(&trail.lags).enumerate() {
            let mut local = b.clone();
            let from = step - lag;
            local[slow] = (b[slow].0.max(from), b[slow].1.min(from + trail.planes));
            if region_cells(&local) > 0 {
                run_rank_box(sh, q, &sh.plan.kernel.nests[first + k], rm, rank, &local)?;
            }
        }
        step += trail.planes;
    }
    Ok(())
}

/// The rest of the phase, once every receive of [`begin_phase`] landed.
fn finish_phase(
    sh: &Shared,
    q: &Queued,
    rank: usize,
    rm: &mut RankMem,
    metrics: &mut RankMetrics,
    boxes: &[NestBox],
) -> Result2<()> {
    let t = Instant::now();
    for (j, b) in boxes {
        run_rank_box(sh, q, &sh.plan.kernel.nests[*j], rm, rank, b)?;
    }
    metrics.boundary_seconds += t.elapsed().as_secs_f64();
    Ok(())
}

// --------------------------------------------------------------------------
// The rank task
// --------------------------------------------------------------------------

/// Where a rank task resumes: the per-rank schedule, flattened into the
/// points where it can block.
#[derive(Clone, Copy)]
enum TaskState {
    /// Take the resident memory on first step (the factory runs serially).
    Start,
    /// Top of the phase loop: checkpoint, crash check, dispatch.
    PhaseEntry,
    /// Waiting for the halo receives of this phase.
    Wait,
    /// In the after-phase barrier. After a dispatch's last nest this is its
    /// commit barrier: every rank's faces are consumed before anyone moves
    /// on to the next dispatch or leaves.
    Barrier,
}

/// One rank of a run in poll form, resumable at every blocking receive
/// and barrier — the only rank schedule there is: a cooperative task under
/// [`DistMode::Coop`], run to completion on the rank's own thread under
/// [`DistMode::Threads`]. It runs the queued dispatches in order, each as
/// the phases of its kernel's nests plus a commit phase; `phase` counts
/// them across the run, so dispatch `c`'s phase `i` is `c·(nests + 1) + i`
/// for checkpoints and a planned crash alike.
struct DistTask {
    sh: Arc<Shared>,
    coords: Vec<i64>,
    own: Vec<(i64, i64)>,
    rm: Option<RankMem>,
    metrics: RankMetrics,
    t_start: Instant,
    phase: usize,
    st: TaskState,
    /// [`TaskState::Wait`]: this phase's halo receives (`next_recv..` still
    /// outstanding), the boxes to sweep once they have all landed, and when
    /// the wait began.
    recvs: Vec<PendingRecv>,
    next_recv: usize,
    boxes: Vec<NestBox>,
    wait_since: Instant,
}

impl DistTask {
    fn new(rank: usize, sh: Arc<Shared>) -> Self {
        let p = &*sh.plan;
        let coords = p.grid.coords(rank as i64);
        let own = owned_box(&p.bounds, &p.kernel.decomposition, &coords, p.from);
        Self {
            sh,
            coords,
            own,
            rm: None,
            metrics: RankMetrics::default(),
            t_start: Instant::now(),
            phase: 0,
            st: TaskState::Start,
            recvs: Vec::new(),
            next_recv: 0,
            boxes: Vec::new(),
            wait_since: Instant::now(),
        }
    }
}

/// The task's memory between [`TaskState::Start`] and its completion.
fn resident(rm: &mut Option<RankMem>, rank: usize) -> Result2<&mut RankMem> {
    rm.as_mut()
        .ok_or_else(|| exec_err(rank, "rank task ran without its memory"))
}

impl RankTask for DistTask {
    type Out = RankOutput;

    fn step<L: Link>(&mut self, res: &mut Transport, link: &mut L) -> Result2<Step<RankOutput>> {
        let rank = res.rank();
        let sh = Arc::clone(&self.sh);
        let nests = &sh.plan.kernel.nests;
        let phases = nests.len() + 1;
        loop {
            let (runs, ph) = (&sh.runs[..], self.phase % phases);
            match self.st {
                TaskState::Start => {
                    self.t_start = Instant::now();
                    self.rm = Some(enter_rank(&sh, rank)?);
                    self.st = TaskState::PhaseEntry;
                }
                TaskState::PhaseEntry => {
                    let rm = resident(&mut self.rm, rank)?;
                    let Some(q) = runs.get(self.phase / phases) else {
                        // Every dispatch (incl. its commit barrier) done.
                        let mut metrics = std::mem::take(&mut self.metrics);
                        metrics.wall_seconds = self.t_start.elapsed().as_secs_f64();
                        let rm = self.rm.take();
                        let rm = rm.ok_or_else(|| exec_err(rank, "rank task finished twice"))?;
                        return Ok(Step::Done(RankOutput { metrics, rm }));
                    };
                    res.save_checkpoint(self.phase, || rm.windows());
                    if res.crash_pending(self.phase) {
                        let (restored, state) = res.crash_and_restore(self.phase)?;
                        self.phase = restored;
                        rm.restore(state);
                        continue;
                    }
                    // A nest of an earlier nest's trail ran in that phase.
                    let trails = sh.plan.trails.get(..ph).into_iter().flatten();
                    let ran = trails.flatten().any(|t| ph < t.end);
                    if nests.get(ph).is_none_or(|n| n.domain_cells() == 0 || ran) {
                        self.st = TaskState::Barrier;
                        continue;
                    }
                    let send = |dst, tag, payload| res.send(link, dst, tag, payload);
                    let (coords, own, metrics) = (&self.coords, &self.own, &mut self.metrics);
                    (self.recvs, self.boxes) =
                        begin_phase(&sh, q, ph, rank, coords, own, rm, metrics, send)?;
                    (self.next_recv, self.wait_since) = (0, Instant::now());
                    self.st = TaskState::Wait;
                }
                TaskState::Wait => {
                    let (q, nest) = (&runs[self.phase / phases], &nests[ph]);
                    let rm = resident(&mut self.rm, rank)?;
                    while let Some(r) = self.recvs.get(self.next_recv) {
                        let Some(payload) = res.recv_poll(link, r.src, r.tag)? else {
                            return Ok(Step::Blocked);
                        };
                        unpack_halo(&sh, nest, rm, r, &payload);
                        self.next_recv += 1;
                    }
                    // Wait time includes parked time: the latency the
                    // overlap schedule exists to hide.
                    self.metrics.wait_seconds += self.wait_since.elapsed().as_secs_f64();
                    finish_phase(&sh, q, rank, rm, &mut self.metrics, &self.boxes)?;
                    self.st = TaskState::Barrier;
                }
                TaskState::Barrier => {
                    if !res.barrier_poll(link)? {
                        return Ok(Step::Blocked);
                    }
                    if ph + 1 == phases {
                        let rm = resident(&mut self.rm, rank)?;
                        repoison(&sh, &runs[self.phase / phases], &self.coords, rm);
                    }
                    self.phase += 1;
                    self.st = TaskState::PhaseEntry;
                }
            }
        }
    }
}

// --------------------------------------------------------------------------
// Driver
// --------------------------------------------------------------------------

impl DistSession {
    /// Run every queued dispatch for real, as one run of every rank of the
    /// session's grid on the selected substrate: one task per rank looping
    /// over the dispatches (per-dispatch scalars, the same phases and
    /// exchanges), one transport per rank under the queued run's fault
    /// plan. Report measured per-rank timings plus scheduler/transport
    /// counters, summed over the dispatches. Results stay in the windows:
    /// the written argument buffers stay marked stale in `memory` until
    /// [`DistSession::gather`] runs, the others are current again. `None`
    /// when nothing is queued. A failed run leaves the session without its
    /// windows: drop it.
    pub fn run(&mut self, memory: &mut Memory, opts: &DistOptions) -> Result<Option<DistOutcome>> {
        if self.queue.is_empty() {
            return Ok(None);
        }
        let (kernel, size) = (&self.plan.kernel, self.ranks.len());
        let dispatches = self.queue.len() as u64;
        // Deep-halo cycles after the first run on its ghosts, exchanging nothing.
        let exchanging = kernel
            .nests
            .iter()
            .filter(|n| !n.exchanges.is_empty())
            .count();
        let cycle0 = self
            .queue
            .iter()
            .filter(|q| q.deep.is_none_or(|d| d.1 == 0));
        let exchange_rounds = (exchanging * cycle0.count()) as u64;
        let shared = Arc::new(Shared {
            plan: Arc::clone(&self.plan),
            runs: std::mem::take(&mut self.queue),
            mems: self
                .ranks
                .drain(..)
                .map(|rm| Mutex::new(Some(rm)))
                .collect(),
        });
        let cfg = ResilientConfig {
            checkpoint_interval: 1,
            ..ResilientConfig::default()
        };

        let map_err = |e: MpiSimError| match e.into_compile_error() {
            Ok(compile_err) => compile_err,
            Err(other) => IrError::new(format!("distributed execution failed: {other}")),
        };
        let (body_shared, faults) = (Arc::clone(&shared), self.faults.clone());
        let (results, workers, steals, parks, traffic) = match opts.mode {
            DistMode::Threads => {
                let results = run_resilient(size, faults, cfg, move |ctx| {
                    ctx.block_on(&mut DistTask::new(ctx.rank(), Arc::clone(&body_shared)))
                })
                .map_err(map_err)?;
                (results, size, 0u64, 0u64, None)
            }
            DistMode::Coop => {
                let ccfg = CoopConfig {
                    workers: opts.workers,
                    node_size: opts.node_size,
                    agg_flush_messages: 0,
                };
                let (outs, stats) = run_tasks(size, ccfg, move |rank| {
                    let task = DistTask::new(rank, Arc::clone(&body_shared));
                    Resilient::new(task, rank, size, &faults, cfg)
                })
                .map_err(map_err)?;
                (outs, stats.workers, stats.steals, stats.parks, Some(stats))
            }
        };

        // The windows go back to the session; nothing is copied to the caller.
        let mut fault_stats = FaultStats::default();
        let mut per_rank = Vec::with_capacity(size);
        let (mut bytes_exchanged, mut messages, mut body_wall) = (0u64, 0u64, 0.0f64);
        let driver = std::mem::take(&mut self.driver);
        for ((out, stats), d) in results.into_iter().zip(driver) {
            fault_stats.merge(&stats);
            bytes_exchanged += out.metrics.bytes_sent;
            messages += out.metrics.messages_sent;
            body_wall = body_wall.max(out.metrics.wall_seconds);
            self.ranks.push(out.rm);
            per_rank.push(RankMetrics {
                wall_seconds: out.metrics.wall_seconds + d.scatter_seconds + d.gather_seconds,
                scatter_seconds: d.scatter_seconds,
                gather_seconds: d.gather_seconds,
                scatters: d.scatters,
                gathers: d.gathers,
                resident_hits: d.resident_hits + dispatches - 1,
                ..out.metrics
            });
        }
        let outs = self.plan.outs.iter().map(|o| o.1);
        for &(_, buf) in &self.plan.args {
            if !outs.clone().any(|b| b == buf) {
                memory.clear_stale(buf);
            }
        }
        self.stale = true;
        self.record_generations(memory);

        let (logical_messages, physical_messages, logical_bytes, physical_bytes) = match &traffic {
            Some(s) => (
                s.logical_messages,
                s.physical_envelopes,
                s.logical_bytes,
                s.physical_bytes,
            ),
            None => (messages, messages, bytes_exchanged, bytes_exchanged),
        };
        Ok(Some(DistOutcome {
            per_rank,
            makespan_seconds: body_wall + self.driver_wall,
            fault_stats,
            schedule: self.plan.schedule,
            bytes_exchanged,
            messages,
            scheduler: opts.mode,
            workers,
            steals,
            parks,
            logical_messages,
            physical_messages,
            logical_bytes,
            physical_bytes,
            halo_depth: self.plan.kernel.halo_depth,
            dispatches,
            exchange_rounds,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-cell reference walk the row-wise one must agree with.
    fn for_each_cell(strides: &[i64], region: &[(i64, i64)], mut f: impl FnMut(usize)) {
        for_each_run(strides, region, |lin, len| {
            (lin..lin + len).for_each(&mut f)
        });
    }

    #[test]
    fn pack_unpack_round_trip_is_exact() {
        let strides = [1i64, 4, 12];
        let data: Vec<f64> = (0..24).map(|i| i as f64).collect();
        let region = [(1, 3), (0, 3), (1, 2)];
        let payload = pack_region_based(&data, &strides, &region, 0);
        assert_eq!(payload.len(), region_cells(&region));
        let mut dst = vec![0.0; 24];
        unpack_region_based(&mut dst, &strides, &region, 0, &payload);
        let mut expect = vec![0.0; 24];
        for_each_cell(&strides, &region, |lin| expect[lin] = data[lin]);
        assert_eq!(dst, expect);
    }

    #[test]
    fn based_pack_matches_full_buffer_pack() {
        // A 4×6 column-major view windowed to slabs 2..5 of the slow dim:
        // packing any region inside the window must read the same cells as
        // the full-buffer pack.
        let strides = [1i64, 4];
        let full: Vec<f64> = (0..24).map(|i| i as f64 * 1.5).collect();
        let base = 2 * 4; // win_lo = 2 slabs
        let window: Vec<f64> = full[base as usize..5 * 4].to_vec();
        let region = [(1, 3), (2, 5)];
        assert_eq!(
            pack_region_based(&window, &strides, &region, base),
            pack_region_based(&full, &strides, &region, 0)
        );
        let payload = vec![99.0; region_cells(&region)];
        let mut w2 = window.clone();
        unpack_region_based(&mut w2, &strides, &region, base, &payload);
        let mut f2 = full.clone();
        unpack_region_based(&mut f2, &strides, &region, 0, &payload);
        assert_eq!(w2[..], f2[base as usize..5 * 4]);
    }

    #[test]
    fn slab_major_detects_dense_layouts() {
        let dense = ViewSpec {
            extents: vec![4, 6],
            strides: vec![1, 4],
            source: ViewSource::Arg(0),
            lbs: None,
        };
        assert!(slab_major(&dense, 1));
        let transposed = ViewSpec {
            extents: vec![4, 6],
            strides: vec![6, 1],
            source: ViewSource::Arg(0),
            lbs: None,
        };
        assert!(!slab_major(&transposed, 1));
        let one_d = ViewSpec {
            extents: vec![8],
            strides: vec![1],
            source: ViewSource::Arg(0),
            lbs: None,
        };
        assert!(slab_major(&one_d, 0));
    }

    #[test]
    fn interior_and_shells_tile_the_box_exactly_once() {
        let own = [(2i64, 8), (1, 4)];
        let (interior, shells) = split_interior_boundary(&own, &[1, 1], &[2, 0]);
        let strides = [1i64, 16];
        let mut count = vec![0u32; 16 * 8];
        for_each_cell(&strides, &interior, |lin| count[lin] += 1);
        for shell in &shells {
            for_each_cell(&strides, shell, |lin| count[lin] += 1);
        }
        let mut seen = 0usize;
        for_each_cell(&strides, &own, |lin| {
            assert_eq!(count[lin], 1, "cell {lin} covered {} times", count[lin]);
            seen += 1;
        });
        assert_eq!(seen, region_cells(&own));
        assert_eq!(count.iter().map(|&c| c as usize).sum::<usize>(), seen);
    }

    /// The scatter this module shipped with, kept as the reference the
    /// one-pass one must match bit for bit: zeroed buffers, argument buffers
    /// NaN-filled whole, then every argument view's visible region copied in.
    fn reference_scatter_rank(p: &Plan, coords: &[i64], caller: &Memory) -> RankMem {
        let views = &p.kernel.views;
        let l = p.bounds.len() - 1;
        let part = p.part(l, coords);
        let win_of = |view: &ViewSpec| -> (i64, i64) {
            let (ext, lb, (olb, oub)) = (view.extents[l], lower(view, l), part);
            if !p.windowed {
                return (0, ext);
            } else if olb >= oub {
                return (0, 0);
            }
            let lo = if olb == p.bounds[l].0 {
                0
            } else {
                (olb - p.margin - lb).max(0)
            };
            let hi = if oub == p.bounds[l].1 {
                ext
            } else {
                (oub + p.margin - lb).min(ext)
            };
            (lo, hi.max(lo))
        };
        let mut mem = Memory::new();
        let caller_buf = |i: usize| p.args.iter().find(|a| a.0 == i).map(|a| a.1);
        let mut arg_buf: HashMap<usize, BufId> = HashMap::new();
        let (mut bufs, mut ck_bufs, mut bases, mut wins) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for view in views {
            let win = win_of(view);
            let arg = match view.source {
                ViewSource::Arg(i) => Some(i),
                ViewSource::SnapshotOf(_) => None,
            };
            let buf = match arg.and_then(|i| arg_buf.get(&i)) {
                Some(&b) => b,
                None => {
                    let len = if p.windowed {
                        (view.strides[l] * (win.1 - win.0)) as usize
                    } else if let Some(src) = arg.and_then(caller_buf) {
                        caller.buffer(src).len()
                    } else {
                        view.checked_len().unwrap()
                    };
                    let b = mem.alloc_buffer(len);
                    if let Some(i) = arg {
                        mem.buffer_mut(b).fill(f64::NAN);
                        arg_buf.insert(i, b);
                    }
                    b
                }
            };
            if !ck_bufs.contains(&buf) {
                ck_bufs.push(buf);
            }
            bufs.push(buf);
            bases.push(view.strides[l] * win.0);
            wins.push(win);
        }
        for (v, view) in views.iter().enumerate() {
            let ViewSource::Arg(i) = view.source else {
                continue;
            };
            let Some(src) = caller_buf(i) else {
                continue;
            };
            let dst = mem.buffer_mut(bufs[v]);
            let vis = p.visible(v, coords);
            copy_region(dst, bases[v], caller.buffer(src), 0, &view.strides, &vis);
        }
        RankMem {
            mem,
            bufs,
            ck_bufs,
            bases,
            wins,
        }
    }

    /// A plan over `grid` for views of `extents` (lower bounds 0, `strides`
    /// or column-major): two arguments, the first viewed twice, and a
    /// snapshot of it; the interior `1..extent-1` is the canonical domain.
    fn scatter_plan(
        extents: &[i64],
        strides: Option<Vec<i64>>,
        grid: &[i64],
        caller: &mut Memory,
        budget: Option<Arc<MemoryBudget>>,
    ) -> Plan {
        let ndims = extents.len();
        let view = |source| ViewSpec {
            extents: extents.to_vec(),
            strides: strides
                .clone()
                .unwrap_or_else(|| crate::value::column_major_strides(extents)),
            source,
            lbs: Some(vec![0; ndims]),
        };
        let views = vec![
            view(ViewSource::Arg(0)),
            view(ViewSource::Arg(1)),
            view(ViewSource::SnapshotOf(0)),
            view(ViewSource::Arg(0)),
        ];
        let cells = extents.iter().product::<i64>() as usize;
        let args = (0..2)
            .map(|i| {
                let b = caller.alloc_buffer(cells);
                // Distinct bit patterns everywhere, a signed zero included.
                let fill = |(c, x): (usize, &mut f64)| *x = -((c + cells * i) as f64) * 0.5;
                caller.buffer_mut(b).iter_mut().enumerate().for_each(fill);
                (i, b)
            })
            .collect();
        Plan {
            windowed: windowable(&views, ndims - 1),
            kernel: CompiledKernel {
                name: "scatter_test".into(),
                args: vec![crate::kernel::ArgKind::Ptr; 2],
                views,
                nests: Vec::new(),
                kind: crate::kernel::PlanKind::Cpu,
                decomposition: grid.to_vec(),
                halo_depth: 1,
                jit_warnings: Vec::new(),
                pipeline: None,
            },
            grid: ProcessGrid::new(grid.to_vec()),
            bounds: extents.iter().map(|&e| (1, e - 1)).collect(),
            from: ndims - grid.len(),
            args,
            outs: Vec::new(),
            read_first: vec![true; 4],
            schedule: HaloSchedule::Overlap,
            trails: Vec::new(),
            margin: 1,
            budget,
        }
    }

    fn window_bits(rm: &RankMem) -> Vec<Vec<u64>> {
        let bits = |&b: &BufId| rm.mem.buffer(b).iter().map(|x| x.to_bits()).collect();
        rm.bufs.iter().map(bits).collect()
    }

    #[test]
    fn one_pass_scatter_builds_the_reference_windows_bit_for_bit() {
        // 1-D, 2-D over a 2x2 grid, 3-D over 2x2 (first dimension whole), a
        // transposed layout that cannot be windowed, and 4 ranks over a
        // 2-cell interior (two of them idle).
        type Case<'a> = (&'a [i64], Option<Vec<i64>>, &'a [i64]);
        let cases: [Case; 5] = [
            (&[11], None, &[3]),
            (&[8, 9], None, &[2, 2]),
            (&[5, 7, 8], None, &[2, 2]),
            (&[6, 7], Some(vec![7, 1]), &[2]),
            (&[5, 4], None, &[4]),
        ];
        for (extents, strides, grid) in cases {
            let mut caller = Memory::new();
            let p = scatter_plan(extents, strides.clone(), grid, &mut caller, None);
            assert_eq!(p.windowed, strides.is_none(), "{extents:?}");
            let size = p.grid.size() as usize;
            let reference: Vec<RankMem> = (0..size)
                .map(|r| reference_scatter_rank(&p, &p.grid.coords(r as i64), &caller))
                .collect();
            let idle = reference.iter().filter(|rm| rm.wins[0] == (0, 0)).count();
            assert_eq!(idle, if grid == [4] { 2 } else { 0 }, "{extents:?}");
            for workers in [1, 2, size + 1] {
                let mut metrics = vec![RankMetrics::default(); size];
                let got = scatter_ranks(&p, &caller, workers, &mut metrics).unwrap();
                assert_eq!(got.len(), size);
                assert!(metrics.iter().all(|m| m.scatters == 1));
                for (rank, (new, old)) in got.iter().zip(&reference).enumerate() {
                    let what = format!("{extents:?} rank {rank}, {workers} workers");
                    assert_eq!(window_bits(new), window_bits(old), "{what}");
                    assert_eq!(
                        (&new.bufs, &new.ck_bufs),
                        (&old.bufs, &old.ck_bufs),
                        "{what}"
                    );
                    assert_eq!((&new.bases, &new.wins), (&old.bases, &old.wins), "{what}");
                }
            }
        }
    }

    #[test]
    fn a_scatter_the_budget_refuses_midway_is_coded_and_refunds_every_chunk() {
        let mut caller = Memory::new();
        let unlimited = MemoryBudget::unlimited();
        let p = scatter_plan(&[8, 9], None, &[2, 2], &mut caller, Some(unlimited.clone()));
        let mut metrics = vec![RankMetrics::default(); 4];
        let ranks = scatter_ranks(&p, &caller, 2, &mut metrics).unwrap();
        let need = unlimited.used();
        assert!(need > 0);
        drop(ranks);
        assert_eq!(unlimited.used(), 0);
        // Enough for some ranks of each chunk, not for all four.
        let tight = MemoryBudget::limited(need * 5 / 8);
        let p = Plan {
            budget: Some(tight.clone()),
            ..p
        };
        for workers in [1, 2, 4] {
            let err = match scatter_ranks(&p, &caller, workers, &mut metrics) {
                Ok(_) => panic!("{workers} workers: the budget admitted every rank"),
                Err(e) => e,
            };
            assert_eq!(err.diagnostics[0].code, codes::MEM_BUDGET, "{err}");
            assert_eq!(tight.used(), 0, "{workers} workers: ledger must drain");
        }
    }

    /// Region `stencil_region_1` of `src`, lowered for one CPU.
    fn time_step(src: &str) -> CompiledKernel {
        use fsc_ir::Pass as _;
        use fsc_passes::stencil_to_scf::{lower_stencils, LoweringTarget};
        let mut m = fsc_fortran::compile_to_fir(src).unwrap();
        fsc_passes::discover::discover_stencils(&mut m).unwrap();
        fsc_passes::merge::merge_adjacent_applies(&mut m).unwrap();
        let mut st = fsc_passes::extract::extract_stencils(&mut m).unwrap();
        lower_stencils(&mut st, LoweringTarget::Cpu).unwrap();
        fsc_passes::canonicalize::Canonicalize.run(&mut st).unwrap();
        crate::kernel::compile_kernel(&st, "stencil_region_1").unwrap()
    }

    #[test]
    fn only_views_read_before_they_are_written_are_seeded() {
        // GS's step reads `u` at offsets, writes `un`, then copies `un`
        // into `u`: `u` is seeded, `un` is written first, at any bounds.
        let gs = fsc_workloads::gauss_seidel::fortran_source(6, 2);
        for source in [
            gs.clone(),
            gs.replace("(0:n+1, 0:n+1, 0:n+1)", "(n+2, n+2, n+2)"),
        ] {
            let k = time_step(&source);
            let (un, u) = (k.nests[0].out_views[0], k.nests[1].out_views[0]);
            let seeded = k.read_first();
            assert!(seeded[u] && !seeded[un], "{seeded:?}");
        }
        // A later nest reading outside the cells the first one wrote, the
        // writing nest reading the view itself, a read a plane off.
        let mut k = time_step(&gs);
        let un = k.nests[0].out_views[0];
        assert!(!k.read_first()[un]);
        k.nests[1].bounds[0].0 -= 1;
        assert!(
            k.read_first()[un],
            "the copy reads a cell the stencil never wrote"
        );
        let mut k = time_step(&gs);
        k.nests[0].reach.insert((un, false), vec![(0, 0); 3]);
        assert!(k.read_first()[un], "the stencil reads what it writes");
        let mut k = time_step(&gs);
        k.nests[1]
            .reach
            .insert((un, false), vec![(0, 0), (0, 0), (1, 1)]);
        assert!(k.read_first()[un], "the copy reads a plane off");
    }

    #[test]
    fn whole_planes_move_as_one_run() {
        let strides = [1i64, 4, 12];
        let runs = |region: &[(i64, i64)]| {
            let mut out = Vec::new();
            for_each_run(&strides, region, |lin, len| out.push((lin, len)));
            out
        };
        assert_eq!(runs(&[(0, 4), (0, 3), (1, 3)]), [(12, 24)]);
        assert_eq!(runs(&[(0, 4), (1, 3), (1, 3)]), [(16, 8), (28, 8)]);
        assert_eq!(runs(&[(1, 3), (0, 3), (1, 2)]), [(13, 2), (17, 2), (21, 2)]);
    }

    #[test]
    fn empty_interior_still_tiles_exactly() {
        let own = [(5i64, 6)];
        let (interior, shells) = split_interior_boundary(&own, &[1], &[1]);
        assert_eq!(region_cells(&interior), 0);
        let strides = [1i64];
        let mut count = [0u32; 8];
        for shell in &shells {
            for_each_cell(&strides, shell, |lin| count[lin] += 1);
        }
        assert_eq!(count[5], 1);
        assert_eq!(count.iter().sum::<u32>(), 1);
    }
}
