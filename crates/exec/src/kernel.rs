//! The stencil kernel compiler and runners — the optimised execution tier.
//!
//! [`compile_kernel`] pattern-matches the loop shapes the lowering passes
//! generate (CPU `scf.parallel`+`scf.for`, tiled nests, `omp` nests, GPU
//! launches) and compiles each loop nest of a region function to
//! [`BodyProgram`] bytecode with per-view strides and relative offsets
//! resolved at compile time. A region may hold *several* nests (e.g. the
//! Gauss–Seidel compute sweep followed by the copy sweep, sharing field
//! views). On one thread they run *pipelined*: each nest trails the one
//! before it by a compile-time lag of slowest-dimension planes, so a step
//! runs every nest over a few planes and the next nest reads what the
//! previous one just wrote while it is still cached. Every cell computes
//! the same values as in nest-at-a-time order, which is the one-step case
//! of the same loop (see [`run_kernel`]).
//!
//! Runners ([`run_kernel`]):
//! * single thread — innermost (unit-stride) dimension as the contiguous
//!   hot loop;
//! * work-shared (`omp.wsloop`): contiguous output slabs, as many as the
//!   work repays spawns for ([`SPLIT_WORK`]), fanned out with the calling
//!   thread as worker 0 ([`fsc_ir::par::fan_out`]);
//! * GPU plans execute on the CPU for correctness while the driver charges
//!   modeled time (see `fsc-gpusim`).

// Kernels run on input-derived shapes: every failure is a coded error.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::HashMap;
use std::sync::Arc;

use fsc_dialects::arith::CmpPredicate;
use fsc_dialects::{fir, func, gpu, memref, mpi, omp, scf};
use fsc_ir::diag::{codes, Diagnostic};
use fsc_ir::{Attribute, BlockId, IrError, Module, OpId, Result, Type, ValueId};

use crate::bytecode::{BinKind, BodyProgram, CmpKind, Instr, UnKind};
use crate::jit::{JitProgram, JitRegs, Walk};
use crate::plan::ExecPlan;
use crate::specialize::{self, ExecPath, SpecBody};
use crate::value::{column_major_strides, BufId, Memory};

fn err(msg: impl std::fmt::Display) -> IrError {
    IrError::new(format!("kernel compiler: {msg}"))
}

/// Kind of kernel argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgKind {
    /// Pointer to an array buffer.
    Ptr,
    /// Scalar passed by value.
    Scalar,
}

/// A runtime kernel argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelArg {
    /// Array buffer.
    Buf(BufId),
    /// Scalar value.
    Scalar(f64),
}

/// Where a view's storage comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewSource {
    /// The pointer argument with this function-argument index.
    Arg(usize),
    /// A value-semantics snapshot of another view (in-place stencils);
    /// refreshed before each nest that lists it in [`Nest::snapshots`].
    SnapshotOf(usize),
}

/// A lowered memref view.
#[derive(Debug, Clone)]
pub struct ViewSpec {
    /// Storage origin.
    pub source: ViewSource,
    /// Per-dimension extents (dimension 0 fastest).
    pub extents: Vec<i64>,
    /// Column-major strides.
    pub strides: Vec<i64>,
    /// Global coordinate of element 0 per dimension, when the lowering
    /// carried it (`memref::LOWER_BOUNDS`): iteration coordinate `c` of
    /// dimension `d` addresses slab `c - lbs[d]`. Accesses already fold it
    /// into their offsets; only the distributed executor needs it apart.
    pub lbs: Option<Vec<i64>>,
}

impl ViewSpec {
    /// Total element count.
    pub fn len(&self) -> usize {
        self.extents.iter().product::<i64>().max(0) as usize
    }

    /// Overflow-checked element count (coded `E0807` near `usize::MAX`).
    pub fn checked_len(&self) -> fsc_ir::Result<usize> {
        crate::budget::checked_elems(&self.extents)
    }

    /// True when the view holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Halo schedule the `mpi-overlap-halos` pass proved legal for a nest.
///
/// Present only when every access is a "star" stencil with respect to the
/// decomposition (nonzero offsets in at most one decomposed dimension), so
/// face messages carry all remote dependencies and the iteration space
/// splits exactly into a halo-independent interior plus boundary shells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaloSchedule {
    /// Receive every face, then compute the whole owned block.
    Blocking,
    /// Compute the interior while messages are in flight; finish the
    /// boundary shells after `waitall`.
    Overlap,
}

/// One halo exchange required before a nest executes (distributed plans).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpiExchange {
    /// View being exchanged.
    pub view: usize,
    /// Data dimension crossed.
    pub dim: usize,
    /// +1 towards upper neighbour, -1 towards lower.
    pub direction: i64,
    /// Halo width in cells.
    pub width: i64,
    /// Message tag.
    pub tag: i64,
}

/// One compiled loop nest of a region.
#[derive(Debug, Clone)]
pub struct Nest {
    /// Half-open iteration bounds per dimension, in global coordinates.
    pub bounds: Vec<(i64, i64)>,
    /// Indices (into the kernel's views) that this nest writes.
    pub out_views: Vec<usize>,
    /// The body bytecode (generic form — the accounting source of truth).
    pub program: BodyProgram,
    /// Superinstruction-fused variant of `program` (the FusedVm path).
    /// Same op counts, fewer dispatches; see `specialize::fuse_program`.
    pub fused: BodyProgram,
    /// Native specialized realisation when the body is the PW advection
    /// triple (the Specialized path); see `specialize::specialize_program`.
    pub specialized: Option<SpecBody>,
    /// Stitched dispatch-free realisation of `fused` (the Jit path),
    /// built for and owned by this nest (clones of the nest share it).
    /// `None` when stitching was skipped (see [`crate::jit::JitSkip`]); the
    /// skip is reported as an `E0705` warning on the kernel, never an error.
    pub jit: Option<Arc<JitProgram>>,
    /// Execution path this nest runs through. Defaults to the fastest
    /// available tier; tests override via
    /// [`CompiledKernel::force_exec_path`].
    pub path: ExecPath,
    /// Halo exchanges preceding this nest (distributed plans).
    pub exchanges: Vec<MpiExchange>,
    /// Halo schedule proved legal by `mpi-overlap-halos` (carried on the
    /// loop root as the `"halo_schedule"` attribute); `None` means the
    /// interior/boundary split was not proved and the distributed executor
    /// must not run this nest rank-parallel.
    pub halo_schedule: Option<HaloSchedule>,
    /// Snapshot views to refresh (copy from source) before this nest.
    pub snapshots: Vec<usize>,
    /// How this nest is swept: cache-block tiles and unroll factor, from
    /// the loop root's `"tiled"`/`"unroll"` attributes (untiled, unrolled
    /// once when the pipeline set neither). Tests and ablations override
    /// it via [`CompiledKernel::force_plan`].
    pub plan: ExecPlan,
    /// The subscript constants of its accesses, per view and direction.
    pub(crate) reach: Reach,
}

impl Nest {
    /// Per dimension, the `(min, max)` subscript constant of its loads (or
    /// stores) of `view` — lower bound folded in — or `None` when it has
    /// none.
    pub(crate) fn subscripts(&self, view: usize, store: bool) -> Option<&[(i64, i64)]> {
        self.reach.get(&(view, store)).map(Vec::as_slice)
    }

    /// Number of grid cells in this nest's iteration domain.
    pub fn domain_cells(&self) -> u64 {
        self.bounds
            .iter()
            .map(|&(lb, ub)| (ub - lb).max(0) as u64)
            .product()
    }
}

/// GPU data-movement strategy (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuStrategy {
    /// `gpu.host_register`: demand paging on every launch.
    HostRegister,
    /// Explicit ensure-valid copies with device residency.
    Explicit,
}

/// How the kernel is meant to execute.
#[derive(Debug, Clone)]
pub enum PlanKind {
    /// Single-threaded CPU loops.
    Cpu,
    /// Work-shared CPU loops.
    Omp {
        /// Requested team size (0 = runtime default).
        num_threads: usize,
    },
    /// GPU launch (executed on CPU, timed by the V100 model).
    Gpu {
        /// Grid dimensions.
        grid: [i64; 3],
        /// Thread-block dimensions.
        block: [i64; 3],
        /// Data strategy.
        strategy: GpuStrategy,
        /// Function-argument indices read by the kernel.
        read_args: Vec<usize>,
        /// Function-argument indices written by the kernel.
        written_args: Vec<usize>,
    },
}

/// Work metrics of one kernel invocation (drives the GPU/network models).
#[derive(Debug, Clone, Default)]
pub struct KernelStats {
    /// Grid cells processed (sum over nests).
    pub cells: u64,
    /// Floating point operations.
    pub flops: u64,
    /// Bytes loaded from arrays.
    pub bytes_read: u64,
    /// Bytes stored to arrays.
    pub bytes_written: u64,
    /// Execution path of each nest, in nest order.
    pub paths: Vec<ExecPath>,
    /// Execution plan of each nest, in nest order.
    pub plans: Vec<ExecPlan>,
}

/// A fully compiled region, callable through [`run_kernel`].
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// Function symbol name (`stencil_region_N`).
    pub name: String,
    /// Argument kinds, in signature order.
    pub args: Vec<ArgKind>,
    /// Views shared by all nests.
    pub views: Vec<ViewSpec>,
    /// Loop nests in execution order.
    pub nests: Vec<Nest>,
    /// Execution flavour.
    pub kind: PlanKind,
    /// Process-grid decomposition (distributed plans; empty otherwise).
    pub decomposition: Vec<i64>,
    /// Ghost-layer depth `k` stamped by the deep-halo pass: swap widths in
    /// the exchange attrs are already multiplied by `k`, and the executor
    /// may amortise one exchange over `k` dispatches. `1` = classic halos.
    pub halo_depth: u32,
    /// Coded `E0705` warnings for nests whose stitching was skipped. Never
    /// fatal — surfaced through run reports so callers can attest
    /// degradation.
    pub jit_warnings: Vec<Diagnostic>,
    /// The plane-interleaved schedule of the nests, when one is legal
    /// ([`run_kernel`]); `None` runs them in order.
    pub(crate) pipeline: Option<Pipeline>,
}

/// Bytes of slowest-dimension planes one pipeline step may hold across
/// every view the kernel touches: half of a 2 MiB per-core L2, so what a
/// nest writes in a step is still cached when the next nest reads it.
const STEP_BYTES: i64 = 1 << 20;

/// Bytes of planes a [`Sweep`] of `k` dispatches at period `D` may keep
/// live on every view: `(k − 1)·D + S` planes, `S` the planes one dispatch
/// spans. GS n=192 × 64 (2 MiB L2 per core, 105 MiB L3 shared with other
/// tenants) ran 2.10 s at k = 1, 1.53–1.59 s at k = 6–10 (windows of
/// 8–13 MB), 1.97 s at 13 (16 MB) and 2.3–2.5 s at 16–64 (DESIGN.md §15).
const WINDOW_BYTES: i64 = 10 << 20;

/// A legal skewed schedule for a region's nests: planes of the slowest
/// dimension per step, blocks of dimension-1 rows around the steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Pipeline {
    /// Per nest, the slowest-dimension planes it trails the step by.
    pub(crate) lags: Vec<i64>,
    /// Planes each nest runs per step.
    pub(crate) planes: i64,
    /// Planes each dispatch of a sweep trails the one before by (`D`).
    pub(crate) period: i64,
    /// Most dispatches one sweep runs ([`WINDOW_BYTES`]).
    pub(crate) batch: usize,
    /// Per nest, the dimension-1 rows it trails the block by (`Lʲ`).
    pub(crate) row_lags: Vec<i64>,
    /// Rows each dispatch of a sweep trails the one before by (`Dʲ`).
    pub(crate) row_period: i64,
    /// Rows each block spans (`J`); `i64::MAX` when one block spans them.
    pub(crate) rows: i64,
}

/// One work item of a sweep: dispatch `dispatch` runs the `nest`-th of the
/// walk's nests over `bounds`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Item<'b> {
    pub(crate) dispatch: usize,
    pub(crate) nest: usize,
    pub(crate) bounds: &'b [(i64, i64)],
}

impl Pipeline {
    /// `nests` nests run whole and in order: every lag 0, one step and one
    /// block spanning the domain, one dispatch.
    pub(crate) fn in_order(nests: usize) -> Self {
        Self {
            lags: vec![0; nests],
            planes: i64::MAX,
            period: 0,
            batch: 1,
            row_lags: vec![0; nests],
            row_period: 0,
            rows: i64::MAX,
        }
    }

    /// The one step loop: hand `run` the work items of `dispatches`
    /// dispatches of nests whose base boxes are `boxes` (nest `i` at lag
    /// `lags[i]`), in the order they run. Items come phase by phase, a
    /// phase being one step of one block of rows: step `s` of block `b`
    /// runs nest `i` of dispatch `c` over the slowest-dimension planes
    /// `[s − c·D − L_i, s − c·D − L_i + B)` and the dimension-1 rows
    /// `[b·J − c·Dʲ − Lʲ_i, (b+1)·J − c·Dʲ − Lʲ_i)` of its box, dispatches
    /// and then nests in order, and a box clipped to nothing yields no
    /// item; steps advance by `B`, blocks by `J` (DESIGN.md §15).
    pub(crate) fn walk(
        &self,
        boxes: &[&[(i64, i64)]],
        dispatches: usize,
        mut run: impl FnMut(Item<'_>),
    ) {
        let Some(slow) = boxes.first().and_then(|b| b.len().checked_sub(1)) else {
            return;
        };
        let (last, planes) = (dispatches as i64 - 1, self.planes.max(1));
        // Dimension 1 is the slowest of a rank-2 domain: its steps split it.
        let rows = if slow < 2 { i64::MAX } else { self.rows.max(1) };
        let range = |lags: &[i64], dim| dim_range(boxes.iter().copied(), lags, dim);
        let (first_step, end) = range(&self.lags, slow);
        let end = end.saturating_add(self.period.saturating_mul(last));
        // Unblocked rows are one block, whatever the rank.
        let (mut row, row_end) = if rows == i64::MAX {
            (0, 1)
        } else {
            range(&self.row_lags, 1)
        };
        let row_end = row_end.saturating_add(self.row_period.saturating_mul(last));
        let clip = |(lb, ub): (i64, i64), from: i64, n: i64| {
            (lb.max(from), ub.min(from.saturating_add(n)))
        };
        let mut local = Vec::with_capacity(slow + 1);
        while row < row_end {
            let mut step = first_step;
            while step < end {
                for dispatch in 0..dispatches {
                    let c = dispatch as i64;
                    let nests = boxes.iter().zip(&self.lags).zip(&self.row_lags);
                    for (nest, ((b, &lag), &row_lag)) in nests.enumerate() {
                        let plane = step.saturating_sub(self.period.saturating_mul(c) + lag);
                        let from = row.saturating_sub(self.row_period.saturating_mul(c) + row_lag);
                        local.clear();
                        local.extend_from_slice(b);
                        local[slow] = clip(local[slow], plane, planes);
                        if rows < i64::MAX {
                            local[1] = clip(local[1], from, rows);
                        }
                        if local.iter().all(|&(lb, ub)| lb < ub) {
                            run(Item {
                                dispatch,
                                nest,
                                bounds: &local,
                            });
                        }
                    }
                }
                step = step.saturating_add(planes);
            }
            row = row.saturating_add(rows);
        }
    }
}

impl CompiledKernel {
    /// Each nest's lag, in slowest-dimension planes, when a single-threaded
    /// [`run_kernel`] runs this region pipelined (an `omp` region on one
    /// thread too); `None` when it runs the nests in order (no legal
    /// schedule, one nest with cells, or one step and block spanning the
    /// domain). A run on more than one thread is in order.
    pub fn lags(&self) -> Option<&[i64]> {
        let (p, live) = self.stepping()?;
        (live > 1).then_some(p.lags.as_slice())
    }

    /// The pipeline a single-threaded [`Sweep`] of this region steps
    /// through and its nests with cells; `None` when one step and one block
    /// span the domain (or there is no legal schedule), so every nest runs
    /// whole and in order.
    fn stepping(&self) -> Option<(&Pipeline, usize)> {
        let p = self.pipeline.as_ref()?;
        let live = self.nests.iter().filter(|n| n.domain_cells() > 0).count();
        let slow = self.nests.first()?.bounds.len().checked_sub(1)?;
        let (first, end) = dim_range(self.nests.iter().map(|n| &n.bounds[..]), &p.lags, slow);
        (p.planes < end.saturating_sub(first) || p.rows < i64::MAX).then_some((p, live))
    }

    /// Each nest's slabs in a [`run_kernel`] on `threads` workers (the
    /// [`SPLIT_WORK`] rule; a split whose slabs overlap runs on one).
    pub fn slabs(&self, threads: usize) -> Vec<usize> {
        self.nests
            .iter()
            .map(|n| slab_count(&n.bounds, n.program.instrs.len(), threads))
            .collect()
    }

    /// One line for `fsc`, what a single-threaded [`Sweep`] of the region
    /// runs: `pipelined, lags [0, 1], period 2, 1 plane/step, 19
    /// rows/block` (no block when one spans the rows); for one nest with
    /// cells, which a dispatch alone runs whole, `in order alone, batched:
    /// period 0, 1 plane/step, 56 rows/block`; `in order` when one step and
    /// block span the domain. On `threads > 1`, `in order, slabs [2, 1]`;
    /// an `omp` region on one thread prints what `cpu` prints.
    pub fn schedule(&self, threads: usize) -> String {
        if threads > 1 {
            return format!("in order, slabs {:?}", self.slabs(threads));
        }
        let Some((p, live)) = self.stepping() else {
            return "in order".to_string();
        };
        let mut line = match live {
            1 => "in order alone, batched: ".to_string(),
            _ => format!("pipelined, lags {:?}, ", p.lags),
        };
        let plural = if p.planes == 1 { "" } else { "s" };
        line += &format!("period {}, {} plane{plural}/step", p.period, p.planes);
        if p.rows < i64::MAX {
            line += &format!(", {} rows/block", p.rows);
        }
        line
    }

    /// Work metrics for one invocation (summed over nests).
    pub fn stats(&self) -> KernelStats {
        let mut s = KernelStats::default();
        for nest in &self.nests {
            let cells = nest.domain_cells();
            s.cells += cells;
            // Always account against the generic program: specialization
            // and fusion preserve op counts by construction, and using one
            // source of truth keeps the models immune to path overrides.
            s.flops += cells * nest.program.flops_per_cell;
            s.bytes_read += cells * nest.program.loads_per_cell * 8;
            s.bytes_written += cells * nest.program.stores_per_cell * 8;
            s.paths.push(nest.path);
            s.plans.push(nest.plan.clone());
        }
        s
    }

    /// True when any nest carries halo exchanges (distributed plan).
    pub fn is_distributed(&self) -> bool {
        self.nests.iter().any(|n| !n.exchanges.is_empty())
    }

    /// Force every nest onto `path` where that tier is available; nests
    /// without a specialized (or stitched) form keep their current path
    /// when `Specialized` (or `Jit`) is requested. Returns how many nests
    /// were switched. Intended for differential tests (`tests/property.rs`)
    /// and the tier benches.
    pub fn force_exec_path(&mut self, path: ExecPath) -> usize {
        let mut switched = 0;
        for nest in &mut self.nests {
            if path == ExecPath::Specialized && nest.specialized.is_none() {
                continue;
            }
            if path == ExecPath::Jit && nest.jit.is_none() {
                continue;
            }
            if nest.path != path {
                switched += 1;
            }
            nest.path = path;
        }
        switched
    }

    /// Set every nest's execution plan. Used by benches and tests to
    /// force specific tile/unroll shapes.
    ///
    /// The stitcher reads the plan (its unroll knob picks the chain
    /// skeleton), so a plan change re-stitches each jit-capable nest. A
    /// nest whose stitching is skipped under the new plan degrades to the
    /// fused VM.
    pub fn force_plan(&mut self, plan: &ExecPlan) {
        for nest in &mut self.nests {
            nest.plan = plan.clone();
            if nest.jit.is_some() || nest.path == ExecPath::Jit {
                nest.jit = JitProgram::build(&nest.fused, plan).ok().map(Arc::new);
                if nest.jit.is_none() && nest.path == ExecPath::Jit {
                    nest.path = ExecPath::FusedVm;
                }
            }
        }
    }
}

// --------------------------------------------------------------------------
// Compilation
// --------------------------------------------------------------------------

/// Compile the function named `func_name` of a fully lowered stencil module.
pub fn compile_kernel(module: &Module, func_name: &str) -> Result<CompiledKernel> {
    let f = func::find_func(module, func_name)
        .ok_or_else(|| err(format!("no function '{func_name}'")))?;
    let entry = f
        .entry_block(module)
        .ok_or_else(|| err(format!("'{func_name}' has no body")))?;
    let (ins, _) = f.signature(module);
    let args: Vec<ArgKind> = ins
        .iter()
        .map(|t| match t {
            Type::LlvmPtr(_) | Type::FirLlvmPtr(_) => ArgKind::Ptr,
            _ => ArgKind::Scalar,
        })
        .collect();
    let decomposition = module
        .op(f.0)
        .attr("dmp_decomposition")
        .and_then(Attribute::as_index_list)
        .map(<[i64]>::to_vec)
        .unwrap_or_default();
    let halo_depth = module
        .op(f.0)
        .attr("dmp_halo_depth")
        .and_then(Attribute::as_int)
        .map_or(1, |d| d.clamp(1, 64) as u32);

    // GPU plan: the host body is a launch; the nests live in the gpu.module.
    if let Some(launch) = module
        .block_ops(entry)
        .into_iter()
        .find(|&o| module.op(o).name.full() == gpu::LAUNCH_FUNC)
    {
        let kernel_sym = module
            .op(launch)
            .attr("kernel")
            .and_then(Attribute::as_symbol)
            .ok_or_else(|| err("launch without kernel symbol"))?
            .to_string();
        let (grid, block) =
            gpu::launch_dims(module, launch).ok_or_else(|| err("launch without dims"))?;
        let strategy = match module
            .op(launch)
            .attr("data_strategy")
            .and_then(Attribute::as_str)
        {
            Some("explicit") => GpuStrategy::Explicit,
            _ => GpuStrategy::HostRegister,
        };
        let read_args = attr_indices(module, launch, "read_args");
        let written_args = attr_indices(module, launch, "written_args");
        let kentry = find_gpu_kernel_block(module, &kernel_sym)?;
        let kargs = module.block_args(kentry).to_vec();
        let (views, nests, jit_warnings, pipeline) = compile_nests(module, kentry, &kargs, &args)?;
        return Ok(CompiledKernel {
            name: func_name.to_string(),
            args,
            views,
            nests,
            kind: PlanKind::Gpu {
                grid,
                block,
                strategy,
                read_args,
                written_args,
            },
            decomposition,
            halo_depth,
            jit_warnings,
            pipeline,
        });
    }

    let arg_values = f.arguments(module);
    let (views, nests, jit_warnings, pipeline) = compile_nests(module, entry, &arg_values, &args)?;
    let kind = match module
        .block_ops(entry)
        .into_iter()
        .find(|&o| module.op(o).name.full() == omp::PARALLEL)
    {
        Some(par) => PlanKind::Omp {
            num_threads: omp::parallel_num_threads(module, par) as usize,
        },
        None => PlanKind::Cpu,
    };
    Ok(CompiledKernel {
        name: func_name.to_string(),
        args,
        views,
        nests,
        kind,
        decomposition,
        halo_depth,
        jit_warnings,
        pipeline,
    })
}

fn attr_indices(module: &Module, op: OpId, key: &str) -> Vec<usize> {
    module
        .op(op)
        .attr(key)
        .and_then(Attribute::as_index_list)
        .map(|l| l.iter().map(|&i| i as usize).collect())
        .unwrap_or_default()
}

fn find_gpu_kernel_block(module: &Module, sym: &str) -> Result<BlockId> {
    for gm in module.top_level_ops_named(gpu::MODULE) {
        let region = module.op(gm).regions[0];
        for block in module.region_blocks(region) {
            for op in module.block_ops(block) {
                if module.op(op).name.full() == gpu::FUNC
                    && module.op(op).attr("sym_name").and_then(Attribute::as_str) == Some(sym)
                {
                    let kregion = module.op(op).regions[0];
                    return Ok(module.region_blocks(kregion)[0]);
                }
            }
        }
    }
    Err(err(format!("gpu kernel '{sym}' not found")))
}

/// Compile every loop nest in `block` in program order, accumulating the
/// shared view list, and derive the nests' pipeline schedule.
#[allow(clippy::type_complexity)]
fn compile_nests(
    module: &Module,
    block: BlockId,
    arg_values: &[ValueId],
    arg_kinds: &[ArgKind],
) -> Result<(Vec<ViewSpec>, Vec<Nest>, Vec<Diagnostic>, Option<Pipeline>)> {
    let mut views: Vec<ViewSpec> = Vec::new();
    let mut view_of_value: HashMap<ValueId, usize> = HashMap::new();
    let mut nests: Vec<Nest> = Vec::new();
    let mut jit_warnings: Vec<Diagnostic> = Vec::new();
    let mut pending_exchanges: Vec<MpiExchange> = Vec::new();
    let mut pending_snapshots: Vec<usize> = Vec::new();
    // Staging buffers (`mpi.pack` / `mpi.halo_buffer` results) → the field
    // view they stage a face of.
    let mut staging_field: HashMap<ValueId, usize> = HashMap::new();

    // Function-arg index lookup.
    let arg_index: HashMap<ValueId, usize> = arg_values
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i))
        .collect();
    // Scalar-arg slot numbering (bytecode Arg indices count scalars only).
    let mut scalar_slot: HashMap<ValueId, u16> = HashMap::new();
    {
        let mut slot = 0u16;
        for (i, &kind) in arg_kinds.iter().enumerate() {
            if kind == ArgKind::Scalar {
                if let Some(&v) = arg_values.get(i) {
                    scalar_slot.insert(v, slot);
                }
                slot += 1;
            }
        }
    }

    for op in module.block_ops(block) {
        let data = module.op(op);
        match data.name.full() {
            memref::FROM_PTR => {
                let src = data.operands[0];
                let idx = *arg_index
                    .get(&src)
                    .ok_or_else(|| err("from_ptr source is not a kernel argument"))?;
                let Type::MemRef { shape, .. } = module.value_type(module.result(op)) else {
                    return Err(err("from_ptr of non-memref"));
                };
                view_of_value.insert(module.result(op), views.len());
                views.push(ViewSpec {
                    source: ViewSource::Arg(idx),
                    strides: column_major_strides(shape),
                    extents: shape.clone(),
                    lbs: data
                        .attr(memref::LOWER_BOUNDS)
                        .and_then(Attribute::as_index_list)
                        .map(<[i64]>::to_vec),
                });
            }
            memref::ALLOC => {
                let Type::MemRef { shape, .. } = module.value_type(module.result(op)) else {
                    return Err(err("alloc of non-memref"));
                };
                view_of_value.insert(module.result(op), views.len());
                views.push(ViewSpec {
                    source: ViewSource::SnapshotOf(usize::MAX),
                    strides: column_major_strides(shape),
                    extents: shape.clone(),
                    lbs: None,
                });
            }
            memref::COPY => {
                let src = *view_of_value
                    .get(&data.operands[0])
                    .ok_or_else(|| err("copy of unknown view"))?;
                let dst = *view_of_value
                    .get(&data.operands[1])
                    .ok_or_else(|| err("copy to unknown view"))?;
                views[dst].source = ViewSource::SnapshotOf(src);
                views[dst].lbs = views[src].lbs.clone();
                pending_snapshots.push(dst);
            }
            mpi::PACK | mpi::HALO_BUFFER => {
                let view = *view_of_value
                    .get(&data.operands[0])
                    .ok_or_else(|| err("halo staging of unknown view"))?;
                staging_field.insert(module.result(op), view);
            }
            mpi::ISEND => {
                let spec =
                    mpi::halo_spec(module, op).ok_or_else(|| err("isend without halo spec"))?;
                // The send goes through a pack staging buffer; resolve it
                // back to the field view it stages (direct field sends are
                // kept for hand-written IR).
                let view = *staging_field
                    .get(&data.operands[0])
                    .or_else(|| view_of_value.get(&data.operands[0]))
                    .ok_or_else(|| err("isend of unknown view"))?;
                pending_exchanges.push(MpiExchange {
                    view,
                    dim: spec.dim as usize,
                    direction: spec.direction,
                    width: spec.width,
                    tag: spec.tag,
                });
            }
            mpi::IRECV
            | mpi::UNPACK
            | mpi::WAITALL
            | mpi::BARRIER
            | mpi::INIT
            | mpi::FINALIZE
            | mpi::COMM_RANK
            | mpi::COMM_SIZE => {}
            "arith.constant" | gpu::HOST_REGISTER | gpu::MEMCPY | gpu::ALLOC | gpu::DEALLOC => {}
            scf::PARALLEL | omp::PARALLEL => {
                let nest = compile_one_nest(
                    module,
                    op,
                    &views,
                    &view_of_value,
                    &scalar_slot,
                    std::mem::take(&mut pending_exchanges),
                    std::mem::take(&mut pending_snapshots),
                    &mut jit_warnings,
                )?;
                nests.push(nest);
            }
            func::RETURN | gpu::RETURN => {}
            other => return Err(err(format!("unexpected op '{other}' in region body"))),
        }
    }
    if nests.is_empty() {
        return Err(err("no loop nest found in region"));
    }
    // Snapshot refreshes and halo exchanges are per-nest events the step
    // loop does not split: such a region runs in order, never batched.
    let unsplittable = nests
        .iter()
        .any(|n| !n.snapshots.is_empty() || !n.exchanges.is_empty());
    let pipeline = pipeline_for(&views, &nests).filter(|_| !unsplittable);
    Ok((views, nests, jit_warnings, pipeline))
}

/// Per `(view, is_store)`, the `(min, max)` subscript constant of one
/// nest's accesses along each dimension: all the lag rule needs to know.
type Reach = HashMap<(usize, bool), Vec<(i64, i64)>>;

/// The smallest non-decreasing lags that keep every dependence between
/// the nests, the period that keeps them between consecutive dispatches,
/// the planes per step and the rows per block.
///
/// Nest `i` runs plane `p` at step `p + L_i`, and within a step the nests
/// run in order, so a cell nest `i < j` touches at plane `p` and nest `j`
/// at plane `q` is still touched by `i` first when `p + L_i ≤ q + L_j`.
/// With `r` and `w` the slowest-dim read and store offsets on a view both
/// nests use, that holds for every such cell when `L_j − L_i` is at least
/// `r_j − w_i` (flow: `j` reads what `i` wrote), `w_j − w_i` (output: `j`
/// writes last) and `w_j − r_i` (anti: `i` reads before `j` overwrites).
///
/// The rule over two copies of the nest list gives the next dispatch's
/// lags `L_{n+i}` and the period `D = max_i (L_{n+i} − L_i) ≥ 0`: dispatch
/// `c` runs nest `i` at lag `c·D + L_i`, which keeps every dependence from
/// dispatch `a` to `b > a`, as `(b − a)·D ≥ L_{n+j} − L_j`.
///
/// The same rule over dimension 1 gives row lags `Lʲ` and a row period
/// `Dʲ`: block `b` runs dispatch `c`'s nest `i` over the rows
/// `[b·J − (c·Dʲ + Lʲ_i), (b+1)·J − (c·Dʲ + Lʲ_i))`, each block every step.
/// A dependence's source runs in a block no later than its sink's, and
/// in that block at a step no later, so the order (block, step, dispatch,
/// nest) keeps it (DESIGN.md §15). `J` fills [`STEP_BYTES`] with the rows
/// of a full sweep's window of planes, or of every plane when the window
/// holds them all, on every view; rank-2 domains, whose
/// dimension 1 is the slowest, and a nest storing one view at two row
/// offsets run whole planes.
///
/// `None` — run in order, never batched — when no nest has cells, a view
/// has fewer dimensions than the domain, or a nest stores one view at two
/// slowest-dim offsets (its cells are written from two planes, and a tiled
/// sweep does not visit planes in order).
fn pipeline_for(views: &[ViewSpec], nests: &[Nest]) -> Option<Pipeline> {
    let rank = nests.first()?.bounds.len();
    let slow = rank.checked_sub(1)?;
    let two_stores = |dim: usize| {
        nests
            .iter()
            .flat_map(|n| &n.reach)
            .any(|(&(_, store), r)| store && r.get(dim).is_some_and(|&(lo, hi)| lo != hi))
    };
    if nests.iter().all(|n| n.domain_cells() == 0)
        || two_stores(slow)
        || views.iter().any(|v| v.extents.len() != rank)
    {
        return None;
    }
    let (lags, period) = lag_rule(nests, slow, views.len())?;
    let bytes_of = |dims: &[i64]| dims.iter().fold(8i64, |b, &e| b.saturating_mul(e));
    let plane_bytes = views.iter().map(|v| bytes_of(&v.extents[..slow])).max()?;
    let set_bytes = plane_bytes.saturating_mul(views.len() as i64).max(1);
    let planes = (STEP_BYTES / set_bytes).max(1);
    // S: at step s nest i touches planes s − L_i + [lo, hi].
    let (mut lead, mut trail) = (i64::MIN, i64::MAX);
    for (n, &lag) in nests.iter().zip(&lags) {
        for &(lo, hi) in n.reach.values().filter_map(|range| range.get(slow)) {
            lead = lead.max(hi.saturating_sub(lag));
            trail = trail.min(lo.saturating_sub(lag));
        }
    }
    let span = lead.saturating_sub(trail).saturating_add(1).max(1);
    // With D = 0 the window does not grow with k; D = 1 still bounds k.
    let room = (WINDOW_BYTES / set_bytes).saturating_sub(span).max(0);
    let batch = (room / period.max(1) + 1) as usize;
    // J: a full window's planes (no more than a view has), `J` rows of each
    // on every view.
    let window = (batch as i64 - 1)
        .saturating_mul(period)
        .saturating_add(span)
        .min(views.iter().map(|v| v.extents[slow]).max()?);
    let row_bytes = views.iter().map(|v| bytes_of(&v.extents[..1])).max()?;
    let row_set = row_bytes.saturating_mul(views.len() as i64);
    let mut rows = (STEP_BYTES / window.saturating_mul(row_set).max(1)).max(1);
    let (row_lags, row_period) = (rank > 2 && !two_stores(1))
        .then(|| lag_rule(nests, 1, views.len()))
        .flatten()
        .unwrap_or_else(|| (vec![0; nests.len()], 0));
    let (first, end) = dim_range(nests.iter().map(|n| &n.bounds[..]), &row_lags, 1);
    if rank < 3 || two_stores(1) || rows >= end.saturating_sub(first) {
        rows = i64::MAX;
    }
    Some(Pipeline {
        lags,
        planes,
        period,
        batch,
        row_lags,
        row_period,
        rows,
    })
}

/// The lag rule of [`pipeline_for`] along dimension `dim`: each nest's
/// lag and the period of the next dispatch.
fn lag_rule(nests: &[Nest], dim: usize, views: usize) -> Option<(Vec<i64>, i64)> {
    let n = nests.len();
    let mut lags = vec![0i64; 2 * n];
    for j in 1..2 * n {
        let mut lag = lags[j - 1];
        for i in 0..j {
            for v in 0..views {
                // (later access in j, earlier access in i): flow, output, anti.
                for (later, earlier) in [(false, true), (true, true), (true, false)] {
                    if let (Some(b), Some(a)) = (
                        nests[j % n].reach.get(&(v, later)).and_then(|r| r.get(dim)),
                        nests[i % n]
                            .reach
                            .get(&(v, earlier))
                            .and_then(|r| r.get(dim)),
                    ) {
                        lag = lag.max(lags[i].saturating_add(b.1.saturating_sub(a.0)));
                    }
                }
            }
        }
        lags[j] = lag;
    }
    let period = (0..n).map(|i| lags[n + i] - lags[i]).max()?;
    lags.truncate(n);
    Some((lags, period))
}

impl CompiledKernel {
    /// Per nest, when it exchanges halos, the [`Pipeline`] of its trail:
    /// it and the pointwise nests after it up to the next one that
    /// exchanges or refreshes a snapshot, which run on each rank in its
    /// phase, plane-interleaved with its interior (DESIGN.md §9): the
    /// lags and planes of [`pipeline_for`] over them, one dispatch, no row
    /// blocks. `None` where that refuses, or where two views share an
    /// argument (the lag rule compares views, not buffers).
    pub(crate) fn trails(&self) -> Vec<Option<Pipeline>> {
        let (nests, views) = (&self.nests, &self.views);
        let shared = |(i, v): (usize, &ViewSpec)| views[..i].iter().any(|w| w.source == v.source);
        let plain = !views.iter().enumerate().any(shared);
        let trail = |g: usize| {
            nests.get(g).filter(|n| plain && !n.exchanges.is_empty())?;
            let stops =
                |&j: &usize| !nests[j].exchanges.is_empty() || !nests[j].snapshots.is_empty();
            let end = (g + 1..nests.len()).find(stops).unwrap_or(nests.len());
            let group = nests
                .get(g..end)
                .filter(|t| t.len() > 1 && nests[g].snapshots.is_empty())?;
            let Pipeline { lags, planes, .. } = pipeline_for(views, group)?;
            Some(Pipeline {
                lags,
                planes,
                ..Pipeline::in_order(group.len())
            })
        };
        (0..nests.len()).map(trail).collect()
    }

    /// Per view, whether a dispatch may read it before writing it. A view is
    /// *write-first* when the first nest touching it stores it at offset 0
    /// (a subscript constant of minus the lower bound in every dimension)
    /// and neither loads, exchanges nor snapshots it, and every later nest
    /// touching it loads it only at offset 0 inside the first nest's bounds
    /// and stores it at one offset per dimension. On every rank of a
    /// distributed run each cell of it read was then written before by the
    /// same dispatch on the same rank — a later nest's box lies inside the
    /// first one's, deep-halo extension or not — so the scatter need not
    /// seed it. A view no nest touches is never read either.
    pub(crate) fn read_first(&self) -> Vec<bool> {
        let views = &self.views;
        let write_first = |v: usize| {
            let snapshot = ViewSource::SnapshotOf(v);
            let moved = |n: &Nest| {
                n.exchanges.iter().any(|e| e.view == v)
                    || n.snapshots.iter().any(|&s| views[s].source == snapshot)
            };
            let touches = |n: &&Nest| moved(n) || n.reach.keys().any(|&(w, _)| w == v);
            let mut touching = self.nests.iter().filter(touches);
            let Some(first) = touching.next() else {
                return true;
            };
            let lb = |d: usize| views[v].lbs.as_ref().map_or(0, |l| l[d]);
            let at_zero =
                |r: &[(i64, i64)]| r.iter().enumerate().all(|(d, &o)| o == (-lb(d), -lb(d)));
            let inside = |n: &Nest| {
                let within = |(a, b): (&(i64, i64), &(i64, i64))| b.0 <= a.0 && a.1 <= b.1;
                n.bounds.iter().zip(&first.bounds).all(within)
            };
            let one_offset = |r: &[(i64, i64)]| r.iter().all(|o| o.0 == o.1);
            first.subscripts(v, true).is_some_and(at_zero)
                && first.subscripts(v, false).is_none()
                && !moved(first)
                && touching.all(|n| {
                    !moved(n)
                        && n.subscripts(v, false)
                            .is_none_or(|r| at_zero(r) && inside(n))
                        && n.subscripts(v, true).is_none_or(one_offset)
                })
        };
        (0..views.len()).map(|v| !write_first(v)).collect()
    }
}

/// Per dimension, the offsets `(a, b)` such that cell `p` of `later` and
/// cell `q` of `earlier` touch one element, at least one of them storing
/// it, only if `p + a ≤ q ≤ p + b`: the cells of `earlier` that must have
/// run before `later` runs `p`. `a > b` where the nests share no view.
pub(crate) fn dependence_window(later: &Nest, earlier: &Nest) -> Vec<(i64, i64)> {
    let mut window = vec![(i64::MAX, i64::MIN); later.bounds.len()];
    for (&(v, later_stores), l) in &later.reach {
        for earlier_stores in [false, true] {
            let e = earlier.reach.get(&(v, earlier_stores));
            let Some(e) = e.filter(|_| later_stores || earlier_stores) else {
                continue;
            };
            for (w, (l, e)) in window.iter_mut().zip(l.iter().zip(e)) {
                *w = (w.0.min(l.0 - e.1), w.1.max(l.1 - e.0));
            }
        }
    }
    window
}

/// First and one-past-last coordinate along dimension `dim` of a sweep:
/// every box shifted by its lag. Boxes without cells take no part.
fn dim_range<'b>(
    boxes: impl Iterator<Item = &'b [(i64, i64)]>,
    lags: &[i64],
    dim: usize,
) -> (i64, i64) {
    boxes
        .zip(lags.iter().copied())
        .filter(|(b, _)| b.iter().all(|&(lb, ub)| lb < ub))
        .filter_map(|(b, lag)| {
            b.get(dim)
                .map(|&(lb, ub)| (lb.saturating_add(lag), ub.saturating_add(lag)))
        })
        .fold((i64::MAX, i64::MIN), |(first, end), (lo, hi)| {
            (first.min(lo), end.max(hi))
        })
}

#[allow(clippy::too_many_arguments)]
fn compile_one_nest(
    module: &Module,
    loop_root: OpId,
    views: &[ViewSpec],
    view_of_value: &HashMap<ValueId, usize>,
    scalar_slot: &HashMap<ValueId, u16>,
    exchanges: Vec<MpiExchange>,
    snapshots: Vec<usize>,
    jit_warnings: &mut Vec<Diagnostic>,
) -> Result<Nest> {
    let mut iv_bounds: HashMap<ValueId, (i64, i64)> = HashMap::new();
    let mut tile_of_iv: HashMap<ValueId, i64> = HashMap::new();
    let innermost = collect_loops(module, loop_root, &mut iv_bounds, &mut tile_of_iv)?;

    let mut compiler = BodyCompiler {
        module,
        view_of_value,
        views,
        iv_bounds: &iv_bounds,
        scalar_slot,
        regs: 0,
        memo: HashMap::new(),
        program: BodyProgram::default(),
        dim_of_iv: HashMap::new(),
        out_views: Vec::new(),
        reach: HashMap::new(),
    };
    // First pass: decode every access so ivs are bound to dimensions before
    // any `stencil.index`-as-data use needs the mapping.
    for op in module.block_ops(innermost) {
        match module.op(op).name.full() {
            memref::LOAD => {
                compiler.access_of(op, 0)?;
            }
            memref::STORE => {
                compiler.access_of(op, 1)?;
            }
            _ => {}
        }
    }
    for op in module.block_ops(innermost) {
        compiler.compile_op(op)?;
    }
    let BodyCompiler {
        regs,
        mut program,
        dim_of_iv,
        out_views,
        reach,
        ..
    } = compiler;
    program.num_regs = regs;
    program.finalize_stats();
    program.hoist_invariants();
    // Specialization ladder inputs: the superinstruction-fused VM program
    // (also the jit stitcher's source) and the native template match.
    let fused = specialize::fuse_program(&program);
    // A nest runs specialized only when every store view has an output
    // slot, so `run_spec_row` always finds its rows.
    let specialized = specialize::specialize_program(&program).filter(|s| {
        s.outputs()
            .iter()
            .all(|a| out_views.contains(&usize::from(a.view)))
    });

    let rank = views
        .first()
        .map(|v| v.extents.len())
        .ok_or_else(|| err("kernel touches no views"))?;
    let mut bounds = vec![(0i64, 0i64); rank];
    let mut assigned = vec![false; rank];
    // The plan: tile sizes the pipeline recorded on the tiled loop (the
    // `"tiled"` attribute), mapped from loop order to array dims.
    let mut plan_tiles = vec![0i64; rank];
    for (iv, dim) in &dim_of_iv {
        let b = iv_bounds.get(iv).ok_or_else(|| err("iv without bounds"))?;
        bounds[*dim] = *b;
        assigned[*dim] = true;
        if let Some(&t) = tile_of_iv.get(iv) {
            plan_tiles[*dim] = t;
        }
    }
    if !assigned.iter().all(|&a| a) {
        return Err(err("not every dimension indexed by a loop"));
    }
    let mut plan = if plan_tiles.iter().any(|&t| t > 0) {
        ExecPlan::from_ir_tiles(plan_tiles)
    } else {
        ExecPlan::default()
    };
    // Tier-selection attr: the tiling pass records its unroll hint on the
    // loop root.
    if let Some(u) = module
        .op(loop_root)
        .attr("unroll")
        .and_then(Attribute::as_int)
    {
        plan.unroll = u.clamp(1, 8) as u8;
    }

    // Stitch the jit realisation now that the plan is known. Skips
    // degrade to the fused VM with a coded warning — never an error.
    let jit = match JitProgram::build(&fused, &plan) {
        Ok(p) => Some(Arc::new(p)),
        Err(skip) => {
            jit_warnings.push(Diagnostic::warning(
                codes::JIT_FALLBACK,
                format!(
                    "jit stitching skipped ({}); nest runs on the fused VM",
                    skip.describe()
                ),
            ));
            None
        }
    };
    // Path ladder: Specialized > Jit > FusedVm (GenericVm is override-only).
    let path = if specialized.is_some() {
        ExecPath::Specialized
    } else if jit.is_some() {
        ExecPath::Jit
    } else {
        ExecPath::FusedVm
    };
    let halo_schedule = match module
        .op(loop_root)
        .attr("halo_schedule")
        .and_then(Attribute::as_str)
    {
        Some("overlap") => Some(HaloSchedule::Overlap),
        Some("blocking") => Some(HaloSchedule::Blocking),
        _ => None,
    };
    let nest = Nest {
        bounds,
        out_views,
        program,
        fused,
        specialized,
        jit,
        path,
        exchanges,
        halo_schedule,
        snapshots,
        plan,
        reach,
    };
    Ok(nest)
}

/// Descend a loop structure (`scf.parallel` / `omp.parallel{wsloop}` with
/// nested `scf.for`s, possibly tiled) collecting each induction variable's
/// global bounds; returns the innermost block.
fn collect_loops(
    module: &Module,
    root: OpId,
    iv_bounds: &mut HashMap<ValueId, (i64, i64)>,
    tile_of_iv: &mut HashMap<ValueId, i64>,
) -> Result<BlockId> {
    let name = module.op(root).name.full();
    let (body, ivs, lbs, ubs): (BlockId, Vec<ValueId>, Vec<ValueId>, Vec<ValueId>) = match name {
        scf::PARALLEL => {
            let p = scf::ParallelOp(root);
            (p.body(module), p.ivs(module), p.lbs(module), p.ubs(module))
        }
        omp::PARALLEL => {
            let region = module.op(root).regions[0];
            let pblock = module.region_blocks(region)[0];
            let ws = module
                .block_ops(pblock)
                .into_iter()
                .find(|&o| module.op(o).name.full() == omp::WSLOOP)
                .ok_or_else(|| err("omp.parallel without wsloop"))?;
            let w = omp::WsLoopOp(ws);
            (w.body(module), w.ivs(module), w.lbs(module), w.ubs(module))
        }
        other => return Err(err(format!("unsupported loop root '{other}'"))),
    };
    // Tile sizes the tiling pass stamped on the loop, by loop dimension.
    let tile_sizes: Vec<i64> = module
        .op(root)
        .attr("tiled")
        .and_then(Attribute::as_index_list)
        .map(<[i64]>::to_vec)
        .unwrap_or_default();
    let mut loop_dim_of_iv: HashMap<ValueId, usize> = HashMap::new();
    for (d, ((iv, lb), ub)) in ivs.iter().zip(&lbs).zip(&ubs).enumerate() {
        let lb_c =
            trace_index_const(module, *lb).ok_or_else(|| err("non-constant loop lower bound"))?;
        let ub_c =
            trace_index_const(module, *ub).ok_or_else(|| err("non-constant loop upper bound"))?;
        iv_bounds.insert(*iv, (lb_c, ub_c));
        loop_dim_of_iv.insert(*iv, d);
    }
    // Descend through nested scf.for chains.
    let mut current = body;
    loop {
        let fors: Vec<OpId> = module
            .block_ops(current)
            .into_iter()
            .filter(|&o| module.op(o).name.full() == scf::FOR)
            .collect();
        match fors.len() {
            0 => return Ok(current),
            1 => {
                let f = scf::ForOp(fors[0]);
                let lb = f.lb(module);
                let iv = f.iv(module);
                // A for whose lower bound *is* an enclosing induction
                // variable is an intra-tile loop; a for with constant
                // bounds is an ordinary serial loop (CPU lowering nests
                // these inside the parallel dim, tiled or not).
                if iv_bounds.contains_key(&lb) {
                    // Tiled intra-tile loop: its true range is the parent
                    // parallel dimension's full range; the parent's tile
                    // size becomes the default plan tile of this iv's dim.
                    let parent = iv_bounds
                        .get(&lb)
                        .copied()
                        .ok_or_else(|| err("tiled loop without parallel parent bound"))?;
                    iv_bounds.insert(iv, parent);
                    if let Some(&t) = loop_dim_of_iv.get(&lb).and_then(|&d| tile_sizes.get(d)) {
                        tile_of_iv.insert(iv, t);
                    }
                } else {
                    let lb_c = trace_index_const(module, lb)
                        .ok_or_else(|| err("non-constant for lower bound"))?;
                    let ub_c = trace_index_const(module, f.ub(module))
                        .ok_or_else(|| err("non-constant for upper bound"))?;
                    iv_bounds.insert(iv, (lb_c, ub_c));
                }
                current = f.body(module);
            }
            _ => return Err(err("multiple sibling loops in nest body")),
        }
    }
}

/// A constant `index` value (bounds are constants after canonicalisation).
fn trace_index_const(module: &Module, v: ValueId) -> Option<i64> {
    let def = module.defining_op(v)?;
    if module.op(def).name.full() == "arith.constant" {
        return module.op(def).attr("value")?.as_int();
    }
    None
}

struct BodyCompiler<'a> {
    module: &'a Module,
    view_of_value: &'a HashMap<ValueId, usize>,
    views: &'a [ViewSpec],
    iv_bounds: &'a HashMap<ValueId, (i64, i64)>,
    scalar_slot: &'a HashMap<ValueId, u16>,
    regs: u16,
    memo: HashMap<ValueId, u16>,
    program: BodyProgram,
    dim_of_iv: HashMap<ValueId, usize>,
    out_views: Vec<usize>,
    /// The subscript constants of the accesses.
    reach: Reach,
}

impl<'a> BodyCompiler<'a> {
    fn fresh(&mut self) -> u16 {
        self.regs += 1;
        self.regs - 1
    }

    fn compile_op(&mut self, op: OpId) -> Result<()> {
        let m = self.module;
        match m.op(op).name.full() {
            memref::STORE => {
                let value = m.op(op).operands[0];
                let src = self.reg_for(value)?;
                let (view, off) = self.access_of(op, 1)?;
                if !self.out_views.contains(&view) {
                    self.out_views.push(view);
                }
                self.program.instrs.push(Instr::Store {
                    view: view as u16,
                    off,
                    src,
                });
                Ok(())
            }
            scf::YIELD | omp::YIELD | omp::TERMINATOR | fir::RESULT => Ok(()),
            // Pure value ops (including address arithmetic) compile lazily,
            // on demand from the store chains.
            _ => Ok(()),
        }
    }

    /// Decode a memref access: `(view index, relative linear offset)` while
    /// assigning ivs to dimensions and noting each subscript's constant in
    /// [`BodyCompiler::reach`] (`memref_pos` 1 is a store).
    fn access_of(&mut self, op: OpId, memref_pos: usize) -> Result<(usize, i64)> {
        let m = self.module;
        let data = m.op(op);
        let view = *self
            .view_of_value
            .get(&data.operands[memref_pos])
            .ok_or_else(|| err("access of unknown view"))?;
        let strides = self.views[view].strides.clone();
        let mut off = 0i64;
        let mut consts = Vec::with_capacity(strides.len());
        for (k, &idx) in data.operands[memref_pos + 1..].iter().enumerate() {
            let (iv, c) = decode_index_expr(m, idx)
                .ok_or_else(|| err("unsupported index expression in kernel"))?;
            match self.dim_of_iv.get(&iv) {
                Some(&d) if d != k => {
                    return Err(err("inconsistent loop-to-dimension mapping"));
                }
                _ => {
                    self.dim_of_iv.insert(iv, k);
                }
            }
            off += c * strides[k];
            consts.push(c);
        }
        let reach = self
            .reach
            .entry((view, memref_pos == 1))
            .or_insert_with(|| consts.iter().map(|&c| (c, c)).collect());
        for ((lo, hi), &c) in reach.iter_mut().zip(&consts) {
            (*lo, *hi) = ((*lo).min(c), (*hi).max(c));
        }
        Ok((view, off))
    }

    /// Register holding the value of `v`, compiling its defining op if
    /// needed.
    fn reg_for(&mut self, v: ValueId) -> Result<u16> {
        if let Some(&r) = self.memo.get(&v) {
            return Ok(r);
        }
        let m = self.module;
        // Loop induction variable used as data.
        if self.iv_bounds.contains_key(&v) {
            let dim = *self
                .dim_of_iv
                .get(&v)
                .ok_or_else(|| err("loop index used as data before any array access"))?;
            let dst = self.fresh();
            self.program.instrs.push(Instr::Coord {
                dst,
                dim: dim as u8,
            });
            self.memo.insert(v, dst);
            return Ok(dst);
        }
        // Scalar kernel argument.
        if let Some(&slot) = self.scalar_slot.get(&v) {
            let dst = self.fresh();
            self.program.instrs.push(Instr::Arg { dst, arg: slot });
            self.memo.insert(v, dst);
            return Ok(dst);
        }
        let def = m
            .defining_op(v)
            .ok_or_else(|| err("kernel body uses an unknown block argument"))?;
        let name = m.op(def).name.full().to_string();
        let operands = m.op(def).operands.clone();
        let dst = match name.as_str() {
            "arith.constant" => {
                let val = match m.op(def).attr("value") {
                    Some(Attribute::Float(f, _)) => *f,
                    Some(Attribute::Int(i, _)) => *i as f64,
                    _ => return Err(err("constant without numeric value")),
                };
                let dst = self.fresh();
                self.program.instrs.push(Instr::Const { dst, val });
                dst
            }
            memref::LOAD => {
                let (view, off) = self.access_of(def, 0)?;
                let dst = self.fresh();
                self.program.instrs.push(Instr::Load {
                    dst,
                    view: view as u16,
                    off,
                });
                dst
            }
            "arith.addf" | "arith.addi" => self.bin(BinKind::Add, &operands)?,
            "arith.subf" | "arith.subi" => self.bin(BinKind::Sub, &operands)?,
            "arith.mulf" | "arith.muli" => self.bin(BinKind::Mul, &operands)?,
            "arith.divf" => self.bin(BinKind::Div, &operands)?,
            "arith.divsi" => {
                let d = self.bin(BinKind::Div, &operands)?;
                let dst = self.fresh();
                self.program.instrs.push(Instr::Un {
                    dst,
                    kind: UnKind::Trunc,
                    a: d,
                });
                dst
            }
            "arith.remsi" => self.bin(BinKind::Rem, &operands)?,
            "arith.minf" | "arith.minsi" => self.bin(BinKind::Min, &operands)?,
            "arith.maxf" | "arith.maxsi" => self.bin(BinKind::Max, &operands)?,
            "arith.negf" => self.un(UnKind::Neg, operands[0])?,
            "arith.andi" => self.bin(BinKind::Mul, &operands)?,
            "arith.ori" => self.bin(BinKind::Max, &operands)?,
            "arith.xori" => {
                let a = self.reg_for(operands[0])?;
                let b = self.reg_for(operands[1])?;
                let dst = self.fresh();
                self.program.instrs.push(Instr::Cmp {
                    dst,
                    kind: CmpKind::Ne,
                    a,
                    b,
                });
                dst
            }
            "arith.cmpf" | "arith.cmpi" => {
                let pred = m
                    .op(def)
                    .attr("predicate")
                    .and_then(Attribute::as_str)
                    .and_then(CmpPredicate::parse)
                    .ok_or_else(|| err("cmp without predicate"))?;
                let kind = match pred {
                    CmpPredicate::Eq => CmpKind::Eq,
                    CmpPredicate::Ne => CmpKind::Ne,
                    CmpPredicate::Lt => CmpKind::Lt,
                    CmpPredicate::Le => CmpKind::Le,
                    CmpPredicate::Gt => CmpKind::Gt,
                    CmpPredicate::Ge => CmpKind::Ge,
                };
                let a = self.reg_for(operands[0])?;
                let b = self.reg_for(operands[1])?;
                let dst = self.fresh();
                self.program.instrs.push(Instr::Cmp { dst, kind, a, b });
                dst
            }
            "arith.select" => {
                let c = self.reg_for(operands[0])?;
                let a = self.reg_for(operands[1])?;
                let b = self.reg_for(operands[2])?;
                let dst = self.fresh();
                self.program.instrs.push(Instr::Select { dst, c, a, b });
                dst
            }
            "arith.index_cast" | "arith.extsi" | "arith.trunci" | "arith.sitofp" => {
                self.reg_for(operands[0])?
            }
            "arith.fptosi" => self.un(UnKind::Trunc, operands[0])?,
            "math.sqrt" => self.un(UnKind::Sqrt, operands[0])?,
            "math.absf" => self.un(UnKind::Abs, operands[0])?,
            "math.exp" => self.un(UnKind::Exp, operands[0])?,
            "math.log" => self.un(UnKind::Log, operands[0])?,
            "math.sin" => self.un(UnKind::Sin, operands[0])?,
            "math.cos" => self.un(UnKind::Cos, operands[0])?,
            "math.tanh" => self.un(UnKind::Tanh, operands[0])?,
            "math.powf" => self.bin(BinKind::Pow, &operands)?,
            "math.atan2" => self.bin(BinKind::Atan2, &operands)?,
            "math.copysign" => self.bin(BinKind::CopySign, &operands)?,
            other => return Err(err(format!("cannot compile op '{other}'"))),
        };
        self.memo.insert(v, dst);
        Ok(dst)
    }

    fn bin(&mut self, kind: BinKind, operands: &[ValueId]) -> Result<u16> {
        let a = self.reg_for(operands[0])?;
        let b = self.reg_for(operands[1])?;
        let dst = self.fresh();
        self.program.instrs.push(Instr::Bin { dst, kind, a, b });
        Ok(dst)
    }

    fn un(&mut self, kind: UnKind, operand: ValueId) -> Result<u16> {
        let a = self.reg_for(operand)?;
        let dst = self.fresh();
        self.program.instrs.push(Instr::Un { dst, kind, a });
        Ok(dst)
    }
}

/// Decode an index operand: the iv plus a constant, i.e. `iv`, `addi(iv,c)`,
/// `addi(c,iv)`, `subi(iv,c)`.
fn decode_index_expr(m: &Module, v: ValueId) -> Option<(ValueId, i64)> {
    match m.defining_op(v) {
        None => Some((v, 0)), // a block argument: the iv itself
        Some(def) => match m.op(def).name.full() {
            "arith.addi" => {
                let a = m.op(def).operands[0];
                let b = m.op(def).operands[1];
                if let Some(c) = trace_index_const(m, b) {
                    let (iv, c0) = decode_index_expr(m, a)?;
                    Some((iv, c0 + c))
                } else if let Some(c) = trace_index_const(m, a) {
                    let (iv, c0) = decode_index_expr(m, b)?;
                    Some((iv, c0 + c))
                } else {
                    None
                }
            }
            "arith.subi" => {
                let a = m.op(def).operands[0];
                let c = trace_index_const(m, m.op(def).operands[1])?;
                let (iv, c0) = decode_index_expr(m, a)?;
                Some((iv, c0 - c))
            }
            _ => None,
        },
    }
}

// --------------------------------------------------------------------------
// Execution
// --------------------------------------------------------------------------

/// Run a compiled kernel: one dispatch, checked and swept ([`Sweep`]).
pub fn run_kernel(
    kernel: &CompiledKernel,
    memory: &mut Memory,
    args: &[KernelArg],
    threads: usize,
) -> Result<()> {
    Sweep::new(kernel, memory, args, threads)?.run(memory);
    Ok(())
}

/// Consecutive dispatches of one region on the same buffers, checked when
/// the first is resolved ([`Sweep::new`]), then run as one pass that
/// cannot fail ([`Sweep::run`]): the work items `Pipeline::walk` yields
/// from every nest's bounds.
///
/// With the kernel's pipeline (lags `L` and `Lʲ`, periods `D` and `Dʲ`,
/// `B` planes per step, `J` rows per block, see [`CompiledKernel::lags`])
/// a nest reads what the nests before it wrote a lag ago, still in cache.
/// Otherwise the schedule is `Pipeline::in_order` and the sweep holds one
/// dispatch, each nest whole and in order (refreshing its snapshots first):
/// whenever `threads > 1` (a step would pay a spawn or fall below
/// [`SPLIT_WORK`]) or two views share a buffer (the lags compare views).
/// Every cell runs the same instructions on the same values either way.
pub struct Sweep<'k> {
    kernel: &'k CompiledKernel,
    /// The buffer behind each view.
    bufs: Vec<BufId>,
    /// The kernel's pipeline, when this dispatch may use it.
    pipeline: Option<&'k Pipeline>,
    /// Per nest, what its boxes reuse; `None` for a nest without cells.
    work: Vec<Option<NestRun>>,
    threads: usize,
    /// Scalar arguments, one vector per dispatch.
    scalars: Vec<Vec<f64>>,
}

/// A nest's part in a sweep or a rank run, resolved once and reused by
/// every box it runs: its outputs — each box moves them out of the arena,
/// so they are mutable while the inputs stay shared, and puts them back —
/// the snapshots it refreshes and the state of its row walk.
pub(crate) struct NestRun {
    /// Output slot per view (`None` for views the nest only reads).
    out_slots: Vec<Option<u16>>,
    /// The buffer behind each output slot.
    out_bufs: Vec<BufId>,
    /// The outputs while a box runs, and the rows of its inputs and
    /// outputs (kept for their allocations).
    taken: Vec<Vec<f64>>,
    ins: Vec<&'static [f64]>,
    outs: Vec<&'static mut [f64]>,
    /// `(source, snapshot)` buffers it refreshes.
    refresh: Vec<(BufId, BufId)>,
    state: RangeState,
}

impl NestRun {
    pub(crate) fn new(nest: &Nest, views: &[ViewSpec], bufs: &[BufId]) -> Result<Self> {
        let mut out_slots: Vec<Option<u16>> = vec![None; views.len()];
        let mut out_bufs: Vec<BufId> = Vec::with_capacity(nest.out_views.len());
        for (slot, &v) in nest.out_views.iter().enumerate() {
            out_slots[v] = Some(slot as u16);
            out_bufs.push(bufs[v]);
        }
        // Input views of THIS nest must not alias its outputs (snapshot
        // copies guarantee this for in-place stencils), and every store
        // must land in an output slot: each tier's store indexes the slots
        // unchecked, so a stray one is refused here, before anything runs.
        for instr in &nest.program.instrs {
            match *instr {
                Instr::Load { view, .. } => {
                    let v = usize::from(view);
                    if out_slots[v].is_none() && out_bufs.contains(&bufs[v]) {
                        return Err(err("output buffer aliases an input view"));
                    }
                }
                Instr::Store { view, .. } if out_slots[usize::from(view)].is_none() => {
                    return Err(IrError::from_diagnostic(Diagnostic::error(
                        codes::EXEC,
                        format!("kernel stores to view {view}, which is not an output of its nest"),
                    )));
                }
                _ => {}
            }
        }
        Ok(Self {
            taken: Vec::with_capacity(out_bufs.len()),
            ins: Vec::with_capacity(views.len()),
            outs: Vec::with_capacity(out_bufs.len()),
            out_slots,
            out_bufs,
            refresh: snapshot_pairs(nest, views, bufs)?,
            state: RangeState::new(views, nest.bounds.len()),
        })
    }
    /// Move the outputs out of `memory` (into the kept allocation).
    fn take(&mut self, memory: &mut Memory) -> Vec<Vec<f64>> {
        let mut taken = std::mem::take(&mut self.taken);
        taken.extend(self.out_bufs.iter().map(|&b| memory.take_buffer(b)));
        taken
    }

    fn restore(&mut self, memory: &mut Memory, mut taken: Vec<Vec<f64>>) {
        for (&b, data) in self.out_bufs.iter().zip(taken.drain(..)) {
            memory.restore_buffer(b, data);
        }
        self.taken = taken;
    }

    /// Every view's contents, empty for the taken outputs.
    fn inputs<'m>(&mut self, bufs: &[BufId], memory: &'m Memory) -> Vec<&'m [f64]> {
        let mut ins = recycle(std::mem::take(&mut self.ins));
        ins.extend(
            bufs.iter()
                .zip(&self.out_slots)
                .map(|(&b, slot)| match slot {
                    Some(_) => &[][..],
                    None => memory.buffer(b),
                }),
        );
        ins
    }

    /// Run `nest` over the box `local` (nothing when it is empty), buffers
    /// windowed by `bases`: `bases[v]` is the flat offset of view `v`'s
    /// buffer origin within the full (global-coordinate) array, so a rank
    /// holding only a slab of the domain runs boxes in global coordinates
    /// against a buffer that stores just its window (all zero for full-size
    /// buffers). `threads > 1` work-shares the box over `slab_count` slabs
    /// of zero-based buffers, when that is more than one: the planner splits
    /// the slowest dimension first and keeps factoring into the next-slower
    /// ones when the slowest extent alone cannot feed the budget.
    /// Store offsets can make a fine split's slabs overlap; then the
    /// coarser slowest-dimension-only split is tried, and if its slabs
    /// overlap too the box runs on the calling thread, which is always
    /// legal.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run(
        &mut self,
        nest: &Nest,
        views: &[ViewSpec],
        bufs: &[BufId],
        memory: &mut Memory,
        scalars: &[f64],
        local: &[(i64, i64)],
        bases: &[i64],
        threads: usize,
    ) {
        if local.iter().any(|&(lb, ub)| lb >= ub) {
            return;
        }
        let mut taken = self.take(memory);
        {
            let inputs = self.inputs(bufs, memory);
            let budget = if threads > 1 {
                slab_count(local, nest.program.instrs.len(), threads)
            } else {
                1
            };
            let shared = budget > 1 && {
                let fine = plan_tasks(local, budget);
                let coarse = || plan_tasks_outer_only(local, budget);
                let mut run = |tasks: &[Vec<(i64, i64)>]| {
                    tasks.len() > 1
                        && run_sliced(
                            nest,
                            views,
                            &inputs,
                            &mut taken,
                            &self.out_slots,
                            scalars,
                            tasks,
                            budget,
                        )
                };
                run(&fine) || run(&coarse())
            };
            if !shared {
                let mut outputs = recycle(std::mem::take(&mut self.outs));
                outputs.extend(taken.iter_mut().map(Vec::as_mut_slice));
                let io = (&inputs[..], &mut outputs[..], bases, &self.out_slots[..]);
                run_box(nest, views, io, scalars, local, &mut self.state);
                self.outs = recycle(outputs);
            }
            self.ins = recycle(inputs);
        }
        self.restore(memory, taken);
    }
}

impl<'k> Sweep<'k> {
    /// Resolve one dispatch of `kernel` on `threads` (snapshot views get
    /// call-local storage) and check each nest's outputs (`NestRun::new`).
    pub fn new(
        kernel: &'k CompiledKernel,
        memory: &mut Memory,
        args: &[KernelArg],
        threads: usize,
    ) -> Result<Self> {
        let bufs = resolve_views(kernel, memory, args)?;
        let aliased = bufs.iter().enumerate().any(|(i, b)| bufs[..i].contains(b));
        let pipeline = kernel
            .pipeline
            .as_ref()
            .filter(|_| threads <= 1 && !aliased);
        // Degenerate domains (n ≤ 2·halo leaves no interior) have nothing
        // to compute, not even a snapshot refresh.
        let work: Result<Vec<Option<NestRun>>> = kernel
            .nests
            .iter()
            .map(|nest| {
                let live = nest.domain_cells() > 0;
                live.then(|| NestRun::new(nest, &kernel.views, &bufs))
                    .transpose()
            })
            .collect();
        let work = work.inspect_err(|_| release_snapshots(kernel, &bufs, memory))?;
        Ok(Self {
            kernel,
            bufs,
            pipeline,
            work,
            threads,
            scalars: vec![scalar_args(args)],
        })
    }

    /// The buffer behind each view.
    pub fn buffers(&self) -> &[BufId] {
        &self.bufs
    }

    /// True while the pipeline applies and its window of planes
    /// (`WINDOW_BYTES`) has room.
    pub fn has_room(&self) -> bool {
        self.pipeline.is_some_and(|p| self.scalars.len() < p.batch)
    }

    /// Add a dispatch of `kernel` with `args` when it is this sweep's
    /// region on the same buffers (so it passed [`Sweep::new`]'s checks)
    /// and there is room; its scalars may differ.
    pub fn join(&mut self, kernel: &CompiledKernel, args: &[KernelArg]) -> bool {
        let same_bufs = self.kernel.views.iter().zip(&self.bufs).all(|(v, &b)| {
            matches!(v.source, ViewSource::Arg(i) if args.get(i) == Some(&KernelArg::Buf(b)))
        });
        let joins = std::ptr::eq(self.kernel, kernel) && same_bufs && self.has_room();
        if joins {
            self.scalars.push(scalar_args(args));
        }
        joins
    }

    /// The schedule this sweep walks: the kernel's pipeline when it may use
    /// it and more than one item would run, else every nest in order.
    fn schedule(&self) -> std::borrow::Cow<'k, Pipeline> {
        let live = self.work.iter().flatten().count();
        match self.pipeline {
            Some(p) if live * self.scalars.len() > 1 => std::borrow::Cow::Borrowed(p),
            _ => std::borrow::Cow::Owned(Pipeline::in_order(self.work.len())),
        }
    }

    /// Run every dispatch in one pass, then hand back snapshot storage.
    /// Returns the dispatches run.
    pub fn run(self, memory: &mut Memory) -> usize {
        let schedule = self.schedule();
        let Sweep {
            kernel,
            bufs,
            mut work,
            threads,
            scalars,
            ..
        } = self;
        let (nests, views) = (&kernel.nests, &kernel.views);
        let boxes: Vec<&[(i64, i64)]> = nests.iter().map(|n| &n.bounds[..]).collect();
        let bases = vec![0i64; views.len()];
        schedule.walk(&boxes, scalars.len(), |item| {
            let Some(w) = work[item.nest].as_mut() else {
                return;
            };
            for &(src, dst) in &w.refresh {
                // A snapshot has its source's length (`resolve_views`).
                let mut snapshot = memory.take_buffer(dst);
                snapshot.copy_from_slice(memory.buffer(src));
                memory.restore_buffer(dst, snapshot);
            }
            let (nest, scalars) = (&nests[item.nest], &scalars[item.dispatch]);
            w.run(
                nest,
                views,
                &bufs,
                memory,
                scalars,
                item.bounds,
                &bases,
                threads,
            );
        });
        release_snapshots(kernel, &bufs, memory);
        scalars.len()
    }
}

/// The buffer behind each view; snapshot views get fresh call-local
/// storage of their source's length (hand it back with
/// [`release_snapshots`]).
fn resolve_views(
    kernel: &CompiledKernel,
    memory: &mut Memory,
    args: &[KernelArg],
) -> Result<Vec<BufId>> {
    let mut bufs: Vec<BufId> = Vec::with_capacity(kernel.views.len());
    for view in &kernel.views {
        let buf = match view.source {
            ViewSource::Arg(i) => match args.get(i) {
                Some(KernelArg::Buf(b)) => *b,
                _ => return Err(err("pointer argument missing at call")),
            },
            ViewSource::SnapshotOf(src) if src < bufs.len() => {
                memory.try_alloc_buffer(memory.buffer(bufs[src]).len())?
            }
            ViewSource::SnapshotOf(_) => return Err(err("snapshot of unresolved view")),
        };
        bufs.push(buf);
    }
    Ok(bufs)
}

/// Scratch snapshot buffers are call-local: release them so time loops
/// reuse rather than grow memory.
fn release_snapshots(kernel: &CompiledKernel, bufs: &[BufId], memory: &mut Memory) {
    for (view, &buf) in kernel.views.iter().zip(bufs) {
        if matches!(view.source, ViewSource::SnapshotOf(_)) {
            memory.release_buffer(buf);
        }
    }
}

pub(crate) fn scalar_args(args: &[KernelArg]) -> Vec<f64> {
    args.iter()
        .filter_map(|a| match a {
            KernelArg::Scalar(s) => Some(*s),
            KernelArg::Buf(_) => None,
        })
        .collect()
}

/// `(source, snapshot)` buffers of the snapshot views `nest` refreshes.
fn snapshot_pairs(nest: &Nest, views: &[ViewSpec], bufs: &[BufId]) -> Result<Vec<(BufId, BufId)>> {
    let mut pairs = Vec::with_capacity(nest.snapshots.len());
    for &v in &nest.snapshots {
        let ViewSource::SnapshotOf(src) = views[v].source else {
            return Err(err("snapshot refresh of non-snapshot view"));
        };
        pairs.push((bufs[src], bufs[v]));
    }
    Ok(pairs)
}

/// An empty vector in `v`'s allocation for elements of the same layout —
/// here one borrow at another lifetime — so a box's rows cost no
/// allocation (`collect` reuses a vector in place).
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().map(|_| unreachable!("cleared")).collect()
}

/// What a box reads and writes: the input views, the output slabs, each
/// view's flat origin within its slab (`bases`), and each view's output
/// slot.
type BoxIo<'a, 'i, 'o> = (
    &'a [&'i [f64]],
    &'a mut [&'o mut [f64]],
    &'a [i64],
    &'a [Option<u16>],
);

/// Run a nest over `local` — an arbitrary sub-box of the iteration domain
/// (per-dimension half-open bounds) — honouring the nest's cache-block
/// plan: when the plan tiles a dimension, the box is decomposed into tile
/// boxes visited dimension-0-innermost, each swept by [`run_range`]. Tiling
/// is bit-exact: every cell computes exactly once with unchanged per-cell
/// arithmetic, and outputs never alias inputs.
fn run_box(
    nest: &Nest,
    views: &[ViewSpec],
    io: BoxIo<'_, '_, '_>,
    scalars: &[f64],
    local: &[(i64, i64)],
    state: &mut RangeState,
) {
    let rank = local.len();
    if local.iter().any(|&(lb, ub)| lb >= ub) {
        return;
    }
    // Effective tile step per dimension: the plan's tile where it actually
    // subdivides the box, the full extent otherwise.
    let step = |d: usize| {
        let ext = local[d].1 - local[d].0;
        match nest.plan.tile_for(d) {
            Some(t) if t < ext => t,
            _ => ext,
        }
    };
    if (0..rank).all(|d| step(d) >= local[d].1 - local[d].0) {
        run_range(nest, views, io, scalars, local, state);
        return;
    }
    let (inputs, outputs, bases, out_view_map) = io;
    let steps: Vec<i64> = (0..rank).map(step).collect();
    let mut origin: Vec<i64> = local.iter().map(|b| b.0).collect();
    let mut tile = vec![(0i64, 0i64); rank];
    'tiles: loop {
        for d in 0..rank {
            tile[d] = (origin[d], (origin[d] + steps[d]).min(local[d].1));
        }
        let io = (inputs, &mut *outputs, bases, out_view_map);
        run_range(nest, views, io, scalars, &tile, state);
        let mut d = 0;
        loop {
            origin[d] += steps[d];
            if origin[d] < local[d].1 {
                break;
            }
            origin[d] = local[d].0;
            d += 1;
            if d == rank {
                break 'tiles;
            }
        }
    }
}

/// What [`run_range`] keeps between the boxes of one nest: each view's
/// strides, the row walk's cursors and coordinates, and each tier's
/// registers, prepared again only when the row width, the first column or
/// the scalars change (prelude values per dispatch).
pub(crate) struct RangeState {
    /// `strides[v * rank + d]`.
    strides: Vec<i64>,
    cursors: Vec<i64>,
    /// The VM's cursors along one row.
    lane: Vec<i64>,
    coords: Vec<i64>,
    jit: JitRegs,
    vm: VmRegs,
}

/// The VM's registers: the scalar file and one strip of each register,
/// with the strip width and the scalar arguments (as bits) their prelude
/// was run for.
#[derive(Default)]
struct VmRegs {
    regs: Vec<f64>,
    sregs: Vec<f64>,
    filled: Option<(usize, Vec<u64>)>,
}

impl VmRegs {
    /// Run `program`'s prelude into strips of width `w` and the scalar
    /// registers, unless they hold it already.
    fn prelude(&mut self, program: &BodyProgram, w: usize, scalars: &[f64]) {
        let bits = || scalars.iter().map(|s| s.to_bits());
        if self
            .filled
            .as_ref()
            .is_some_and(|(fw, fb)| *fw == w && fb.iter().copied().eq(bits()))
        {
            return;
        }
        let num_regs = usize::from(program.num_regs.max(1));
        self.regs.resize(num_regs, 0.0);
        program.run_prelude(&mut self.regs, scalars);
        self.sregs.resize(num_regs * w, 0.0);
        program.run_prelude_strip(&mut self.sregs, w, scalars);
        self.filled = Some((w, bits().collect()));
    }
}

impl RangeState {
    pub(crate) fn new(views: &[ViewSpec], rank: usize) -> Self {
        let strides = views
            .iter()
            .flat_map(|v| (0..rank).map(|d| v.strides.get(d).copied().unwrap_or(0)))
            .collect();
        Self {
            strides,
            cursors: vec![0; views.len()],
            lane: vec![0; views.len()],
            coords: vec![0; rank],
            jit: JitRegs::default(),
            vm: VmRegs::default(),
        }
    }
}

/// Run a nest serially over one box of the iteration domain (`bounds` are
/// per-dimension half-open local bounds — the full domain, a parallel
/// task's sub-box, or one cache-block tile).
///
/// When every view has unit innermost stride (always true for the shapes
/// our lowering produces), the innermost dimension executes as whole rows
/// on the specialized and jit tiers and in *strips* through the vector VM
/// — the realisation of the pipeline's `scf-parallel-loop-specialization`
/// vectorisation step. Otherwise a scalar cell loop runs.
fn run_range(
    nest: &Nest,
    views: &[ViewSpec],
    (inputs, outputs, out_slab_starts, out_view_map): BoxIo<'_, '_, '_>,
    scalars: &[f64],
    bounds: &[(i64, i64)],
    st: &mut RangeState,
) {
    const STRIP: usize = 64;
    if bounds.iter().any(|&(lb, ub)| lb >= ub) {
        return;
    }
    let strip_ok = views.iter().all(|v| v.strides.first() == Some(&1));
    let walk = Walk {
        bounds,
        strides: &st.strides,
        bases: out_slab_starts,
    };
    walk.start(&mut st.cursors, &mut st.coords);
    let (lb0, ub0) = bounds[0];
    let w = (ub0 - lb0) as usize;
    // Path selection. Native specialized loops assume unit innermost stride
    // exactly like the strip VM; without it, fall down the ladder. The
    // GenericVm override runs the unfused program; everything else runs the
    // fused one (identical values either way — fusion is bit-exact).
    if nest.path == ExecPath::Jit && strip_ok {
        if let Some(jp) = nest.jit.as_deref() {
            // Stitched fast path: the whole box runs through the
            // pre-monomorphized fragments — no bytecode dispatch, and for a
            // program that is one chain no call per row.
            jp.prepare(&mut st.jit, w, lb0, scalars);
            let (cursors, coords) = (&mut st.cursors, &mut st.coords);
            jp.run_box(
                &mut st.jit,
                inputs,
                outputs,
                out_view_map,
                cursors,
                coords,
                scalars,
                &walk,
            );
            return;
        }
    }
    let specialized = match nest.path {
        ExecPath::Specialized if strip_ok => nest.specialized.as_ref(),
        _ => None,
    };
    let program = if nest.path == ExecPath::GenericVm {
        &nest.program
    } else {
        &nest.fused
    };
    if specialized.is_none() {
        st.vm
            .prelude(program, if strip_ok { w.min(STRIP) } else { 1 }, scalars);
    }
    loop {
        if let Some(body) = specialized {
            // Native fast path: the body sweeps the whole unit-stride row
            // in one loop — no bytecode dispatch at all.
            specialize::run_spec_row(body, inputs, outputs, out_view_map, &st.cursors, scalars, w);
        } else if strip_ok {
            st.lane.copy_from_slice(&st.cursors);
            let mut i = lb0;
            while i < ub0 {
                let sw = ((ub0 - i) as usize).min(STRIP);
                st.vm.prelude(program, sw, scalars);
                program.run_strip(
                    &mut st.vm.sregs,
                    sw,
                    inputs,
                    outputs,
                    out_view_map,
                    &st.lane,
                    i,
                    &st.coords,
                    scalars,
                );
                for cur in st.lane.iter_mut() {
                    *cur += sw as i64;
                }
                i += sw as i64;
            }
        } else {
            st.lane.copy_from_slice(&st.cursors);
            for i in lb0..ub0 {
                st.coords[0] = i;
                program.run_cell_body(
                    &mut st.vm.regs,
                    inputs,
                    outputs,
                    out_view_map,
                    &st.lane,
                    &st.coords,
                    scalars,
                );
                for (v, spec) in views.iter().enumerate() {
                    st.lane[v] += spec.strides[0];
                }
            }
            st.coords[0] = lb0;
        }
        if !walk.next(&mut st.cursors, &mut st.coords) {
            break;
        }
    }
}

/// Instruction-cells (cells × generic instructions) at which a box gets a
/// second slab: the half it takes must outlast a split. On the 2-vCPU
/// build box one core runs 0.14–0.20 ns per instruction-cell (GS and PW
/// nests, n = 32), and a split costs T₂ − T₁/2 ≈ 40 µs on nests near this
/// size (15 µs on a 4³ nest): 2 × 40 µs / 0.16 ns ≈ 500k, rounded to 2¹⁹.
/// A property of the machine, not of the program (DESIGN.md §8).
pub const SPLIT_WORK: u64 = 1 << 19;

/// Slabs for the box `local` of a nest of `instrs` generic instructions on
/// `threads` workers: `min(threads, 1 + work / SPLIT_WORK)`, so each
/// slab's share is at least half of [`SPLIT_WORK`]. The work saturates.
fn slab_count(local: &[(i64, i64)], instrs: usize, threads: usize) -> usize {
    let work = local.iter().fold(instrs as u64, |w, &(lb, ub)| {
        w.saturating_mul(ub.saturating_sub(lb).max(0) as u64)
    });
    usize::try_from(1 + work / SPLIT_WORK)
        .unwrap_or(usize::MAX)
        .min(threads)
        .max(1)
}

/// Split one dimension's half-open range into `n` near-even chunks.
fn split_dim((lo, hi): (i64, i64), n: usize) -> Vec<(i64, i64)> {
    let total = (hi - lo).max(0) as usize;
    let n = n.clamp(1, total.max(1));
    let chunk = total / n;
    let extra = total % n;
    let mut out = Vec::with_capacity(n);
    let mut start = lo;
    for t in 0..n {
        let len = chunk + usize::from(t < extra);
        out.push((start, start + len as i64));
        start += len as i64;
    }
    out
}

/// Decompose the iteration domain into up to `target` parallel task boxes.
///
/// Chunk counts are factored across dimensions slowest-first: the slowest
/// dimension takes `min(extent, target)` chunks, and any remaining budget
/// spills into the next-slower dimension — so a nest whose slowest extent
/// is smaller than the thread count (e.g. 4³ on 32 threads) still produces
/// a full task set instead of starving most of the threads. The construction
/// keeps an invariant the slab splitter relies on: whenever a dimension is
/// split into more than one multi-value chunk, every slower dimension is
/// fully split into single-value chunks, so tasks in emission order cover
/// ascending, non-interleaved memory regions (for zero store offsets).
fn plan_tasks(bounds: &[(i64, i64)], target: usize) -> Vec<Vec<(i64, i64)>> {
    let rank = bounds.len();
    let mut counts = vec![1usize; rank];
    let mut remaining = target.max(1);
    for d in (0..rank).rev() {
        if remaining <= 1 {
            break;
        }
        let ext = (bounds[d].1 - bounds[d].0).max(0) as usize;
        if ext == 0 {
            return vec![bounds.to_vec()];
        }
        let c = remaining.min(ext);
        counts[d] = c;
        remaining = remaining.div_ceil(c);
    }
    let chunks: Vec<Vec<(i64, i64)>> = (0..rank).map(|d| split_dim(bounds[d], counts[d])).collect();
    // Cartesian product, dimension 0 varying fastest: emission order is
    // ascending in memory for column-major strides.
    // Checked product: a degenerate chunk explosion must not wrap the
    // capacity hint (push still grows the vector correctly from zero).
    let cap = chunks
        .iter()
        .map(Vec::len)
        .try_fold(1usize, |a, b| a.checked_mul(b))
        .unwrap_or(0);
    let mut tasks = Vec::with_capacity(cap);
    let mut idx = vec![0usize; rank];
    loop {
        tasks.push((0..rank).map(|d| chunks[d][idx[d]]).collect());
        let mut d = 0;
        loop {
            idx[d] += 1;
            if idx[d] < chunks[d].len() {
                break;
            }
            idx[d] = 0;
            d += 1;
            if d == rank {
                return tasks;
            }
        }
    }
}

/// The pre-existing conservative decomposition: split only the slowest
/// dimension. Used as a fallback when store offsets make the finer split's
/// slabs overlap.
fn plan_tasks_outer_only(bounds: &[(i64, i64)], target: usize) -> Vec<Vec<(i64, i64)>> {
    let rank = bounds.len();
    let outer = rank - 1;
    split_dim(bounds[outer], target)
        .into_iter()
        .map(|r| {
            let mut b = bounds.to_vec();
            b[outer] = r;
            b
        })
        .collect()
}

/// Split outputs into contiguous per-task slabs and fan the tasks out over
/// up to `workers` threads, the caller running the first batch.
///
/// `task_bounds` come from [`plan_tasks`] (or the coarser
/// [`plan_tasks_outer_only`] fallback): per-task sub-boxes of the domain in
/// ascending memory order. Each output buffer is carved into disjoint
/// `split_at_mut` slabs covering each task's store footprint; if footprints
/// overlap (wide store offsets), it returns `false` having run nothing, and
/// the caller tries a coarser split or none.
#[allow(clippy::too_many_arguments)]
fn run_sliced(
    nest: &Nest,
    views: &[ViewSpec],
    inputs: &[&[f64]],
    taken: &mut [Vec<f64>],
    out_view_map: &[Option<u16>],
    scalars: &[f64],
    task_bounds: &[Vec<(i64, i64)>],
    workers: usize,
) -> bool {
    // Exact per-store offset extremes per out view.
    let mut out_offsets: Vec<(i64, i64)> = vec![(i64::MAX, i64::MIN); views.len()];
    for instr in &nest.program.instrs {
        if let Instr::Store { view, off, .. } = instr {
            let e = &mut out_offsets[*view as usize];
            e.0 = e.0.min(*off);
            e.1 = e.1.max(*off);
        }
    }
    let slab_bounds = |view: usize, tb: &[(i64, i64)]| -> (i64, i64) {
        let spec = &views[view];
        let (off_min, off_max) = out_offsets[view];
        let min_idx: i64 = tb
            .iter()
            .enumerate()
            .map(|(d, b)| b.0 * spec.strides[d])
            .sum::<i64>()
            + off_min;
        let max_idx: i64 = tb
            .iter()
            .enumerate()
            .map(|(d, b)| (b.1 - 1) * spec.strides[d])
            .sum::<i64>()
            + off_max;
        (min_idx, max_idx + 1)
    };

    struct Task<'t> {
        bounds: Vec<(i64, i64)>,
        outs: Vec<&'t mut [f64]>,
        slab_starts: Vec<i64>,
    }
    let mut tasks: Vec<Task> = task_bounds
        .iter()
        .map(|tb| Task {
            bounds: tb.clone(),
            outs: Vec::new(),
            slab_starts: vec![0; views.len()],
        })
        .collect();

    for (&view, buf) in nest.out_views.iter().zip(taken.iter_mut()) {
        let mut remaining: &mut [f64] = buf.as_mut_slice();
        let mut consumed = 0i64;
        for (t, tb) in task_bounds.iter().enumerate() {
            let (s, e) = slab_bounds(view, tb);
            if s < consumed {
                return false;
            }
            let (_skip, rest) = remaining.split_at_mut((s - consumed) as usize);
            let (slab, rest) = rest.split_at_mut((e - s) as usize);
            tasks[t].outs.push(slab);
            tasks[t].slab_starts[view] = s;
            remaining = rest;
            consumed = e;
        }
    }

    fsc_ir::par::fan_out(workers, tasks, |mut task| {
        let mut state = RangeState::new(views, task.bounds.len());
        let io = (
            inputs,
            &mut task.outs[..],
            &task.slab_starts[..],
            out_view_map,
        );
        run_box(nest, views, io, scalars, &task.bounds, &mut state)
    });
    true
}

/// The legality check of a sweep's order, cell by cell, beside the lag
/// algebra that derives it: a bit comparison misses a broken dependence
/// wherever stale and fresh values agree, this check does not.
#[cfg(test)]
pub(crate) mod order {
    use super::{CompiledKernel, Instr, Item, Pipeline, Sweep, ViewSource};
    use std::collections::HashMap;
    /// Something a sweep or a rank does to memory, in the order it does it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) enum Event {
        /// Dispatch `dispatch` runs the kernel's nest `nest` over `bounds`.
        Run {
            dispatch: usize,
            nest: usize,
            bounds: Vec<(i64, i64)>,
        },
        /// Halo cells of view `view` land in `region` (slab indices) at a
        /// phase's wait: a write that dispatch `dispatch`'s nest `nest`
        /// follows in program order.
        Unpack {
            dispatch: usize,
            nest: usize,
            view: usize,
            region: Vec<(i64, i64)>,
        },
    }

    impl Event {
        /// `item` of a walk whose nest `i` is the kernel's nest `first + i`.
        pub(crate) fn of(item: Item<'_>, first: usize) -> Self {
            Event::Run {
                dispatch: item.dispatch,
                nest: first + item.nest,
                bounds: item.bounds.to_vec(),
            }
        }
    }

    /// The items `p` walks over `boxes` for `dispatches` dispatches, its
    /// nest `i` the kernel's nest `first + i`.
    pub(crate) fn walked(
        p: &Pipeline,
        boxes: &[&[(i64, i64)]],
        dispatches: usize,
        first: usize,
    ) -> Vec<Event> {
        let mut events = Vec::new();
        p.walk(boxes, dispatches, |item| {
            events.push(Event::of(item, first))
        });
        events
    }

    impl Sweep<'_> {
        /// Each dispatch's nests with cells, over their bounds.
        pub(crate) fn work(&self) -> Vec<Piece> {
            let live = self
                .kernel
                .nests
                .iter()
                .enumerate()
                .filter(|(i, _)| self.work[*i].is_some());
            let live: Vec<_> = live.map(|(i, n)| (i, n.bounds.clone())).collect();
            let dispatches = 0..self.scalars.len();
            dispatches
                .flat_map(|c| live.iter().map(move |(i, b)| (c, *i, b.clone())))
                .collect()
        }

        /// The items [`Sweep::run`] runs, in order.
        pub(crate) fn events(&self) -> Vec<Event> {
            let boxes: Vec<&[(i64, i64)]> =
                self.kernel.nests.iter().map(|n| &n.bounds[..]).collect();
            let live =
                |e: &Event| matches!(e, Event::Run { nest, .. } if self.work[*nest].is_some());
            let events = walked(&self.schedule(), &boxes, self.scalars.len(), 0);
            events.into_iter().filter(live).collect()
        }
    }

    /// Call `f` with every cell of `bounds`.
    fn for_each_cell(
        bounds: &[(i64, i64)],
        mut f: impl FnMut(&[i64]) -> Result<(), String>,
    ) -> Result<(), String> {
        if bounds.iter().any(|&(lb, ub)| lb >= ub) {
            return Ok(());
        }
        let mut p: Vec<i64> = bounds.iter().map(|b| b.0).collect();
        loop {
            f(&p)?;
            let mut d = 0;
            loop {
                let Some(c) = p.get_mut(d) else {
                    return Ok(());
                };
                *c += 1;
                if *c < bounds[d].1 {
                    break;
                }
                *c = bounds[d].0;
                d += 1;
            }
        }
    }

    /// A `(dispatch, nest)` a sweep must run, with the box it runs.
    pub(crate) type Piece = (usize, usize, Vec<(i64, i64)>);

    /// Expand `events` into per-element reads and writes — the loads and
    /// stores of each nest's program at each cell of its box, an unpack's
    /// region as writes — and check that every two accesses of one element
    /// of which one writes run in program order: dispatch, then nest, an
    /// unpack before its nest; and that the runs cover each box of `work`
    /// once, and nothing else. Runs no arithmetic.
    pub(crate) fn check_order(
        kernel: &CompiledKernel,
        work: &[Piece],
        events: &[Event],
    ) -> Result<(), String> {
        let views = &kernel.views;
        // Per `(dispatch, nest)` of the work, its box and the cells run.
        let mut ran: HashMap<_, _> = work
            .iter()
            .map(|(c, i, b)| {
                let cells = b.iter().map(|&(lb, ub)| (ub - lb).max(0) as usize);
                ((*c, *i), (&b[..], vec![false; cells.product()]))
            })
            .collect();
        let mut cover = |c: usize, i: usize, p: &[i64]| {
            let here = || format!("order: dispatch {c} runs nest {i} at {p:?}");
            let (whole, seen) = ran
                .get_mut(&(c, i))
                .ok_or_else(|| format!("{}, not its work", here()))?;
            let mut at = 0;
            for (&x, &(lb, ub)) in p.iter().zip(whole.iter()).rev() {
                if !(lb..ub).contains(&x) {
                    return Err(format!("{} outside its box {whole:?}", here()));
                }
                at = at * (ub - lb) as usize + (x - lb) as usize;
            }
            if std::mem::replace(&mut seen[at], true) {
                return Err(format!("{} twice", here()));
            }
            Ok(())
        };
        let buffer = |v: usize| match views[v].source {
            ViewSource::Arg(i) => i,
            ViewSource::SnapshotOf(s) => kernel.args.len() + s,
        };
        // Per buffer and flat index, one past the latest position of an
        // access so far and of a write (0: none); a position is
        // `dispatch·2³² + nest·2 + part`, an unpack part 0, a run part 1.
        let mut last: Vec<Vec<(u64, u64)>> = vec![Vec::new(); kernel.args.len() + views.len()];
        for (v, view) in views.iter().enumerate() {
            let len = &mut last[buffer(v)];
            len.resize(len.len().max(view.len()), (0, 0));
        }
        let mut access = |v: usize, at: i64, pos: u64, write: bool| {
            let what = if write { "write" } else { "read" };
            let here = || format!("the {what} of view {v} element {at} at position {pos:#x}");
            let slot = usize::try_from(at)
                .ok()
                .and_then(|at| last[buffer(v)].get_mut(at));
            let (any, wrote) = slot.ok_or_else(|| format!("order: {} is out of bounds", here()))?;
            let conflict = if write { *any } else { *wrote };
            if conflict > pos + 1 {
                return Err(format!(
                    "order: {} runs after position {:#x}",
                    here(),
                    conflict - 1
                ));
            }
            *any = (*any).max(pos + 1);
            if write {
                *wrote = (*wrote).max(pos + 1);
            }
            Ok(())
        };
        let flat = |v: usize, p: &[i64]| -> i64 {
            p.iter().zip(&views[v].strides).map(|(c, s)| c * s).sum()
        };
        let pos = |dispatch: usize, nest: usize, part: u64| {
            ((dispatch as u64) << 32) | (nest as u64) << 1 | part
        };
        for e in events {
            match e {
                Event::Run {
                    dispatch,
                    nest,
                    bounds,
                } => {
                    let accesses: Vec<(usize, i64, bool)> = kernel.nests[*nest]
                        .program
                        .instrs
                        .iter()
                        .filter_map(|instr| match *instr {
                            Instr::Load { view, off, .. } => Some((usize::from(view), off, false)),
                            Instr::Store { view, off, .. } => Some((usize::from(view), off, true)),
                            _ => None,
                        })
                        .collect();
                    let at = pos(*dispatch, *nest, 1);
                    for_each_cell(bounds, |p| {
                        cover(*dispatch, *nest, p)?;
                        let mut each = accesses.iter();
                        each.try_for_each(|&(v, off, write)| access(v, flat(v, p) + off, at, write))
                    })?;
                }
                Event::Unpack {
                    dispatch,
                    nest,
                    view,
                    region,
                } => {
                    let at = pos(*dispatch, *nest, 0);
                    for_each_cell(region, |r| access(*view, flat(*view, r), at, true))?;
                }
            }
        }
        let mut missed = ran.iter().filter(|(_, (_, seen))| seen.contains(&false));
        match missed.next() {
            Some(((c, i), (whole, _))) => Err(format!(
                "order: dispatch {c} leaves cells of nest {i}'s box {whole:?} unrun"
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::order::check_order;
    use super::*;
    use fsc_ir::Pass as _;
    use fsc_passes::discover::discover_stencils;
    use fsc_passes::extract::extract_stencils;
    use fsc_passes::merge::merge_adjacent_applies;
    use fsc_passes::stencil_to_scf::{lower_stencils, LoweringTarget};

    const LISTING1: &str = "
program average
  integer, parameter :: n = 16
  integer :: i, j
  real(kind=8) :: data(0:n+1, 0:n+1), res(0:n+1, 0:n+1)
  do i = 1, n
    do j = 1, n
      res(j, i) = 0.25 * (data(j, i-1) + data(j, i+1) + data(j-1, i) + data(j+1, i))
    end do
  end do
end program average
";

    fn compile(src: &str) -> CompiledKernel {
        compile_region(src, "stencil_region_0")
    }

    fn compile_region(src: &str, region: &str) -> CompiledKernel {
        let mut m = fsc_fortran::compile_to_fir(src).unwrap();
        discover_stencils(&mut m).unwrap();
        merge_adjacent_applies(&mut m).unwrap();
        let mut st = extract_stencils(&mut m).unwrap();
        lower_stencils(&mut st, LoweringTarget::Cpu).unwrap();
        fsc_passes::canonicalize::Canonicalize.run(&mut st).unwrap();
        compile_kernel(&st, region).unwrap()
    }

    #[test]
    fn compiles_listing1_shape() {
        let k = compile(LISTING1);
        assert_eq!(k.nests.len(), 1);
        let nest = &k.nests[0];
        assert_eq!(nest.bounds, vec![(1, 17), (1, 17)]);
        assert_eq!(k.views.len(), 2);
        assert_eq!(nest.out_views.len(), 1);
        assert_eq!(nest.program.loads_per_cell, 4);
        assert_eq!(nest.program.stores_per_cell, 1);
        assert_eq!(nest.program.flops_per_cell, 4); // 3 add + 1 mul
        let stats = k.stats();
        assert_eq!(stats.cells, 256);
        assert_eq!(stats.flops, 1024);
    }

    #[test]
    fn serial_execution_matches_reference() {
        let k = compile(LISTING1);
        let mut memory = Memory::new();
        let n = 18usize;
        let data = memory.alloc_buffer(n * n);
        let res = memory.alloc_buffer(n * n);
        for i in 0..n {
            for j in 0..n {
                memory.buffer_mut(data)[j + n * i] = j as f64 + 10.0 * i as f64;
            }
        }
        run_kernel(
            &k,
            &mut memory,
            &[KernelArg::Buf(data), KernelArg::Buf(res)],
            1,
        )
        .unwrap();
        for i in 1..=16usize {
            for j in 1..=16usize {
                let expect = j as f64 + 10.0 * i as f64;
                let got = memory.buffer(res)[j + n * i];
                assert!((got - expect).abs() < 1e-12, "({j},{i}): {got} vs {expect}");
            }
        }
        assert_eq!(memory.buffer(res)[0], 0.0);
    }

    /// Run `k`'s one nest split into `tasks` on `workers` threads through
    /// [`run_sliced`] — the splitter alone, whatever [`slab_count`] would
    /// give the nest. Returns whether it split (false: the slabs overlapped
    /// and nothing ran).
    fn run_split(
        k: &CompiledKernel,
        memory: &mut Memory,
        args: &[KernelArg],
        tasks: &[Vec<(i64, i64)>],
        workers: usize,
    ) -> bool {
        let [nest] = &k.nests[..] else {
            panic!("run_split runs one-nest kernels");
        };
        let bufs = resolve_views(k, memory, args).unwrap();
        for (src, dst) in snapshot_pairs(nest, &k.views, &bufs).unwrap() {
            memory.copy_buffer(src, dst).unwrap();
        }
        let mut io = NestRun::new(nest, &k.views, &bufs).unwrap();
        let mut taken = io.take(memory);
        let split = {
            let inputs = io.inputs(&bufs, memory);
            run_sliced(
                nest,
                &k.views,
                &inputs,
                &mut taken,
                &io.out_slots,
                &scalar_args(args),
                tasks,
                workers,
            )
        };
        io.restore(memory, taken);
        release_snapshots(k, &bufs, memory);
        split
    }

    #[test]
    fn parallel_execution_matches_serial() {
        let k = compile(LISTING1);
        let n = 18usize;
        let mk = |mem: &mut Memory| {
            let data = mem.alloc_buffer(n * n);
            let res = mem.alloc_buffer(n * n);
            for idx in 0..n * n {
                mem.buffer_mut(data)[idx] = (idx as f64).sin();
            }
            (data, res)
        };
        let mut m1 = Memory::new();
        let (d1, r1) = mk(&mut m1);
        run_kernel(&k, &mut m1, &[KernelArg::Buf(d1), KernelArg::Buf(r1)], 1).unwrap();

        let mut m2 = Memory::new();
        let (d2, r2) = mk(&mut m2);
        let tasks = plan_tasks(&k.nests[0].bounds, 4);
        assert!(run_split(
            &k,
            &mut m2,
            &[KernelArg::Buf(d2), KernelArg::Buf(r2)],
            &tasks,
            4
        ));
        assert_eq!(m1.buffer(r1), m2.buffer(r2));
    }

    #[test]
    fn in_place_kernel_uses_snapshot() {
        let src = "
program t
  integer, parameter :: n = 8
  integer :: i
  real(kind=8) :: u(0:n+1)
  do i = 1, n
    u(i) = 0.5 * (u(i) + u(i+1))
  end do
end program t
";
        let k = compile(src);
        assert!(k
            .views
            .iter()
            .any(|v| matches!(v.source, ViewSource::SnapshotOf(_))));
        assert!(!k.nests[0].snapshots.is_empty());
        assert_eq!(k.pipeline, None, "a snapshot refresh never batches");
        let mut memory = Memory::new();
        let u = memory.alloc_buffer(10);
        for i in 0..10 {
            memory.buffer_mut(u)[i] = i as f64;
        }
        run_kernel(&k, &mut memory, &[KernelArg::Buf(u)], 1).unwrap();
        for i in 1..=8usize {
            assert_eq!(memory.buffer(u)[i], i as f64 + 0.5, "cell {i}");
        }
    }

    #[test]
    fn scalar_argument_flows_into_body() {
        let src = "
program t
  integer, parameter :: n = 8
  integer :: i
  real(kind=8) :: c
  real(kind=8) :: a(0:n+1), r(0:n+1)
  c = 0.25
  do i = 1, n
    r(i) = c * (a(i-1) + a(i+1))
  end do
end program t
";
        let k = compile(src);
        assert_eq!(k.args, vec![ArgKind::Ptr, ArgKind::Ptr, ArgKind::Scalar]);
        let mut memory = Memory::new();
        let a = memory.alloc_buffer(10);
        let r = memory.alloc_buffer(10);
        for i in 0..10 {
            memory.buffer_mut(a)[i] = 4.0;
        }
        run_kernel(
            &k,
            &mut memory,
            &[
                KernelArg::Buf(a),
                KernelArg::Buf(r),
                KernelArg::Scalar(0.25),
            ],
            1,
        )
        .unwrap();
        for i in 1..=8usize {
            assert_eq!(memory.buffer(r)[i], 2.0);
        }
    }

    #[test]
    fn multi_nest_region_runs_in_order() {
        // Compute then copy in one time step: after the kernel, a must hold
        // the averaged values (catches the nest-ordering bug the harmonic
        // init masked).
        let src = "
program t
  integer, parameter :: n = 8
  integer :: i
  real(kind=8) :: a(0:n+1), b(0:n+1)
  do i = 1, n
    b(i) = 0.5 * (a(i-1) + a(i+1))
  end do
  do i = 1, n
    a(i) = b(i)
  end do
end program t
";
        let k = compile(src);
        assert_eq!(k.nests.len(), 2, "compute + copy nests in one region");
        let mut memory = Memory::new();
        let a = memory.alloc_buffer(10);
        let b = memory.alloc_buffer(10);
        for i in 0..10 {
            memory.buffer_mut(a)[i] = (i * i) as f64;
        }
        run_kernel(&k, &mut memory, &[KernelArg::Buf(a), KernelArg::Buf(b)], 1).unwrap();
        // a(i) must now equal 0.5*((i-1)² + (i+1)²) = i² + 1 for interior i.
        for i in 1..=8usize {
            let expect = (i * i + 1) as f64;
            assert_eq!(memory.buffer(a)[i], expect, "cell {i}");
        }
    }

    #[test]
    fn snapshot_buffers_are_reused_across_calls() {
        let src = "
program t
  integer, parameter :: n = 8
  integer :: i
  real(kind=8) :: u(0:n+1)
  do i = 1, n
    u(i) = 0.5 * (u(i) + u(i+1))
  end do
end program t
";
        let k = compile(src);
        let mut memory = Memory::new();
        let u = memory.alloc_buffer(10);
        run_kernel(&k, &mut memory, &[KernelArg::Buf(u)], 1).unwrap();
        let after_one = memory.buffer_count();
        for _ in 0..10 {
            run_kernel(&k, &mut memory, &[KernelArg::Buf(u)], 1).unwrap();
        }
        assert_eq!(
            memory.buffer_count(),
            after_one,
            "snapshots must be recycled, not accumulated"
        );
    }

    #[test]
    fn gpu_plan_compiles_from_tiled_kernel() {
        let mut m = fsc_fortran::compile_to_fir(LISTING1).unwrap();
        discover_stencils(&mut m).unwrap();
        let mut st = extract_stencils(&mut m).unwrap();
        lower_stencils(&mut st, LoweringTarget::Gpu).unwrap();
        fsc_passes::tiling::ParallelLoopTiling {
            tile_sizes: vec![8, 8, 1],
            ..Default::default()
        }
        .run(&mut st)
        .unwrap();
        fsc_passes::gpu_lowering::ConvertParallelLoopsToGpu
            .run(&mut st)
            .unwrap();
        fsc_passes::gpu_lowering::GpuDataExplicit
            .run(&mut st)
            .unwrap();
        let k = compile_kernel(&st, "stencil_region_0").unwrap();
        let PlanKind::Gpu {
            grid,
            block,
            strategy,
            ..
        } = &k.kind
        else {
            panic!("expected gpu plan");
        };
        assert_eq!(*block, [8, 8, 1]);
        assert_eq!(*grid, [2, 2, 1]);
        assert_eq!(*strategy, GpuStrategy::Explicit);
        // The nest recovered the full (untiled) domain.
        assert_eq!(k.nests[0].bounds, vec![(1, 17), (1, 17)]);
        // And it executes correctly despite the tiled IR.
        let mut memory = Memory::new();
        let n = 18usize;
        let data = memory.alloc_buffer(n * n);
        let res = memory.alloc_buffer(n * n);
        for i in 0..n * n {
            memory.buffer_mut(data)[i] = 2.0;
        }
        run_kernel(
            &k,
            &mut memory,
            &[KernelArg::Buf(data), KernelArg::Buf(res)],
            1,
        )
        .unwrap();
        assert_eq!(memory.buffer(res)[1 + n], 2.0);
    }

    const GS3D: &str = "
program gs
  integer, parameter :: n = 4
  integer :: i, j, k
  real(kind=8) :: u(0:n+1, 0:n+1, 0:n+1), un(0:n+1, 0:n+1, 0:n+1)
  do k = 1, n
    do j = 1, n
      do i = 1, n
        un(i, j, k) = (u(i-1, j, k) + u(i+1, j, k) + u(i, j-1, k) &
                     + u(i, j+1, k) + u(i, j, k-1) + u(i, j, k+1)) / 6.0
      end do
    end do
  end do
end program gs
";

    /// Total cells covered by a task list, with a disjointness check.
    fn task_cells(tasks: &[Vec<(i64, i64)>]) -> u64 {
        let mut seen = std::collections::HashSet::new();
        let mut cells = 0u64;
        for t in tasks {
            let mut coords: Vec<i64> = t.iter().map(|&(lb, _)| lb).collect();
            'walk: loop {
                assert!(seen.insert(coords.clone()), "cell {coords:?} covered twice");
                cells += 1;
                for d in 0..coords.len() {
                    coords[d] += 1;
                    if coords[d] < t[d].1 {
                        continue 'walk;
                    }
                    coords[d] = t[d].0;
                }
                break;
            }
        }
        cells
    }

    #[test]
    fn plan_tasks_splits_across_dims_when_outer_is_narrow() {
        // 4³ domain, 32-way budget: the slowest dim alone only yields 4
        // slabs; the multi-dim factorisation must reach the full budget.
        let bounds = vec![(1i64, 5), (1, 5), (1, 5)];
        let tasks = plan_tasks(&bounds, 32);
        assert_eq!(tasks.len(), 32, "4x4x2 factorisation fills 32 slots");
        assert_eq!(task_cells(&tasks), 64, "exact disjoint cover");
        // Legacy outer-only splitting caps at the slowest extent.
        assert_eq!(plan_tasks_outer_only(&bounds, 32).len(), 4);
        // Wide outer dims don't over-split.
        let tasks = plan_tasks(&[(0i64, 100), (0, 8)], 4);
        assert_eq!(tasks.len(), 4);
        assert_eq!(task_cells(&tasks), 800);
        // Budget 1 and empty domains degenerate to one task.
        assert_eq!(plan_tasks(&bounds, 1).len(), 1);
        assert_eq!(plan_tasks(&[(0i64, 0), (0, 4)], 8).len(), 1);
    }

    #[test]
    fn small_domain_on_wide_pool_matches_serial() {
        // Regression for the slab scheduler: a 4³ interior on 32 threads
        // used to fall back to 4 slabs (slowest-dim-only splitting); the
        // tile decomposition must use every thread and stay bitwise
        // identical to the serial sweep. At 5 threads the planner yields 8
        // tasks, so some workers run several. (`run_kernel` keeps a nest
        // this small on one thread; the splitter is driven directly.)
        let k = compile(GS3D);
        let e = 6usize;
        let mk = |mem: &mut Memory| {
            let u = mem.alloc_buffer(e * e * e);
            let un = mem.alloc_buffer(e * e * e);
            for idx in 0..e * e * e {
                mem.buffer_mut(u)[idx] = (idx as f64 * 0.61).sin() + 2.0;
            }
            (u, un)
        };
        let mut m1 = Memory::new();
        let (u1, un1) = mk(&mut m1);
        run_kernel(&k, &mut m1, &[KernelArg::Buf(u1), KernelArg::Buf(un1)], 1).unwrap();
        // (threads, tasks the planner yields for the 4³ nest)
        for (threads, tasks) in [(32usize, 32usize), (5, 8)] {
            let plan = plan_tasks(&k.nests[0].bounds, threads);
            assert_eq!(plan.len(), tasks);
            let mut m2 = Memory::new();
            let (u2, un2) = mk(&mut m2);
            let args = [KernelArg::Buf(u2), KernelArg::Buf(un2)];
            assert!(run_split(&k, &mut m2, &args, &plan, threads));
            let (a, b) = (m1.buffer(un1), m2.buffer(un2));
            assert!(
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{tasks}-task slab decomposition on {threads} threads diverged from serial"
            );
        }
    }

    #[test]
    fn forced_plans_execute_bit_identically() {
        // Every plan variant — degenerate tiles, non-divisible tiles,
        // tiles larger than the extent, unroll-by-4 — must
        // visit every cell exactly once with unchanged per-cell
        // arithmetic.
        for src in [LISTING1, GS3D] {
            let mut k = compile(src);
            let rank = k.nests[0].bounds.len();
            let len = k.views[0].len();
            let mk = |mem: &mut Memory| {
                let a = mem.alloc_buffer(len);
                let b = mem.alloc_buffer(len);
                for idx in 0..len {
                    mem.buffer_mut(a)[idx] = (idx as f64 * 0.37).cos() * 3.0;
                }
                (a, b)
            };
            let mut m1 = Memory::new();
            let (a1, b1) = mk(&mut m1);
            run_kernel(&k, &mut m1, &[KernelArg::Buf(a1), KernelArg::Buf(b1)], 1).unwrap();
            let reference = m1.buffer(b1).to_vec();

            let plans = [
                ExecPlan::from_ir_tiles(vec![1; rank]),
                ExecPlan::from_ir_tiles(vec![3; rank]),
                ExecPlan::from_ir_tiles(vec![1024; rank]),
                ExecPlan {
                    tiles: vec![0, 2],
                    unroll: 4,
                },
                ExecPlan {
                    tiles: vec![],
                    unroll: 4,
                },
                ExecPlan {
                    tiles: vec![7; rank],
                    unroll: 4,
                },
            ];
            for plan in plans {
                k.force_plan(&plan);
                for threads in [1usize, 3] {
                    let mut m2 = Memory::new();
                    let (a2, b2) = mk(&mut m2);
                    let args = [KernelArg::Buf(a2), KernelArg::Buf(b2)];
                    if threads == 1 {
                        run_kernel(&k, &mut m2, &args, 1).unwrap();
                    } else {
                        let tasks = plan_tasks(&k.nests[0].bounds, threads);
                        assert!(run_split(&k, &mut m2, &args, &tasks, threads));
                    }
                    assert!(
                        reference
                            .iter()
                            .zip(m2.buffer(b2))
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "plan {} diverged at {threads} threads",
                        plan.describe()
                    );
                }
            }
        }
    }

    #[test]
    fn tiled_pipeline_seeds_default_plan_from_ir() {
        // CPU lowering + explicit tiling pass: the kernel compiler must
        // pick the tile sizes up from the "tiled" attribute and execute
        // the cache-blocked sweep bit-identically to the untiled one.
        let build = |tiles: Option<Vec<i64>>| {
            let mut m = fsc_fortran::compile_to_fir(LISTING1).unwrap();
            discover_stencils(&mut m).unwrap();
            merge_adjacent_applies(&mut m).unwrap();
            let mut st = extract_stencils(&mut m).unwrap();
            lower_stencils(&mut st, LoweringTarget::Cpu).unwrap();
            if let Some(tiles) = tiles {
                fsc_passes::tiling::ParallelLoopTiling {
                    tile_sizes: tiles,
                    ..Default::default()
                }
                .run(&mut st)
                .unwrap();
            }
            fsc_passes::canonicalize::Canonicalize.run(&mut st).unwrap();
            compile_kernel(&st, "stencil_region_0").unwrap()
        };
        let plain = build(None);
        let tiled = build(Some(vec![8, 4]));
        assert!(!plain.nests[0].plan.is_tiled());
        assert!(
            tiled.nests[0].plan.is_tiled(),
            "IR tile attribute must seed the default plan: {}",
            tiled.nests[0].plan.describe()
        );
        assert_eq!(
            tiled.nests[0].plan.unroll, 4,
            "the tiling pass's unroll attr must seed the default plan"
        );
        let n = 18usize;
        let mk = |mem: &mut Memory| {
            let data = mem.alloc_buffer(n * n);
            let res = mem.alloc_buffer(n * n);
            for idx in 0..n * n {
                mem.buffer_mut(data)[idx] = (idx as f64).sqrt();
            }
            (data, res)
        };
        let mut m1 = Memory::new();
        let (d1, r1) = mk(&mut m1);
        run_kernel(
            &plain,
            &mut m1,
            &[KernelArg::Buf(d1), KernelArg::Buf(r1)],
            1,
        )
        .unwrap();
        let mut m2 = Memory::new();
        let (d2, r2) = mk(&mut m2);
        run_kernel(
            &tiled,
            &mut m2,
            &[KernelArg::Buf(d2), KernelArg::Buf(r2)],
            1,
        )
        .unwrap();
        assert_eq!(m1.buffer(r1), m2.buffer(r2));
    }

    #[test]
    fn three_d_seven_point_runs() {
        let src = "
program gs
  integer, parameter :: n = 6
  integer :: i, j, k
  real(kind=8) :: u(0:n+1, 0:n+1, 0:n+1), un(0:n+1, 0:n+1, 0:n+1)
  do k = 1, n
    do j = 1, n
      do i = 1, n
        un(i, j, k) = (u(i-1, j, k) + u(i+1, j, k) + u(i, j-1, k) &
                     + u(i, j+1, k) + u(i, j, k-1) + u(i, j, k+1)) / 6.0
      end do
    end do
  end do
end program gs
";
        let kern = compile(src);
        let nest = &kern.nests[0];
        assert_eq!(nest.bounds.len(), 3);
        assert_eq!(nest.program.loads_per_cell, 6);
        let mut memory = Memory::new();
        let e = 8usize;
        let u = memory.alloc_buffer(e * e * e);
        let un = memory.alloc_buffer(e * e * e);
        for idx in 0..e * e * e {
            memory.buffer_mut(u)[idx] = 1.0;
        }
        run_kernel(
            &kern,
            &mut memory,
            &[KernelArg::Buf(u), KernelArg::Buf(un)],
            1,
        )
        .unwrap();
        let at = |i: usize, j: usize, k: usize| memory.buffer(un)[i + e * j + e * e * k];
        assert_eq!(at(3, 3, 3), 1.0);
        assert_eq!(at(1, 1, 1), 1.0);
        assert_eq!(at(0, 0, 0), 0.0);
    }

    /// A 3-D program over `u, v, w, un` (each `0:n+1` cubed) with one
    /// `do k / do j / do i` nest per `(statement, k from, k to)`, i and j
    /// running 1..n: the nests land in one region.
    fn nests3d(n: i64, nests: &[(&str, i64, i64)]) -> String {
        let rows: Vec<_> = nests
            .iter()
            .map(|&(stmt, from, to)| (stmt, (from, to), (1, n)))
            .collect();
        nests3d_rows(n, &rows)
    }

    /// A nest of [`nests3d_rows`]: its statement, `(k from, k to)` and
    /// `(j from, j to)`.
    type RowNest<'s> = (&'s str, (i64, i64), (i64, i64));

    /// [`nests3d`] with each nest's own `j` range.
    fn nests3d_rows(n: i64, nests: &[RowNest]) -> String {
        let mut src = format!(
            "program t\n  integer, parameter :: n = {n}\n  integer :: i, j, k\n  \
             real(kind=8) :: u(0:n+1, 0:n+1, 0:n+1), v(0:n+1, 0:n+1, 0:n+1)\n  \
             real(kind=8) :: w(0:n+1, 0:n+1, 0:n+1), un(0:n+1, 0:n+1, 0:n+1)\n",
        );
        for (stmt, (kf, kt), (jf, jt)) in nests {
            src += &format!(
                "  do k = {kf}, {kt}\n    do j = {jf}, {jt}\n      do i = 1, n\n        \
                 {stmt}\n      end do\n    end do\n  end do\n"
            );
        }
        src + "end program t\n"
    }

    const GS_STENCIL: &str = "un(i, j, k) = (u(i-1, j, k) + u(i+1, j, k) + u(i, j-1, k) \
                              + u(i, j+1, k) + u(i, j, k-1) + u(i, j, k+1)) / 6.0";

    const GS2D_PAIR: &str = "
program gs2
  integer, parameter :: n = 7
  integer :: i, j
  real(kind=8) :: u(0:n+1, 0:n+1), un(0:n+1, 0:n+1)
  do j = 1, n
    do i = 1, n
      un(i, j) = 0.25 * (u(i-1, j) + u(i+1, j) + u(i, j-1) + u(i, j+1))
    end do
  end do
  do j = 1, n
    do i = 1, n
      u(i, j) = un(i, j)
    end do
  end do
end program gs2
";

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Run `k` once on `threads` with every pointer argument seeded from
    /// its position; returns the arguments' contents, concatenated.
    fn run_seeded(k: &CompiledKernel, threads: usize) -> Vec<f64> {
        let mut memory = Memory::new();
        let args = seeded_args(k, &mut memory);
        run_kernel(k, &mut memory, &args, threads).unwrap();
        contents(&memory, &args)
    }

    /// Every pointer argument of `k` seeded from its position; scalars 0.5.
    fn seeded_args(k: &CompiledKernel, memory: &mut Memory) -> Vec<KernelArg> {
        (0..k.args.len())
            .map(
                |i| match k.views.iter().find(|v| v.source == ViewSource::Arg(i)) {
                    Some(view) => {
                        let b = memory.alloc_buffer(view.len());
                        for (idx, x) in memory.buffer_mut(b).iter_mut().enumerate() {
                            *x = ((idx * 7 + i * 13) as f64 * 0.37).sin();
                        }
                        KernelArg::Buf(b)
                    }
                    None => KernelArg::Scalar(0.5),
                },
            )
            .collect()
    }

    /// The pointer arguments' contents, concatenated.
    fn contents(memory: &Memory, args: &[KernelArg]) -> Vec<f64> {
        args.iter()
            .flat_map(|a| match a {
                KernelArg::Buf(b) => memory.buffer(*b).to_vec(),
                KernelArg::Scalar(_) => Vec::new(),
            })
            .collect()
    }

    /// `n` dispatches of `k` on seeded arguments, dispatch `c` passing
    /// scalars `0.5 + c`: one at a time through [`run_kernel`], or, as a
    /// time loop's dispatcher runs them, each joining the open [`Sweep`]
    /// or running it and opening the next. Returns the contents and the
    /// sweeps run.
    fn run_dispatches(k: &CompiledKernel, n: usize, batched: bool) -> (Vec<f64>, usize) {
        let mut memory = Memory::new();
        let seeded = seeded_args(k, &mut memory);
        let mut open: Option<Sweep> = None;
        let mut sweeps = 0;
        for c in 0..n {
            let args: Vec<KernelArg> = seeded
                .iter()
                .map(|&a| match a {
                    KernelArg::Scalar(s) => KernelArg::Scalar(s + c as f64),
                    buf => buf,
                })
                .collect();
            if !batched {
                run_kernel(k, &mut memory, &args, 1).unwrap();
                sweeps += 1;
                continue;
            }
            if open.as_mut().is_some_and(|s| s.join(k, &args)) {
                continue;
            }
            if let Some(full) = open.take() {
                full.run(&mut memory);
                sweeps += 1;
            }
            open = Some(Sweep::new(k, &mut memory, &args, 1).unwrap());
        }
        if let Some(last) = open {
            last.run(&mut memory);
            sweeps += 1;
        }
        (contents(&memory, &seeded), sweeps)
    }

    /// [`check_order`] on one single-threaded sweep of `n` dispatches of `k`.
    fn sweep_order(k: &CompiledKernel, n: usize) -> std::result::Result<(), String> {
        let mut memory = Memory::new();
        let args = seeded_args(k, &mut memory);
        let mut sweep = Sweep::new(k, &mut memory, &args, 1).unwrap();
        for _ in 1..n {
            assert!(sweep.join(k, &args), "{n} dispatches fit one window");
        }
        check_order(k, &sweep.work(), &sweep.events())
    }

    /// [`check_order`] over single-threaded sweeps of every dispatch count
    /// up to the window's (at most 8).
    fn assert_in_order(k: &CompiledKernel, what: &str) {
        let batch = k.pipeline.as_ref().map_or(1, |p| p.batch);
        for n in 1..=batch.min(8) {
            if let Err(e) = sweep_order(k, n) {
                panic!("{what}, {n} dispatches: {e}");
            }
        }
    }

    /// Dispatch counts every batch test runs.
    const BATCHES: [usize; 5] = [1, 2, 3, 4, 8];

    /// Block heights every pipelined test crosses: 1, 2, 3 and 7 rows (less
    /// than a row period, a block with no rows of a lagged nest), and one
    /// block spanning the rows.
    const ROWS: [i64; 5] = [1, 2, 3, 7, i64::MAX];

    /// [`assert_steps_in_order`], then [`assert_steps_same_bits`].
    fn assert_steps_bit_identical(k: CompiledKernel) -> (Vec<i64>, i64) {
        assert_steps_in_order(&k);
        assert_steps_same_bits(k)
    }

    /// [`check_order`] over sweeps of `k` in steps of 1, 2 and 3 planes and
    /// in one step spanning the domain, in blocks of each of [`ROWS`]: no
    /// value is compared.
    fn assert_steps_in_order(k: &CompiledKernel) {
        let mut k = k.clone();
        let p = k.pipeline.take().expect("a legal pipeline");
        for planes in [1, 2, 3, i64::MAX] {
            for rows in ROWS {
                k.pipeline = Some(Pipeline {
                    planes,
                    rows,
                    ..p.clone()
                });
                assert_in_order(
                    &k,
                    &format!("{planes} planes/step, {rows} rows/block, {p:?}"),
                );
            }
        }
    }

    /// Sweep `k` in steps of 1, 2 and 3 planes and in one step spanning the
    /// domain, in blocks of each of [`ROWS`], on every forced tier: each run
    /// must equal the in-order run bit for bit, and a sweep of each of
    /// [`BATCHES`] dispatches the same dispatches run one at a time. Returns
    /// the compiled lags and period.
    fn assert_steps_same_bits(mut k: CompiledKernel) -> (Vec<i64>, i64) {
        let p = k.pipeline.take().expect("a legal pipeline");
        for tier in [
            ExecPath::Specialized,
            ExecPath::Jit,
            ExecPath::FusedVm,
            ExecPath::GenericVm,
        ] {
            k.force_exec_path(tier);
            k.pipeline = None;
            let in_order = run_seeded(&k, 1);
            let one_at_a_time = BATCHES.map(|n| run_dispatches(&k, n, false).0);
            for (planes, rows) in [1, 2, 3, i64::MAX]
                .into_iter()
                .flat_map(|planes| ROWS.map(|rows| (planes, rows)))
            {
                k.pipeline = Some(Pipeline {
                    planes,
                    rows,
                    ..p.clone()
                });
                assert!(
                    same_bits(&run_seeded(&k, 1), &in_order),
                    "{tier} at {planes} planes/step, {rows} rows/block, {p:?}"
                );
                for (n, reference) in BATCHES.iter().zip(&one_at_a_time) {
                    let (batched, sweeps) = run_dispatches(&k, *n, true);
                    assert_eq!(sweeps, 1, "{tier}: {n} dispatches fit one window");
                    assert!(
                        same_bits(&batched, reference),
                        "{tier}: {n} dispatches at {planes} planes/step, {rows} rows/block, {p:?}"
                    );
                }
            }
        }
        (p.lags, p.period)
    }

    #[test]
    fn gauss_seidel_copy_trails_the_stencil_by_one_plane() {
        let gs3 = nests3d(5, &[(GS_STENCIL, 1, 5), ("u(i, j, k) = un(i, j, k)", 1, 5)]);
        // The next dispatch's stencil reads u one plane ahead of where this
        // one's copy writes it, a plane behind the stencil: period 2.
        assert_eq!(assert_steps_bit_identical(compile(&gs3)), (vec![0, 1], 2));
        assert_eq!(
            assert_steps_bit_identical(compile(GS2D_PAIR)),
            (vec![0, 1], 2)
        );
        // Small domains fit one step: the schedule is in order.
        assert_eq!(compile(&gs3).lags(), None);
        assert_eq!(compile(&gs3).schedule(1), "in order");
        // GS n=64: 66² doubles per plane on two views, 15 planes a step;
        // a window of every plane, 15 rows of each.
        let big = nests3d(
            64,
            &[(GS_STENCIL, 1, 64), ("u(i, j, k) = un(i, j, k)", 1, 64)],
        );
        assert_eq!(
            compile(&big).schedule(1),
            "pipelined, lags [0, 1], period 2, 15 planes/step, 15 rows/block"
        );
        // More than one thread runs in order, each nest in as many slabs as
        // its work repays.
        assert_eq!(compile(&gs3).schedule(2), "in order, slabs [1, 1]");
        assert_eq!(compile(&big).schedule(2), "in order, slabs [2, 2]");
    }

    #[test]
    fn lags_cover_flow_anti_and_output_dependences() {
        // Flow at +1: the second nest reads v one plane ahead of where the
        // first wrote it; the nests' bounds differ.
        let flow = nests3d(
            5,
            &[
                ("v(i, j, k) = 2.0 * u(i, j, k)", 1, 5),
                ("w(i, j, k) = v(i, j, k+1) - v(i, j, k)", 1, 4),
            ],
        );
        assert_eq!(assert_steps_bit_identical(compile(&flow)), (vec![0, 1], 1));
        // Anti at −2: the first nest reads u two planes back; the second
        // overwrites u.
        let anti = nests3d(
            5,
            &[
                ("v(i, j, k) = u(i, j, k-2) + u(i, j, k)", 2, 5),
                ("u(i, j, k) = 0.5 * v(i, j, k)", 2, 5),
            ],
        );
        assert_eq!(assert_steps_bit_identical(compile(&anti)), (vec![0, 2], 2));
        // Output: both nests write v, on overlapping planes; the second
        // nest's values must land last.
        let output = nests3d(
            5,
            &[
                ("v(i, j, k) = u(i, j, k)", 1, 5),
                ("v(i, j, k+1) = 2.0 * w(i, j, k)", 1, 4),
            ],
        );
        assert_eq!(
            assert_steps_bit_identical(compile(&output)),
            (vec![0, 0], 0)
        );
        // Bounds apart: the second nest starts two planes later and stops
        // one earlier, reading v one plane ahead and two behind.
        let apart = nests3d(
            5,
            &[
                ("v(i, j, k) = 3.0 * u(i, j, k)", 1, 5),
                ("w(i, j, k) = v(i, j, k+1) + v(i, j, k-2)", 3, 4),
            ],
        );
        assert_eq!(assert_steps_bit_identical(compile(&apart)), (vec![0, 1], 3));
    }

    #[test]
    fn a_three_nest_chain_lags_one_plane_per_link() {
        let chain = nests3d(
            5,
            &[
                ("v(i, j, k) = 2.0 * u(i, j, k)", 1, 5),
                ("w(i, j, k) = v(i, j, k+1) + 1.0", 1, 4),
                ("un(i, j, k) = w(i, j, k+1) * w(i, j, k)", 1, 3),
            ],
        );
        assert_eq!(
            assert_steps_bit_identical(compile(&chain)),
            (vec![0, 1, 2], 2)
        );
    }

    /// The compiled row lags and row period of `src`'s first region, after
    /// [`assert_steps_bit_identical`] crossed its blocks.
    fn row_rule(src: &str) -> (Vec<i64>, i64) {
        let k = compile(src);
        let p = k.pipeline.clone().expect("a legal pipeline");
        assert_steps_bit_identical(k);
        (p.row_lags, p.row_period)
    }

    #[test]
    fn row_lags_cover_flow_anti_and_output_dependences() {
        let all = (1, 5);
        // Gauss–Seidel: the copy trails the stencil by one row, the next
        // dispatch this one by two.
        let gs = nests3d(5, &[(GS_STENCIL, 1, 5), ("u(i, j, k) = un(i, j, k)", 1, 5)]);
        assert_eq!(row_rule(&gs), (vec![0, 1], 2));
        // Flow at +2: the second nest reads v two rows ahead of where the
        // first wrote it.
        let flow = nests3d_rows(
            5,
            &[
                ("v(i, j, k) = 2.0 * u(i, j, k)", all, all),
                ("w(i, j, k) = v(i, j+2, k) - v(i, j, k)", all, (1, 3)),
            ],
        );
        assert_eq!(row_rule(&flow), (vec![0, 2], 2));
        // Anti at −2: the first nest reads u two rows back; the second
        // overwrites u.
        let anti = nests3d_rows(
            5,
            &[
                ("v(i, j, k) = u(i, j-2, k) + u(i, j, k)", all, (2, 5)),
                ("u(i, j, k) = 0.5 * v(i, j, k)", all, (2, 5)),
            ],
        );
        assert_eq!(row_rule(&anti), (vec![0, 2], 2));
        // Output: both nests write v on overlapping rows; the second
        // nest's values must land last.
        let output = nests3d_rows(
            5,
            &[
                ("v(i, j, k) = u(i, j, k)", all, all),
                ("v(i, j+1, k) = 2.0 * w(i, j, k)", all, (1, 4)),
            ],
        );
        assert_eq!(row_rule(&output), (vec![0, 0], 0));
        // Rows apart: the second nest covers two rows only, so most blocks
        // hold none of them.
        let apart = nests3d_rows(
            5,
            &[
                ("v(i, j, k) = 3.0 * u(i, j, k)", all, all),
                ("w(i, j, k) = v(i, j+1, k) + v(i, j-2, k)", all, (3, 4)),
            ],
        );
        assert_eq!(row_rule(&apart), (vec![0, 1], 3));
        // Three nests, one row per link.
        let chain = nests3d_rows(
            5,
            &[
                ("v(i, j, k) = 2.0 * u(i, j, k)", all, all),
                ("w(i, j, k) = v(i, j+1, k) + 1.0", all, (1, 4)),
                ("un(i, j, k) = w(i, j+1, k) * w(i, j, k)", all, (1, 3)),
            ],
        );
        assert_eq!(row_rule(&chain), (vec![0, 1, 2], 2));
    }

    #[test]
    fn a_block_trailing_by_less_than_the_row_period_reads_stale_rows() {
        // One step spans every plane, so only the blocks order the
        // dispatches. The mutant runs dispatch c at c·(Dʲ − 1) rows: the
        // next stencil reads u one row before this dispatch's copy has
        // written it.
        let mut k = compile(&nests3d(
            5,
            &[(GS_STENCIL, 1, 5), ("u(i, j, k) = un(i, j, k)", 1, 5)],
        ));
        let reference = run_dispatches(&k, 2, false).0;
        let p = k.pipeline.as_mut().expect("a legal pipeline");
        (p.planes, p.rows) = (i64::MAX, 1);
        assert!(same_bits(&run_dispatches(&k, 2, true).0, &reference));
        let p = k.pipeline.as_mut().expect("a legal pipeline");
        p.row_period -= 1;
        assert!(!same_bits(&run_dispatches(&k, 2, true).0, &reference));
    }

    /// GS n=192 × 8 dispatches: a window of 17 planes, 19 rows of each on
    /// two views fill `STEP_BYTES`. Small grids run whole planes.
    #[test]
    fn blocks_fill_the_step_bytes_with_a_window_of_rows() {
        let gs = |n: usize| {
            let src = fsc_workloads::gauss_seidel::fortran_source(n, 2);
            compile_region(&src, "stencil_region_1")
        };
        let p = gs(192).pipeline.expect("a legal pipeline");
        assert_eq!((p.batch, p.period, p.rows), (8, 2, 19));
        assert_eq!(gs(8).pipeline.expect("a legal pipeline").rows, i64::MAX);
        assert_eq!(
            gs(192).schedule(1),
            "pipelined, lags [0, 1], period 2, 1 plane/step, 19 rows/block"
        );
    }

    #[test]
    fn a_tiled_plan_pipelines_bit_identically() {
        let mut k = compile(&nests3d(
            5,
            &[(GS_STENCIL, 1, 5), ("u(i, j, k) = un(i, j, k)", 1, 5)],
        ));
        k.force_plan(&ExecPlan::from_ir_tiles(vec![2, 3, 2]));
        assert_eq!(assert_steps_bit_identical(k), (vec![0, 1], 2));
    }

    #[test]
    fn the_pw_triple_batches_at_period_zero() {
        // One nest that reads u, v, w and writes su, sv, sw: consecutive
        // dispatches share only output dependences.
        for n in [3usize, 16] {
            let src = fsc_workloads::pw_advection::fortran_source_repeated(n, 2);
            let k = compile_region(&src, "stencil_region_1");
            assert_eq!(k.nests.len(), 1);
            assert_eq!(k.lags(), None, "one nest runs in order");
            // The order is the same at either size; the values see the
            // vector loop's full strips at 16.
            if n == 3 {
                assert_steps_in_order(&k);
            }
            assert_eq!(assert_steps_same_bits(k), (vec![0], 0));
        }
    }

    #[test]
    fn the_copy_depends_on_the_stencil_one_plane_either_side() {
        // The copy overwrites `u`, which the stencil reads at ±1, and reads
        // `un` where the stencil wrote it; a nest touching no view depends
        // on nothing.
        let src = fsc_workloads::gauss_seidel::fortran_source(6, 2);
        let k = compile_region(&src, "stencil_region_1");
        let (stencil, copy) = (&k.nests[0], &k.nests[1]);
        assert_eq!(dependence_window(copy, stencil), vec![(-1, 1); 3]);
        assert_eq!(dependence_window(stencil, copy), vec![(-1, 1); 3]);
        let mut alone = copy.clone();
        alone.reach.clear();
        assert!(dependence_window(&alone, stencil).iter().all(|w| w.0 > w.1));
    }

    #[test]
    fn an_openmp_region_on_one_thread_runs_the_cpu_pipeline() {
        // The thread count at run time decides: on one thread an `omp`
        // kernel sweeps as `cpu` does, on two in order.
        let omp = |n: usize| {
            let src = fsc_workloads::gauss_seidel::fortran_source(n, 2);
            let mut m = fsc_fortran::compile_to_fir(&src).unwrap();
            discover_stencils(&mut m).unwrap();
            merge_adjacent_applies(&mut m).unwrap();
            let mut st = extract_stencils(&mut m).unwrap();
            let pm = fsc_passes::pipelines::openmp_pipeline(1).unwrap();
            pm.run(&mut st).unwrap();
            compile_kernel(&st, "stencil_region_1").unwrap()
        };
        let big = omp(192);
        assert!(matches!(big.kind, PlanKind::Omp { num_threads: 1 }));
        assert_eq!(
            big.schedule(1),
            "pipelined, lags [0, 1], period 2, 1 plane/step, 19 rows/block"
        );
        assert_eq!(big.schedule(2), "in order, slabs [2, 2]");
        let k = omp(5);
        assert_eq!(assert_steps_bit_identical(k.clone()), (vec![0, 1], 2));
        let mut memory = Memory::new();
        let args = seeded_args(&k, &mut memory);
        assert!(!Sweep::new(&k, &mut memory, &args, 2).unwrap().has_room());
    }

    #[test]
    fn a_one_nest_region_prints_the_batched_sweep_it_runs() {
        // A dispatch of PW's one advection nest runs whole, a sweep of ten
        // steps through planes and blocks of rows; a small grid fits one
        // step and one block.
        let pw = |n: usize| {
            let src = fsc_workloads::pw_advection::fortran_source_repeated(n, 10);
            compile_region(&src, "stencil_region_1")
        };
        assert_eq!(
            pw(128).schedule(1),
            "in order alone, batched: period 0, 1 plane/step, 56 rows/block"
        );
        assert_eq!(pw(3).schedule(1), "in order");
        assert_eq!(pw(128).schedule(2), "in order, slabs [2]");
    }

    #[test]
    fn the_window_bounds_a_sweep() {
        let gs = |n: usize| {
            let src = fsc_workloads::gauss_seidel::fortran_source(n, 2);
            compile_region(&src, "stencil_region_1")
        };
        // GS n=192: 194² doubles a plane on two views, 17 planes in
        // WINDOW_BYTES; one dispatch spans 3, each next one 2 more.
        let batch = |k: CompiledKernel| k.pipeline.expect("a legal pipeline").batch;
        assert_eq!(batch(gs(192)), 8);
        assert_eq!(batch(gs(64)), 74);
        // Past the bound the dispatches split into sweeps, every one
        // bit-identical to running them one at a time.
        let mut k = gs(6);
        for batch in [1, 2, 3] {
            let p = k.pipeline.as_mut().expect("a legal pipeline");
            (p.batch, p.planes) = (batch, 1);
            let (batched, sweeps) = run_dispatches(&k, 8, true);
            assert_eq!(sweeps, 8usize.div_ceil(batch), "window of {batch}");
            assert!(same_bits(&batched, &run_dispatches(&k, 8, false).0));
        }
    }

    #[test]
    fn a_dispatch_trailing_by_less_than_the_period_reads_stale_planes() {
        // The mutant runs dispatch c at c·(D − 1): the next stencil reads
        // u one plane before this dispatch's copy has written it.
        let mut k = compile(&nests3d(
            5,
            &[(GS_STENCIL, 1, 5), ("u(i, j, k) = un(i, j, k)", 1, 5)],
        ));
        let reference = run_dispatches(&k, 2, false).0;
        let p = k.pipeline.as_mut().expect("a legal pipeline");
        (p.planes, p.period) = (1, p.period - 1);
        assert!(!same_bits(&run_dispatches(&k, 2, true).0, &reference));
    }

    #[test]
    fn sweeps_join_only_the_same_region_on_the_same_buffers() {
        let gs3 = nests3d(5, &[(GS_STENCIL, 1, 5), ("u(i, j, k) = un(i, j, k)", 1, 5)]);
        let (k, other) = (compile(&gs3), compile(&gs3));
        let mut memory = Memory::new();
        let args = seeded_args(&k, &mut memory);
        let mut sweep = Sweep::new(&k, &mut memory, &args, 1).unwrap();
        assert!(sweep.join(&k, &args));
        assert!(!sweep.join(&other, &args), "another region");
        let swapped: Vec<KernelArg> = args.iter().rev().copied().collect();
        assert!(!sweep.join(&k, &swapped), "other buffers");
        assert_eq!(sweep.scalars.len(), 2);
        // A work-shared dispatch runs alone.
        assert!(!Sweep::new(&k, &mut memory, &args, 2).unwrap().has_room());
    }

    /// `a(i-1) = b(i); a(i+1) = b(i)` over i = 1..n, built by hand: the
    /// nest stores one view at two offsets.
    fn two_offset_kernel(n: i64) -> CompiledKernel {
        let view = |arg| ViewSpec {
            source: ViewSource::Arg(arg),
            extents: vec![n + 2],
            strides: vec![1],
            lbs: None,
        };
        let mut program = BodyProgram {
            instrs: vec![
                Instr::Load {
                    dst: 0,
                    view: 1,
                    off: 0,
                },
                Instr::Store {
                    view: 0,
                    off: -1,
                    src: 0,
                },
                Instr::Store {
                    view: 0,
                    off: 1,
                    src: 0,
                },
            ],
            num_regs: 1,
            ..Default::default()
        };
        program.finalize_stats();
        let nest = Nest {
            bounds: vec![(1, n + 1)],
            out_views: vec![0],
            fused: specialize::fuse_program(&program),
            program,
            specialized: None,
            jit: None,
            path: ExecPath::FusedVm,
            exchanges: Vec::new(),
            halo_schedule: None,
            snapshots: Vec::new(),
            plan: ExecPlan::default(),
            reach: HashMap::from([((1, false), vec![(0, 0)]), ((0, true), vec![(-1, 1)])]),
        };
        CompiledKernel {
            name: "two_offsets".into(),
            args: vec![ArgKind::Ptr; 2],
            views: vec![view(0), view(1)],
            nests: vec![nest],
            kind: PlanKind::Cpu,
            decomposition: Vec::new(),
            halo_depth: 1,
            jit_warnings: Vec::new(),
            pipeline: None,
        }
    }

    #[test]
    fn overlapping_slabs_run_the_nest_serially() {
        // Every split of i = 1..n overlaps on `a`, the fine one and the
        // slowest-dimension one alike: the splitter runs nothing, and a
        // work-shared run big enough to split must fall back to the calling
        // thread and keep its outputs, not fail.
        let n = SPLIT_WORK as i64;
        let k = two_offset_kernel(n);
        let bounds = &k.nests[0].bounds;
        let seeded = |memory: &mut Memory| {
            let a = memory.alloc_buffer(n as usize + 2);
            let b = memory.alloc_buffer(n as usize + 2);
            for (i, x) in memory.buffer_mut(b).iter_mut().enumerate() {
                *x = i as f64 * 1.5;
            }
            (a, b)
        };
        let run = |threads| {
            let mut memory = Memory::new();
            let (a, b) = seeded(&mut memory);
            run_kernel(
                &k,
                &mut memory,
                &[KernelArg::Buf(a), KernelArg::Buf(b)],
                threads,
            )
            .unwrap();
            memory.buffer(a).to_vec()
        };
        let serial = run(1);
        assert_eq!(serial.len(), n as usize + 2);
        for threads in [2usize, 3] {
            assert_eq!(k.slabs(threads), [threads], "the rule asks for a split");
            let mut memory = Memory::new();
            let (a, b) = seeded(&mut memory);
            let args = [KernelArg::Buf(a), KernelArg::Buf(b)];
            for tasks in [
                plan_tasks(bounds, threads),
                plan_tasks_outer_only(bounds, threads),
            ] {
                assert!(!run_split(&k, &mut memory, &args, &tasks, threads));
            }
            assert!(memory.buffer(a).iter().all(|&x| x == 0.0), "ran nothing");
            assert!(same_bits(&run(threads), &serial), "{threads} threads");
        }
    }

    #[test]
    fn a_store_outside_the_outputs_is_a_coded_error() {
        let mut k = two_offset_kernel(10);
        k.nests[0].out_views.clear();
        let mut memory = Memory::new();
        let a = memory.alloc_buffer(12);
        let b = memory.alloc_buffer(12);
        memory.buffer_mut(b).fill(1.5);
        for path in [ExecPath::FusedVm, ExecPath::GenericVm] {
            k.force_exec_path(path);
            let args = [KernelArg::Buf(a), KernelArg::Buf(b)];
            let e = run_kernel(&k, &mut memory, &args, 1).unwrap_err();
            assert_eq!(
                e.primary().map(|d| d.code),
                Some(codes::EXEC),
                "{path}: {e}"
            );
            assert_eq!((memory.buffer(a).len(), memory.buffer(b).len()), (12, 12));
            assert!(
                memory.buffer(a).iter().all(|&x| x == 0.0),
                "{path} ran a cell"
            );
        }
    }

    #[test]
    fn a_nest_splits_only_when_each_slab_repays_a_spawn() {
        let small = compile(GS3D);
        let instrs = small.nests[0].program.instrs.len();
        for threads in [2usize, 32] {
            assert_eq!(small.slabs(threads), [1], "4³ GS at {threads} threads");
        }
        let big = compile(&GS3D.replace("n = 4", "n = 192"));
        for threads in [2usize, 32] {
            assert_eq!(
                big.slabs(threads),
                [threads],
                "192³ GS at {threads} threads"
            );
        }
        // One instruction per cell: work is the cell count.
        let cells = |c: u64| vec![(0i64, c as i64)];
        assert_eq!(slab_count(&cells(SPLIT_WORK - 1), 1, 8), 1);
        assert_eq!(slab_count(&cells(SPLIT_WORK), 1, 8), 2);
        assert_eq!(slab_count(&cells(3 * SPLIT_WORK), 1, 8), 4);
        assert_eq!(slab_count(&big.nests[0].bounds, instrs, 1), 1);
        assert_eq!(slab_count(&[(0, 0), (1, 193)], instrs, 8), 1);
        // 2³² × 2³² cells wrap a u64 to 0; saturating, they are the most
        // work there is.
        let huge = [(0i64, 1 << 32), (0, 1 << 32)];
        assert_eq!(slab_count(&huge, instrs, 8), 8);
    }

    /// An affine init (`0.01·i + 0.02·j + 0.03·k` per array) stitches to one
    /// store-sunk chain per array over the `i` ramp and per-row scalars:
    /// GS's to one, PW's to three. Every GS nest is one fragment. Each gives
    /// the generic VM's bits, also in tiles that start rows mid-way.
    #[test]
    fn affine_inits_stitch_to_one_chain_per_array() {
        let gs = fsc_workloads::gauss_seidel::fortran_source(6, 2);
        let pw = fsc_workloads::pw_advection::fortran_source(6);
        // PW's `w` folds `0.01·j + 0.02·k` into one row scalar: five taps.
        for (src, chains, taps) in [(&gs, 1, 2), (&pw, 3, 5)] {
            let mut k = compile(src);
            let jit = k.nests[0].jit.as_ref().expect("the init nest, stitched");
            assert_eq!((jit.steps_len(), jit.chained_taps()), (chains, taps));
            k.force_exec_path(ExecPath::GenericVm);
            let reference = run_seeded(&k, 1);
            k.force_exec_path(ExecPath::Jit);
            assert!(same_bits(&run_seeded(&k, 1), &reference));
            k.force_plan(&ExecPlan::from_ir_tiles(vec![3, 2, 5]));
            assert!(same_bits(&run_seeded(&k, 1), &reference), "tiled");
        }
        let k = compile_region(&gs, "stencil_region_1");
        for nest in &k.nests {
            assert_eq!(nest.jit.as_ref().map(|j| j.steps_len()), Some(1));
        }
    }

    /// The PW workload's region: the init nest, then the advection triple.
    fn pw(n: usize) -> CompiledKernel {
        compile(&fsc_workloads::pw_advection::fortran_source(n))
    }

    #[test]
    fn the_pw_triple_runs_as_one_body_bit_identical_to_the_vm_and_the_jit() {
        // Rows of 1, 3 and 33 cells end in the vector loop's scalar tail;
        // 16³ and 33³ split into two slabs on two threads.
        for n in [1usize, 3, 16, 33] {
            let mut k = pw(n);
            let c = k
                .nests
                .iter()
                .position(|n| n.out_views.len() == 3 && n.program.loads_per_cell > 0)
                .expect("the advection nest");
            let body = &k.nests[c].specialized;
            assert!(
                body.as_ref().is_some_and(|b| b.outputs().len() == 3),
                "n = {n}: {body:?}"
            );
            let (bounds, instrs) = (&k.nests[c].bounds, k.nests[c].program.instrs.len());
            assert_eq!(slab_count(bounds, instrs, 2), if n >= 16 { 2 } else { 1 });
            k.force_exec_path(ExecPath::GenericVm);
            let reference = run_seeded(&k, 1);
            for tier in [ExecPath::Specialized, ExecPath::Jit] {
                k.force_exec_path(tier);
                assert_eq!(k.nests[c].path, tier, "n = {n}");
                for threads in [1, 2] {
                    assert!(
                        same_bits(&run_seeded(&k, threads), &reference),
                        "n = {n}: {tier} on {threads} threads"
                    );
                }
            }
            // Tiles that split dimension 0 hand the body part-rows.
            k.force_plan(&ExecPlan::from_ir_tiles(vec![5, 2, 0]));
            k.force_exec_path(ExecPath::Specialized);
            assert!(same_bits(&run_seeded(&k, 1), &reference), "n = {n}: tiled");
        }
    }
}
