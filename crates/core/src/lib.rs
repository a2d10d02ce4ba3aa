//! # fsc-core — the end-to-end driver (the paper's Figure 1)
//!
//! One call chain reproduces the whole flow:
//!
//! ```text
//! Fortran ──frontend──▶ FIR ──discover+merge──▶ FIR+stencil
//!          ──extract──▶ (FIR module, stencil module)
//!          ──target pipeline──▶ lowered stencil module
//!          ──kernel compiler──▶ CompiledKernels
//! run: interpret FIR; fir.call @stencil_region_N dispatches to kernels
//! ```
//!
//! [`Target`] selects the paper's four execution configurations: Flang-only
//! (no stencil passes — the slow baseline of Figures 2–4), serial CPU
//! stencil, OpenMP stencil, GPU stencil (with either data strategy), or
//! distributed-memory stencil via DMP/MPI.

// Compiling and running act on request input: every failure is a
// coded error.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod session;

pub use session::{
    ArtifactSource, CompileOutcome, CompileRequest, CompileService, ServiceMetrics, Session,
};

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fsc_exec::budget::{MemoryBudget, MemoryEstimate};
use fsc_exec::distexec::{self, DistOutcome, DistSession};
pub use fsc_exec::distexec::{DistMode, DistOptions};
use fsc_exec::interp::{Interpreter, RegionDispatcher, RunStats};
/// The process-wide jit stitch counters (every compile in this process,
/// all `fsc-serve` sessions included). `benchmark/` calls it by this name.
pub use fsc_exec::jit::stats as jit_cache_stats;
use fsc_exec::kernel::{
    self, CompiledKernel, GpuStrategy, HaloSchedule, KernelArg, PlanKind, Sweep, ViewSource,
};
use fsc_exec::plan::ExecPlan;
use fsc_exec::value::{Memory, Ref, Value};
use fsc_exec::ExecPath;
use fsc_gpusim::{BufferUse, GpuCounters, GpuSession, KernelLoad, V100Model};
use fsc_ir::diag::{codes, Diagnostic};
use fsc_ir::{Attribute, IrError, Module, Result, Type};
use fsc_mpisim::fault::{CrashSpec, FaultPlan, FaultStats};
use fsc_mpisim::resilient::{run_resilient, ResilientConfig};
use fsc_mpisim::{CostModel, MpiSimError, ProcessGrid};
use fsc_passes::pipeline::{payload_message, HardenedPipeline};
use fsc_passes::pipelines;
use std::panic::AssertUnwindSafe;

/// Execution configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// Interpret the raw FIR op by op — the extreme "Flang only" tier
    /// (used for end-to-end validation; ~100× slower than compiled code).
    FlangOnly,
    /// The figures' "Flang only" line: the same loops without the stencil
    /// flow's optimisations — the unfused lift, no CSE, and every nest on
    /// the generic VM ([`ExecPath::GenericVm`]), the way Flang's direct
    /// FIR→LLVM flow compiles them (see DESIGN.md §2).
    UnoptimizedCpu,
    /// Stencil flow, single CPU core.
    StencilCpu,
    /// Stencil flow, automatic OpenMP (0 = all cores).
    StencilOpenMp {
        /// Thread count.
        threads: u32,
    },
    /// Stencil flow on the modeled V100.
    StencilGpu {
        /// Use the optimised explicit data management pass (vs
        /// `gpu.host_register`).
        explicit_data: bool,
        /// Tile sizes for `scf-parallel-loop-tiling` (Listing 4: 32,32,1).
        tile: [i64; 3],
    },
    /// Stencil flow with automatic distributed-memory parallelisation.
    StencilDistributed {
        /// Process-grid decomposition (e.g. `[32, 16]` = 512 ranks over the
        /// two slowest dimensions).
        grid: Vec<i64>,
    },
    /// Multi-node GPU: one modeled V100 per rank with halo exchanges — the
    /// paper's fifth further-work avenue, implemented.
    StencilMultiGpu {
        /// GPU-rank decomposition over the slowest dimensions.
        grid: Vec<i64>,
        /// Thread-block tile sizes.
        tile: [i64; 3],
    },
}

/// Compile-time options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Execution target.
    pub target: Target,
    /// Fault-injection hook: deliberately corrupt the module right after
    /// the named pass runs, forcing its post-pass verification to fail.
    /// Exercises the rollback + degradation path end to end in tests.
    pub sabotage_pass: Option<String>,
    /// Start the degradation ladder at this rung instead of the full
    /// stencil flow (differential testing of the lower rungs). `None` runs
    /// the normal ladder from the top.
    pub force_rung: Option<DegradationRung>,
    /// Distributed targets: run the `mpi-overlap-halos` pass so star-shaped
    /// stencils compute their interior while halo messages are in flight
    /// (post-recv → post-send → interior → waitall → boundary). On by
    /// default; turn off to force the blocking schedule (exchange first,
    /// then compute), e.g. for the overlap-vs-blocking ablation.
    pub overlap_halos: bool,
    /// Distributed targets: ghost-layer depth `k` for the
    /// `mpi-deep-halos` pass. `1` (the default) is the classic
    /// exchange-every-sweep flow; `k ≥ 2` widens every halo to `k` layers
    /// (1-D grids only) so one exchange round feeds `k` consecutive
    /// dispatches — communication avoidance at identical results.
    pub halo_depth: u32,
    /// Distributed targets: worker threads for the cooperative rank
    /// scheduler. `0` (the default) uses the machine's available
    /// parallelism.
    pub dist_workers: usize,
    /// Distributed targets: ranks per simulated node for hierarchical
    /// halo aggregation (same-edge messages between two node groups
    /// coalesce into one envelope). `0` or `1` disables aggregation.
    pub dist_node_size: usize,
    /// Force every compiled nest onto one execution tier where that tier
    /// is available (nests without a specialized/jit realisation keep
    /// their ladder default). `None` (the default) picks the fastest
    /// available tier per nest; [`Target::UnoptimizedCpu`] always runs the
    /// generic VM. Drives the tier sweeps and differential
    /// tests; binaries map `FSC_FORCE_EXEC_PATH` onto this via
    /// [`ExecPath::parse`] — the library itself never reads env vars.
    pub force_exec_path: Option<ExecPath>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            target: Target::StencilCpu,
            sabotage_pass: None,
            force_rung: None,
            overlap_halos: true,
            halo_depth: 1,
            dist_workers: 0,
            dist_node_size: 0,
            force_exec_path: None,
        }
    }
}

impl CompileOptions {
    /// Options for `target` with defaults elsewhere.
    pub fn for_target(target: Target) -> Self {
        Self {
            target,
            ..Self::default()
        }
    }

    /// The distributed execution knobs these options select (cooperative
    /// scheduler; [`Compiled::dist_options`] can override the mode).
    pub fn dist_options(&self) -> DistOptions {
        DistOptions {
            mode: fsc_exec::DistMode::Coop,
            workers: self.dist_workers,
            node_size: self.dist_node_size,
        }
    }
}

/// A rung of the degradation ladder, from the full stencil flow down to
/// plain FIR interpretation. Ordered: a later rung is a simpler, slower,
/// harder-to-break configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum DegradationRung {
    /// The requested target's full stencil pipeline.
    #[default]
    Stencil,
    /// Stencils lowered to plain sequential `scf.for` loops — no fusion
    /// cleanup, no OpenMP/GPU/DMP shaping.
    ScfFallback,
    /// No stencil compilation at all: the raw Flang-style FIR is
    /// interpreted op by op. Slow, but only the frontend can break it.
    FirInterp,
}

impl DegradationRung {
    /// Human-readable rung name (stable, used in reports and goldens).
    pub fn describe(self) -> &'static str {
        match self {
            DegradationRung::Stencil => "full stencil pipeline",
            DegradationRung::ScfFallback => "sequential scf fallback",
            DegradationRung::FirInterp => "direct FIR interpretation",
        }
    }
}

/// One rejected rung: where it failed and why.
#[derive(Debug, Clone)]
pub struct RungAttempt {
    /// The rung that was attempted.
    pub rung: DegradationRung,
    /// Compile stage that failed (`discovery`, `extract`,
    /// `target-pipeline`, `kernel-compile`).
    pub stage: String,
    /// The failing pass, when the stage was a pass pipeline.
    pub failed_pass: Option<String>,
    /// Coded diagnostics describing the failure.
    pub diagnostics: Vec<Diagnostic>,
}

/// Attestation of the degradation ladder: which rungs were rejected (and
/// why), and which one actually ran.
#[derive(Debug, Clone, Default)]
pub struct DegradationReport {
    /// Rungs attempted and rejected, in ladder order.
    pub attempts: Vec<RungAttempt>,
    /// The rung that produced the executed configuration.
    pub ran: DegradationRung,
}

impl DegradationReport {
    /// True when the run did not use the requested configuration.
    pub fn degraded(&self) -> bool {
        !self.attempts.is_empty() || self.ran != DegradationRung::Stencil
    }

    /// Render the ladder outcome for logs and error reports.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for a in &self.attempts {
            out.push_str(&format!(
                "rejected {} at {}{}:\n",
                a.rung.describe(),
                a.stage,
                a.failed_pass
                    .as_deref()
                    .map(|p| format!(" (pass '{p}')"))
                    .unwrap_or_default(),
            ));
            for d in &a.diagnostics {
                out.push_str(&format!("  {}\n", d.render().replace('\n', "\n  ")));
            }
        }
        out.push_str(&format!("ran: {}", self.ran.describe()));
        out
    }
}

/// A compiled program: the FIR module, the (optionally) extracted stencil
/// module and its compiled kernels.
pub struct Compiled {
    /// The Flang-side module (interpreted at run time).
    pub fir_module: Module,
    /// The extracted, lowered stencil module (absent for Flang-only).
    pub stencil_module: Option<Module>,
    /// Compiled kernels by region symbol.
    pub kernels: HashMap<String, CompiledKernel>,
    /// The configured target.
    pub target: Target,
    /// Name of the main program unit.
    pub entry: String,
    /// Degradation-ladder attestation for this compile.
    pub degradation: DegradationReport,
    /// Always `None`: execution plans come from the IR, nothing tunes
    /// them. Kept only because `benchmark/` still names the field; it goes
    /// when a `[benchmark]` PR (ROADMAP 2(a)) stops using it.
    pub tuning: Option<std::convert::Infallible>,
    /// Distributed execution knobs (substrate, workers, aggregation) every
    /// run of this artifact uses; seeded from
    /// [`CompileOptions::dist_options`] and overridable before `run`
    /// (e.g. forcing [`fsc_exec::DistMode::Threads`] for differential
    /// tests).
    pub dist_options: DistOptions,
}

/// Attestation of real distributed execution: every dispatch that ran as
/// genuine rank bodies over the simulated MPI substrate contributes its
/// measured per-rank wall time, halo traffic, and schedule breakdown. The
/// legacy cost model stays as a cross-check (`modeled_seconds`), so a run
/// attests both what was measured and what the model would have charged.
#[derive(Debug, Clone, Default)]
pub struct DistributedReport {
    /// Ranks in the process grid.
    pub ranks: i64,
    /// Kernel dispatches that executed on real rank bodies (dispatches
    /// outside the supported shape fall back to the modeled path and are
    /// not counted here).
    pub dispatches: u64,
    /// The halo schedule the exchanging nests ran under (`None` until a
    /// real dispatch happens).
    pub schedule: Option<HaloSchedule>,
    /// All measured wall seconds spent for each rank, summed across
    /// dispatches: its rank bodies plus the driver's scatter and gather of
    /// its windows.
    pub per_rank_wall: Vec<f64>,
    /// Total halo payload bytes exchanged across all ranks and dispatches.
    pub bytes_exchanged: u64,
    /// Total halo messages across all ranks and dispatches.
    pub messages: u64,
    /// Face pack + send posting seconds, summed over ranks.
    pub pack_seconds: f64,
    /// Interior compute seconds overlapped with in-flight messages.
    pub interior_seconds: f64,
    /// Seconds blocked in receives + halo unpack, summed over ranks.
    pub wait_seconds: f64,
    /// Boundary (overlap) or whole-block (blocking) compute seconds.
    pub boundary_seconds: f64,
    /// Measured distributed seconds: the sum of the rank runs' makespans
    /// (slowest rank body each time) plus the wall the driver spent
    /// scattering and gathering rank windows.
    pub measured_seconds: f64,
    /// What the analytic cost model charges for the same dispatches
    /// (mean per-rank compute + modeled halo communication) — kept as a
    /// cross-check against the measurement.
    pub modeled_seconds: f64,
    /// Where the distributed numbers come from: every dispatch measured on
    /// real rank bodies, every dispatch charged to the analytic model
    /// (unsupported shapes), or a mix. `None` until the first distributed
    /// dispatch.
    pub provenance: Option<DistProvenance>,
    /// Kernel dispatches that fell back to the modeled path.
    pub modeled_dispatches: u64,
    /// Substrate the measured dispatches ran on (`None` until one runs).
    pub scheduler: Option<DistMode>,
    /// Worker threads hosting the rank tasks (largest observed).
    pub workers: usize,
    /// Rank tasks stolen from another worker's deque, across dispatches
    /// (cooperative scheduler only).
    pub steals: u64,
    /// Times a rank task parked on a blocking operation (coop only).
    pub parks: u64,
    /// User-level halo messages the transport carried.
    pub logical_messages: u64,
    /// Physical envelopes after hierarchical node-level aggregation
    /// (== `logical_messages` when aggregation is off).
    pub physical_messages: u64,
    /// Payload bytes of user-level halo messages.
    pub logical_bytes: u64,
    /// Wire bytes including per-message and per-envelope headers.
    pub physical_bytes: u64,
    /// Ghost-layer depth the kernels ran under (largest observed;
    /// 0 until a measured dispatch).
    pub halo_depth: u32,
    /// Halo-exchange rounds actually performed: deep halos make this grow
    /// slower than `dispatches` (one round feeds `k` dispatches).
    pub exchange_rounds: u64,
    /// Driver seconds building and seeding rank windows, summed over ranks.
    pub scatter_seconds: f64,
    /// Driver seconds copying owned slabs back to the program's arrays,
    /// summed over ranks.
    pub gather_seconds: f64,
    /// Rank windows scattered: `ranks` per session miss. A run whose
    /// arrays only its distributed kernel touches scatters once.
    pub scatters: u64,
    /// Rank windows gathered: `ranks` each time something outside the
    /// resident session needed the results (once, at the end, for such a
    /// run).
    pub gathers: u64,
    /// Rank dispatches that found their windows resident and moved only
    /// halo faces.
    pub resident_hits: u64,
}

/// Provenance of the distributed timing numbers in a
/// [`DistributedReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistProvenance {
    /// Every dispatch executed as real rank bodies and was measured.
    Measured,
    /// Every dispatch was outside the executor's supported shape and was
    /// charged to the analytic communication model.
    Modeled,
    /// Some dispatches measured, some modeled.
    Mixed,
}

impl DistProvenance {
    /// Stable lowercase name for attestation surfaces.
    pub fn as_str(self) -> &'static str {
        match self {
            DistProvenance::Measured => "measured",
            DistProvenance::Modeled => "modeled",
            DistProvenance::Mixed => "mixed",
        }
    }

    fn fold(slot: &mut Option<Self>, next: Self) {
        *slot = Some(match *slot {
            None => next,
            Some(prev) if prev == next => prev,
            Some(_) => DistProvenance::Mixed,
        });
    }
}

impl DistributedReport {
    /// Fraction of halo latency hidden behind interior compute:
    /// `Σ interior / (Σ interior + Σ wait)`. Zero under the blocking
    /// schedule.
    pub fn overlap_fraction(&self) -> f64 {
        let denom = self.interior_seconds + self.wait_seconds;
        if denom > 0.0 {
            self.interior_seconds / denom
        } else {
            0.0
        }
    }

    /// Modeled-over-measured ratio (zero when nothing was measured):
    /// how far the analytic model sits from the real execution.
    pub fn model_ratio(&self) -> f64 {
        if self.measured_seconds > 0.0 {
            self.modeled_seconds / self.measured_seconds
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

/// Execution accounting.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Wall-clock spent inside stencil kernels.
    pub kernel_wall: Duration,
    /// Grid cells processed by stencil kernels (all invocations).
    pub kernel_cells: u64,
    /// Host CPU dispatches (`cpu`, `openmp`) and the sweeps they ran in
    /// ([`fsc_exec::kernel::Sweep`]): `(9, 2)` for GS × 8, init included.
    pub sweeps: (u64, u64),
    /// Interpreter op counters.
    pub interp: RunStats,
    /// Modeled GPU seconds (GPU targets).
    pub gpu_seconds: Option<f64>,
    /// GPU transfer/launch counters (GPU targets).
    pub gpu: Option<GpuCounters>,
    /// Distributed seconds (distributed targets): measured makespans for
    /// dispatches that ran on real rank bodies, plus modeled time for any
    /// dispatch that fell back to the cost model.
    pub distributed_seconds: Option<f64>,
    /// Ranks used by the distributed target.
    pub ranks: Option<i64>,
    /// Real distributed-execution attestation (distributed targets only).
    pub distributed: Option<DistributedReport>,
    /// Distinct execution paths the stencil nests ran through (sorted;
    /// empty for Flang-only runs, which run no kernels).
    pub exec_paths: Vec<ExecPath>,
    /// Coded jit warnings from compilation (`E0705` stitching skips) —
    /// degradations, never failures.
    pub jit_warnings: Vec<Diagnostic>,
    /// Fault-injection / recovery attestation of the resilient halo
    /// transport (distributed targets only; zero counters for a
    /// fault-free plan).
    pub resilience: Option<FaultStats>,
    /// Which degradation-ladder rung produced this run, and which rungs
    /// were rejected on the way down (empty attempts + `Stencil` = the
    /// requested configuration ran).
    pub degradation: DegradationReport,
    /// Distinct execution plans the stencil nests ran under (sorted;
    /// empty for Flang-only runs).
    pub plans: Vec<ExecPlan>,
    /// The static memory estimate this run was admitted under (governed
    /// runs only — see [`Compiled::run_governed`]).
    pub estimate: Option<MemoryEstimate>,
    /// Measured peak bytes of the run's memory (the governing ledger's
    /// high-water mark for governed runs, the interpreter arena's peak
    /// otherwise). A governed run attests `peak_bytes <= estimate.total()`
    /// by construction: the ledger's limit *is* the estimate.
    pub peak_bytes: u64,
}

impl RunReport {
    /// True when at least one nest executed through `path`.
    pub fn attests(&self, path: ExecPath) -> bool {
        self.exec_paths.contains(&path)
    }
}

/// A finished execution: memory plus accounting.
pub struct Execution {
    /// Runtime memory (buffers hold final array contents).
    pub memory: Memory,
    /// Accounting.
    pub report: RunReport,
    bindings: HashMap<String, Ref>,
}

impl Execution {
    /// The final contents of a Fortran array by name.
    pub fn array(&self, name: &str) -> Option<&[f64]> {
        match self.bindings.get(name)? {
            Ref::Array { buf, .. } => Some(self.memory.buffer(*buf)),
            _ => None,
        }
    }
}

/// The compiler driver.
pub struct Compiler;

impl Compiler {
    /// Compile Fortran source for the given target. Frontend errors (lex,
    /// parse, sema, lowering) are always fatal — there is nothing to run.
    /// Pass-pipeline failures are not: the pipelines run under the hardened
    /// verify / rollback driver and the compile degrades down the fallback
    /// ladder (stencil → sequential scf → direct FIR interpretation), with
    /// the outcome attested in [`Compiled::degradation`].
    pub fn compile(source: &str, options: &CompileOptions) -> Result<Compiled> {
        let fir = fsc_fortran::compile_to_fir(source)?;
        let entry = find_program(&fir)?;
        if options.target == Target::FlangOnly {
            return Ok(Compiled {
                fir_module: fir,
                stencil_module: None,
                kernels: HashMap::new(),
                target: options.target.clone(),
                entry,
                degradation: DegradationReport::default(),
                tuning: None,
                dist_options: options.dist_options(),
            });
        }
        let mut compiled = Self::compile_ladder(fir, entry, options)?;
        let forced = match options.target {
            Target::UnoptimizedCpu => Some(ExecPath::GenericVm),
            _ => options.force_exec_path,
        };
        if let Some(path) = forced {
            for k in compiled.kernels.values_mut() {
                k.force_exec_path(path);
            }
        }
        Ok(compiled)
    }

    /// The hardened flow: walk the degradation ladder from the requested
    /// configuration down, re-compiling each rung from the pristine FIR.
    /// The bottom rung (direct FIR interpretation) cannot fail, so this
    /// only errors when a rung below the start was forced away.
    fn compile_ladder(fir: Module, entry: String, options: &CompileOptions) -> Result<Compiled> {
        let start = options.force_rung.unwrap_or(DegradationRung::Stencil);
        let mut attempts = Vec::new();
        for rung in [DegradationRung::Stencil, DegradationRung::ScfFallback] {
            if start > rung {
                continue;
            }
            match try_rung(&fir, options, rung) {
                Ok((fir_out, stencil, kernels)) => {
                    return Ok(Compiled {
                        fir_module: fir_out,
                        stencil_module: Some(stencil),
                        kernels,
                        target: options.target.clone(),
                        entry,
                        degradation: DegradationReport {
                            attempts,
                            ran: rung,
                        },
                        tuning: None,
                        dist_options: options.dist_options(),
                    });
                }
                Err(attempt) => attempts.push(*attempt),
            }
        }
        // Bottom rung: interpret the pristine FIR directly.
        Ok(Compiled {
            fir_module: fir,
            stencil_module: None,
            kernels: HashMap::new(),
            target: options.target.clone(),
            entry,
            degradation: DegradationReport {
                attempts,
                ran: DegradationRung::FirInterp,
            },
            tuning: None,
            dist_options: options.dist_options(),
        })
    }

    /// Convenience: compile and run.
    pub fn run(source: &str, options: &CompileOptions) -> Result<Execution> {
        Self::compile(source, options)?.run()
    }
}

/// Worker count of an OpenMP target: as asked, or every core for `0`.
fn omp_threads(threads: u32) -> usize {
    if threads > 0 {
        threads as usize
    } else {
        fsc_ir::par::available_threads()
    }
}

/// Build the target-specific stencil-module pipeline.
fn target_pipeline(options: &CompileOptions) -> Result<fsc_ir::PassManager> {
    match &options.target {
        Target::FlangOnly => Err(IrError::new("Flang-only target has no stencil pipeline")),
        Target::UnoptimizedCpu => pipelines::scf_fallback_pipeline(),
        Target::StencilCpu => pipelines::cpu_pipeline(),
        Target::StencilOpenMp { threads } => pipelines::openmp_pipeline(*threads),
        Target::StencilGpu {
            explicit_data,
            tile,
        } => pipelines::gpu_pipeline(*explicit_data, tile),
        Target::StencilDistributed { grid } => {
            pipelines::dmp_pipeline_deep(grid, options.overlap_halos, options.halo_depth)
        }
        Target::StencilMultiGpu { grid, tile } => pipelines::gpu_dmp_pipeline(grid, tile),
    }
}

/// Compile every extracted `stencil_region_*` function of a lowered module.
fn compile_regions(stencil: &Module) -> Result<HashMap<String, CompiledKernel>> {
    let mut kernels = HashMap::new();
    for f in stencil.top_level_ops_named("func.func") {
        let name = fsc_dialects::func::FuncOp(f).name(stencil);
        if name.starts_with("stencil_region_") {
            kernels.insert(name.clone(), kernel::compile_kernel(stencil, &name)?);
        }
    }
    Ok(kernels)
}

/// Run `f` with panics contained: a panic becomes an `E0502` diagnostic.
fn guarded<T>(stage: &str, f: impl FnOnce() -> Result<T>) -> Result<T> {
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(IrError::from_diagnostic(Diagnostic::error(
            codes::PASS_PANICKED,
            format!("{stage} panicked: {}", payload_message(payload.as_ref())),
        ))),
    }
}

/// Attempt one ladder rung from the pristine FIR. On success returns the
/// rewritten FIR module, the lowered stencil module and the compiled
/// kernels; on failure, a [`RungAttempt`] saying where and why.
fn try_rung(
    pristine: &Module,
    options: &CompileOptions,
    rung: DegradationRung,
) -> std::result::Result<(Module, Module, HashMap<String, CompiledKernel>), Box<RungAttempt>> {
    let attempt = |stage: &str, failed_pass: Option<String>, diags: Vec<Diagnostic>| {
        Box::new(RungAttempt {
            rung,
            stage: stage.to_string(),
            failed_pass,
            diagnostics: diags,
        })
    };
    let harden = |pm: fsc_ir::PassManager| {
        let mut hp = HardenedPipeline::new(pm);
        if let Some(name) = &options.sabotage_pass {
            hp = hp.sabotage_pass(name.clone());
        }
        hp
    };

    let discovery = if options.target == Target::UnoptimizedCpu {
        pipelines::discovery_pipeline_unfused()
    } else {
        pipelines::discovery_pipeline()
    };
    // The rung's one module copy: each pipeline takes its working module
    // by value and drops it on a failure, and `pristine` stays with the
    // ladder for the next rung.
    let mut fir = harden(discovery)
        .run_owned(pristine.clone())
        .0
        .map_err(|f| attempt("discovery", Some(f.pass), f.diagnostics))?;

    let stencil = guarded("stencil extraction", || {
        fsc_passes::extract::extract_stencils(&mut fir)
    })
    .map_err(|e| attempt("extract", None, error_diags(e)))?;

    let pm = match rung {
        DegradationRung::Stencil => target_pipeline(options),
        DegradationRung::ScfFallback => pipelines::scf_fallback_pipeline(),
        DegradationRung::FirInterp => Err(IrError::new("FIR interpretation runs no pipeline")),
    }
    .map_err(|e| attempt("target-pipeline", None, error_diags(e)))?;
    let stencil = harden(pm)
        .run_owned(stencil)
        .0
        .map_err(|f| attempt("target-pipeline", Some(f.pass), f.diagnostics))?;

    let kernels = guarded("kernel compilation", || compile_regions(&stencil))
        .map_err(|e| attempt("kernel-compile", None, error_diags(e)))?;
    Ok((fir, stencil, kernels))
}

/// The diagnostics of an error, synthesising one (code `E0601`-free, plain
/// message) when the error carries none.
fn error_diags(e: IrError) -> Vec<Diagnostic> {
    if e.diagnostics.is_empty() {
        vec![Diagnostic::error(codes::PASS_FAILED, e.message)]
    } else {
        e.diagnostics
    }
}

fn find_program(m: &Module) -> Result<String> {
    m.top_level_ops_named("func.func")
        .into_iter()
        .map(fsc_dialects::func::FuncOp)
        .find(|f| m.op(f.0).attr(fsc_fortran::lower::PROGRAM_ATTR).is_some())
        .map(|f| f.name(m))
        .ok_or_else(|| IrError::new("no program unit in source"))
}

impl Compiled {
    /// Execute the program, returning memory and accounting. Distributed
    /// targets run their halo exchanges on the resilient transport with a
    /// fault-free plan (the protocol overhead is charged and attested).
    pub fn run(&self) -> Result<Execution> {
        self.run_inner(None, None)
    }

    /// Execute under a byte ledger: every buffer allocation — interpreter
    /// arrays, kernel snapshots, distributed per-rank replication — must
    /// reserve against `budget` first, and a denied reservation fails the
    /// run with coded `E0805` instead of aborting the process. The run's
    /// static estimate and the ledger's measured peak are attested in the
    /// report, so callers can verify `peak_bytes <= estimate.total()`.
    pub fn run_governed(&self, budget: Arc<MemoryBudget>) -> Result<Execution> {
        let estimate = self.estimate()?;
        let mut exec = self.run_inner(None, Some(budget))?;
        exec.report.estimate = Some(estimate);
        Ok(exec)
    }

    /// Static memory footprint of running this compiled program, from IR
    /// view bounds alone — no execution. Conservative by construction
    /// (sums over kernels that release scratch between dispatches), so a
    /// governed run's measured peak is bounded by `estimate().total()`.
    /// Fails coded `E0807` when any extent product overflows.
    pub fn estimate(&self) -> Result<MemoryEstimate> {
        // Program arrays the FIR interpreter will allocate.
        let mut base: u64 = 0;
        let mut walk_err: Option<IrError> = None;
        fsc_ir::walk::walk_module(&self.fir_module, &mut |op| {
            let data = self.fir_module.op(op);
            if !matches!(data.name.full(), "fir.alloca" | "fir.allocmem") {
                return;
            }
            if let Some(Type::FirArray { shape, .. }) =
                data.attr("in_type").and_then(Attribute::as_type)
            {
                match fsc_exec::budget::checked_elems(shape)
                    .and_then(fsc_exec::budget::elems_to_bytes)
                {
                    Ok(bytes) => base = base.saturating_add(bytes),
                    Err(e) => walk_err = Some(e),
                }
            }
        });
        if let Some(e) = walk_err {
            return Err(e);
        }

        let ranks: u64 = match &self.target {
            Target::StencilDistributed { grid } | Target::StencilMultiGpu { grid, .. } => {
                grid.iter().product::<i64>().max(1) as u64
            }
            _ => 1,
        };
        let mut snapshot: u64 = 0;
        let mut halo: u64 = 0;
        let mut replication: u64 = 0;
        for kernel in self.kernels.values() {
            // Per-argument working-set bytes (max aliasing view per arg).
            let mut arg_len: HashMap<usize, usize> = HashMap::new();
            let mut snap_bytes: u64 = 0;
            for view in &kernel.views {
                let len = view.checked_len()?;
                match view.source {
                    ViewSource::Arg(i) => {
                        let e = arg_len.entry(i).or_insert(0);
                        *e = (*e).max(len);
                    }
                    ViewSource::SnapshotOf(_) => {
                        snap_bytes =
                            snap_bytes.saturating_add(fsc_exec::budget::elems_to_bytes(len)?);
                    }
                }
            }
            let arg_bytes: u64 = arg_len
                .values()
                .map(|&l| (l as u64).saturating_mul(8))
                .fold(0u64, u64::saturating_add);
            snapshot = snapshot.saturating_add(snap_bytes);
            // Halo staging: dense pack + unpack payloads per exchange.
            for nest in &kernel.nests {
                for e in &nest.exchanges {
                    let view = &kernel.views[e.view];
                    let elems = view.checked_len()? as u64;
                    let extent = view.extents.get(e.dim).copied().unwrap_or(1).max(1) as u64;
                    let face = (elems / extent).saturating_mul(e.width.max(1) as u64);
                    halo = halo.saturating_add(face.saturating_mul(8 * 2));
                }
            }
            // Distributed replication: every real rank holds (at most)
            // full-size, globally addressed copies of the argument and
            // snapshot buffers, resident for the whole run, and a rank
            // with a crash planned holds a checkpoint clone of each (2x).
            if kernel.is_distributed() {
                let real_ranks = ranks.min(32);
                replication = replication.saturating_add(
                    real_ranks.saturating_mul(arg_bytes.saturating_add(snap_bytes) * 2),
                );
            }
        }
        Ok(MemoryEstimate {
            base_bytes: base,
            snapshot_bytes: snapshot,
            halo_bytes: halo,
            replication_bytes: replication,
            // Interpreter slack: scalar slots, environments, bookkeeping.
            slack_bytes: 1 << 20,
        })
    }

    /// Heuristic in-memory size of this artifact (modules + compiled
    /// kernels, stitched jit programs included — the artifact owns them),
    /// for byte-accounted artifact caching. Stable for a given compile;
    /// cheap to compute.
    pub fn approx_bytes(&self) -> u64 {
        let mut ops = 0u64;
        fsc_ir::walk::walk_module(&self.fir_module, &mut |_| ops += 1);
        if let Some(s) = &self.stencil_module {
            fsc_ir::walk::walk_module(s, &mut |_| ops += 1);
        }
        let mut kernel_bytes = 0u64;
        for k in self.kernels.values() {
            for n in &k.nests {
                kernel_bytes += (n.program.instrs.len() as u64).saturating_mul(2 * 64);
                kernel_bytes += n.jit.as_ref().map_or(0, |j| j.approx_bytes());
            }
            kernel_bytes += (k.views.len() as u64).saturating_mul(96);
        }
        ops.saturating_mul(96)
            .saturating_add(kernel_bytes)
            .saturating_add(1024)
    }

    /// Execute under a fault-injection plan: every distributed kernel
    /// dispatch drives a real resilient halo-exchange round through the
    /// simulated MPI substrate with `plan`'s faults injected; recovery
    /// traffic is charged to the distributed cost and attested in
    /// [`RunReport::resilience`]. Non-distributed targets ignore the plan.
    pub fn run_with_faults(&self, plan: FaultPlan) -> Result<Execution> {
        plan.validate()
            .map_err(|e| IrError::new(format!("invalid fault plan: {e}")))?;
        self.run_inner(Some(plan), None)
    }

    fn run_inner(
        &self,
        plan: Option<FaultPlan>,
        budget: Option<Arc<MemoryBudget>>,
    ) -> Result<Execution> {
        let mut dispatcher = KernelDispatcher::new(&self.kernels, &self.target);
        dispatcher.dist_options = self.dist_options.clone();
        if let Some(plan) = plan {
            dispatcher.fault_plan = plan;
        }
        let start = Instant::now();
        let mut interp = Interpreter::new(&self.fir_module, dispatcher);
        if let Some(b) = &budget {
            interp.memory = fsc_exec::Memory::with_budget(Arc::clone(b));
        }
        interp.run_func(&self.entry, vec![])?;
        // Results still resident in rank windows land before anything reads
        // the program's arrays.
        interp.sync()?;
        let wall = start.elapsed();

        // Gather array bindings before dismantling the interpreter.
        let mut bindings = HashMap::new();
        for name in array_names(&self.fir_module) {
            if let Some(r) = interp.array_binding(&name) {
                bindings.insert(name, r);
            }
        }
        let (memory, stats, mut dispatcher) = interp.into_parts();
        let (gpu_seconds, gpu_counters) = dispatcher.finalize();
        let is_distributed = dispatcher.grid.is_some();
        let report = RunReport {
            wall,
            kernel_wall: dispatcher.kernel_wall,
            kernel_cells: dispatcher.cells,
            sweeps: dispatcher.sweeps,
            interp: stats,
            gpu_seconds,
            gpu: gpu_counters,
            distributed_seconds: is_distributed.then_some(dispatcher.distributed_seconds),
            ranks: dispatcher.grid.as_ref().map(ProcessGrid::size),
            distributed: is_distributed.then(|| {
                let mut d = dispatcher.dist.clone();
                d.ranks = dispatcher.grid.as_ref().map(ProcessGrid::size).unwrap_or(0);
                d
            }),
            exec_paths: dispatcher.exec_paths.iter().copied().collect(),
            jit_warnings: self
                .kernels
                .values()
                .flat_map(|k| k.jit_warnings.iter().cloned())
                .collect(),
            resilience: is_distributed.then_some(dispatcher.resilience),
            degradation: self.degradation.clone(),
            plans: dispatcher.plans.iter().cloned().collect(),
            estimate: None,
            peak_bytes: budget
                .as_ref()
                .map(|b| b.peak())
                .unwrap_or(0)
                .max(memory.peak_bytes()),
        };
        Ok(Execution {
            memory,
            report,
            bindings,
        })
    }
}

/// Names of all Fortran arrays in the module (from allocation attributes).
fn array_names(m: &Module) -> Vec<String> {
    let mut out = Vec::new();
    fsc_ir::walk::walk_module(m, &mut |op| {
        let data = m.op(op);
        if matches!(data.name.full(), "fir.alloca" | "fir.allocmem") {
            if let Some(name) = data.attr("bindc_name").and_then(|a| a.as_str()) {
                if !out.contains(&name.to_string()) {
                    out.push(name.to_string());
                }
            }
        }
    });
    out
}

/// Dispatches `fir.call @stencil_region_N` to compiled kernels, routing by
/// target and accumulating per-target accounting.
pub struct KernelDispatcher<'k> {
    kernels: &'k HashMap<String, CompiledKernel>,
    threads: usize,
    gpu: Option<GpuSession>,
    cost: CostModel,
    /// Process grid of a distributed target.
    pub grid: Option<ProcessGrid>,
    /// Wall time spent in kernels.
    pub kernel_wall: Duration,
    /// Total cells processed.
    pub cells: u64,
    /// Host CPU and measured distributed dispatches, and the sweeps and
    /// rank runs they ran in.
    pub sweeps: (u64, u64),
    /// Dispatches not yet run. Their buffers are stale, so host access to
    /// one, another dispatch or the end of the run runs them first.
    queued: Option<Sweep<'k>>,
    /// The kernel whose session holds distributed dispatches not yet run,
    /// flushed like `queued`.
    dist_queued: Option<&'k str>,
    /// Distributed seconds: measured makespans (real dispatches) plus
    /// modeled time (fallback dispatches).
    pub distributed_seconds: f64,
    /// Accumulated real-execution attestation (distributed targets).
    pub dist: DistributedReport,
    /// Distinct execution paths observed across dispatched nests.
    pub exec_paths: std::collections::BTreeSet<ExecPath>,
    /// Distinct execution plans observed across dispatched nests.
    pub plans: std::collections::BTreeSet<ExecPlan>,
    /// Fault plan injected into the resilient halo transport (distributed
    /// targets; defaults to a fault-free plan).
    pub fault_plan: FaultPlan,
    /// Accumulated fault/recovery counters from the resilient transport.
    pub resilience: FaultStats,
    /// Distributed kernel dispatches seen so far — the "iteration" index a
    /// planned rank crash is matched against.
    dispatch_index: usize,
    /// Substrate/worker/aggregation knobs for distributed dispatches.
    pub dist_options: DistOptions,
    /// Resident rank memory per distributed kernel, keyed by kernel name
    /// (ordered, so a sync gathers in the same order every run).
    sessions: std::collections::BTreeMap<String, DistSession>,
    /// Buffers written on the device (for final d2h accounting).
    written_buffers: HashMap<u64, u64>,
}

impl<'k> KernelDispatcher<'k> {
    /// New dispatcher for a target.
    pub fn new(kernels: &'k HashMap<String, CompiledKernel>, target: &Target) -> Self {
        let threads = match target {
            Target::StencilOpenMp { threads } => omp_threads(*threads),
            Target::StencilDistributed { grid } => {
                let ranks: i64 = grid.iter().product();
                (ranks as usize)
                    .min(fsc_ir::par::available_threads())
                    .max(1)
            }
            _ => 1,
        };
        let gpu = match target {
            Target::StencilGpu { .. } | Target::StencilMultiGpu { .. } => {
                Some(GpuSession::new(V100Model::default()))
            }
            _ => None,
        };
        let grid = match target {
            Target::StencilDistributed { grid } | Target::StencilMultiGpu { grid, .. } => {
                Some(ProcessGrid::new(grid.clone()))
            }
            _ => None,
        };
        Self {
            kernels,
            threads,
            gpu,
            cost: CostModel::default(),
            grid,
            kernel_wall: Duration::ZERO,
            cells: 0,
            sweeps: (0, 0),
            queued: None,
            dist_queued: None,
            distributed_seconds: 0.0,
            dist: DistributedReport::default(),
            exec_paths: std::collections::BTreeSet::new(),
            plans: std::collections::BTreeSet::new(),
            fault_plan: FaultPlan::none(0xF5C),
            resilience: FaultStats::default(),
            dispatch_index: 0,
            dist_options: DistOptions::default(),
            sessions: std::collections::BTreeMap::new(),
            written_buffers: HashMap::new(),
        }
    }

    /// Final GPU accounting: lazy device→host transfers for written buffers.
    pub fn finalize(&mut self) -> (Option<f64>, Option<GpuCounters>) {
        if let Some(gpu) = &mut self.gpu {
            let written: Vec<(u64, u64)> =
                self.written_buffers.iter().map(|(&k, &v)| (k, v)).collect();
            for (id, bytes) in written {
                gpu.host_access(id, bytes);
            }
            (Some(gpu.elapsed()), Some(gpu.counters))
        } else {
            (None, None)
        }
    }

    /// Drive one real resilient halo-exchange round through the simulated
    /// MPI substrate for a distributed kernel dispatch: a capped-size rank
    /// group exchanges face-sized payloads under `fault_plan` (sequence
    /// numbers, acks, retransmits, checkpoints, crash/restore), the
    /// fault/recovery counters are merged into `self.resilience`, and the
    /// per-rank recovery traffic is charged via the cost model. Returns the
    /// modeled resilience seconds added to the distributed time. `dispatch`
    /// is the dispatch index a planned crash is matched against.
    fn charge_resilient_exchange(
        &mut self,
        kernel: &CompiledKernel,
        grid: &ProcessGrid,
        dispatch: usize,
    ) -> Result<f64> {
        let gsize = grid.size() as usize;
        let face = kernel
            .nests
            .iter()
            .filter(|n| !n.exchanges.is_empty())
            .map(|n| face_bytes(n, grid))
            .max()
            .unwrap_or(0);
        if face == 0 {
            return Ok(0.0);
        }
        // The micro-sim group is capped: the protocol behaviour (per-link
        // seq/ack/retry, neighbour checkpointing) is rank-count independent,
        // so a small group attests it faithfully without spawning hundreds
        // of threads per dispatch.
        let sim_ranks = gsize.clamp(2, 8);
        let elems = ((face / 8).max(1) as usize).min(4096);
        // A planned crash fires on the dispatch whose index matches
        // `at_iteration`; inside the micro-sim it hits iteration 1 so a
        // checkpoint (taken at 0) exists to restore from.
        let mut plan = self.fault_plan.clone();
        plan.crash = match plan.crash {
            Some(c) if c.at_iteration == dispatch => Some(CrashSpec {
                rank: c.rank.min(sim_ranks - 1),
                at_iteration: 1,
            }),
            _ => None,
        };
        let cfg = ResilientConfig {
            checkpoint_interval: 1,
            ..ResilientConfig::default()
        };
        const SIM_ITERS: usize = 2;
        let results = run_resilient(sim_ranks, plan, cfg, move |ctx| {
            let (rank, size) = (ctx.rank(), ctx.size());
            let mut field = vec![rank as f64 + 1.0; elems];
            let mut it = 0usize;
            while it < SIM_ITERS {
                ctx.save_checkpoint(it, || vec![field.clone()]);
                if ctx.crash_pending(it) {
                    let (restored, state) = ctx.crash_and_restore(it)?;
                    it = restored;
                    let restored = state.into_iter().next();
                    field = restored.ok_or_else(|| {
                        let what = "resilient exchange: a restored checkpoint holds no field";
                        let diag = Diagnostic::error(codes::EXEC, what);
                        MpiSimError::compile_failure(rank, IrError::from_diagnostic(diag))
                    })?;
                    continue;
                }
                if rank > 0 {
                    ctx.send(rank - 1, 0, field.clone())?;
                }
                if rank + 1 < size {
                    ctx.send(rank + 1, 1, field.clone())?;
                }
                if rank > 0 {
                    let left = ctx.recv(rank - 1, 1)?;
                    for (a, b) in field.iter_mut().zip(&left) {
                        *a = 0.5 * (*a + *b);
                    }
                }
                if rank + 1 < size {
                    let right = ctx.recv(rank + 1, 0)?;
                    for (a, b) in field.iter_mut().zip(&right) {
                        *a = 0.5 * (*a + *b);
                    }
                }
                ctx.barrier()?;
                it += 1;
            }
            Ok(())
        })
        .map_err(|e| match e.into_compile_error() {
            // A compiler error that surfaced inside a rank body keeps its
            // coded diagnostics (annotated with the failing rank).
            Ok(compile_err) => compile_err,
            Err(other) => IrError::new(format!("resilient halo exchange failed: {other}")),
        })?;
        let mut merged = FaultStats::default();
        for ((), s) in results {
            merged.merge(&s);
        }
        // Charge the per-rank critical path: total recovery traffic spread
        // over the group that generated it.
        let overhead = self.cost.resilience_time(&merged, face) / sim_ranks as f64;
        self.resilience.merge(&merged);
        Ok(overhead)
    }

    /// Modeled halo-communication seconds for one dispatch of `kernel`
    /// over `grid` (`offnode` = fraction of neighbour links crossing
    /// nodes).
    fn modeled_comm(&self, kernel: &CompiledKernel, grid: &ProcessGrid, offnode: f64) -> f64 {
        let mut comm = 0.0;
        for nest in &kernel.nests {
            if nest.exchanges.is_empty() {
                continue;
            }
            let neighbors = nest
                .exchanges
                .iter()
                .map(|e| (e.dim, e.direction))
                .collect::<std::collections::HashSet<_>>()
                .len();
            comm += self
                .cost
                .halo_exchange_time(face_bytes(nest, grid), neighbors, offnode);
        }
        comm
    }

    /// The process grid of a distributed dispatch. Kernels only carry a
    /// decomposition under a distributed target, which always has one.
    fn dist_grid(&self) -> Result<ProcessGrid> {
        self.grid.clone().ok_or_else(|| {
            IrError::from_diagnostic(Diagnostic::error(
                codes::EXEC,
                "distributed kernel dispatched without a process grid",
            ))
        })
    }

    /// Gather every session `which` selects: the owned slabs its ranks
    /// still hold land in `memory`, and the driver time this takes is
    /// measured distributed time like the rank bodies'.
    fn gather_sessions(&mut self, memory: &mut Memory, which: impl Fn(&str, &DistSession) -> bool) {
        for (name, session) in &mut self.sessions {
            if !which(name, session) {
                continue;
            }
            let t = Instant::now();
            let secs = session.gather(memory, &self.dist_options);
            let wall = t.elapsed().as_secs_f64();
            if secs.is_empty() {
                continue;
            }
            let d = &mut self.dist;
            if d.per_rank_wall.len() < secs.len() {
                d.per_rank_wall.resize(secs.len(), 0.0);
            }
            for (acc, s) in d.per_rank_wall.iter_mut().zip(&secs) {
                *acc += s;
            }
            d.gather_seconds += secs.iter().sum::<f64>();
            d.gathers += secs.len() as u64;
            // Ranks gather in parallel: the run waits for the wall.
            d.measured_seconds += wall;
            self.distributed_seconds += wall;
        }
    }

    /// Fold one real distributed dispatch into the accumulated attestation.
    fn record_distributed(
        &mut self,
        kernel: &CompiledKernel,
        grid: &ProcessGrid,
        outcome: &DistOutcome,
    ) {
        let modeled_comm = self.modeled_comm(kernel, grid, self.cost.offnode_fraction(grid));
        let ranks = grid.size();
        let d = &mut self.dist;
        d.ranks = ranks;
        d.dispatches += outcome.dispatches;
        // A single blocking nest demotes the whole run's attested schedule.
        d.schedule = Some(match (d.schedule, outcome.schedule) {
            (Some(HaloSchedule::Blocking), _) | (_, HaloSchedule::Blocking) => {
                HaloSchedule::Blocking
            }
            _ => HaloSchedule::Overlap,
        });
        if d.per_rank_wall.len() != outcome.per_rank.len() {
            d.per_rank_wall = vec![0.0; outcome.per_rank.len()];
        }
        let mut compute = 0.0;
        for (acc, r) in d.per_rank_wall.iter_mut().zip(&outcome.per_rank) {
            *acc += r.wall_seconds;
            d.pack_seconds += r.pack_seconds;
            d.interior_seconds += r.interior_seconds;
            d.wait_seconds += r.wait_seconds;
            d.boundary_seconds += r.boundary_seconds;
            d.scatter_seconds += r.scatter_seconds;
            d.gather_seconds += r.gather_seconds;
            d.scatters += r.scatters;
            d.gathers += r.gathers;
            d.resident_hits += r.resident_hits;
            compute += r.interior_seconds + r.boundary_seconds;
        }
        d.bytes_exchanged += outcome.bytes_exchanged;
        d.messages += outcome.messages;
        d.measured_seconds += outcome.makespan_seconds;
        d.modeled_seconds +=
            compute / ranks.max(1) as f64 + modeled_comm * outcome.dispatches as f64;
        DistProvenance::fold(&mut d.provenance, DistProvenance::Measured);
        d.scheduler = Some(outcome.scheduler);
        d.workers = d.workers.max(outcome.workers);
        d.steals += outcome.steals;
        d.parks += outcome.parks;
        d.logical_messages += outcome.logical_messages;
        d.physical_messages += outcome.physical_messages;
        d.logical_bytes += outcome.logical_bytes;
        d.physical_bytes += outcome.physical_bytes;
        d.halo_depth = d.halo_depth.max(outcome.halo_depth);
        d.exchange_rounds += outcome.exchange_rounds;
    }

    /// A fault plan for one dispatch: a planned crash fires on the
    /// dispatch whose index matches `at_iteration`, and inside that
    /// dispatch it hits phase 1 — after the phase-0 checkpoint exists to
    /// restore from.
    fn dispatch_plan(&self, dispatch: usize, ranks: usize) -> FaultPlan {
        let mut plan = self.fault_plan.clone();
        plan.crash = match plan.crash {
            Some(c) if c.at_iteration == dispatch => Some(CrashSpec {
                rank: c.rank.min(ranks.saturating_sub(1)),
                at_iteration: 1,
            }),
            _ => None,
        };
        plan
    }

    /// Hold a host CPU dispatch until one that cannot join it, host access
    /// to its buffers or the end of the run ([`RegionDispatcher::sync`]).
    fn queue(&mut self, sweep: Sweep<'k>, memory: &mut Memory) {
        for &b in sweep.buffers() {
            memory.mark_stale(b);
        }
        self.queued = Some(sweep);
    }

    /// Add a dispatch to the held sweep or the queued rank run when it may
    /// join it ([`Sweep::join`], [`DistSession::join`]).
    fn joins(&mut self, kernel: &CompiledKernel, args: &[KernelArg], memory: &mut Memory) -> bool {
        if self.queued.as_mut().is_some_and(|s| s.join(kernel, args)) {
            return true;
        }
        let Some(grid) = self
            .grid
            .clone()
            .filter(|_| self.dist_queued == Some(&*kernel.name))
        else {
            return false;
        };
        let plan = self.dispatch_plan(self.dispatch_index, grid.size() as usize);
        let session = self.sessions.get_mut(&kernel.name);
        let joins = session.is_some_and(|s| s.join(kernel, &grid, args, &plan, memory));
        self.dispatch_index += usize::from(joins);
        joins
    }

    /// Run the queued sweep or rank run, timed on its own: no dispatch's
    /// timer holds it. A failed rank run drops its session.
    fn flush(&mut self, memory: &mut Memory) -> Result<()> {
        let start = Instant::now();
        if let Some(sweep) = self.queued.take() {
            for &b in sweep.buffers() {
                memory.clear_stale(b);
            }
            self.sweeps.0 += sweep.run(memory) as u64;
            self.sweeps.1 += 1;
        }
        if let Some(name) = self.dist_queued.take() {
            let session = self.sessions.get_mut(name);
            let ran = session.map_or(Ok(None), |s| s.run(memory, &self.dist_options));
            let outcome = ran.inspect_err(|_| drop(self.sessions.remove(name)))?;
            if let (Some(outcome), Some(kernel)) = (outcome, self.kernels.get(name)) {
                // Real distributed execution: every rank ran the kernel
                // over its owned block with measured halo traffic. The
                // makespan is the measured distributed time; the cost model
                // rides along as a cross-check inside the report.
                let grid = self.dist_grid()?;
                self.resilience.merge(&outcome.fault_stats);
                self.distributed_seconds += outcome.makespan_seconds;
                self.record_distributed(kernel, &grid, &outcome);
                self.sweeps.0 += outcome.dispatches;
                self.sweeps.1 += 1;
            }
        }
        self.kernel_wall += start.elapsed();
        Ok(())
    }

    fn convert_args(args: &[Value]) -> Result<Vec<KernelArg>> {
        args.iter()
            .map(|v| match v {
                Value::Ref(Ref::Array { buf, .. }) => Ok(KernelArg::Buf(*buf)),
                Value::Ref(Ref::Elem { buf, linear: 0 }) => Ok(KernelArg::Buf(*buf)),
                Value::F64(f) => Ok(KernelArg::Scalar(*f)),
                Value::I32(i) => Ok(KernelArg::Scalar(*i as f64)),
                Value::I64(i) | Value::Index(i) => Ok(KernelArg::Scalar(*i as f64)),
                other => Err(IrError::new(format!(
                    "cannot pass {other:?} to a stencil region"
                ))),
            })
            .collect()
    }
}

impl<'k> RegionDispatcher for KernelDispatcher<'k> {
    fn call(&mut self, callee: &str, args: &[Value], memory: &mut Memory) -> Result<()> {
        let kernel = self
            .kernels
            .get(callee)
            .ok_or_else(|| IrError::new(format!("no compiled kernel '{callee}'")))?;
        let kargs = Self::convert_args(args)?;
        // A joining dispatch's tiers and plans are the sweep's.
        if self.joins(kernel, &kargs, memory) {
            self.cells += kernel.stats().cells;
            return Ok(());
        }
        self.flush(memory)?;
        let start = Instant::now();
        // Another kernel's resident ranks may hold newer contents of this
        // kernel's arrays than `memory` does.
        self.gather_sessions(memory, |name, s| {
            name != callee && s.holds_results_for(&kargs)
        });
        match &kernel.kind {
            PlanKind::Cpu => {
                if kernel.is_distributed() {
                    let grid = self.dist_grid()?;
                    let dispatch = self.dispatch_index;
                    self.dispatch_index += 1;
                    let plan = self.dispatch_plan(dispatch, grid.size() as usize);
                    let mut session = self.sessions.remove(callee);
                    let opts = &self.dist_options;
                    let queued =
                        distexec::queue(kernel, memory, &kargs, &grid, &plan, opts, &mut session)?;
                    if let Some(s) = session {
                        self.sessions.insert(callee.to_string(), s);
                    }
                    match queued {
                        // Later dispatches join it; a flush runs them all.
                        true => self.dist_queued = Some(&kernel.name),
                        false => {
                            // Outside the supported shape: execute locally
                            // — on current data, so a session this kernel
                            // left from supported dispatches hands its
                            // results back and goes — and charge the
                            // modeled distributed iteration (per-rank
                            // compute + halo communication), with the
                            // resilient-transport micro-sim attesting the
                            // protocol. CPU time is the wall times the most
                            // slabs a nest ran on.
                            self.gather_sessions(memory, |name, _| name == callee);
                            self.sessions.remove(callee);
                            kernel::run_kernel(kernel, memory, &kargs, self.threads)?;
                            let elapsed = start.elapsed().as_secs_f64();
                            let ranks = grid.size() as f64;
                            let slabs = kernel.slabs(self.threads).into_iter().max();
                            let compute = elapsed * slabs.unwrap_or(1) as f64 / ranks;
                            let comm =
                                self.modeled_comm(kernel, &grid, self.cost.offnode_fraction(&grid));
                            self.distributed_seconds += compute + comm;
                            self.distributed_seconds +=
                                self.charge_resilient_exchange(kernel, &grid, dispatch)?;
                            DistProvenance::fold(
                                &mut self.dist.provenance,
                                DistProvenance::Modeled,
                            );
                            self.dist.modeled_dispatches += 1;
                        }
                    }
                } else {
                    self.queue(Sweep::new(kernel, memory, &kargs, 1)?, memory);
                }
            }
            PlanKind::Omp { num_threads } => {
                let t = if *num_threads > 0 {
                    *num_threads
                } else {
                    self.threads
                };
                self.queue(Sweep::new(kernel, memory, &kargs, t)?, memory);
            }
            PlanKind::Gpu {
                block,
                strategy,
                read_args,
                written_args,
                ..
            } => {
                // Execute on CPU for correctness, charge the V100 model.
                // Multi-GPU plans (future-work avenue 5) split the domain
                // over `ranks` devices: each device sees 1/ranks of the
                // work and buffers, and pays the halo exchange per
                // iteration; the makespan is per-device time + comm.
                kernel::run_kernel(kernel, memory, &kargs, 1)?;
                let ranks = if kernel.is_distributed() {
                    self.grid
                        .as_ref()
                        .map(|g| g.size() as u64)
                        .unwrap_or(1)
                        .max(1)
                } else {
                    1
                };
                // A gpu plan run under another target has no session to charge.
                let gpu = self.gpu.as_mut().ok_or_else(|| {
                    IrError::from_diagnostic(Diagnostic::error(
                        codes::EXEC,
                        "gpu kernel dispatched without a gpu session",
                    ))
                })?;
                let stats = kernel.stats();
                let load = KernelLoad {
                    cells: stats.cells / ranks,
                    flops: stats.flops / ranks,
                    bytes_read: stats.bytes_read / ranks,
                    bytes_written: stats.bytes_written / ranks,
                };
                let mut uses = Vec::new();
                for (i, ka) in kargs.iter().enumerate() {
                    if let KernelArg::Buf(b) = ka {
                        let bytes = (memory.buffer(*b).len() * 8) as u64 / ranks;
                        let read = read_args.contains(&i);
                        let written = written_args.contains(&i);
                        if written {
                            self.written_buffers.insert(b.0 as u64, bytes);
                        }
                        uses.push(BufferUse {
                            id: b.0 as u64,
                            bytes,
                            read,
                            written,
                        });
                    }
                }
                let model_strategy = match strategy {
                    GpuStrategy::HostRegister => fsc_gpusim::Strategy::HostRegister,
                    GpuStrategy::Explicit => fsc_gpusim::Strategy::Explicit,
                };
                gpu.launch(load, *block, model_strategy, &uses);
                if kernel.is_distributed() && self.grid.is_some() {
                    // Inter-GPU halo exchange (host-staged over the
                    // interconnect; NVLink/GPUDirect would lower this —
                    // exactly the tuning §6 proposes).
                    let grid = self.dist_grid()?;
                    let dispatch = self.dispatch_index;
                    self.dispatch_index += 1;
                    self.distributed_seconds += self.modeled_comm(kernel, &grid, 1.0);
                    self.distributed_seconds +=
                        self.charge_resilient_exchange(kernel, &grid, dispatch)?;
                }
            }
        }
        // Attest which specialization tiers actually executed.
        for nest in &kernel.nests {
            self.exec_paths.insert(nest.path);
            self.plans.insert(nest.plan.clone());
        }
        self.cells += kernel.stats().cells;
        self.kernel_wall += start.elapsed();
        if self.queued.as_ref().is_some_and(|s| !s.has_room()) {
            self.flush(memory)?;
        }
        Ok(())
    }

    fn sync(&mut self, memory: &mut Memory) -> Result<()> {
        self.flush(memory)?;
        self.gather_sessions(memory, |_, _| true);
        Ok(())
    }
}

/// Halo face bytes of the largest exchange of one nest.
fn face_bytes(nest: &fsc_exec::kernel::Nest, grid: &ProcessGrid) -> u64 {
    // Per-rank face: the global face divided by the ranks along the other
    // decomposed dimensions, times the halo width.
    let cells = nest.domain_cells();
    let ranks = grid.size().max(1) as u64;
    nest.exchanges
        .iter()
        .map(|e| {
            let dim_extent = (nest.bounds[e.dim].1 - nest.bounds[e.dim].0).max(1) as u64;
            let global_face = cells / dim_extent;
            (global_face / ranks.max(1)).max(1) * e.width.max(1) as u64 * 8
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_program_requires_a_program_unit() {
        let m = fsc_fortran::compile_to_fir(
            "subroutine s(x)\nreal(kind=8), intent(inout) :: x\nx = 1.0\nend subroutine s",
        )
        .unwrap();
        assert!(find_program(&m).is_err());
    }

    #[test]
    fn a_queued_dispatch_fails_in_the_call_that_queues_it() {
        // The copy nest's store to `u` loses its output slot: the first
        // time step's dispatch, which would open a sweep, is refused.
        let src = fsc_workloads::gauss_seidel::fortran_source(8, 3);
        let mut c = Compiler::compile(&src, &CompileOptions::default()).unwrap();
        let region = c.kernels.get_mut("stencil_region_1").unwrap();
        region.nests[1].out_views.clear();
        let e = c.run().err().expect("a store outside its outputs");
        assert_eq!(e.primary().map(|d| d.code), Some(codes::EXEC), "{e}");
    }

    #[test]
    fn a_gpu_kernel_without_a_gpu_session_is_a_coded_error() {
        // Kernels compiled for the gpu, run by a dispatcher for the cpu.
        let src = fsc_workloads::gauss_seidel::fortran_source(4, 1);
        let gpu = Target::StencilGpu {
            explicit_data: true,
            tile: [32, 32, 1],
        };
        let mut c = Compiler::compile(&src, &CompileOptions::for_target(gpu)).unwrap();
        c.target = Target::StencilCpu;
        let e = c.run().err().expect("no gpu session to charge");
        assert_eq!(e.primary().map(|d| d.code), Some(codes::EXEC), "{e}");
    }

    #[test]
    fn flang_only_compiles_without_stencil_module() {
        let src = fsc_workloads::gauss_seidel::fortran_source(4, 1);
        let c = Compiler::compile(
            &src,
            &CompileOptions {
                target: Target::FlangOnly,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(c.stencil_module.is_none());
        assert!(c.kernels.is_empty());
        assert_eq!(c.entry, "gauss_seidel");
    }

    #[test]
    fn stencil_targets_produce_kernels() {
        let src = fsc_workloads::gauss_seidel::fortran_source(4, 1);
        for target in [
            Target::StencilCpu,
            Target::UnoptimizedCpu,
            Target::StencilOpenMp { threads: 2 },
            Target::StencilGpu {
                explicit_data: true,
                tile: [4, 4, 1],
            },
            Target::StencilDistributed { grid: vec![2] },
            Target::StencilMultiGpu {
                grid: vec![2],
                tile: [4, 4, 1],
            },
        ] {
            let c = Compiler::compile(
                &src,
                &CompileOptions {
                    target: target.clone(),
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(!c.kernels.is_empty(), "{target:?} produced no kernels");
            assert!(c.stencil_module.is_some());
        }
    }

    #[test]
    fn convert_args_rejects_non_numeric() {
        use fsc_exec::value::{Ref, Value};
        let ok = KernelDispatcher::convert_args(&[Value::F64(1.0), Value::I32(2), Value::Index(3)])
            .unwrap();
        assert_eq!(ok.len(), 3);
        let bad =
            KernelDispatcher::convert_args(&[Value::Ref(Ref::Scalar(fsc_exec::value::SlotId(0)))]);
        assert!(bad.is_err());
    }

    #[test]
    fn distributed_report_carries_rank_count() {
        let src = fsc_workloads::gauss_seidel::fortran_source(6, 1);
        let exec = Compiler::run(
            &src,
            &CompileOptions {
                target: Target::StencilDistributed { grid: vec![3, 2] },
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(exec.report.ranks, Some(6));
    }

    #[test]
    fn every_target_compiles_on_the_top_rung() {
        let src = fsc_workloads::gauss_seidel::fortran_source(4, 1);
        for target in [
            Target::StencilCpu,
            Target::StencilOpenMp { threads: 2 },
            Target::StencilGpu {
                explicit_data: true,
                tile: [4, 4, 1],
            },
            Target::StencilDistributed { grid: vec![2] },
        ] {
            // The hardened driver verifies after every pass: no rejected
            // attempt means every pass of the target's pipeline verified.
            let compiled = Compiler::compile(&src, &CompileOptions::for_target(target)).unwrap();
            assert!(!compiled.degradation.degraded());
        }
    }

    #[test]
    fn distributed_run_attests_resilient_transport_at_zero_faults() {
        let src = fsc_workloads::gauss_seidel::fortran_source(6, 2);
        let exec = Compiler::run(
            &src,
            &CompileOptions::for_target(Target::StencilDistributed { grid: vec![2] }),
        )
        .unwrap();
        let res = exec
            .report
            .resilience
            .expect("distributed runs attest resilience");
        assert!(
            res.data_msgs > 0,
            "halo traffic must flow through the protocol"
        );
        assert_eq!(res.injected(), 0, "no faults were planned");
        assert_eq!(res.restores, 0);
        // Non-distributed targets carry no resilience report.
        let serial = Compiler::run(&src, &CompileOptions::for_target(Target::StencilCpu)).unwrap();
        assert!(serial.report.resilience.is_none());
    }

    #[test]
    fn faulty_run_recovers_and_matches_fault_free_bitwise() {
        let src = fsc_workloads::gauss_seidel::fortran_source(6, 3);
        let opts = CompileOptions::for_target(Target::StencilDistributed { grid: vec![2, 2] });
        let compiled = Compiler::compile(&src, &opts).unwrap();
        let clean = compiled.run().unwrap();
        let plan = FaultPlan::lossy(11, 0.10).with_crash(1, 1);
        let faulty = compiled.run_with_faults(plan).unwrap();
        let res = faulty.report.resilience.expect("resilience report");
        assert!(res.injected() > 0, "plan must inject faults");
        assert!(res.retries > 0, "drops must force retransmits");
        assert_eq!(res.injected_crashes, 1);
        assert_eq!(res.restores, 1, "crash must restore from checkpoint");
        let a = clean.array("u").expect("u array");
        let b = faulty.array("u").expect("u array");
        assert_eq!(a.len(), b.len());
        assert!(
            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "faulty run must produce bit-identical results"
        );
        // Recovery traffic is charged: the faulty run models more
        // distributed seconds than the clean one.
        assert!(
            faulty.report.distributed_seconds.unwrap() > clean.report.distributed_seconds.unwrap()
        );
    }

    #[test]
    fn run_with_faults_rejects_invalid_plans() {
        let src = fsc_workloads::gauss_seidel::fortran_source(4, 1);
        let opts = CompileOptions::for_target(Target::StencilDistributed { grid: vec![2] });
        let compiled = Compiler::compile(&src, &opts).unwrap();
        let mut plan = FaultPlan::none(0);
        plan.drop_prob = 1.5;
        assert!(compiled.run_with_faults(plan).is_err());
    }

    #[test]
    fn happy_path_never_degrades() {
        let src = fsc_workloads::gauss_seidel::fortran_source(4, 1);
        for target in [
            Target::StencilCpu,
            Target::UnoptimizedCpu,
            Target::StencilOpenMp { threads: 2 },
            Target::StencilGpu {
                explicit_data: true,
                tile: [4, 4, 1],
            },
            Target::StencilDistributed { grid: vec![2] },
        ] {
            let c = Compiler::compile(&src, &CompileOptions::for_target(target.clone())).unwrap();
            assert!(
                c.degradation.attempts.is_empty(),
                "{target:?} degraded: {}",
                c.degradation.describe()
            );
            assert_eq!(c.degradation.ran, DegradationRung::Stencil);
            assert!(!c.degradation.degraded());
        }
    }

    #[test]
    fn sabotaged_pass_degrades_to_scf_rung_with_identical_results() {
        let src = fsc_workloads::gauss_seidel::fortran_source(6, 2);
        let clean = Compiler::run(&src, &CompileOptions::for_target(Target::StencilCpu)).unwrap();
        // `cse` only runs in the full CPU pipeline, not in the scf
        // fallback, so sabotaging it rejects exactly one rung.
        let opts = CompileOptions {
            sabotage_pass: Some("cse".into()),
            ..CompileOptions::for_target(Target::StencilCpu)
        };
        let degraded = Compiler::run(&src, &opts).unwrap();
        let report = &degraded.report.degradation;
        assert_eq!(
            report.ran,
            DegradationRung::ScfFallback,
            "{}",
            report.describe()
        );
        assert_eq!(report.attempts.len(), 1);
        let a = &report.attempts[0];
        assert_eq!(a.rung, DegradationRung::Stencil);
        assert_eq!(a.stage, "target-pipeline");
        assert_eq!(a.failed_pass.as_deref(), Some("cse"));
        assert!(
            a.diagnostics[0].render().contains("E0503"),
            "{}",
            a.diagnostics[0].render()
        );
        // Degraded execution still computes the same answer, bit for bit.
        let x = clean.array("u").unwrap();
        let y = degraded.array("u").unwrap();
        assert_eq!(x.len(), y.len());
        assert!(x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn sabotaging_a_shared_pass_lands_on_fir_interpretation() {
        let src = fsc_workloads::gauss_seidel::fortran_source(4, 1);
        // `canonicalize` runs on both the full pipeline and the scf
        // fallback, so both stencil rungs are rejected.
        let opts = CompileOptions {
            sabotage_pass: Some("canonicalize".into()),
            ..CompileOptions::for_target(Target::StencilCpu)
        };
        let c = Compiler::compile(&src, &opts).unwrap();
        assert_eq!(c.degradation.ran, DegradationRung::FirInterp);
        assert_eq!(c.degradation.attempts.len(), 2);
        assert!(c.stencil_module.is_none());
        assert!(c.kernels.is_empty());
        // And it still runs — matching the Flang-only tier bitwise.
        let degraded = c.run().unwrap();
        let flang = Compiler::run(&src, &CompileOptions::for_target(Target::FlangOnly)).unwrap();
        let x = flang.array("u").unwrap();
        let y = degraded.array("u").unwrap();
        assert!(x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn forced_rungs_run_without_recording_failures() {
        let src = fsc_workloads::gauss_seidel::fortran_source(6, 2);
        let base = Compiler::run(&src, &CompileOptions::for_target(Target::StencilCpu)).unwrap();
        for rung in [DegradationRung::ScfFallback, DegradationRung::FirInterp] {
            let opts = CompileOptions {
                force_rung: Some(rung),
                ..CompileOptions::for_target(Target::StencilCpu)
            };
            let exec = Compiler::run(&src, &opts).unwrap();
            assert_eq!(exec.report.degradation.ran, rung);
            assert!(exec.report.degradation.attempts.is_empty());
            let x = base.array("u").unwrap();
            let y = exec.array("u").unwrap();
            assert!(
                x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits()),
                "rung {rung:?} diverged"
            );
        }
    }

    #[test]
    fn unknown_sabotage_name_never_fires() {
        let src = fsc_workloads::gauss_seidel::fortran_source(4, 1);
        let opts = CompileOptions {
            sabotage_pass: Some("no-such-pass".into()),
            ..CompileOptions::for_target(Target::StencilCpu)
        };
        let c = Compiler::compile(&src, &opts).unwrap();
        assert!(c.degradation.attempts.is_empty());
    }

    #[test]
    fn every_run_attests_its_plans() {
        let src = fsc_workloads::gauss_seidel::fortran_source(6, 1);
        let exec = Compiler::run(&src, &CompileOptions::for_target(Target::StencilCpu)).unwrap();
        assert!(
            !exec.report.plans.is_empty(),
            "stencil runs must record their execution plans"
        );
        // The Flang-only line runs the same machinery, every nest on the
        // generic VM.
        let unopt =
            Compiler::run(&src, &CompileOptions::for_target(Target::UnoptimizedCpu)).unwrap();
        assert_eq!(unopt.report.exec_paths, [ExecPath::GenericVm]);
        assert!(!unopt.report.plans.is_empty());
    }

    #[test]
    fn non_template_nests_run_on_the_jit_tier_bit_identically() {
        // Each Figure-8 kernel is non-linear (sqrt / variable coefficient
        // / min-max) and has no specialized form, so its sweeps must land
        // on the stitched jit tier, and every tier override must produce
        // the same bits.
        for source in [
            fsc_workloads::jit_kernels::sqrt_source(6, 2),
            fsc_workloads::jit_kernels::varcoef_source(6, 2),
            fsc_workloads::jit_kernels::minmax_source(6, 2),
        ] {
            let exec = Compiler::run(&source, &CompileOptions::default()).unwrap();
            assert!(
                exec.report.attests(ExecPath::Jit),
                "compute sweep must run jit: {:?}",
                exec.report.exec_paths
            );
            let reference: Vec<f64> = exec.array("u").unwrap().to_vec();
            for forced in [ExecPath::Jit, ExecPath::FusedVm, ExecPath::GenericVm] {
                let opts = CompileOptions {
                    force_exec_path: Some(forced),
                    ..CompileOptions::default()
                };
                let run = Compiler::run(&source, &opts).unwrap();
                assert!(run.report.attests(forced), "{forced} override must stick");
                let bits_equal = reference
                    .iter()
                    .zip(run.array("u").unwrap())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(bits_equal, "forced {forced} diverged from the default run");
            }
        }
    }

    #[test]
    fn jit_fallback_degrades_with_coded_warning_not_failure() {
        // A body with more than one store to the same view is a stitching
        // hazard (full-row passes would reorder the overwrites), so the
        // jit skips it: the nest runs on the fused VM, an E0705 warning is
        // attested, and the run still succeeds.
        let source = "program two_stores
  implicit none
  integer, parameter :: n = 8
  integer :: i
  real(kind=8) :: u(1:n), v(1:n)
  do i = 1, n
    v(i) = 0.5 * i
  end do
  do i = 2, n - 1
    u(i) = v(i) + v(i-1)
    u(i) = u(i) + 1.0
  end do
end program two_stores";
        let exec = Compiler::run(source, &CompileOptions::default()).unwrap();
        if exec
            .report
            .jit_warnings
            .iter()
            .any(|d| d.code == codes::JIT_FALLBACK)
        {
            // The degraded nest must have fallen down the ladder, not died.
            assert!(
                exec.report.attests(ExecPath::FusedVm)
                    || exec.report.attests(ExecPath::Specialized)
                    || exec.report.attests(ExecPath::Jit),
                "degraded program still runs: {:?}",
                exec.report.exec_paths
            );
        }
        assert!(exec.array("u").is_some());
    }

    #[test]
    fn governed_run_peak_is_bounded_by_estimate() {
        let src = fsc_workloads::gauss_seidel::fortran_source(8, 2);
        for target in [
            Target::StencilCpu,
            Target::StencilOpenMp { threads: 2 },
            Target::StencilDistributed { grid: vec![2] },
        ] {
            let compiled =
                Compiler::compile(&src, &CompileOptions::for_target(target.clone())).unwrap();
            let est = compiled.estimate().unwrap();
            assert!(est.total() > 0, "{target:?} estimate must be non-trivial");
            let budget = fsc_exec::MemoryBudget::limited(est.total());
            let exec = compiled.run_governed(budget.clone()).unwrap();
            assert_eq!(exec.report.estimate, Some(est));
            assert!(exec.report.peak_bytes > 0, "{target:?} must attest a peak");
            assert!(
                exec.report.peak_bytes <= est.total(),
                "{target:?}: peak {} exceeds estimate {}",
                exec.report.peak_bytes,
                est.total()
            );
            // Governance never changes the answer.
            let plain = compiled.run().unwrap();
            let a = plain.array("u").unwrap();
            let b = exec.array("u").unwrap();
            assert!(
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{target:?}: governed run diverged"
            );
            // Dropping the execution returns every charge to the ledger.
            drop(exec);
            assert_eq!(budget.used(), 0, "{target:?}: ledger must drain");
        }
    }

    #[test]
    fn over_budget_run_fails_with_coded_error_not_abort() {
        let src = fsc_workloads::gauss_seidel::fortran_source(8, 1);
        let compiled =
            Compiler::compile(&src, &CompileOptions::for_target(Target::StencilCpu)).unwrap();
        let err = match compiled.run_governed(fsc_exec::MemoryBudget::limited(64)) {
            Err(e) => e,
            Ok(_) => panic!("a 64-byte budget must deny the run"),
        };
        assert!(
            err.diagnostics[0].render().contains("E0805"),
            "denial must carry E0805: {err}"
        );
    }

    #[test]
    fn array_lookup_by_name() {
        let src = "program t\nreal(kind=8) :: weird_name(3)\nweird_name(1) = 5.0\nend program t";
        let exec = Compiler::run(
            src,
            &CompileOptions {
                target: Target::FlangOnly,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(exec.array("weird_name").unwrap()[0], 5.0);
        assert!(exec.array("missing").is_none());
    }
}
