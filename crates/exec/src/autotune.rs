//! Autotuned execution-plan selection with a persistent plan cache.
//!
//! Given a freshly compiled kernel, the tuner times a *small* candidate
//! space of [`ExecPlan`]s — tile shapes, the unroll-by-4 fast-path
//! variant, and slab budgets — in short calibration sweeps over scratch
//! buffers shaped exactly like the real arguments, and installs the
//! winner via [`CompiledKernel::force_plan`]. Winners are keyed by a
//! fingerprint of (body bytecode, iteration bounds, view geometry, plan
//! kind, thread count) and remembered twice:
//!
//! * **in process** — a per-cache-path [`SharedPlanCache`]: a sharded map
//!   with RCU-style snapshot reads (see [`crate::sharded`]), so repeated
//!   compiles in one process never re-read the file and concurrent
//!   sessions never queue behind each other's lookups. Crucially, no lock
//!   is held while a calibration sweep runs — a slow tune of one kernel
//!   cannot serialize an unrelated cache hit;
//! * **on disk** — the JSON [`PlanCache`] (see [`crate::plancache`]), so
//!   calibration cost is paid once per machine. Persistence goes through
//!   [`PlanCache::save`]'s merge-on-save, so concurrent processes tuning
//!   different kernels both keep their entries.
//!
//! Every failure degrades, never aborts: an unreadable cache produces a
//! coded `E0702` warning and tuning proceeds; a calibration sweep that
//! errors produces a coded `E0703` warning and the default plan is kept.
//! The chosen provenance (`default` / `tuned` / `cached`) rides through
//! `KernelStats` into `RunReport`, so runs attest what actually executed.
//!
//! The candidate space is deliberately tiny (≤7 plans): the default plan
//! is always a candidate, so tuning can only ever pick something that
//! measured no worse than the default on this machine.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use fsc_ir::diag::{codes, Diagnostic};
use fsc_ir::hash::Fnv64;

use crate::kernel::{run_kernel, ArgKind, CompiledKernel, KernelArg, PlanKind, ViewSource};
use crate::plan::{ExecPlan, PlanProvenance};
use crate::plancache::{resolve_cache_path, PlanCache, PlanRecord};
use crate::sharded::SharedPlanCache;
use crate::value::Memory;

/// How the tuner runs.
#[derive(Debug, Clone, Default)]
pub struct TuneConfig {
    /// Explicit cache file; `None` resolves the temp-dir default via
    /// [`resolve_cache_path`]. The library never consults the environment
    /// — binaries that honour `FSC_PLAN_CACHE` call
    /// [`crate::plancache::env_cache_path`] at their boundary and pass
    /// the result here.
    pub cache_path: Option<PathBuf>,
    /// Skip persisting newly tuned winners to disk (in-process memoisation
    /// still applies). Benches use this to re-tune every run.
    pub no_persist: bool,
    /// Timed repetitions per candidate (best-of). `0` means the default 2.
    pub reps: u32,
}

/// What the tuner decided for one kernel.
#[derive(Debug, Clone)]
pub struct TuneEntry {
    /// Kernel symbol name.
    pub kernel: String,
    /// Fingerprint key the plan is cached under.
    pub key: String,
    /// The plan that was installed.
    pub plan: ExecPlan,
    /// Best calibration sweep time for that plan, microseconds
    /// (`0.0` for cache hits — nothing was re-measured).
    pub micros: f64,
}

/// The tuner's attestation for one compile: per-kernel decisions plus the
/// total calibration cost and any degradation diagnostics.
#[derive(Debug, Clone, Default)]
pub struct TuningReport {
    /// One entry per tuned kernel, in tuning order.
    pub entries: Vec<TuneEntry>,
    /// Total wall-clock time spent calibrating (zero when every kernel hit
    /// the cache).
    pub tuning_wall: Duration,
    /// Coded diagnostics for anything that degraded (`E0702` cache
    /// problems, `E0703` calibration failures).
    pub diagnostics: Vec<Diagnostic>,
}

impl TuningReport {
    /// How many kernels were satisfied from the persistent cache.
    pub fn cache_hits(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.plan.provenance == PlanProvenance::Cached)
            .count()
    }

    /// How many kernels ran a fresh calibration sweep.
    pub fn fresh_tunes(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.plan.provenance == PlanProvenance::Tuned)
            .count()
    }
}

// --------------------------------------------------------------------------
// In-process cache
// --------------------------------------------------------------------------

/// Registry of in-process shared cache images, one per on-disk path.
/// Loaded lazily on first use of a path and kept in sync with everything
/// tuned afterwards, so one process never reads a cache file twice. The
/// registry lock is held only to clone an `Arc` (or to register a freshly
/// loaded image) — never across a lookup, and never across a calibration
/// sweep.
fn registry() -> &'static Mutex<HashMap<PathBuf, Arc<SharedPlanCache>>> {
    static CACHE: OnceLock<Mutex<HashMap<PathBuf, Arc<SharedPlanCache>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The process-wide shared cache image for a path, loading the file on
/// the first request. Returns the load diagnostic (corrupt/unreadable
/// file) only to the caller that actually performed the load.
pub fn shared_cache(path: &Path) -> (Arc<SharedPlanCache>, Option<Diagnostic>) {
    if let Some(existing) = registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(path)
    {
        return (existing.clone(), None);
    }
    // Load outside the registry lock: a large or slow-to-read cache file
    // must not block lookups against other paths.
    let (image, diag) = PlanCache::load(path);
    let loaded = Arc::new(SharedPlanCache::from_cache(image));
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    match reg.entry(path.to_path_buf()) {
        std::collections::hash_map::Entry::Occupied(e) => (e.get().clone(), None),
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(loaded.clone());
            (loaded, diag)
        }
    }
}

/// Drop every in-process cache image, forcing the next tune to re-read
/// cache files from disk. Test hook (the file may have been rewritten or
/// corrupted underneath us on purpose).
pub fn reset_in_process_cache() {
    registry().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

// --------------------------------------------------------------------------
// Fingerprinting
// --------------------------------------------------------------------------

/// Fingerprint a kernel for plan-cache keying: FNV-1a-64 over the body
/// bytecode, iteration bounds and view geometry, suffixed with the
/// human-readable grid extents and thread count (so cache files stay
/// greppable). Debug formatting of the bytecode is deterministic and
/// covers every instruction field, including float immediates.
pub fn fingerprint(kernel: &CompiledKernel, threads: usize) -> String {
    let mut h = Fnv64::new();
    for nest in &kernel.nests {
        h.write(b"nest");
        for &(lb, ub) in &nest.bounds {
            h.write_u64(lb as u64);
            h.write_u64(ub as u64);
        }
        for instr in &nest.program.instrs {
            h.write(format!("{instr:?}").as_bytes());
        }
        for &v in &nest.out_views {
            h.write_u64(v as u64);
        }
    }
    for view in &kernel.views {
        h.write(b"view");
        for &e in &view.extents {
            h.write_u64(e as u64);
        }
        for &s in &view.strides {
            h.write_u64(s as u64);
        }
    }
    let kind_tag: &[u8] = match kernel.kind {
        PlanKind::Cpu => b"cpu",
        PlanKind::Omp { .. } => b"omp",
        PlanKind::Gpu { .. } => b"gpu",
    };
    h.write(kind_tag);
    let extents = kernel
        .nests
        .first()
        .map(|n| {
            n.bounds
                .iter()
                .map(|&(lb, ub)| (ub - lb).max(0).to_string())
                .collect::<Vec<_>>()
                .join("x")
        })
        .unwrap_or_default();
    format!("{:016x}:{extents}:t{threads}", h.finish())
}

// --------------------------------------------------------------------------
// Candidate space
// --------------------------------------------------------------------------

/// The tiny candidate space for a kernel of the given rank. The first
/// entry is always the (possibly IR-seeded) default plan, so the sweep's
/// argmin can never do worse than not tuning — modulo timing noise.
fn candidates(default: &ExecPlan, rank: usize, threads: usize) -> Vec<ExecPlan> {
    let mut out = vec![default.clone()];
    let mut push = |p: ExecPlan| {
        if !out.contains(&p) {
            out.push(p);
        }
    };
    // Unroll the specialized inner loop by 4.
    let mut u4 = default.clone();
    u4.unroll = 4;
    push(u4);
    // Cache-block the non-unit-stride dimensions at 16 (dimension 0 stays
    // whole: the fast paths live on contiguous unit-stride rows).
    if rank >= 2 {
        let mut tiles = vec![0i64; rank];
        for t in tiles.iter_mut().skip(1) {
            *t = 16;
        }
        let blocked = ExecPlan {
            tiles,
            ..default.clone()
        };
        let mut blocked_u4 = blocked.clone();
        blocked_u4.unroll = 4;
        push(blocked);
        push(blocked_u4);
    }
    // Slab-budget variants: one slab (skips work-sharing overhead — the
    // winner when spawn cost dominates, e.g. small grids or few cores) and
    // an over-decomposed 2×threads budget (helps load imbalance).
    let mut one = default.clone();
    one.slabs = 1;
    push(one);
    let mut one_u4 = default.clone();
    one_u4.slabs = 1;
    one_u4.unroll = 4;
    push(one_u4);
    if threads > 1 {
        let mut over = default.clone();
        over.slabs = (threads as u32).saturating_mul(2);
        push(over);
    }
    out
}

// --------------------------------------------------------------------------
// Calibration
// --------------------------------------------------------------------------

/// Build scratch arguments shaped like the kernel's real signature:
/// deterministically filled buffers for every pointer argument, `1.0` for
/// every scalar (safe for the divide in Gauss–Seidel-style scales).
/// Allocation is fallible: a denied scratch buffer (budget or host) makes
/// the caller skip calibration with a coded `E0703` degradation instead of
/// aborting the process.
fn scratch_args(kernel: &CompiledKernel, memory: &mut Memory) -> fsc_ir::Result<Vec<KernelArg>> {
    let mut args = Vec::with_capacity(kernel.args.len());
    for (i, kind) in kernel.args.iter().enumerate() {
        match kind {
            ArgKind::Scalar => args.push(KernelArg::Scalar(1.0)),
            ArgKind::Ptr => {
                let len = kernel
                    .views
                    .iter()
                    .filter(|v| v.source == ViewSource::Arg(i))
                    .map(|v| v.checked_len())
                    .try_fold(0usize, |acc, l| l.map(|l| acc.max(l)))?
                    .max(1);
                let buf = memory.try_alloc_buffer(len)?;
                for (k, cell) in memory.buffer_mut(buf).iter_mut().enumerate() {
                    *cell = 1.0 + (k % 7) as f64 * 0.125;
                }
                args.push(KernelArg::Buf(buf));
            }
        }
    }
    Ok(args)
}

/// Time one candidate: force the plan, run once to warm up, then best-of
/// `reps` timed sweeps. Returns microseconds, or the execution error.
fn time_candidate(
    kernel: &mut CompiledKernel,
    plan: &ExecPlan,
    memory: &mut Memory,
    args: &[KernelArg],
    threads: usize,
    reps: u32,
) -> Result<f64, fsc_ir::IrError> {
    kernel.force_plan(plan);
    run_kernel(kernel, memory, args, threads)?;
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        run_kernel(kernel, memory, args, threads)?;
        best = best.min(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(best)
}

/// Tune one kernel in place. Cache hit installs the cached plan without
/// any measurement; otherwise a calibration sweep runs over scratch
/// buffers — with **no cache lock held** — and the winner (with `Tuned`
/// provenance) is installed and recorded in `cache`. Returns `None`
/// (default plan kept) for kernel shapes the tuner does not calibrate:
/// GPU-modelled and distributed plans, whose run path is not the plain
/// CPU sweep being timed here.
pub fn tune_kernel(
    kernel: &mut CompiledKernel,
    threads: usize,
    cache: &SharedPlanCache,
    reps: u32,
    diagnostics: &mut Vec<Diagnostic>,
) -> Option<TuneEntry> {
    if matches!(kernel.kind, PlanKind::Gpu { .. }) || kernel.is_distributed() {
        return None;
    }
    let rank = kernel.nests.first().map(|n| n.bounds.len())?;
    let key = fingerprint(kernel, threads);

    if let Some(record) = cache.get(&key) {
        let plan = record.to_plan();
        kernel.force_plan(&plan);
        return Some(TuneEntry {
            kernel: kernel.name.clone(),
            key,
            plan,
            micros: 0.0,
        });
    }

    let default = kernel
        .nests
        .first()
        .map(|n| n.plan.clone())
        .unwrap_or_default();
    let mut memory = Memory::new();
    let args = match scratch_args(kernel, &mut memory) {
        Ok(args) => args,
        Err(e) => {
            // Calibration scratch was denied: keep the default plan and
            // attest the degradation — tuning never fails a compile.
            diagnostics.push(
                Diagnostic::warning(
                    codes::AUTOTUNE,
                    format!(
                        "autotune scratch allocation for '{}' failed: {e}",
                        kernel.name
                    ),
                )
                .note("default execution plan kept"),
            );
            return None;
        }
    };
    let mut best: Option<(f64, ExecPlan)> = None;
    for plan in candidates(&default, rank, threads) {
        match time_candidate(kernel, &plan, &mut memory, &args, threads, reps) {
            Ok(micros) => {
                if best.as_ref().is_none_or(|(b, _)| micros < *b) {
                    best = Some((micros, plan));
                }
            }
            Err(e) => {
                diagnostics.push(
                    Diagnostic::warning(
                        codes::AUTOTUNE,
                        format!(
                            "autotune sweep of '{}' failed for plan {}: {e}",
                            kernel.name,
                            plan.describe()
                        ),
                    )
                    .note("keeping the default execution plan for this candidate"),
                );
            }
        }
    }
    let (micros, winner) = match best {
        Some((m, p)) => (m, p.with_provenance(PlanProvenance::Tuned)),
        None => {
            // Every candidate failed (the default included): restore the
            // default plan and attest the degradation.
            kernel.force_plan(&default);
            diagnostics.push(
                Diagnostic::warning(
                    codes::AUTOTUNE,
                    format!("autotune calibration of '{}' failed entirely", kernel.name),
                )
                .note("default execution plan kept"),
            );
            return None;
        }
    };
    kernel.force_plan(&winner);
    cache.insert(key.clone(), PlanRecord::from_plan(&winner, micros));
    Some(TuneEntry {
        kernel: kernel.name.clone(),
        key,
        plan: winner,
        micros,
    })
}

/// Tune a set of kernels against one plan-cache file: resolve the shared
/// in-process image (loading the file once per process per path), tune
/// each kernel, then persist newly tuned winners through the merge-on-save
/// writer. Never fails — every problem becomes a coded diagnostic in the
/// returned [`TuningReport`].
///
/// Concurrency: no lock is held across the tuning loop. Cache lookups go
/// through [`SharedPlanCache`]'s snapshot reads, so one session's slow
/// calibration sweep never serializes another session's cache hit (the
/// regression test below pins this).
pub fn tune_kernels<'k>(
    kernels: impl IntoIterator<Item = &'k mut CompiledKernel>,
    threads: usize,
    config: &TuneConfig,
) -> TuningReport {
    let t0 = Instant::now();
    let mut report = TuningReport::default();
    let path = resolve_cache_path(config.cache_path.as_deref());
    let (cache, load_diag) = shared_cache(&path);
    if let Some(d) = load_diag {
        report.diagnostics.push(d);
    }
    let reps = if config.reps == 0 { 2 } else { config.reps };
    // Winners tuned by *this* call, persisted as a delta: save() unions
    // them with whatever is on disk by then, so concurrent writers (other
    // threads or other processes) keep their entries too.
    let mut fresh = PlanCache::default();
    for kernel in kernels {
        if let Some(entry) = tune_kernel(kernel, threads, &cache, reps, &mut report.diagnostics) {
            if entry.plan.provenance == PlanProvenance::Tuned {
                fresh.entries.insert(
                    entry.key.clone(),
                    PlanRecord::from_plan(&entry.plan, entry.micros),
                );
            }
            report.entries.push(entry);
        }
    }
    if !fresh.entries.is_empty() && !config.no_persist {
        if let Err(e) = fresh.save(&path) {
            report.diagnostics.push(
                Diagnostic::warning(
                    codes::PLAN_CACHE,
                    format!("could not persist plan cache {}: {e}", path.display()),
                )
                .note("tuned plans remain in effect for this process only"),
            );
        }
    }
    report.tuning_wall = t0.elapsed();
    report
}

/// Tune a single kernel against the resolved cache file (convenience for
/// benches and tests; see [`tune_kernels`]).
pub fn tune_one(kernel: &mut CompiledKernel, threads: usize, config: &TuneConfig) -> TuningReport {
    tune_kernels(std::iter::once(kernel), threads, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Why a tuned plan cannot lose to the default beyond timing noise: the
    /// sweep's argmin starts from the default itself.
    #[test]
    fn the_default_plan_is_the_first_candidate_and_none_repeats() {
        let seeded = ExecPlan::from_ir_tiles(vec![0, 16, 16]);
        for default in [ExecPlan::default(), seeded] {
            for rank in 1..=3 {
                for threads in [1, 8] {
                    let all = candidates(&default, rank, threads);
                    assert_eq!(all[0], default);
                    let mut unique = all.clone();
                    unique.sort();
                    unique.dedup();
                    assert_eq!(unique.len(), all.len(), "{all:?}");
                }
            }
        }
    }
}
