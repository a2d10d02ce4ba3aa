//! The compile replayed stage by stage from outside: the benchmark calls
//! each layer's public entry point in the order `Compiler::compile` does
//! (hardened flow, top rung), with a span around every call, and assembles
//! the same `Compiled` value from the pieces.

use std::collections::{BTreeMap, HashMap};

use fsc_core::{CompileOptions, Compiled, DegradationReport, Target};
use fsc_ir::walk::collect_ops_named;
use fsc_ir::{IrError, Module, PassManager, Result};
use fsc_passes::pipeline::HardenedPipeline;
use fsc_passes::pipelines;

use crate::trace::Tracer;

/// Counts taken at the stage boundaries. They do not depend on timing, so
/// two compiles of one program must agree on every field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageCounts {
    pub tokens: u64,
    pub fir_ops: u64,
    pub stencil_applies: u64,
    pub ops_after_discovery: u64,
    pub ops_after_extract: u64,
    pub ops_after_target: u64,
    pub regions: u64,
    /// Runs of each pass that reported a change.
    pub changed: BTreeMap<String, u64>,
    /// Passes run over the FIR module and over the stencil module.
    pub passes_run: (u64, u64),
}

fn target_pipeline(options: &CompileOptions) -> Result<PassManager> {
    match &options.target {
        Target::StencilCpu => pipelines::cpu_pipeline(),
        Target::StencilOpenMp { threads } => pipelines::openmp_pipeline(*threads),
        Target::StencilDistributed { grid } => {
            pipelines::dmp_pipeline_deep(grid, options.overlap_halos, options.halo_depth)
        }
        other => Err(IrError::new(format!(
            "the staged replay does not cover target {other:?}"
        ))),
    }
}

fn run_pipeline(
    pm: PassManager,
    module: &mut Module,
    span: &str,
    tr: &mut Tracer,
    op: u64,
    counts: &mut StageCounts,
) -> Result<u64> {
    let pipeline = HardenedPipeline::new(pm);
    let id = tr.open(span, op);
    let report = pipeline.run(module);
    let children: Vec<(String, u64)> = report
        .stats
        .iter()
        .map(|s| (format!("passes.{}", s.name), s.duration.as_nanos() as u64))
        .collect();
    tr.reported(op, &children);
    tr.close(id);
    if let Some(f) = report.failure {
        return Err(f.into_error());
    }
    for s in &report.stats {
        *counts.changed.entry(s.name.clone()).or_default() += u64::from(s.changed);
    }
    Ok(report.stats.len() as u64)
}

/// Compile `source` stage by stage. Any stage failure is an error: the
/// benchmark's programs all compile on the top rung.
pub fn staged_compile(
    source: &str,
    options: &CompileOptions,
    tr: &mut Tracer,
    op: u64,
) -> Result<(Compiled, StageCounts)> {
    let mut counts = StageCounts::default();
    let root = tr.open("compile", op);

    let tokens = tr.span("fortran.lex", op, |_| fsc_fortran::lex(source))?;
    counts.tokens = tokens.len() as u64;
    let ast = tr.span("fortran.parse", op, |_| fsc_fortran::parse_source(&tokens))?;
    let analysed = tr.span("fortran.sema", op, |_| fsc_fortran::analyze(ast))?;
    let pristine = tr.span("fortran.lower", op, |_| {
        fsc_fortran::lower_to_fir(&analysed)
    })?;
    counts.fir_ops = pristine.live_op_count() as u64;
    let entry = pristine
        .top_level_ops_named("func.func")
        .into_iter()
        .map(fsc_dialects::func::FuncOp)
        .find(|f| {
            pristine
                .op(f.0)
                .attr(fsc_fortran::lower::PROGRAM_ATTR)
                .is_some()
        })
        .map(|f| f.name(&pristine))
        .ok_or_else(|| IrError::new("no program unit in source"))?;

    let mut fir = tr.span("ir.clone", op, |_| pristine.clone());
    counts.passes_run.0 = run_pipeline(
        pipelines::discovery_pipeline(),
        &mut fir,
        "passes.discovery",
        tr,
        op,
        &mut counts,
    )?;
    counts.stencil_applies = collect_ops_named(&fir, "stencil.apply").len() as u64;
    counts.ops_after_discovery = fir.live_op_count() as u64;

    let mut stencil = tr.span("passes.extract", op, |_| {
        fsc_passes::extract_stencils(&mut fir)
    })?;
    counts.ops_after_extract = (fir.live_op_count() + stencil.live_op_count()) as u64;

    counts.passes_run.1 = run_pipeline(
        target_pipeline(options)?,
        &mut stencil,
        "passes.target",
        tr,
        op,
        &mut counts,
    )?;
    counts.ops_after_target = (fir.live_op_count() + stencil.live_op_count()) as u64;

    let kernels = tr.span("exec.kernel_compile", op, |_| {
        let mut kernels = HashMap::new();
        for f in stencil.top_level_ops_named("func.func") {
            let name = fsc_dialects::func::FuncOp(f).name(&stencil);
            if name.starts_with("stencil_region_") {
                let kernel = fsc_exec::kernel::compile_kernel(&stencil, &name)?;
                kernels.insert(name, kernel);
            }
        }
        Ok::<_, IrError>(kernels)
    })?;
    counts.regions = kernels.len() as u64;
    tr.close(root);

    let compiled = Compiled {
        fir_module: fir,
        stencil_module: Some(stencil),
        kernels,
        target: options.target.clone(),
        entry,
        degradation: DegradationReport::default(),
        tuning: None,
        dist_options: options.dist_options(),
    };
    Ok((compiled, counts))
}

/// What a `Compiled` value lets an outside caller count, for the
/// determinism check on the untraced path: IR sizes, and per region its
/// nests with cells, flops, loads and stores per cell.
pub fn signature(compiled: &Compiled) -> String {
    let mut regions: Vec<String> = compiled
        .kernels
        .iter()
        .map(|(name, k)| {
            let nests: Vec<String> = k
                .nests
                .iter()
                .map(|n| {
                    format!(
                        "{}c{}f{}l{}s{}x",
                        n.domain_cells(),
                        n.program.flops_per_cell,
                        n.program.loads_per_cell,
                        n.program.stores_per_cell,
                        n.exchanges.len()
                    )
                })
                .collect();
            format!("{name}[{}]", nests.join(","))
        })
        .collect();
    regions.sort();
    format!(
        "fir{} stencil{} {}",
        compiled.fir_module.live_op_count(),
        compiled
            .stencil_module
            .as_ref()
            .map_or(0, Module::live_op_count),
        regions.join(" ")
    )
}

/// Flops and computed bytes per interior cell update of one time step:
/// summed over the nests that sweep exactly the `interior` cells (compute
/// and copy-back; initialisation sweeps the halo too and is left out).
/// Computed from the bytecode's counts, not measured: cache misses are not
/// in the bytes.
pub fn work_per_cell(compiled: &Compiled, interior: u64) -> (u64, u64) {
    compiled
        .kernels
        .values()
        .flat_map(|k| &k.nests)
        .filter(|n| n.domain_cells() == interior)
        .fold((0, 0), |(flops, bytes), n| {
            (
                flops + n.program.flops_per_cell,
                bytes + (n.program.loads_per_cell + n.program.stores_per_cell) * 8,
            )
        })
}
