//! Turning spans, reports and direct calls into the per-layer metrics.
//! Shared by the workloads; each calls the parts its path goes through.

use std::time::Instant;

use fsc_core::{CompileOptions, Compiled, RunReport};

use crate::metrics::Outcome;
use crate::probe;
use crate::stages::{staged_compile, StageCounts};
use crate::stats::{geomean, median};
use crate::trace::{Tracer, REPLAY_OPS};
use crate::workloads::{compile, until, Config};

/// Spans that are direct children of a `compile` span: together they are
/// the compile as the replay sees it.
const COMPILE_STAGES: &[&str] = &[
    "fortran.lex",
    "fortran.parse",
    "fortran.sema",
    "fortran.lower",
    "ir.clone",
    "passes.discovery",
    "passes.extract",
    "passes.target",
    "exec.kernel_compile",
];

/// Spans reported one to one as `<span>_ms`.
const STAGE_METRICS: &[&str] = &[
    "fortran.lex",
    "fortran.parse",
    "fortran.sema",
    "fortran.lower",
    "passes.discover-stencils",
    "passes.merge-stencils",
    "passes.extract",
    "passes.canonicalize",
    "passes.cse",
    "passes.stencil-to-scf",
    "passes.scf-parallel-loop-specialization",
    "passes.stencil-to-dmp",
    "passes.mpi-deep-halos",
    "passes.dmp-to-mpi",
    "passes.mpi-overlap-halos",
    "exec.kernel_compile",
];

const CHANGED_METRICS: &[&str] = &[
    "discover-stencils",
    "merge-stencils",
    "canonicalize",
    "cse",
    "stencil-to-scf",
];

/// Stage times and counts of the traced compiles. Operations are grouped
/// by `group` (a round of the mix, or one compile); each group's total is
/// divided by `programs`, and the median over groups is reported: ms per
/// program. `whole_ms` holds the untraced `Compiler::compile` time of the
/// same groups; `counts` one entry per distinct program of a group.
fn compile_stages(
    tr: &Tracer,
    group: impl Fn(u64) -> u64,
    programs: f64,
    whole_ms: &[f64],
    counts: &[StageCounts],
    out: &mut Outcome,
) {
    let by_name = tr.ms_per_group(group);
    let per_program = |name: &str| by_name.get(name).map_or(0.0, |v| median(v) / programs);
    for name in STAGE_METRICS {
        out.set(&format!("{name}_ms"), per_program(name));
    }
    let staged: f64 = COMPILE_STAGES.iter().map(|s| per_program(s)).sum();
    let whole = median(whole_ms) / programs;
    out.set("core.compile_unattributed_frac", (whole - staged) / whole);
    println!(
        "compile per program: {whole:.3} ms whole, {staged:.3} ms in the replayed stages; top stage {}",
        COMPILE_STAGES
            .iter()
            .chain(STAGE_METRICS)
            .filter(|s| !matches!(**s, "passes.discovery" | "passes.target"))
            .max_by(|a, b| per_program(a).total_cmp(&per_program(b)))
            .map_or(String::new(), |s| format!("{s} {:.3} ms", per_program(s)))
    );

    let sum = |f: fn(&StageCounts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    let lex_s = per_program("fortran.lex") * programs / 1e3;
    if lex_s > 0.0 {
        out.set("fortran.tokens_per_s", sum(|c| c.tokens) / lex_s);
    }
    out.set("fortran.fir_ops", sum(|c| c.fir_ops));
    out.set("passes.stencil_applies", sum(|c| c.stencil_applies));
    out.set("passes.ops_after_discovery", sum(|c| c.ops_after_discovery));
    out.set("passes.ops_after_extract", sum(|c| c.ops_after_extract));
    out.set("passes.ops_after_target", sum(|c| c.ops_after_target));
    for pass in CHANGED_METRICS {
        let n: u64 = counts.iter().filter_map(|c| c.changed.get(*pass)).sum();
        out.set(&format!("passes.{pass}.changed"), n as f64);
    }
}

/// What a replay leaves behind.
pub struct Replay {
    pub tracer: Tracer,
    /// The staged artifacts of the last round, one per program.
    pub artifacts: Vec<Compiled>,
    pub rounds: usize,
    /// Median `Compiler::compile` ms per program.
    pub whole_ms: Vec<f64>,
    /// Median ms of the staged replay of the same compile per program.
    pub staged_ms: Vec<f64>,
}

/// Compile every `(source, options)` program round after round, whole
/// and untraced through `Compiler::compile` and then through the staged
/// replay with spans, for `seconds` and at least `min_rounds` rounds. The
/// two alternate, so a slow spell of the machine falls on both alike.
/// `each` runs inside the traced operation's span with the staged
/// artifact. Reports the compile-side layers per program; stage counts
/// must repeat between rounds. `exec.jit_builds` and `exec.jit_hits` are
/// those of the second round, when every artifact of the first is cached:
/// counts that repeat, whatever the process compiled before.
pub fn replay_compiles(
    programs: &[(String, CompileOptions)],
    (seconds, min_rounds): (f64, usize),
    origin: Instant,
    out: &mut Outcome,
    mut each: impl FnMut(usize, &Compiled, &mut Tracer, u64, &mut Outcome),
) -> Result<Replay, String> {
    assert!(programs.len() <= 64 && min_rounds >= 2);
    let mut jit_round = Vec::new();
    let mut whole = vec![Vec::new(); programs.len()];
    let mut staged = vec![Vec::new(); programs.len()];
    let mut tracer = Tracer::new(origin);
    let mut first: Vec<StageCounts> = Vec::new();
    let mut artifacts = Vec::new();
    let mut rounds = 0;
    let mut failure = None;
    until(seconds, min_rounds, || {
        artifacts.clear();
        let jit_before = fsc_core::jit_cache_stats();
        for (i, (source, options)) in programs.iter().enumerate() {
            let t = Instant::now();
            let whole_artifact = compile(source, options);
            whole[i].push(t.elapsed().as_secs_f64() * 1e3);
            // Dropped after the clock is read: the replay's artifacts
            // outlive their spans too.
            drop(whole_artifact);

            out.attempted += 1;
            let op = REPLAY_OPS + (rounds * 64 + i) as u64;
            let t = Instant::now();
            let id = tracer.open("op", op);
            let result = staged_compile(source, options, &mut tracer, op);
            staged[i].push(t.elapsed().as_secs_f64() * 1e3);
            if let Ok((compiled, _)) = &result {
                each(i, compiled, &mut tracer, op, out);
            }
            tracer.close(id);
            match result {
                Err(e) => failure = Some(format!("staged compile failed: {e}")),
                Ok((compiled, counts)) => {
                    match first.get(i) {
                        None => first.push(counts),
                        Some(f) => out.check(*f == counts, || {
                            format!("program {i}: stage counts changed between compiles")
                        }),
                    }
                    artifacts.push(compiled);
                }
            }
        }
        let jit = fsc_core::jit_cache_stats();
        jit_round.push((jit.builds - jit_before.builds, jit.hits - jit_before.hits));
        rounds += 1;
    });
    if let Some(e) = failure {
        return Err(e);
    }
    let medians = |v: &[Vec<f64>]| v.iter().map(|s| median(s)).collect::<Vec<f64>>();
    let (whole_ms, staged_ms) = (medians(&whole), medians(&staged));
    out.set("core.compile_ms_geomean", geomean(&whole_ms));
    // Whole compiles of each round, to set the traced stages against.
    let round_ms: Vec<f64> = (0..rounds)
        .map(|r| whole.iter().map(|v| v[r]).sum())
        .collect();
    compile_stages(
        &tracer,
        |op| (op - REPLAY_OPS) / 64,
        programs.len() as f64,
        &round_ms,
        &first,
        out,
    );
    ir_costs(programs, out)?;
    out.set("exec.jit_builds", jit_round[1].0 as f64);
    out.set("exec.jit_hits", jit_round[1].1 as f64);
    out.set(
        "exec.jit_stitch_us",
        fsc_core::jit_cache_stats().codegen_mean_ms * 1e3,
    );
    Ok(Replay {
        tracer,
        artifacts,
        rounds,
        whole_ms,
        staged_ms,
    })
}

/// `ir.clone_ms` and `ir.verify_ms`: what the hardened driver's snapshot
/// and re-verification around every pass cost per program, measured by
/// making the same calls on the same modules here. Both are *inside* the
/// pipeline spans (clone in their self time, verify in each pass).
fn ir_costs(programs: &[(String, CompileOptions)], out: &mut Outcome) -> Result<(), String> {
    const REPS: usize = 5;
    let time_ms = |f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&samples)
    };
    let (mut clone_ms, mut verify_ms) = (0.0, 0.0);
    let mut scratch = Tracer::new(Instant::now());
    for (source, options) in programs {
        let (compiled, counts) = staged_compile(source, options, &mut scratch, 0)
            .map_err(|e| format!("staged compile failed: {e}"))?;
        let fir = &compiled.fir_module;
        let stencil = compiled
            .stencil_module
            .as_ref()
            .ok_or("the replay always extracts a stencil module")?;
        let (fir_passes, stencil_passes) = (counts.passes_run.0 as f64, counts.passes_run.1 as f64);
        // One clone of the pristine module, then one per pass.
        clone_ms += time_ms(&mut || drop(std::hint::black_box(fir.clone()))) * (1.0 + fir_passes)
            + time_ms(&mut || drop(std::hint::black_box(stencil.clone()))) * stencil_passes;
        verify_ms += time_ms(&mut || drop(fsc_dialects::verify::verify(fir))) * fir_passes
            + time_ms(&mut || drop(fsc_dialects::verify::verify(stencil))) * stencil_passes;
    }
    out.set("ir.clone_ms", clone_ms / programs.len() as f64);
    out.set("ir.verify_ms", verify_ms / programs.len() as f64);
    Ok(())
}

/// The machine's own rates, in this process, on one thread. The triad runs
/// over three arrays of `triad_elems` f64 — the workload's own array size
/// — and the sizes are printed beside what the kernel reports as caches.
pub fn machine(triad_elems: usize, out: &mut Outcome) -> (f64, f64) {
    let triad = probe::triad_gbs(triad_elems, 3);
    let fma = probe::fma_gflops();
    println!(
        "machine: triad {triad:.2} GB/s over 3 arrays of {:.1} MB each (reported caches: {}); \
         multiply-add {fma:.2} GFlop/s on one thread; nproc {}",
        (triad_elems * 8) as f64 / 1e6,
        probe::reported_caches(),
        probe::nproc()
    );
    out.set("machine.triad_gbs", triad);
    out.set("machine.fma_gflops", fma);
    out.set("machine.timer_ns", probe::timer_ns());
    out.set("machine.nproc", probe::nproc() as f64);
    (triad, fma)
}

/// What the run reports of traced operations say about the exec layer.
#[derive(Default)]
pub struct RunSamples {
    pub wall_s: Vec<f64>,
    pub kernel_s: Vec<f64>,
    pub interp_ops: Vec<u64>,
}

impl RunSamples {
    pub fn push(&mut self, report: &RunReport) {
        self.wall_s.push(report.wall.as_secs_f64());
        self.kernel_s.push(report.kernel_wall.as_secs_f64());
        self.interp_ops.push(report.interp.ops);
    }

    /// Mix form: totals over `rounds` rounds of `programs` programs,
    /// reported per program.
    pub fn report_per_round(&self, rounds: f64, programs: f64, out: &mut Outcome) {
        let ops = rounds * programs;
        let wall: f64 = self.wall_s.iter().sum::<f64>() / ops;
        let kernel: f64 = self.kernel_s.iter().sum::<f64>() / ops;
        out.set("exec.kernel_wall_s", kernel);
        out.set("exec.nonkernel_s", wall - kernel);
        out.set("exec.kernel_share", kernel / wall);
        // Interpreter ops of one round: a count, the same every round.
        out.set(
            "exec.interp_ops",
            (self.interp_ops.iter().sum::<u64>() as f64 / rounds).round(),
        );
    }

    /// Single-program form: medians over the runs. Returns kernel seconds.
    pub fn report_medians(&self, out: &mut Outcome) -> f64 {
        let wall = median(&self.wall_s);
        let kernel = median(&self.kernel_s);
        out.set("exec.kernel_wall_s", kernel);
        out.set("exec.nonkernel_s", wall - kernel);
        out.set("exec.kernel_share", kernel / wall);
        out.set("exec.interp_ops", self.interp_ops[0] as f64);
        kernel
    }
}

/// Close the traced pass: overhead against the untraced pass of the same
/// process, span count, and the trace file.
pub fn finish_trace(
    cfg: &Config,
    tr: Tracer,
    untraced_p50_ms: f64,
    traced_p50_ms: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    out.set("trace.overhead_frac", traced_p50_ms / untraced_p50_ms - 1.0);
    out.set("trace.spans", tr.spans().len() as f64);
    println!(
        "trace: operation p50 {traced_p50_ms:.4} ms traced, {untraced_p50_ms:.4} ms untraced, {} spans",
        tr.spans().len()
    );
    let path = cfg.out_dir.join(format!("trace_{}.json", cfg.workload));
    std::fs::write(&path, tr.to_json(&cfg.workload).render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}
