//! The six workloads and the driver every one of them runs under.

pub mod compile_mix;
pub mod run;
pub mod serve;

use std::time::Instant;

use fsc_core::{CompileOptions, Compiled, Compiler, Execution, Target};

use crate::metrics::Outcome;
use crate::probe;
use crate::programs::{gs_reference, pw_reference, Kernel};
use crate::stats::{max_abs_diff, median, quantile};

#[derive(Debug, Clone)]
pub struct Config {
    /// Which of [`crate::metrics::WORKLOADS`] to run.
    pub workload: String,
    /// Every generated input derives from this.
    pub seed: u64,
    /// Length of the measured pass.
    pub seconds: f64,
    /// Per-layer run: a short untraced pass, a traced pass, the probes.
    pub trace: bool,
    /// Self-test sizes: tiny grids, a handful of operations.
    pub quick: bool,
    /// Self-test only: spoil one expected value, which must then be
    /// counted as a failed operation.
    pub corrupt_expected: bool,
    /// Directory for sockets, plan caches and trace files.
    pub out_dir: std::path::PathBuf,
    /// Time origin of every span of this process.
    pub origin: Instant,
}

/// Latencies of one measured pass and the wall time it took.
pub struct Pass {
    pub op_ms: Vec<f64>,
    pub wall_s: f64,
    /// Peak resident set sampled at a fixed operation count, where memory
    /// grows with the operations done: read at the end of the pass it
    /// would rise with speed.
    pub rss_mb: Option<f64>,
}

impl Pass {
    pub fn p50(&self) -> f64 {
        median(&self.op_ms)
    }
}

pub trait Workload: Sized {
    /// Generate inputs and references, compile or start what the measured
    /// pass needs, and warm it up. Checks made here count as operations.
    fn setup(cfg: &Config, out: &mut Outcome) -> Result<Self, String>;

    /// The measured pass: whole operations until `seconds` have passed,
    /// every output verified outside the timed interval.
    fn measure(&mut self, seconds: f64, out: &mut Outcome) -> Pass;

    /// The per-layer run: untraced pass, traced pass, probes.
    fn layers(&mut self, cfg: &Config, out: &mut Outcome) -> Result<(), String>;

    /// Stop what `setup` started.
    fn teardown(self) {}
}

fn drive<W: Workload>(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t = Instant::now();
    let mut state = W::setup(cfg, &mut out)?;
    out.set("setup_s", t.elapsed().as_secs_f64());
    if cfg.trace {
        state.layers(cfg, &mut out)?;
    } else {
        let cpu_before = probe::cpu_seconds();
        let pass = state.measure(cfg.seconds, &mut out);
        let cpu_s = probe::cpu_seconds() - cpu_before;
        let ops = pass.op_ms.len() as f64;
        out.set("op_ms_p50", pass.p50());
        out.set("op_ms_p90", quantile(&pass.op_ms, 0.9));
        out.set("ops_per_s", ops / pass.wall_s);
        out.set("cpu_ms_per_op", cpu_s * 1e3 / ops);
        out.set(
            "peak_rss_mb",
            pass.rss_mb.unwrap_or_else(probe::peak_rss_mb),
        );
        println!("measured {ops} operations in {:.3} s", pass.wall_s);
    }
    state.teardown();
    Ok(out)
}

/// Run the workload `cfg` names, once, in this process.
pub fn run_workload(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "compile_mix" => drive::<compile_mix::CompileMix>(cfg),
        "gs_run" | "pw_run" | "dist_gs" => drive::<run::KernelRun>(cfg),
        "serve_hot" | "serve_unique" => drive::<serve::Serve>(cfg),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// One array a program must leave behind.
pub struct Expected {
    pub array: String,
    pub values: Vec<f64>,
    /// Largest absolute difference accepted: 1e-12 against a hand-written
    /// reference, 0 where the reference is exact.
    pub tolerance: f64,
}

impl Expected {
    pub fn new(array: &str, values: Vec<f64>, tolerance: f64) -> Self {
        Self {
            array: array.to_string(),
            values,
            tolerance,
        }
    }
}

/// What `kernel` must leave behind: GS and PW from the hand-written loops
/// (to 1e-12), the others from the FIR interpreter (bit for bit).
pub fn reference(kernel: Kernel, n: usize, iters: usize) -> Result<Vec<Expected>, String> {
    Ok(match kernel {
        Kernel::Gs => vec![Expected::new("u", gs_reference(n, iters), 1e-12)],
        Kernel::Pw => kernel
            .outputs()
            .iter()
            .zip(pw_reference(n))
            .map(|(array, values)| Expected::new(array, values, 1e-12))
            .collect(),
        _ => oracle_arrays(&kernel.source(n, iters), kernel.outputs())?,
    })
}

/// Compare an execution's arrays with what was expected.
pub fn verify(execution: &Execution, expected: &[Expected]) -> Result<(), String> {
    for e in expected {
        let got = execution
            .array(&e.array)
            .ok_or_else(|| format!("array '{}' is missing from the result", e.array))?;
        let diff = max_abs_diff(got, &e.values);
        // `max_abs_diff` turns a NaN into infinity, so this catches it.
        if diff > e.tolerance {
            return Err(format!(
                "array '{}' differs from its reference by {diff:e} (tolerance {:e})",
                e.array, e.tolerance
            ));
        }
    }
    Ok(())
}

/// The oracle: the program interpreted op by op from its FIR, no stencil
/// pipeline involved.
pub fn interpret(source: &str) -> Result<Execution, String> {
    Compiler::run(source, &CompileOptions::for_target(Target::FlangOnly))
        .map_err(|e| format!("the FIR interpreter rejected a benchmark program: {e}"))
}

pub fn oracle_arrays(source: &str, arrays: &[&str]) -> Result<Vec<Expected>, String> {
    let execution = interpret(source)?;
    arrays
        .iter()
        .map(|a| {
            let values = execution
                .array(a)
                .ok_or_else(|| format!("the oracle produced no array '{a}'"))?;
            Ok(Expected::new(a, values.to_vec(), 0.0))
        })
        .collect()
}

/// Spoil one value of the first expected array (self-test hook).
pub fn corrupt(expected: &mut [Expected]) {
    if let Some(v) = expected.first_mut().and_then(|e| e.values.last_mut()) {
        *v += 1.0;
    }
}

pub fn compile(source: &str, options: &CompileOptions) -> Result<Compiled, String> {
    Compiler::compile(source, options).map_err(|e| format!("compile failed: {e}"))
}

/// Run `f` as whole operations until `seconds` have passed, at least
/// `min_ops` times.
pub fn until(seconds: f64, min_ops: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut ops = 0;
    while ops < min_ops || start.elapsed().as_secs_f64() < seconds {
        f();
        ops += 1;
    }
    start.elapsed().as_secs_f64()
}
