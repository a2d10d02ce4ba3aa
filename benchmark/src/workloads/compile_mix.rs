//! `compile_mix`: 32 tiny programs per round, each compiled from text, run
//! and verified. Grids are 4–9 cells a side, so the frontend, the passes
//! and the kernel compiler do nearly all the work and the kernels none.

use std::collections::BTreeMap;
use std::time::Instant;

use fsc_core::CompileOptions;

use super::{
    compile, corrupt, interpret, reference, until, verify, Config, Expected, Pass, Workload,
};
use crate::layers;
use crate::metrics::Outcome;
use crate::programs::{Kernel, LinearStencil};
use crate::rng::Rng;
use crate::stages::signature;
use crate::stats::{geomean, median};

const GENERATED: usize = 27;
const GRID: usize = 8;

pub struct Program {
    /// `gs`, `pw`, `sqrt`, `varcoef`, `minmax` or `generated`.
    pub class: &'static str,
    pub source: String,
    pub expected: Vec<Expected>,
    /// What the first compile counted; every later one must agree.
    signature: String,
}

pub struct CompileMix {
    programs: Vec<Program>,
    options: CompileOptions,
}

fn fixed(kernel: Kernel, iters: usize) -> Result<Program, String> {
    Ok(Program {
        class: kernel.label(),
        source: kernel.source(GRID, iters),
        expected: reference(kernel, GRID, iters)?,
        signature: String::new(),
    })
}

impl CompileMix {
    /// One operation: text in, verified result out. Returns its ms.
    fn operate(&self, p: &Program, out: &mut Outcome) -> f64 {
        out.attempted += 1;
        let t = Instant::now();
        let checked = compile(&p.source, &self.options).and_then(|compiled| {
            let execution = compiled.run().map_err(|e| format!("run failed: {e}"))?;
            verify(&execution, &p.expected)?;
            Ok(compiled)
        });
        let op_ms = t.elapsed().as_secs_f64() * 1e3;
        match checked {
            Err(e) => out.fail(format!("{} program: {e}", p.class)),
            Ok(compiled) => out.check(signature(&compiled) == p.signature, || {
                format!("{} program: two compiles counted differently", p.class)
            }),
        }
        op_ms
    }
}

impl Workload for CompileMix {
    fn setup(cfg: &Config, out: &mut Outcome) -> Result<Self, String> {
        let mut programs = vec![
            fixed(Kernel::Gs, 2)?,
            fixed(Kernel::Pw, 1)?,
            fixed(Kernel::Sqrt, 2)?,
            fixed(Kernel::Varcoef, 2)?,
            fixed(Kernel::Minmax, 2)?,
        ];
        let mut rng = Rng::new(cfg.seed);
        let generated = if cfg.quick { 3 } else { GENERATED };
        for id in 0..generated as u64 {
            let spec = LinearStencil::generate(&mut rng, id);
            let source = spec.source();
            let expected = vec![Expected::new("r", spec.expected(), 0.0)];
            // The hand evaluation of the spec and the FIR interpreter are
            // independent of each other; they must agree bit for bit.
            out.attempted += 1;
            if let Err(e) = verify(&interpret(&source)?, &expected) {
                out.fail(format!("oracle against generated program {id}: {e}"));
            }
            programs.push(Program {
                class: "generated",
                source,
                expected,
                signature: String::new(),
            });
        }
        if cfg.corrupt_expected {
            corrupt(&mut programs[0].expected);
        }

        // The cold round: the first compile of each program in this
        // set-up, recorded apart from the measured rounds.
        let options = CompileOptions::default();
        let mut cold = Vec::new();
        for p in &mut programs {
            let t = Instant::now();
            let compiled = compile(&p.source, &options)?;
            cold.push(t.elapsed().as_secs_f64() * 1e3);
            p.signature = signature(&compiled);
        }
        if out.get("core.compile_cold_ms").is_none() {
            out.set("core.compile_cold_ms", geomean(&cold));
        }
        Ok(Self { programs, options })
    }

    fn measure(&mut self, seconds: f64, out: &mut Outcome) -> Pass {
        let mut op_ms = Vec::new();
        let wall_s = until(seconds, 1, || {
            op_ms.extend(self.programs.iter().map(|p| self.operate(p, out)));
        });
        Pass {
            op_ms,
            wall_s,
            rss_mb: None,
        }
    }

    fn layers(&mut self, cfg: &Config, out: &mut Outcome) -> Result<(), String> {
        // The same operations with every stage called from here, the run
        // and the verification inside the operation's span.
        let programs: Vec<_> = self
            .programs
            .iter()
            .map(|p| (p.source.clone(), self.options.clone()))
            .collect();
        let mut runs = layers::RunSamples::default();
        let replay = layers::replay_compiles(
            &programs,
            (cfg.seconds * 0.6, 2),
            cfg.origin,
            out,
            |i, compiled, tr, op, out| {
                let p = &self.programs[i];
                let checked = tr
                    .span("run", op, |_| compiled.run())
                    .map_err(|e| format!("run failed: {e}"))
                    .and_then(|execution| {
                        runs.push(&execution.report);
                        tr.span("verify", op, |_| verify(&execution, &p.expected))
                    });
                if let Err(e) = checked {
                    out.fail(format!("{} program, traced: {e}", p.class));
                }
            },
        )?;
        let mut rows: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (p, ms) in self.programs.iter().zip(&replay.whole_ms) {
            rows.entry(p.class).or_default().push(*ms);
        }
        for (class, ms) in rows {
            out.set(&format!("compile.{class}.ms_p50"), median(&ms));
        }
        runs.report_per_round(replay.rounds as f64, programs.len() as f64, out);
        layers::machine(1 << 20, out);
        layers::finish_trace(
            cfg,
            replay.tracer,
            median(&replay.whole_ms),
            median(&replay.staged_ms),
            out,
        )
    }
}
