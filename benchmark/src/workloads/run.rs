//! `gs_run`, `pw_run` and `dist_gs`: one program compiled once in set-up,
//! then run repeatedly. The compile is under 1% of a run, so these
//! workloads bypass the frontend and the passes and load the exec layer:
//! bandwidth-bound (GS), compute-bound (PW), and two ranks exchanging
//! halos (dist).

use std::cell::Cell;
use std::time::Instant;

use fsc_core::{CompileOptions, Compiled, DistMode, DistributedReport, RunReport, Target};
use fsc_exec::ExecPath;

use super::{compile, corrupt, reference, until, verify, Config, Expected, Pass, Workload};
use crate::layers::{self, RunSamples};
use crate::metrics::Outcome;
use crate::programs::Kernel;
use crate::stages::{signature, work_per_cell};
use crate::stats::median;
use crate::trace::RUN_OPS;

const RANKS: i64 = 2;

pub struct KernelRun {
    workload: &'static str,
    kernel: Kernel,
    n: usize,
    iters: usize,
    options: CompileOptions,
    source: String,
    expected: Vec<Expected>,
    compiled: Compiled,
    /// Messages, halo bytes and exchange rounds of the first distributed
    /// run; every later run must repeat them.
    halo_counts: Cell<Option<[u64; 3]>>,
}

fn dist_options(overlap: bool, depth: u32) -> CompileOptions {
    CompileOptions {
        overlap_halos: overlap,
        halo_depth: depth,
        dist_workers: RANKS as usize,
        ..CompileOptions::for_target(Target::StencilDistributed { grid: vec![RANKS] })
    }
}

/// One run, timed; verification is outside the timed interval. Returns
/// wall seconds and, when the run succeeded, its report.
fn timed_run(
    compiled: &Compiled,
    expected: &[Expected],
    what: &str,
    out: &mut Outcome,
) -> (f64, Option<RunReport>) {
    out.attempted += 1;
    let t = Instant::now();
    let result = compiled.run();
    let s = t.elapsed().as_secs_f64();
    match result {
        Err(e) => {
            out.fail(format!("{what}: run failed: {e}"));
            (s, None)
        }
        Ok(execution) => {
            if let Err(e) = verify(&execution, expected) {
                out.fail(format!("{what}: {e}"));
            }
            (s, Some(execution.report))
        }
    }
}

/// Median wall seconds of three verified runs.
fn median_run_s(compiled: &Compiled, expected: &[Expected], what: &str, out: &mut Outcome) -> f64 {
    median(&[0; 3].map(|_| timed_run(compiled, expected, what, out).0))
}

/// MCells/s of `kernel` at `n` x `iters` compiled with `options`.
fn rate(
    kernel: Kernel,
    (n, iters): (usize, usize),
    options: &CompileOptions,
    what: &str,
    out: &mut Outcome,
) -> Result<f64, String> {
    let compiled = compile(&kernel.source(n, iters), options)?;
    let expected = reference(kernel, n, iters)?;
    let seconds = median_run_s(&compiled, &expected, what, out);
    Ok(kernel.cell_updates(n, iters) as f64 / seconds / 1e6)
}

impl KernelRun {
    fn updates(&self) -> f64 {
        self.kernel.cell_updates(self.n, self.iters) as f64
    }

    /// One operation: a verified run in ms, plus the check that a
    /// distributed run's halo traffic repeats.
    fn operate(&self, compiled: &Compiled, out: &mut Outcome) -> (f64, Option<RunReport>) {
        let (s, report) = timed_run(compiled, &self.expected, self.workload, out);
        if let Some(d) = report.as_ref().and_then(|r| r.distributed.as_ref()) {
            let counts = [d.messages, d.bytes_exchanged, d.exchange_rounds];
            let first = self.halo_counts.get().unwrap_or(counts);
            self.halo_counts.set(Some(first));
            out.check(first == counts, || {
                format!("halo traffic changed between runs: {first:?} then {counts:?}")
            });
        }
        (s * 1e3, report)
    }

    /// MCells/s of the four exec tiers, of the unoptimised flow and of
    /// the FIR interpreter, on smaller grids of the same kernel (the
    /// interpreter is ~100x slower, so its grid is smaller still; the
    /// stencil flow is timed on that grid too for the paper's ratio).
    fn ladder(&self, quick: bool, out: &mut Outcome) -> Result<(), String> {
        let size = match (quick, self.kernel) {
            (true, _) => (6, 1),
            (false, Kernel::Pw) => (48, 2),
            (false, _) => (64, 4),
        };
        for path in [
            ExecPath::Specialized,
            ExecPath::Jit,
            ExecPath::FusedVm,
            ExecPath::GenericVm,
        ] {
            let options = CompileOptions {
                force_exec_path: Some(path),
                ..CompileOptions::default()
            };
            let r = rate(self.kernel, size, &options, &format!("tier {path}"), out)?;
            out.set(&format!("exec.tier.{path}_mcells_per_s"), r);
        }
        let unopt = CompileOptions::for_target(Target::UnoptimizedCpu);
        let r = rate(self.kernel, size, &unopt, "unoptimised flow", out)?;
        out.set("exec.unopt_mcells_per_s", r);

        let small = if quick { (4, 1) } else { (20, 1) };
        let flang = CompileOptions::for_target(Target::FlangOnly);
        let flang = rate(self.kernel, small, &flang, "interpreter", out)?;
        let stencil = rate(
            self.kernel,
            small,
            &CompileOptions::default(),
            "stencil flow, small grid",
            out,
        )?;
        out.set("exec.flang_mcells_per_s", flang);
        out.set("exec.stencil_over_flang", stencil / flang);
        println!(
            "ladder at n={}: stencil {stencil:.2} MCells/s over interpreter {flang:.3} MCells/s",
            small.0
        );
        Ok(())
    }

    /// Median seconds of three runs of this workload's problem compiled
    /// another way.
    fn variant(
        &self,
        options: CompileOptions,
        mode: DistMode,
        what: &str,
        out: &mut Outcome,
    ) -> Result<f64, String> {
        let mut compiled = compile(&self.source, &options)?;
        compiled.dist_options.mode = mode;
        Ok(median_run_s(&compiled, &self.expected, what, out))
    }

    /// The distributed run taken apart, and the same problem run the
    /// other ways it could have been.
    fn dist_layers(
        &self,
        reports: &[RunReport],
        run_s: f64,
        out: &mut Outcome,
    ) -> Result<(), String> {
        let d: Vec<_> = reports
            .iter()
            .filter_map(|r| r.distributed.as_ref())
            .collect();
        if d.is_empty() {
            return Err("distributed runs attested no distributed execution".into());
        }
        let med = |f: &dyn Fn(&DistributedReport) -> f64| {
            median(&d.iter().map(|r| f(r)).collect::<Vec<_>>())
        };
        let (pack, interior, wait, boundary) = (
            med(&|r| r.pack_seconds),
            med(&|r| r.interior_seconds),
            med(&|r| r.wait_seconds),
            med(&|r| r.boundary_seconds),
        );
        let rank_wall = med(&|r| r.per_rank_wall.iter().sum());
        let unattributed = rank_wall - (pack + interior + wait + boundary);
        out.set("dist.pack_s", pack);
        out.set("dist.interior_s", interior);
        out.set("dist.wait_s", wait);
        out.set("dist.boundary_s", boundary);
        out.set("dist.unattributed_s", unattributed);
        out.set("dist.unattributed_frac", unattributed / rank_wall);
        out.set("dist.overlap_frac", med(&|r| r.overlap_fraction()));
        out.set("dist.messages", d[0].messages as f64);
        out.set("dist.halo_bytes", d[0].bytes_exchanged as f64);
        out.set("dist.exchange_rounds", d[0].exchange_rounds as f64);
        out.set("dist.steals", med(&|r| r.steals as f64));
        out.set("dist.parks", med(&|r| r.parks as f64));
        println!(
            "dist: summed rank wall {rank_wall:.4} s = pack {pack:.4} + interior {interior:.4} + \
             wait {wait:.4} + boundary {boundary:.4} + unattributed {unattributed:.4}"
        );

        let serial = self.variant(
            CompileOptions::default(),
            DistMode::Coop,
            "single rank",
            out,
        )?;
        out.set("dist.serial_run_s", serial);
        out.set("dist.efficiency", serial / (RANKS as f64 * run_s));
        for (metric, options, mode, what) in [
            (
                "dist.threads_mode_run_s",
                dist_options(true, 1),
                DistMode::Threads,
                "thread per rank",
            ),
            (
                "dist.blocking_run_s",
                dist_options(false, 1),
                DistMode::Coop,
                "blocking halos",
            ),
            (
                "dist.depth2_run_s",
                dist_options(true, 2),
                DistMode::Coop,
                "halo depth 2",
            ),
        ] {
            let s = self.variant(options, mode, what, out)?;
            out.set(metric, s);
        }
        Ok(())
    }
}

impl Workload for KernelRun {
    fn setup(cfg: &Config, out: &mut Outcome) -> Result<Self, String> {
        let (workload, kernel, n, iters, options) = match (cfg.workload.as_str(), cfg.quick) {
            ("gs_run", false) => ("gs_run", Kernel::Gs, 192, 8, CompileOptions::default()),
            ("gs_run", true) => ("gs_run", Kernel::Gs, 8, 2, CompileOptions::default()),
            ("pw_run", false) => ("pw_run", Kernel::Pw, 128, 10, CompileOptions::default()),
            ("pw_run", true) => ("pw_run", Kernel::Pw, 6, 2, CompileOptions::default()),
            ("dist_gs", false) => ("dist_gs", Kernel::Gs, 96, 10, dist_options(true, 1)),
            ("dist_gs", true) => ("dist_gs", Kernel::Gs, 8, 2, dist_options(true, 1)),
            (other, _) => return Err(format!("'{other}' is not a run workload")),
        };
        let source = kernel.source(n, iters);
        let mut expected = reference(kernel, n, iters)?;
        if cfg.corrupt_expected {
            corrupt(&mut expected);
        }
        let compiled = compile(&source, &options)?;
        out.attempted += 1;
        out.check(
            signature(&compiled) == signature(&compile(&source, &options)?),
            || format!("{workload}: two compiles counted differently"),
        );
        let this = Self {
            workload,
            kernel,
            n,
            iters,
            options,
            source,
            expected,
            compiled,
            halo_counts: Cell::new(None),
        };
        for _ in 0..2 {
            this.operate(&this.compiled, out);
        }
        Ok(this)
    }

    fn measure(&mut self, seconds: f64, out: &mut Outcome) -> Pass {
        let mut op_ms = Vec::new();
        let wall_s = until(seconds, 3, || {
            op_ms.push(self.operate(&self.compiled, out).0)
        });
        Pass {
            op_ms,
            wall_s,
            rss_mb: None,
        }
    }

    fn layers(&mut self, cfg: &Config, out: &mut Outcome) -> Result<(), String> {
        let untraced = self.measure(cfg.seconds / 4.0, out);
        let run_s = untraced.p50() / 1e3;

        // Compile side: whole compiles untraced, then the staged replay.
        let program = [(self.source.clone(), self.options.clone())];
        let rounds = if cfg.quick { 2 } else { 5 };
        let layers::Replay {
            tracer: mut tr,
            artifacts,
            ..
        } = layers::replay_compiles(&program, (0.0, rounds), cfg.origin, out, |_, _, _, _, _| ())?;
        out.set(
            &format!("compile.{}.ms_p50", self.kernel.label()),
            out.get("core.compile_ms_geomean").unwrap_or(0.0),
        );
        let compiled = &artifacts[0];
        out.attempted += 1;
        out.check(signature(compiled) == signature(&self.compiled), || {
            format!(
                "{}: the staged replay built a different artifact",
                self.workload
            )
        });

        // Run side: the staged artifact, traced.
        let mut traced_ms = Vec::new();
        let mut reports = Vec::new();
        let mut op = RUN_OPS;
        until(cfg.seconds / 3.0, 3, || {
            let id = tr.open("op", op);
            let run = tr.open("run", op);
            let (ms, report) = self.operate(compiled, out);
            if let Some(r) = &report {
                let kernel_ns = r.kernel_wall.as_nanos() as u64;
                tr.reported(op, &[("exec.kernel".into(), kernel_ns)]);
            }
            tr.close(run);
            tr.close(id);
            traced_ms.push(ms);
            reports.extend(report);
            op += 1;
        });
        let mut runs = RunSamples::default();
        for r in &reports {
            runs.push(r);
        }
        if runs.wall_s.is_empty() {
            return Err(format!("{}: no traced run succeeded", self.workload));
        }
        let kernel_s = runs.report_medians(out);

        let interior = (self.n as u64).pow(3);
        let (flops, bytes) = work_per_cell(&self.compiled, interior);
        let array_elems = (self.n + 2).pow(3);
        println!(
            "{}: n={} iters={} arrays of {:.1} MB; {flops} flops and {bytes} bytes (computed) per cell update",
            self.workload,
            self.n,
            self.iters,
            (array_elems * 8) as f64 / 1e6
        );
        let (triad, fma) = layers::machine(array_elems, out);
        let gbs = self.updates() * bytes as f64 / kernel_s / 1e9;
        let gflops = self.updates() * flops as f64 / kernel_s / 1e9;
        out.set("exec.flops_per_cell", flops as f64);
        out.set("exec.bytes_per_cell", bytes as f64);
        out.set("exec.mcells_per_s", self.updates() / run_s / 1e6);
        out.set("exec.achieved_gbs", gbs);
        out.set("exec.triad_frac", gbs / triad);
        out.set("exec.gflops", gflops);
        out.set("exec.fma_frac", gflops / fma);

        if matches!(self.options.target, Target::StencilDistributed { .. }) {
            self.dist_layers(&reports, run_s, out)?;
        } else {
            self.ladder(cfg.quick, out)?;
        }
        layers::finish_trace(cfg, tr, untraced.p50(), median(&traced_ms), out)
    }
}
