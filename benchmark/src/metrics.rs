//! The names, units and bounds `BENCHMARK.json` declares, and the record a
//! workload fills in. The self-test holds the two in agreement.

use std::collections::BTreeMap;

use fsc_ir::json::{Json, ObjBuilder};

use crate::stats::median;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; 0 for per-layer metrics, which have no bound.
    pub bound: f64,
    /// A count must repeat exactly between two runs of one commit.
    pub count: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        count: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        count: false,
    }
}

/// A count, or a count per request or per round of a fixed size: it does
/// not depend on timing, so two runs of one commit must agree on it.
const fn count(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        count: true,
    }
}

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "compile_mix",
        "32 tiny programs compiled, run and verified per round: frontend, passes and kernel compile do the work, kernels none; the PW row shows the super-linear discover-stencils",
    ),
    (
        "gs_run",
        "Gauss-Seidel n=192 compiled once, run repeatedly: bandwidth-bound kernel, compile under 1% - a faster pass must not move it",
    ),
    (
        "pw_run",
        "Piacsek-Williams n=128 x10: the same exec layer compute-bound at 63 flops/cell - op-count work shows here, byte-saving work on gs_run",
    ),
    (
        "dist_gs",
        "Gauss-Seidel n=96 on 2 ranks over 2 worker threads, overlapped halos: scatter, halo exchange and the rank scheduler dominate, the stencil tier does not",
    ),
    (
        "serve_hot",
        "in-process fsc-serve, 2 closed-loop clients, 7 repeating request shapes: socket, parse, queue, admission, cache hit and serialize are the work; compile is not",
    ),
    (
        "serve_unique",
        "same server and clients, every request a never-repeating program: every lookup misses, inserts and evicts - a hit-path gain that taxes misses shows here",
    ),
];

pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("op_ms_p50", "ms", "lower", 0.25),
    e2e("op_ms_p90", "ms", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("cpu_ms_per_op", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

pub const PER_LAYER: &[Metric] = &[
    // fsc-fortran
    layer("fortran.lex_ms", "ms", "lower"),
    layer("fortran.parse_ms", "ms", "lower"),
    layer("fortran.sema_ms", "ms", "lower"),
    layer("fortran.lower_ms", "ms", "lower"),
    layer("fortran.tokens_per_s", "1/s", "higher"),
    count("fortran.fir_ops", "count", "lower"),
    // fsc-ir / fsc-dialects
    layer("ir.clone_ms", "ms", "lower"),
    layer("ir.verify_ms", "ms", "lower"),
    // fsc-passes
    layer("passes.discover-stencils_ms", "ms", "lower"),
    layer("passes.merge-stencils_ms", "ms", "lower"),
    layer("passes.extract_ms", "ms", "lower"),
    layer("passes.canonicalize_ms", "ms", "lower"),
    layer("passes.cse_ms", "ms", "lower"),
    layer("passes.stencil-to-scf_ms", "ms", "lower"),
    layer("passes.scf-parallel-loop-specialization_ms", "ms", "lower"),
    layer("passes.stencil-to-dmp_ms", "ms", "lower"),
    layer("passes.mpi-deep-halos_ms", "ms", "lower"),
    layer("passes.dmp-to-mpi_ms", "ms", "lower"),
    layer("passes.mpi-overlap-halos_ms", "ms", "lower"),
    count("passes.discover-stencils.changed", "count", "higher"),
    count("passes.merge-stencils.changed", "count", "higher"),
    count("passes.canonicalize.changed", "count", "higher"),
    count("passes.cse.changed", "count", "higher"),
    count("passes.stencil-to-scf.changed", "count", "higher"),
    count("passes.stencil_applies", "count", "higher"),
    count("passes.ops_after_discovery", "count", "lower"),
    count("passes.ops_after_extract", "count", "lower"),
    count("passes.ops_after_target", "count", "lower"),
    // per-program compile rows
    layer("compile.gs.ms_p50", "ms", "lower"),
    layer("compile.pw.ms_p50", "ms", "lower"),
    layer("compile.sqrt.ms_p50", "ms", "lower"),
    layer("compile.varcoef.ms_p50", "ms", "lower"),
    layer("compile.minmax.ms_p50", "ms", "lower"),
    layer("compile.generated.ms_p50", "ms", "lower"),
    // fsc-exec compile side, fsc-core driver
    layer("exec.kernel_compile_ms", "ms", "lower"),
    layer("exec.jit_stitch_us", "us", "lower"),
    count("exec.jit_builds", "count", "lower"),
    count("exec.jit_hits", "count", "higher"),
    layer("core.compile_ms_geomean", "ms", "lower"),
    layer("core.compile_cold_ms", "ms", "lower"),
    layer("core.compile_unattributed_frac", "ratio", "lower"),
    // fsc-exec run side
    layer("exec.kernel_wall_s", "s", "lower"),
    layer("exec.kernel_share", "ratio", "higher"),
    layer("exec.nonkernel_s", "s", "lower"),
    count("exec.interp_ops", "count", "lower"),
    count("exec.flops_per_cell", "count", "lower"),
    count("exec.bytes_per_cell", "count", "lower"),
    layer("exec.mcells_per_s", "MCells/s", "higher"),
    layer("exec.achieved_gbs", "GB/s", "higher"),
    layer("exec.triad_frac", "ratio", "higher"),
    layer("exec.gflops", "GFlop/s", "higher"),
    layer("exec.fma_frac", "ratio", "higher"),
    layer("exec.tier.specialized_mcells_per_s", "MCells/s", "higher"),
    layer("exec.tier.jit_mcells_per_s", "MCells/s", "higher"),
    layer("exec.tier.fused-vm_mcells_per_s", "MCells/s", "higher"),
    layer("exec.tier.generic-vm_mcells_per_s", "MCells/s", "higher"),
    layer("exec.unopt_mcells_per_s", "MCells/s", "higher"),
    layer("exec.flang_mcells_per_s", "MCells/s", "higher"),
    layer("exec.stencil_over_flang", "ratio", "higher"),
    // machine denominators
    layer("machine.triad_gbs", "GB/s", "higher"),
    layer("machine.fma_gflops", "GFlop/s", "higher"),
    layer("machine.timer_ns", "ns", "lower"),
    layer("machine.nproc", "count", "higher"),
    // distributed execution (fsc-exec distexec over fsc-mpisim)
    layer("dist.pack_s", "s", "lower"),
    layer("dist.interior_s", "s", "lower"),
    layer("dist.wait_s", "s", "lower"),
    layer("dist.boundary_s", "s", "lower"),
    layer("dist.unattributed_s", "s", "lower"),
    layer("dist.unattributed_frac", "ratio", "lower"),
    layer("dist.overlap_frac", "ratio", "higher"),
    count("dist.messages", "count", "lower"),
    count("dist.halo_bytes", "count", "lower"),
    count("dist.exchange_rounds", "count", "lower"),
    layer("dist.steals", "count", "lower"),
    layer("dist.parks", "count", "lower"),
    layer("dist.serial_run_s", "s", "lower"),
    layer("dist.efficiency", "ratio", "higher"),
    layer("dist.threads_mode_run_s", "s", "lower"),
    layer("dist.blocking_run_s", "s", "lower"),
    layer("dist.depth2_run_s", "s", "lower"),
    // compile service and server
    layer("core.fingerprint_us", "us", "lower"),
    layer("core.artifact_hit_us", "us", "lower"),
    layer("core.artifact_miss_overhead_us", "us", "lower"),
    layer("core.estimate_us", "us", "lower"),
    layer("serve.ping_us", "us", "lower"),
    layer("serve.stats_us", "us", "lower"),
    layer("serve.wire_overhead_ms", "ms", "lower"),
    layer("serve.server_ms_p50", "ms", "lower"),
    layer("serve.queue_wait_ms_p99", "ms", "lower"),
    layer("serve.req_ms_p90", "ms", "lower"),
    layer("serve.req_ms_p99", "ms", "lower"),
    layer("serve.resp_bytes_mean", "B", "lower"),
    layer("serve.reuse_rate", "ratio", "higher"),
    count("serve.compiles_per_req", "ratio", "lower"),
    layer("serve.evictions_per_req", "ratio", "lower"),
    layer("serve.busy_retries", "count", "lower"),
    // the traced pass itself
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("trace.spans", "count", "lower"),
];

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a metric. The name must be declared, and set once.
    pub fn set(&mut self, name: &str, value: f64) {
        let declared = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not declared in metrics.rs"));
        let previous = self.values.insert(declared.name, value);
        assert!(previous.is_none(), "metric '{name}' set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Count one failed operation and say why on stderr.
    pub fn fail(&mut self, why: impl AsRef<str>) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("FAILED operation: {}", why.as_ref());
        }
    }

    /// Count `ok == false` as a failed operation.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// What a run with `--trace 0` (end to end) or `--trace 1` (per layer)
    /// reports. A layer that is not on the workload's path reads 0; an
    /// end-to-end metric left unset is a bug.
    pub fn report(&self, trace: bool) -> Report {
        let values = table(trace)
            .iter()
            .map(|m| {
                let v = match self.values.get(m.name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric '{}' was not measured", m.name),
                };
                (m.name.to_string(), v)
            })
            .collect();
        Report {
            attempted: self.attempted,
            failed: self.failed,
            values,
        }
    }
}

/// The metrics a run with `--trace 0` or `--trace 1` reports.
pub fn table(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One run's result as the contract's result object carries it.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
}

impl Report {
    /// The contract's result object, one line, with the metrics of `table`.
    pub fn line(&self, table: &[Metric]) -> String {
        let mut metrics = ObjBuilder::new();
        for m in table {
            metrics = metrics.set(
                m.name,
                ObjBuilder::new()
                    .num("value", self.values[m.name])
                    .str("unit", m.unit)
                    .build(),
            );
        }
        ObjBuilder::new()
            .bool("correct", self.failed == 0)
            .num("attempted", self.attempted as f64)
            .num("failed", self.failed as f64)
            .set("metrics", metrics.build())
            .build()
            .render()
    }

    /// Read a result object back; every metric of `table` must be there.
    pub fn parse(result: &Json, table: &[Metric]) -> Result<Self, String> {
        let whole = |key: &str| {
            result
                .get(key)
                .and_then(Json::as_f64)
                .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                .map(|v| v as u64)
                .ok_or(format!("the result has no whole number '{key}'"))
        };
        let values = table
            .iter()
            .map(|m| {
                result
                    .get("metrics")
                    .and_then(|all| all.get(m.name)?.get("value")?.as_f64())
                    .map(|v| (m.name.to_string(), v))
                    .ok_or(format!("the result has no metric '{}'", m.name))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            attempted: whole("attempted")?,
            failed: whole("failed")?,
            values,
        })
    }

    /// `name` as each of `parts` measured it.
    pub fn each(parts: &[Report], name: &str) -> Vec<f64> {
        parts.iter().map(|p| p.values[name]).collect()
    }

    /// Several measurements of one thing as one: every metric of `table`
    /// picked by `pick`; operations attempted and failed are summed, so a
    /// failure in any part shows.
    pub fn combine(parts: &[Report], table: &[Metric], pick: Pick) -> Self {
        let one = |m: &Metric| {
            let values = Self::each(parts, m.name);
            match (pick, m.better) {
                (Pick::Median, _) => median(&values),
                (Pick::Best, "lower") => values.into_iter().fold(f64::INFINITY, f64::min),
                (Pick::Best, _) => values.into_iter().fold(f64::NEG_INFINITY, f64::max),
            }
        };
        Self {
            attempted: parts.iter().map(|p| p.attempted).sum(),
            failed: parts.iter().map(|p| p.failed).sum(),
            values: table.iter().map(|m| (m.name.to_string(), one(m))).collect(),
        }
    }
}

/// How several measurements of one metric become one.
#[derive(Debug, Clone, Copy)]
pub enum Pick {
    /// Independent runs: the median.
    Median,
    /// The processes of one run: the best reading, lowest where lower is
    /// better and highest where higher is. This machine's other tenants
    /// slow a process for seconds at a time and never speed one up, so
    /// the best of several short passes is the closest the run came to
    /// the machine undisturbed (README, *Bounds and this machine's noise*).
    Best,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(attempted: u64, failed: u64, setup_s: f64) -> Report {
        let mut out = Outcome {
            attempted,
            failed,
            ..Outcome::default()
        };
        for m in END_TO_END {
            out.set(m.name, if m.name == "setup_s" { setup_s } else { 1.0 });
        }
        out.report(false)
    }

    #[test]
    fn combine_picks_each_metric_and_sums_failures() {
        let parts = [part(5, 0, 3.0), part(6, 1, 1.0), part(7, 0, 2.0)];
        let best = Report::combine(&parts, END_TO_END, Pick::Best);
        assert_eq!(best.values["setup_s"], 1.0);
        let whole = Report::combine(&parts, END_TO_END, Pick::Median);
        assert_eq!((whole.attempted, whole.failed), (18, 1));
        assert_eq!(whole.values["setup_s"], 2.0);
        let line = whole.line(END_TO_END);
        assert!(line.contains("\"correct\":false") && !line.contains('\n'));
        let back = Report::parse(&Json::parse(&line).unwrap(), END_TO_END).unwrap();
        assert_eq!(back, whole);
        assert!(Report::parse(&Json::parse(&line).unwrap(), PER_LAYER).is_err());
    }
}
