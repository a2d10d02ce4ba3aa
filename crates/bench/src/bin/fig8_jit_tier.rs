//! Figure 8: the stitched jit tier across the whole execution ladder.
//!
//! Five workloads — the paper's Gauss–Seidel and PW advection plus three
//! stencils the jit's linear chains do not cover (`sqrt`,
//! variable-coefficient, min/max clamp) — measured on all four tiers at
//! 24³ and 48³:
//!
//! * **specialized** — the hand-specialized PW advection row (only PW's
//!   advection nest has one, so only PW has this row);
//! * **jit**         — template-stitched row programs (dispatch-free);
//! * **fused-vm**    — the superinstruction vector VM;
//! * **generic-vm**  — the instruction-per-op vector VM.
//!
//! Every point is the median of [`REPS`] runs, verified **bit-identical**
//! to the generic VM before it is reported. A forced tier that ran on no
//! nest (`specialized` on all but PW) is not reported: its row would time
//! the tier the ladder fell back to a second time.
//! A closing line reports the process-wide stitch counters (every compile
//! stitches its own programs; there is no jit cache — DESIGN.md §14).
//!
//! `--smoke` runs the CI gate instead: the three non-template kernels
//! must land on the jit tier by default and stay bit-identical across
//! all tiers; PW 24³ must run specialized by default, bit-identical to
//! the forced jit and generic VM; Gauss–Seidel must run every nest on the
//! jit, its update and its copy each stitched as one store-sunk `UNIT`
//! chain and its init as one affine chain, bit-identical to the generic
//! VM; PW's init must stitch to three chains, one per array.
//!
//! `FSC_FORCE_EXEC_PATH=<specialized|jit|fused-vm|generic-vm>` restricts
//! the sweep to one tier (the env var is parsed *here*, in the binary —
//! the library only ever sees `CompileOptions::force_exec_path`).

use std::time::Instant;

use fsc_bench::{mcells_per_sec, print_rows, Row};
use fsc_core::{CompileOptions, Compiled, Compiler, Target};
use fsc_exec::ExecPath;
use fsc_workloads::{gauss_seidel, jit_kernels, pw_advection};

const TIERS: [ExecPath; 4] = [
    ExecPath::Specialized,
    ExecPath::Jit,
    ExecPath::FusedVm,
    ExecPath::GenericVm,
];

/// One benchmark subject: name, source for a given size, result arrays,
/// and the interior cell-updates per run for throughput accounting.
struct Workload {
    name: &'static str,
    source: fn(usize) -> String,
    arrays: &'static [&'static str],
    cells: fn(usize) -> u64,
}

const ITERS: usize = 2;

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "GS",
            source: |n| gauss_seidel::fortran_source(n, ITERS),
            arrays: &["u"],
            cells: |n| (n as u64).pow(3) * ITERS as u64,
        },
        Workload {
            name: "PW",
            source: pw_advection::fortran_source,
            arrays: &["su", "sv", "sw"],
            cells: |n| (n as u64).pow(3) * 3,
        },
        Workload {
            name: "sqrt",
            source: |n| jit_kernels::sqrt_source(n, ITERS),
            arrays: &["u"],
            cells: |n| (n as u64).pow(3) * ITERS as u64,
        },
        Workload {
            name: "varcoef",
            source: |n| jit_kernels::varcoef_source(n, ITERS),
            arrays: &["u"],
            cells: |n| (n as u64).pow(3) * ITERS as u64,
        },
        Workload {
            name: "minmax",
            source: |n| jit_kernels::minmax_source(n, ITERS),
            arrays: &["u"],
            cells: |n| (n as u64).pow(3) * ITERS as u64,
        },
    ]
}

fn opts(force: Option<ExecPath>) -> CompileOptions {
    CompileOptions {
        target: Target::StencilCpu,
        force_exec_path: force,
        ..Default::default()
    }
}

/// Bit patterns of the workload's result arrays, concatenated.
fn result_bits(compiled: &mut Compiled, arrays: &[&str]) -> Vec<u64> {
    let exec = compiled.run().expect("bench run");
    arrays
        .iter()
        .flat_map(|a| {
            exec.array(a)
                .unwrap_or_else(|| panic!("array {a}"))
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Runs timed per point: the median of five moves with a tier's speed, not
/// with the luck of its fastest run.
const REPS: usize = 5;

/// Median wall time of [`REPS`] full runs.
fn median_seconds(compiled: &mut Compiled) -> f64 {
    let mut secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            compiled.run().expect("bench run");
            t.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[REPS / 2]
}

/// Does any nest in the compiled program carry `path` as its tier?
fn carries(compiled: &Compiled, path: ExecPath) -> bool {
    compiled
        .kernels
        .values()
        .flat_map(|k| &k.nests)
        .any(|nest| nest.path == path)
}

/// The distinct tiers the compiled program's nests actually carry.
fn tier_set(compiled: &Compiled) -> Vec<ExecPath> {
    let mut out: Vec<ExecPath> = compiled
        .kernels
        .values()
        .flat_map(|k| &k.nests)
        .map(|nest| nest.path)
        .collect();
    out.sort();
    out.dedup();
    out
}

/// The throughput sweep: every workload × tier at one size. Each tier's
/// result is bit-compared against the generic VM before it is reported.
fn sweep(n: usize, only: Option<ExecPath>, rows: &mut Vec<Row>) {
    for w in workloads() {
        let source = (w.source)(n);
        let mut generic =
            Compiler::compile(&source, &opts(Some(ExecPath::GenericVm))).expect("generic compile");
        let reference = result_bits(&mut generic, w.arrays);
        for tier in TIERS {
            if only.is_some_and(|p| p != tier) {
                continue;
            }
            let mut compiled =
                Compiler::compile(&source, &opts(Some(tier))).expect("forced compile");
            let got = result_bits(&mut compiled, w.arrays);
            assert_eq!(
                got, reference,
                "{} {n}^3 on {tier}: diverged bitwise from the generic VM",
                w.name
            );
            // A tier the ladder cannot provide (e.g. `specialized` for a
            // non-template nest) silently keeps the best available tier:
            // a row where it ran on no nest is left out, and one where it
            // ran on some is labelled with the tier set that ran.
            let tiers = tier_set(&compiled);
            if !tiers.contains(&tier) {
                continue;
            }
            let label = if tiers == [tier] {
                format!("{} {}", w.name, tier)
            } else {
                let ran = tiers
                    .iter()
                    .map(ExecPath::to_string)
                    .collect::<Vec<_>>()
                    .join("+");
                format!("{} {} [ran {ran}]", w.name, tier)
            };
            let secs = median_seconds(&mut compiled);
            rows.push(Row::new(label, n, mcells_per_sec((w.cells)(n), secs)));
        }
    }
}

/// CI gate: bit-identity everywhere, PW on the specialized tier,
/// Gauss–Seidel on the jit as one `UNIT` chain.
fn smoke() {
    let t0 = Instant::now();

    // 1) The three non-template kernels land on the jit tier by default
    //    and are bit-identical across every tier.
    for (name, source) in [
        ("sqrt", jit_kernels::sqrt_source(10, 2)),
        ("varcoef", jit_kernels::varcoef_source(10, 2)),
        ("minmax", jit_kernels::minmax_source(10, 2)),
    ] {
        let mut generic =
            Compiler::compile(&source, &opts(Some(ExecPath::GenericVm))).expect("generic compile");
        let reference = result_bits(&mut generic, &["u"]);
        let mut default = Compiler::compile(&source, &opts(None)).expect("default compile");
        assert!(
            carries(&default, ExecPath::Jit),
            "{name}: the tier ladder must pick jit for a non-template nest"
        );
        let exec = default.run().expect("default run");
        assert!(
            exec.report.attests(ExecPath::Jit),
            "{name}: report must attest the jit tier, got {:?}",
            exec.report.exec_paths
        );
        assert_eq!(
            result_bits(&mut default, &["u"]),
            reference,
            "{name}: jit diverged bitwise from the generic VM"
        );
        let mut fused =
            Compiler::compile(&source, &opts(Some(ExecPath::FusedVm))).expect("fused compile");
        assert_eq!(
            result_bits(&mut fused, &["u"]),
            reference,
            "{name}: fused VM diverged bitwise from the generic VM"
        );
    }

    // 2) PW 24³ lands on the specialized tier by default (the advection
    //    triple as one fused body) and is bit-identical to the forced jit
    //    and generic VM: a matcher regression would silently cost ~2x.
    let source = pw_advection::fortran_source(24);
    let pw = ["su", "sv", "sw"];
    let mut default = Compiler::compile(&source, &opts(None)).expect("PW compile");
    let exec = default.run().expect("PW run");
    assert!(
        exec.report.attests(ExecPath::Specialized),
        "PW: report must attest the specialized tier, got {:?}",
        exec.report.exec_paths
    );
    let reference = result_bits(&mut default, &pw);
    for tier in [ExecPath::Jit, ExecPath::GenericVm] {
        let mut forced = Compiler::compile(&source, &opts(Some(tier))).expect("PW compile");
        assert!(carries(&forced, tier), "PW: no nest on {tier}");
        assert_eq!(
            result_bits(&mut forced, &pw),
            reference,
            "PW 24^3: {tier} diverged bitwise from the specialized tier"
        );
    }

    // 3) GS stitches every nest by default to one fragment: its update
    //    `(six loads) / 6` as one `UNIT` chain — seed, five unit taps,
    //    divide, store —, its copy as one of no taps and its affine init
    //    as one chain over the `i` ramp and two per-row scalars; PW's init
    //    stitches to one such chain per array. GS is bit-identical to the
    //    generic VM: a chain-detection regression would leave the sum on
    //    1:1 fragments or multiplying by 1.0, and an init on seven.
    let source = gauss_seidel::fortran_source(24, 10);
    let mut gs = Compiler::compile(&source, &opts(None)).expect("GS compile");
    assert_eq!(tier_set(&gs), [ExecPath::Jit], "GS: every nest on the jit");
    let jit_of = |c: &Compiled, loads: u64| {
        c.kernels
            .values()
            .flat_map(|k| &k.nests)
            .find(|nest| nest.program.loads_per_cell == loads)
            .and_then(|nest| nest.jit.as_ref())
            .map(|jit| (jit.steps_len(), jit.chained_taps(), jit.unit_chains()))
    };
    for (loads, shape) in [(6, (1, 5, 1)), (1, (1, 0, 1)), (0, (1, 2, 0))] {
        assert_eq!(
            jit_of(&gs, loads),
            Some(shape),
            "GS: (fragments, chained taps, UNIT chains) of the nest with {loads} loads"
        );
    }
    let pw = Compiler::compile(&pw_advection::fortran_source(24), &opts(None)).expect("PW");
    assert_eq!(
        jit_of(&pw, 0).map(|(fragments, ..)| fragments),
        Some(3),
        "PW: its init, one chain per array"
    );
    let mut generic =
        Compiler::compile(&source, &opts(Some(ExecPath::GenericVm))).expect("GS compile");
    assert_eq!(
        result_bits(&mut gs, &["u"]),
        result_bits(&mut generic, &["u"]),
        "GS 24^3: jit diverged bitwise from the generic VM"
    );

    println!(
        "jit smoke PASS: 3 non-template kernels on the jit tier bit-identical \
         across all tiers, PW 24^3 specialized and bit-identical to jit and generic-vm, \
         GS on the jit as one fragment per nest and bit-identical to generic-vm, \
         PW's init as 3 chains, {:.1}s wall",
        t0.elapsed().as_secs_f64()
    );
}

fn main() {
    // The *binary* owns env parsing; the library only sees the option.
    let only = std::env::var("FSC_FORCE_EXEC_PATH").ok().map(|raw| {
        ExecPath::parse(&raw).unwrap_or_else(|| {
            panic!("FSC_FORCE_EXEC_PATH={raw:?}: expected specialized|jit|fused-vm|generic-vm")
        })
    });
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let mut rows = Vec::new();
    for n in [24usize, 48] {
        sweep(n, only, &mut rows);
    }
    print_rows(
        "Figure 8: execution tiers (MCells/s, higher is better)",
        "size",
        &rows,
    );
    let s = fsc_core::jit_cache_stats();
    println!(
        "\nstitching: {} programs built, {} skipped, mean {:.3} ms (p50 {:.3}, p99 {:.3})",
        s.builds, s.skips, s.codegen_mean_ms, s.codegen_p50_ms, s.codegen_p99_ms
    );
    println!("every point verified bit-identical to the generic VM before reporting");
}
