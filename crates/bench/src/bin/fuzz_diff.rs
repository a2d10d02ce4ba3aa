//! Differential fuzzing harness over the whole compilation ladder.
//!
//! For each seeded case, a random valid stencil program runs through:
//!
//! * the Flang-only interpretation tier (the reference),
//! * every degradation-ladder rung (`force_rung`: full stencil pipeline,
//!   sequential scf fallback, direct FIR interpretation), and
//! * every kernel execution tier (`force_exec_path`: specialized native
//!   loops, the superinstruction VM, the generic VM),
//!
//! asserting **bit-identical** output arrays everywhere. Interleaved with
//! the valid cases, mutated/malformed Fortran and garbage textual IR are
//! fed to the frontend and IR parser, which must reject them with coded
//! diagnostics (or accept them) — never panic.
//!
//! Usage: `fuzz_diff [--cases N] [--seed S] [--verbose]`
//! Exits non-zero if any case diverges or panics; CI runs a bounded smoke
//! (`--cases 200 --seed 1`).

use fsc_bench::fuzz::{gen_garbage_ir, gen_program, mutate_source, Rng};
use fsc_core::{CompileOptions, Compiler, DegradationRung, Target};
use fsc_exec::ExecPath;
use std::panic::{catch_unwind, AssertUnwindSafe};

struct Summary {
    diff: usize,
    malformed: usize,
    garbage_ir: usize,
    rejected: usize,
    failures: Vec<String>,
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One differential case: reference vs every rung and exec tier.
fn run_diff_case(case_no: usize, rng: &mut Rng, summary: &mut Summary) {
    let case = gen_program(rng);
    let fail = |summary: &mut Summary, what: &str| {
        summary.failures.push(format!(
            "case {case_no} (n={}): {what}\n--- source ---\n{}",
            case.n, case.source
        ));
    };
    let reference =
        match Compiler::run(&case.source, &CompileOptions::for_target(Target::FlangOnly)) {
            Ok(exec) => match exec.array(&case.output) {
                Some(a) => a.to_vec(),
                None => return fail(summary, "reference run lost the output array"),
            },
            Err(e) => {
                return fail(
                    summary,
                    &format!("reference tier rejected the program: {e}"),
                )
            }
        };
    // Ladder rungs, each forced explicitly.
    for rung in [
        DegradationRung::Stencil,
        DegradationRung::ScfFallback,
        DegradationRung::FirInterp,
    ] {
        let opts = CompileOptions {
            force_rung: Some(rung),
            ..CompileOptions::for_target(Target::StencilCpu)
        };
        match Compiler::run(&case.source, &opts) {
            Ok(exec) => {
                if exec.report.degradation.ran != rung {
                    fail(
                        summary,
                        &format!(
                            "forced rung {rung:?} but ran {:?}",
                            exec.report.degradation.ran
                        ),
                    );
                    continue;
                }
                match exec.array(&case.output) {
                    Some(a) if bits(a) == bits(&reference) => {}
                    Some(_) => fail(summary, &format!("rung {rung:?} diverged from reference")),
                    None => fail(summary, &format!("rung {rung:?} lost the output array")),
                }
            }
            Err(e) => fail(summary, &format!("rung {rung:?} failed: {e}")),
        }
    }
    // Kernel exec tiers on the full stencil pipeline.
    let opts = CompileOptions::for_target(Target::StencilCpu);
    match Compiler::compile(&case.source, &opts) {
        Ok(mut compiled) => {
            for path in [
                ExecPath::Specialized,
                ExecPath::Jit,
                ExecPath::FusedVm,
                ExecPath::GenericVm,
            ] {
                for kernel in compiled.kernels.values_mut() {
                    kernel.force_exec_path(path);
                }
                match compiled.run() {
                    Ok(exec) => match exec.array(&case.output) {
                        Some(a) if bits(a) == bits(&reference) => {}
                        Some(_) => fail(summary, &format!("exec tier {path} diverged")),
                        None => fail(summary, &format!("exec tier {path} lost the output array")),
                    },
                    Err(e) => fail(summary, &format!("exec tier {path} failed: {e}")),
                }
            }
        }
        Err(e) => fail(summary, &format!("stencil compile failed: {e}")),
    }
    summary.diff += 1;
}

/// Malformed Fortran: Err-with-diagnostics or Ok, never a panic (the panic
/// is caught by the per-case `catch_unwind` and reported as a failure).
fn run_malformed_case(case_no: usize, rng: &mut Rng, summary: &mut Summary) {
    let case = gen_program(rng);
    let bad = mutate_source(rng, &case.source);
    match Compiler::compile(&bad, &CompileOptions::for_target(Target::StencilCpu)) {
        Ok(_) => {} // mutation happened to stay valid
        Err(e) => {
            summary.rejected += 1;
            if e.to_string().trim().is_empty() {
                summary.failures.push(format!(
                    "case {case_no}: empty rejection message for:\n{bad}"
                ));
            }
        }
    }
    summary.malformed += 1;
}

/// Garbage textual IR through the round-trip parser.
fn run_garbage_ir_case(_case_no: usize, rng: &mut Rng, summary: &mut Summary) {
    let text = gen_garbage_ir(rng);
    if fsc_ir::parse::parse_module(&text).is_err() {
        summary.rejected += 1;
    }
    summary.garbage_ir += 1;
}

fn main() {
    let mut cases = 200usize;
    let mut seed = 1u64;
    let mut verbose = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--cases" => cases = args.next().and_then(|v| v.parse().ok()).unwrap_or(cases),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--verbose" => verbose = true,
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    // Panics are *failures*, not crashes: silence the default hook so the
    // summary stays readable, and attribute each one to its case.
    std::panic::set_hook(Box::new(|_| {}));
    let mut summary = Summary {
        diff: 0,
        malformed: 0,
        garbage_ir: 0,
        rejected: 0,
        failures: Vec::new(),
    };
    for case_no in 0..cases {
        // Each case gets an independent, reproducible stream.
        let mut rng = Rng::new(seed ^ (case_no as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let kind = case_no % 3;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut s = Summary {
                diff: 0,
                malformed: 0,
                garbage_ir: 0,
                rejected: 0,
                failures: Vec::new(),
            };
            match kind {
                0 | 1 => run_diff_case(case_no, &mut rng, &mut s),
                _ => {
                    run_malformed_case(case_no, &mut rng, &mut s);
                    run_garbage_ir_case(case_no, &mut rng, &mut s);
                }
            }
            s
        }));
        match outcome {
            Ok(s) => {
                summary.diff += s.diff;
                summary.malformed += s.malformed;
                summary.garbage_ir += s.garbage_ir;
                summary.rejected += s.rejected;
                summary.failures.extend(s.failures);
            }
            Err(_) => summary
                .failures
                .push(format!("case {case_no}: PANIC escaped the pipeline")),
        }
        if verbose && (case_no + 1) % 50 == 0 {
            eprintln!("... {}/{cases}", case_no + 1);
        }
    }
    let _ = std::panic::take_hook();
    println!(
        "fuzz_diff: {cases} cases (seed {seed}): {} differential, {} malformed, {} garbage-ir, {} rejected cleanly, {} failures",
        summary.diff, summary.malformed, summary.garbage_ir, summary.rejected,
        summary.failures.len()
    );
    if !summary.failures.is_empty() {
        for f in &summary.failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
