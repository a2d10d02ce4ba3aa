//! The hardened compile by counts and bits, never a clock: how many module
//! copies a compile makes (rollback is by ownership, so one per rung
//! attempted), and that sabotaging *any* pass of the discovery and cpu
//! pipelines is contained, attested and degraded exactly as before — to a
//! run bit-identical to the FIR interpreter's.

use flang_stencil::core::{CompileOptions, Compiled, Compiler, DegradationRung, Execution, Target};
use flang_stencil::ir::module::module_clone_count;
use flang_stencil::passes::pipeline::HardenedPipeline;
use flang_stencil::passes::pipelines;
use flang_stencil::workloads::{gauss_seidel, pw_advection};

/// A 2-D five-point stencil with a copy-back, as a generator would emit it.
fn five_point_2d(n: usize) -> String {
    format!(
        "program five
  implicit none
  integer, parameter :: n = {n}
  integer :: i, j
  real(kind=8) :: a(0:n+1, 0:n+1), r(0:n+1, 0:n+1)
  do j = 0, n+1
    do i = 0, n+1
      a(i, j) = 0.25 * i - 0.125 * j
      r(i, j) = 0.0
    end do
  end do
  do j = 1, n
    do i = 1, n
      r(i, j) = 0.5 * a(i, j) + 0.125 * (a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1))
    end do
  end do
  do j = 1, n
    do i = 1, n
      a(i, j) = r(i, j)
    end do
  end do
end program five
"
    )
}

/// The programs, each with the arrays that hold its result.
fn programs() -> Vec<(&'static str, String, &'static [&'static str])> {
    vec![
        ("gs", gauss_seidel::fortran_source(6, 2), &["u"]),
        ("pw", pw_advection::fortran_source(6), &["su", "sv", "sw"]),
        ("2d", five_point_2d(8), &["a", "r"]),
    ]
}

/// Compile, and count the module copies this thread made meanwhile.
fn compile_counting(source: &str, options: &CompileOptions) -> (Compiled, u64) {
    let before = module_clone_count();
    let compiled = Compiler::compile(source, options).expect("compiles");
    (compiled, module_clone_count() - before)
}

fn bits(exec: &Execution, arrays: &[&str]) -> Vec<Vec<u64>> {
    arrays
        .iter()
        .map(|name| {
            let values = exec.array(name).unwrap_or_else(|| panic!("array {name}"));
            values.iter().map(|v| v.to_bits()).collect()
        })
        .collect()
}

#[test]
fn a_hardened_compile_copies_the_module_once_per_rung_attempted() {
    for (what, source, _) in programs() {
        let (flang, copies) =
            compile_counting(&source, &CompileOptions::for_target(Target::FlangOnly));
        assert_eq!(
            copies, 0,
            "{what}: Flang only runs the lowered module as is"
        );
        assert_eq!(flang.degradation.ran, DegradationRung::Stencil);

        for target in [
            Target::StencilCpu,
            Target::StencilOpenMp { threads: 2 },
            Target::StencilDistributed { grid: vec![2] },
        ] {
            let clean = CompileOptions::for_target(target.clone());
            let (compiled, copies) = compile_counting(&source, &clean);
            assert!(!compiled.degradation.degraded(), "{what} {target:?}");
            assert_eq!(copies, 1, "{what} {target:?}: one copy, the top rung's");

            // `cse` runs in every full pipeline and not in the scf fallback:
            // the top rung is rejected and the next one attempted.
            let sabotaged = CompileOptions {
                sabotage_pass: Some("cse".into()),
                ..clean.clone()
            };
            let (compiled, copies) = compile_counting(&source, &sabotaged);
            assert_eq!(compiled.degradation.ran, DegradationRung::ScfFallback);
            assert_eq!(compiled.degradation.attempts.len(), 1, "{what} {target:?}");
            assert_eq!(copies, 2, "{what} {target:?}: two rungs attempted");

            // Both stencil rungs rejected: the pristine module itself runs.
            let sabotaged = CompileOptions {
                sabotage_pass: Some("stencil-to-scf".into()),
                ..clean
            };
            let (compiled, copies) = compile_counting(&source, &sabotaged);
            assert_eq!(compiled.degradation.ran, DegradationRung::FirInterp);
            assert_eq!(
                copies, 2,
                "{what} {target:?}: the bottom rung copies nothing"
            );
        }
    }
}

/// Where the ladder lands when the named pass is sabotaged, and the stage
/// each rejected rung attests (every rejection names the pass and carries
/// `E0503`). `canonicalize` and `stencil-to-scf` also run in the scf
/// fallback, and both discovery passes run ahead of either rung's
/// pipeline, so sabotaging those rejects both stencil rungs.
fn expected(pass: &str) -> (DegradationRung, &'static str, usize) {
    match pass {
        "discover-stencils" | "merge-stencils" => (DegradationRung::FirInterp, "discovery", 2),
        "canonicalize" | "stencil-to-scf" => (DegradationRung::FirInterp, "target-pipeline", 2),
        "cse" | "scf-parallel-loop-specialization" => {
            (DegradationRung::ScfFallback, "target-pipeline", 1)
        }
        other => panic!("a pass joined the pipelines, pin its degradation here: {other}"),
    }
}

#[test]
fn sabotaging_any_pass_degrades_as_pinned_and_stays_bit_identical() {
    let mut passes: Vec<String> = Vec::new();
    for pm in [
        pipelines::discovery_pipeline(),
        pipelines::cpu_pipeline().expect("builds"),
    ] {
        for name in HardenedPipeline::new(pm).pass_names() {
            if !passes.iter().any(|p| p == name) {
                passes.push(name.to_string());
            }
        }
    }
    assert_eq!(passes.len(), 6, "{passes:?}");

    for (what, source, arrays) in programs() {
        let reference = Compiler::run(&source, &CompileOptions::for_target(Target::FlangOnly))
            .expect("the FIR interpreter runs it");
        for pass in &passes {
            let options = CompileOptions {
                sabotage_pass: Some(pass.clone()),
                ..CompileOptions::for_target(Target::StencilCpu)
            };
            let compiled = Compiler::compile(&source, &options).expect("degrades, never fails");
            let report = &compiled.degradation;
            let (ran, stage, rejected) = expected(pass);
            assert_eq!(report.ran, ran, "{what} {pass}: {}", report.describe());
            assert_eq!(report.attempts.len(), rejected, "{what} {pass}");
            let rungs = [DegradationRung::Stencil, DegradationRung::ScfFallback];
            for (attempt, rung) in report.attempts.iter().zip(rungs) {
                assert_eq!(attempt.rung, rung, "{what} {pass}");
                assert_eq!(attempt.stage, stage, "{what} {pass}");
                assert_eq!(attempt.failed_pass.as_deref(), Some(pass.as_str()));
                let codes: Vec<&str> = attempt.diagnostics.iter().map(|d| d.code).collect();
                assert_eq!(codes, ["E0503"], "{what} {pass}");
                assert!(attempt.diagnostics[0].render().contains("rolled back"));
            }
            let exec = compiled.run().expect("the degraded program runs");
            assert_eq!(
                bits(&exec, arrays),
                bits(&reference, arrays),
                "{what} {pass}"
            );
        }
    }
}
