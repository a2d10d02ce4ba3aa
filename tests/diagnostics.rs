//! Golden-file diagnostics suite.
//!
//! Each `tests/diagnostics/NN_name.f90` is a deliberately malformed program;
//! the sibling `NN_name.expected` holds the exact rendered diagnostics the
//! frontend must produce. The error *codes* are the stable API (append-only
//! registry in `fsc_ir::diag::codes`); messages may be reworded, in which
//! case regenerate the goldens with:
//!
//! ```sh
//! UPDATE_DIAGNOSTIC_GOLDENS=1 cargo test --test diagnostics
//! ```
//!
//! A final test sabotages a mid-pipeline pass and pins the rollback /
//! degradation attestation the hardened driver reports for it.

use flang_stencil::core::{CompileOptions, Compiler, DegradationRung, Target};
use flang_stencil::ir::diag::render_all;
use std::fs;
use std::path::Path;

/// Harness directive: a `! compile:` comment in a golden program picks the
/// compile configuration (default: `StencilCpu`). One knob:
/// `target=distributed(G,..)` compiles for [`Target::StencilDistributed`]
/// with that process grid.
fn options_for(source: &str) -> CompileOptions {
    let mut opts = CompileOptions::for_target(Target::StencilCpu);
    for line in source.lines() {
        let Some(directive) = line.trim().strip_prefix("! compile:") else {
            continue;
        };
        for knob in directive.split_whitespace() {
            if let Some(grid) = knob
                .strip_prefix("target=distributed(")
                .and_then(|k| k.strip_suffix(")"))
            {
                let grid = grid
                    .split(',')
                    .map(|g| g.trim().parse().expect("grid axis size"))
                    .collect();
                opts.target = Target::StencilDistributed { grid };
            } else {
                panic!("unknown compile directive knob: {knob}");
            }
        }
    }
    opts
}

fn rendered_diagnostics(source: &str) -> String {
    match Compiler::compile(source, &options_for(source)) {
        // A mid-pipeline rejection does not fail the compile, it degrades
        // to a fallback rung: the golden is what the rejected rungs attest.
        Ok(c) if !c.degradation.attempts.is_empty() => {
            let rejected = c.degradation.attempts.iter();
            render_all(
                &rejected
                    .flat_map(|a| a.diagnostics.clone())
                    .collect::<Vec<_>>(),
            )
        }
        Ok(_) => panic!("malformed program unexpectedly compiled"),
        Err(e) => {
            if e.diagnostics.is_empty() {
                format!("error: {}", e.message)
            } else {
                render_all(&e.diagnostics)
            }
        }
    }
}

#[test]
fn golden_diagnostics_match() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/diagnostics");
    let update = std::env::var_os("UPDATE_DIAGNOSTIC_GOLDENS").is_some();
    let mut sources: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "f90"))
        .collect();
    sources.sort();
    assert!(
        sources.len() >= 10,
        "golden suite shrank: {} programs",
        sources.len()
    );
    let mut mismatches = Vec::new();
    for src_path in sources {
        let name = src_path.file_stem().unwrap().to_string_lossy().into_owned();
        let source = fs::read_to_string(&src_path).unwrap();
        let got = rendered_diagnostics(&source);
        // Every golden program must fail with *coded* diagnostics.
        assert!(
            got.contains("error[E"),
            "{name}: no coded diagnostic in:\n{got}"
        );
        let golden_path = src_path.with_extension("expected");
        if update {
            fs::write(&golden_path, format!("{got}\n")).unwrap();
            continue;
        }
        let want = fs::read_to_string(&golden_path)
            .unwrap_or_else(|_| panic!("{name}: missing golden file {golden_path:?}"));
        if got.trim_end() != want.trim_end() {
            mismatches.push(format!(
                "== {name} ==\n--- expected ---\n{}\n--- got ---\n{got}\n",
                want.trim_end()
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "diagnostic output drifted (UPDATE_DIAGNOSTIC_GOLDENS=1 to regenerate):\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn indivisible_decomposition_degrades_under_hardening_with_e0505() {
    // The program whose golden pins E0505 must degrade to the sequential
    // scf fallback (which ignores the process grid) and carry the coded
    // diagnostic in the attestation — never a wrong answer, never a silent
    // remainder.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/diagnostics");
    let src = fs::read_to_string(dir.join("11_indivisible_decomposition.f90")).unwrap();
    let opts = CompileOptions::for_target(Target::StencilDistributed { grid: vec![3] });
    let exec = Compiler::run(&src, &opts).unwrap();
    let report = &exec.report.degradation;
    assert!(report.degraded());
    assert_eq!(report.ran, DegradationRung::ScfFallback);
    let shown = report.describe();
    assert!(shown.contains("E0505"), "{shown}");
    assert!(shown.contains("stencil-to-dmp"), "{shown}");
}

#[test]
fn sabotaged_pass_rolls_back_and_degrades_with_stable_attestation() {
    // A pass that corrupts the module mid-pipeline must be caught by the
    // post-pass verifier, rolled back, and attested — and the compile must
    // still succeed on the sequential scf fallback rung.
    let src = flang_stencil::workloads::gauss_seidel::fortran_source(6, 1);
    let opts = CompileOptions {
        sabotage_pass: Some("cse".into()),
        ..CompileOptions::for_target(Target::StencilCpu)
    };
    let exec = Compiler::run(&src, &opts).unwrap();
    let report = &exec.report.degradation;
    assert!(report.degraded());
    assert_eq!(report.ran, DegradationRung::ScfFallback);
    let shown = report.describe();
    // The attestation names the rung, the stage, the pass, and carries the
    // stable post-verification code — the golden contract of the ladder.
    assert!(shown.contains("full stencil pipeline"), "{shown}");
    assert!(shown.contains("pass 'cse'"), "{shown}");
    assert!(shown.contains("E0503"), "{shown}");
    assert!(shown.contains("rolled back"), "{shown}");
    assert!(shown.contains("ran: sequential scf fallback"), "{shown}");
}
