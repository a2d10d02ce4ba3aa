//! The chain census: which fragment every nest stitches to, for the
//! benchmark kernels (GS, PW), the three jit kernels (`sqrt`, `varcoef`,
//! `minmax`) and the differential cases of `fuzz_diff --seed 1`.
//!
//! Each line names a nest, the tier it runs on and its fragments in
//! order: `const <taps, seed scaled, scale kind, unit>` for a chain run by
//! a monomorph of its form, `runtime <…>` for one run by the runtime-arity
//! chain loop, `1:1` for any other fragment (`JitProgram::chain_forms`).
//! The committed census is `chain_census.txt` beside this file: a change
//! in what any nest stitches to fails here and lands as a reviewed diff of
//! that file (the failure prints the census to commit).

use fsc_bench::fuzz::{gen_program, Rng};
use fsc_core::{CompileOptions, Compiler, Target};
use fsc_workloads::{gauss_seidel, jit_kernels, pw_advection};

/// Differential cases of `fuzz_diff --seed 1` censused: its first 30
/// cases, of which every third is a malformed one.
const FUZZ_CASES: usize = 30;

/// One line per nest of `source` compiled for the CPU, regions in name
/// order.
fn census_of(name: &str, source: &str, out: &mut Vec<String>) {
    let options = CompileOptions::for_target(Target::StencilCpu);
    let compiled = Compiler::compile(source, &options)
        .unwrap_or_else(|e| panic!("{name} does not compile: {e}"));
    let mut regions: Vec<_> = compiled.kernels.iter().collect();
    regions.sort_by(|a, b| a.0.cmp(b.0));
    for (region, kernel) in regions {
        for (i, nest) in kernel.nests.iter().enumerate() {
            let forms = nest.jit.as_ref().map(|jit| jit.chain_forms().join(", "));
            out.push(format!(
                "{name} {region} nest {i}: {} [{}]",
                nest.path,
                forms.unwrap_or_default()
            ));
        }
    }
}

fn census() -> String {
    let mut out = Vec::new();
    census_of("GS", &gauss_seidel::fortran_source(8, 2), &mut out);
    census_of("PW", &pw_advection::fortran_source(8), &mut out);
    census_of("sqrt", &jit_kernels::sqrt_source(8, 2), &mut out);
    census_of("varcoef", &jit_kernels::varcoef_source(8, 2), &mut out);
    census_of("minmax", &jit_kernels::minmax_source(8, 2), &mut out);
    // The same stream per case as `fuzz_diff`'s, differential cases only.
    let seed = 1u64;
    for case_no in (0..FUZZ_CASES).filter(|c| c % 3 != 2) {
        let mut rng = Rng::new(seed ^ (case_no as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let case = gen_program(&mut rng);
        census_of(&format!("fuzz {case_no}"), &case.source, &mut out);
    }
    out.join("\n") + "\n"
}

#[test]
fn every_nest_stitches_to_its_recorded_chain_forms() {
    let got = census();
    let want = include_str!("chain_census.txt");
    assert!(
        got == want,
        "the chain census changed; if the change is meant, commit this as \
         crates/bench/tests/chain_census.txt:\n{got}"
    );
}
