//! Cross-crate integration tests: every execution target must produce the
//! same numbers as the clarity-first reference implementations, for both of
//! the paper's benchmarks.

use flang_stencil::core::{CompileOptions, Compiler, Target};
use flang_stencil::exec::specialize::SpecBody;
use flang_stencil::exec::ExecPath;
use flang_stencil::workloads::verify::assert_fields_match;
use flang_stencil::workloads::{gauss_seidel, pw_advection};

fn run_gs(n: usize, iters: usize, target: Target) -> flang_stencil::core::Execution {
    let source = gauss_seidel::fortran_source(n, iters);
    Compiler::run(
        &source,
        &CompileOptions {
            target,
            ..Default::default()
        },
    )
    .expect("run failed")
}

fn run_pw(n: usize, target: Target) -> flang_stencil::core::Execution {
    let source = pw_advection::fortran_source(n);
    Compiler::run(
        &source,
        &CompileOptions {
            target,
            ..Default::default()
        },
    )
    .expect("run failed")
}

#[test]
fn gauss_seidel_flang_only_matches_reference() {
    let exec = run_gs(6, 3, Target::FlangOnly);
    let expect = gauss_seidel::reference(6, 3);
    assert_fields_match(
        exec.array("u").unwrap(),
        &expect.data,
        1e-12,
        "flang-only gs",
    );
    assert_eq!(exec.report.kernel_cells, 0, "no kernels in the flang path");
}

#[test]
fn gauss_seidel_stencil_cpu_matches_reference() {
    let exec = run_gs(6, 3, Target::StencilCpu);
    let expect = gauss_seidel::reference(6, 3);
    assert_fields_match(exec.array("u").unwrap(), &expect.data, 1e-12, "stencil gs");
    assert!(
        exec.report.kernel_cells > 0,
        "stencil kernels must have run"
    );
}

#[test]
fn gauss_seidel_openmp_matches_reference() {
    let exec = run_gs(8, 3, Target::StencilOpenMp { threads: 4 });
    let expect = gauss_seidel::reference(8, 3);
    assert_fields_match(exec.array("u").unwrap(), &expect.data, 1e-12, "openmp gs");
}

#[test]
fn gauss_seidel_gpu_both_strategies_match_reference() {
    for explicit in [false, true] {
        let exec = run_gs(
            6,
            3,
            Target::StencilGpu {
                explicit_data: explicit,
                tile: [8, 8, 1],
            },
        );
        let expect = gauss_seidel::reference(6, 3);
        assert_fields_match(
            exec.array("u").unwrap(),
            &expect.data,
            1e-12,
            &format!("gpu gs explicit={explicit}"),
        );
        let gpu_s = exec.report.gpu_seconds.expect("gpu model must report time");
        assert!(gpu_s > 0.0);
    }
}

#[test]
fn gauss_seidel_distributed_matches_reference() {
    let exec = run_gs(8, 2, Target::StencilDistributed { grid: vec![2, 2] });
    let expect = gauss_seidel::reference(8, 2);
    assert_fields_match(exec.array("u").unwrap(), &expect.data, 1e-12, "dmp gs");
    assert!(exec.report.distributed_seconds.unwrap() > 0.0);
    assert_eq!(exec.report.ranks, Some(4));
}

#[test]
fn pw_advection_all_cpu_targets_match_reference() {
    let (u, v, w) = pw_advection::initial_fields(6);
    let (su, sv, sw) = pw_advection::reference(&u, &v, &w);
    for target in [
        Target::FlangOnly,
        Target::StencilCpu,
        Target::StencilOpenMp { threads: 3 },
    ] {
        let label = format!("{target:?}");
        let exec = run_pw(6, target);
        assert_fields_match(
            exec.array("su").unwrap(),
            &su.data,
            1e-12,
            &format!("{label} su"),
        );
        assert_fields_match(
            exec.array("sv").unwrap(),
            &sv.data,
            1e-12,
            &format!("{label} sv"),
        );
        assert_fields_match(
            exec.array("sw").unwrap(),
            &sw.data,
            1e-12,
            &format!("{label} sw"),
        );
    }
}

#[test]
fn pw_advection_gpu_matches_reference() {
    let (u, v, w) = pw_advection::initial_fields(6);
    let (su, _, _) = pw_advection::reference(&u, &v, &w);
    let exec = run_pw(
        6,
        Target::StencilGpu {
            explicit_data: true,
            tile: [8, 8, 1],
        },
    );
    assert_fields_match(exec.array("su").unwrap(), &su.data, 1e-12, "gpu pw su");
}

#[test]
fn pw_fusion_produces_single_region_with_three_outputs() {
    let source = pw_advection::fortran_source(6);
    let compiled = Compiler::compile(
        &source,
        &CompileOptions {
            target: Target::StencilCpu,
            ..Default::default()
        },
    )
    .unwrap();
    // One connected region (init + fused compute share the field views);
    // inside it, the three compute stencils fused into one nest with three
    // outputs.
    assert_eq!(compiled.kernels.len(), 1, "{:?}", compiled.kernels.keys());
    let kernel = compiled.kernels.values().next().unwrap();
    let compute = kernel
        .nests
        .iter()
        .find(|n| n.out_views.len() == 3 && n.program.flops_per_cell >= 55)
        .expect("fused compute nest with three outputs");
    assert_eq!(compute.program.stores_per_cell, 3);
    // The specialized tier runs it as one body writing all three views.
    let body = &compute.specialized;
    assert!(
        body.as_ref().is_some_and(|b| b.outputs().len() == 3),
        "{body:?}"
    );
    // The init nest fused its three stores too.
    let init = kernel
        .nests
        .iter()
        .find(|n| n.program.loads_per_cell == 0)
        .expect("init nest with no array reads");
    assert_eq!(init.out_views.len(), 3);
}

#[test]
fn flop_accounting_pins_paper_counts_and_specialized_path() {
    // Gauss–Seidel compute: 5 adds + 1 divide = 6 flops per cell (§4.1).
    let source = gauss_seidel::fortran_source(6, 2);
    let compiled = Compiler::compile(
        &source,
        &CompileOptions {
            target: Target::StencilCpu,
            ..Default::default()
        },
    )
    .unwrap();
    let gs_compute = compiled
        .kernels
        .values()
        .flat_map(|k| &k.nests)
        .find(|n| n.program.loads_per_cell == 6)
        .expect("GS compute nest");
    assert_eq!(
        gs_compute.program.flops_per_cell,
        gauss_seidel::FLOPS_PER_CELL
    );
    // GS's sum runs on the jit's `LinChain`; only PW has a template.
    assert_eq!(gs_compute.path, ExecPath::Jit, "GS compute must stitch");

    // PW fused advection: 21 ops per statement × 3 statements = 63 (§4.1).
    let source = pw_advection::fortran_source(6);
    let compiled = Compiler::compile(
        &source,
        &CompileOptions {
            target: Target::StencilCpu,
            ..Default::default()
        },
    )
    .unwrap();
    let pw_compute = compiled
        .kernels
        .values()
        .flat_map(|k| &k.nests)
        .find(|n| n.out_views.len() == 3 && n.program.loads_per_cell > 0)
        .expect("PW fused compute nest");
    assert_eq!(
        pw_compute.program.flops_per_cell,
        pw_advection::FLOPS_PER_CELL
    );
    assert_eq!(
        pw_compute.path,
        ExecPath::Specialized,
        "PW compute must specialize"
    );
}

#[test]
fn report_attests_specialized_path_for_both_benchmarks() {
    // GS runs every nest on the jit; PW's advection nest is specialized
    // and its init nest stitched.
    let gs = run_gs(6, 2, Target::StencilCpu);
    assert_eq!(gs.report.exec_paths, [ExecPath::Jit]);
    let pw = run_pw(6, Target::StencilCpu);
    assert_eq!(pw.report.exec_paths, [ExecPath::Specialized, ExecPath::Jit]);
    // Flang-only runs no kernels at all, so it attests nothing.
    let flang = run_gs(6, 2, Target::FlangOnly);
    assert!(flang.report.exec_paths.is_empty());
}

#[test]
fn the_flang_line_is_the_unfused_lift_on_the_generic_vm() {
    // `unopt`, the figures' "Flang only" line, runs the same kernel engine
    // as the stencil flow with every nest on the generic VM, and must
    // match the interpreter bit for bit on both benchmarks.
    for (source, arrays) in [
        (gauss_seidel::fortran_source(8, 3), &["u", "un"][..]),
        (pw_advection::fortran_source(8), &["su", "sv", "sw"][..]),
    ] {
        assert_matches_interpreter(&source, arrays);
        let unopt = CompileOptions::for_target(Target::UnoptimizedCpu);
        let exec = Compiler::run(&source, &unopt).unwrap();
        assert_eq!(exec.report.exec_paths, [ExecPath::GenericVm]);
        assert!(!exec.report.plans.is_empty());
    }
}

#[test]
fn empty_interior_is_skipped_on_all_cpu_paths() {
    // n = 0: the arrays are pure halo (extent 0:1 per dimension, n ≤ 2·halo)
    // and the compute nests' `do i = 1, n` have no iterations. Both kernel
    // runners must skip the zero-cell nests — without panicking and without
    // touching the (still initialised) halo.
    let source = gauss_seidel::fortran_source(0, 2);
    let flang = Compiler::run(
        &source,
        &CompileOptions {
            target: Target::FlangOnly,
            ..Default::default()
        },
    )
    .unwrap();
    let expect = flang.array("u").unwrap().to_vec();
    assert_eq!(expect.len(), 8, "2x2x2 halo-only field");
    for target in [Target::StencilCpu, Target::UnoptimizedCpu] {
        let label = format!("{target:?}");
        let exec = Compiler::run(
            &source,
            &CompileOptions {
                target,
                ..Default::default()
            },
        )
        .unwrap();
        assert_fields_match(exec.array("u").unwrap(), &expect, 0.0, &label);
    }
}

#[test]
fn degenerate_grids_run_clean_through_the_discovery_path() {
    // n = 0 (zero-extent interior) and n = 1 (one-cell interior) must go
    // through the *full* pipeline — discovery, lowering, and kernel exec,
    // on every target — without degrading to a fallback rung, without
    // underflowing bound arithmetic, and bit-identical to the Flang-only
    // interpretation of the same program.
    for n in [0usize, 1] {
        let source = gauss_seidel::fortran_source(n, 2);
        let flang = Compiler::run(&source, &CompileOptions::for_target(Target::FlangOnly)).unwrap();
        let expect = flang.array("u").unwrap().to_vec();
        for target in [
            Target::StencilCpu,
            Target::StencilOpenMp { threads: 2 },
            Target::StencilGpu {
                explicit_data: true,
                tile: [4, 4, 1],
            },
            // A single-rank grid: the distributed pipeline still runs in
            // full (swaps, exchanges with no neighbours, scatter/gather),
            // but multi-rank grids over a 0- or 1-cell interior are now an
            // E0506 oversubscription error by design.
            Target::StencilDistributed { grid: vec![1] },
        ] {
            let label = format!("n={n} {target:?}");
            let exec = Compiler::run(&source, &CompileOptions::for_target(target.clone())).unwrap();
            // The stencil path itself must have handled the degenerate
            // nest: any rejection would show up as a degradation attempt.
            assert!(
                exec.report.degradation.attempts.is_empty(),
                "{label}: {}",
                exec.report.degradation.describe()
            );
            assert_fields_match(exec.array("u").unwrap(), &expect, 0.0, &label);
        }
    }
}

#[test]
fn non_harmonic_field_evolves_identically_across_targets() {
    // A quadratic initial field is NOT a fixed point of the neighbour
    // average, so this catches any path that silently skips the compute or
    // copy nest (the harmonic analytic init would mask that).
    let source = "
program quad
  implicit none
  integer, parameter :: n = 8
  integer :: i, j, k, t
  real(kind=8) :: u(0:n+1, 0:n+1, 0:n+1), un(0:n+1, 0:n+1, 0:n+1)
  do k = 0, n+1
    do j = 0, n+1
      do i = 0, n+1
        u(i, j, k) = 0.5 * i * i + 0.25 * j + 0.125 * k
      end do
    end do
  end do
  do t = 1, 3
    do k = 1, n
      do j = 1, n
        do i = 1, n
          un(i, j, k) = (u(i-1, j, k) + u(i+1, j, k) + u(i, j-1, k) &
                       + u(i, j+1, k) + u(i, j, k-1) + u(i, j, k+1)) / 6.0
        end do
      end do
    end do
    do k = 1, n
      do j = 1, n
        do i = 1, n
          u(i, j, k) = un(i, j, k)
        end do
      end do
    end do
  end do
end program quad
";
    let flang = Compiler::run(
        source,
        &CompileOptions {
            target: Target::FlangOnly,
            ..Default::default()
        },
    )
    .unwrap();
    let reference = flang.array("u").unwrap().to_vec();
    // The field must actually have changed (non-harmonic!).
    let mut initial = vec![0.0f64; 10 * 10 * 10];
    for k in 0..10 {
        for j in 0..10 {
            for i in 0..10 {
                initial[i + 10 * j + 100 * k] =
                    0.5 * (i * i) as f64 + 0.25 * j as f64 + 0.125 * k as f64;
            }
        }
    }
    assert!(
        flang_stencil::workloads::verify::max_abs_diff(&reference, &initial) > 0.1,
        "diffusion must change a quadratic field"
    );
    for target in [
        Target::UnoptimizedCpu,
        Target::StencilCpu,
        Target::StencilOpenMp { threads: 4 },
        Target::StencilGpu {
            explicit_data: true,
            tile: [8, 8, 1],
        },
        Target::StencilDistributed { grid: vec![2, 2] },
    ] {
        let label = format!("{target:?}");
        let exec = Compiler::run(
            source,
            &CompileOptions {
                target,
                ..Default::default()
            },
        )
        .unwrap();
        assert_fields_match(exec.array("u").unwrap(), &reference, 1e-12, &label);
    }
}

#[test]
fn loop_carried_update_matches_the_interpreter_bit_for_bit() {
    // `u(i-1)` is the value the previous iteration just wrote: Fortran's
    // sequential semantics give 0, 2, 5.5, 10.75, … where a lifted
    // (snapshot) stencil would give 0, 2, 5, 10, …. Discovery must leave
    // the nest as loops so every target agrees with the interpreter.
    let source = "
program carried
  implicit none
  integer, parameter :: n = 8
  integer :: i
  real(kind=8) :: u(0:n+1)
  do i = 0, n+1
    u(i) = i * i
  end do
  do i = 1, n
    u(i) = 0.5 * (u(i-1) + u(i+1))
  end do
end program carried
";
    let reference = assert_matches_interpreter(source, &["u"]);
    assert_eq!(reference[0][..4], [0.0, 2.0, 5.5, 10.75]);
}

/// Run `source` through the FIR interpreter, then on `unopt`, `cpu` and
/// `omp:2`: each of `arrays` must match the interpreter's bit for bit.
/// Returns the interpreter's arrays.
fn assert_matches_interpreter(source: &str, arrays: &[&str]) -> Vec<Vec<f64>> {
    let reference = interpreted(source, arrays);
    assert_targets_match(source, arrays, &reference);
    reference
}

/// `arrays` after the FIR interpreter runs `source`.
fn interpreted(source: &str, arrays: &[&str]) -> Vec<Vec<f64>> {
    let flang = Compiler::run(source, &CompileOptions::for_target(Target::FlangOnly)).unwrap();
    arrays
        .iter()
        .map(|name| flang.array(name).unwrap().to_vec())
        .collect()
}

/// Run `source` on `unopt`, `cpu` and `omp:2`: each of `arrays` must
/// equal `reference` bit for bit.
fn assert_targets_match(source: &str, arrays: &[&str], reference: &[Vec<f64>]) {
    for target in [
        Target::UnoptimizedCpu,
        Target::StencilCpu,
        Target::StencilOpenMp { threads: 2 },
    ] {
        let exec = Compiler::run(source, &CompileOptions::for_target(target.clone())).unwrap();
        for (name, want) in arrays.iter().zip(reference) {
            let got = exec.array(name).unwrap();
            assert!(
                got.len() == want.len()
                    && got
                        .iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{target:?} {name}: {:?}… vs {:?}…",
                &got[..got.len().min(8)],
                &want[..want.len().min(8)]
            );
        }
    }
}

/// The PW workload at n = 9 with its three advection statements replaced
/// by `pick` of them (`su`, `sv`, `sw`), in that order.
fn pw_statements(pick: &[&str]) -> String {
    let source = pw_advection::fortran_source(9);
    let at = |name: &str| source.find(&format!("        {name}(i, j, k) =")).unwrap();
    let end = source[at("sw")..].find("      end do").unwrap() + at("sw");
    let statement = |name: &str| {
        let next = ["su", "sv", "sw"]
            .iter()
            .map(|n| at(n))
            .filter(|&i| i > at(name));
        &source[at(name)..next.min().unwrap_or(end)]
    };
    let body: String = pick.iter().map(|name| statement(name)).collect();
    format!("{}{body}{}", &source[..at("su")], &source[end..])
}

/// The specialized body of `source`'s advection nest on `cpu`, or `None`
/// when that nest runs on the jit.
fn advection_body(source: &str) -> Option<SpecBody> {
    let compiled =
        Compiler::compile(source, &CompileOptions::for_target(Target::StencilCpu)).unwrap();
    let nest = compiled
        .kernels
        .values()
        .flat_map(|k| &k.nests)
        .find(|n| n.program.loads_per_cell > 0)
        .expect("advection nest");
    if nest.specialized.is_none() {
        assert_eq!(nest.path, ExecPath::Jit);
    }
    nest.specialized.clone()
}

#[test]
fn the_pw_triple_in_any_order_is_one_body_bit_identical_to_the_interpreter() {
    for order in [["su", "sv", "sw"], ["sw", "su", "sv"]] {
        let source = pw_statements(&order);
        let body = advection_body(&source);
        assert!(
            body.as_ref().is_some_and(|b| b.outputs().len() == 3),
            "{order:?}: {body:?}"
        );
        assert_matches_interpreter(&source, &["su", "sv", "sw"]);
    }
}

#[test]
fn part_of_the_pw_triple_or_one_role_changed_runs_on_the_jit() {
    let two = pw_statements(&["su", "sv"]);
    // `sv`'s x-flux advected by `u(i-1, j, k)` instead of `u(i, j, k)`.
    let upwind = pw_advection::fortran_source(9).replacen(
        "tcx * (u(i, j, k) * (v(i-1, j, k)",
        "tcx * (u(i-1, j, k) * (v(i-1, j, k)",
        1,
    );
    assert_ne!(upwind, pw_advection::fortran_source(9));
    for (label, source, arrays) in [
        ("su, sv", &two, &["su", "sv"][..]),
        ("sv upwind", &upwind, &["su", "sv", "sw"][..]),
    ] {
        assert_eq!(advection_body(source), None, "{label}");
        assert_matches_interpreter(source, arrays);
    }
}

/// A program over `a, b` (`0:n+1` cubed, n = 16) seeded like Gauss–Seidel,
/// then one `do k / do j / do i` nest over 1..n holding `body`.
fn two_array_program(body: &str) -> String {
    format!(
        "program t
  implicit none
  integer, parameter :: n = 16
  integer :: i, j, k
  real(kind=8) :: a(0:n+1, 0:n+1, 0:n+1), b(0:n+1, 0:n+1, 0:n+1)
  do k = 0, n+1
    do j = 0, n+1
      do i = 0, n+1
        a(i, j, k) = 0.01 * i + 0.02 * j + 0.03 * k
        b(i, j, k) = 0.01 * i + 0.02 * j + 0.03 * k
      end do
    end do
  end do
  do k = 1, n
    do j = 1, n
      do i = 1, n
{body}
      end do
    end do
  end do
end program t
"
    )
}

/// Number of stencils discovery lifts out of `source`.
fn lifted(source: &str) -> usize {
    let mut fir = flang_stencil::fortran::compile_to_fir(source).unwrap();
    flang_stencil::passes::discover::discover_stencils(&mut fir).unwrap()
}

#[test]
fn multi_store_nests_discovery_would_reorder_stay_loops() {
    // Lifting each store into its own apply runs all of the first store
    // before any of the second. Here that reorders an output dependence
    // (a(k+1) at iteration k is overwritten by a(k-1) at k+2, on dim 2 and
    // on dim 0) and a flow dependence (b(k-1) is read after the second
    // store wrote it): discovery must leave these nests as loops.
    for body in [
        "a(i, j, k-1) = b(i, j, k)\n a(i, j, k+1) = 2.0 * b(i, j, k)",
        "a(i-1, j, k) = b(i, j, k)\n a(i+1, j, k) = 2.0 * b(i, j, k)",
        "a(i, j, k) = b(i, j, k-1) + 1.0\n b(i, j, k) = 0.5 * a(i, j, k)",
    ] {
        let source = two_array_program(body);
        assert_eq!(lifted(&source), 2, "only the seeding nest lifts: {body}");
        assert_matches_interpreter(&source, &["a", "b"]);
    }
    // Two stores at one offset keep their order under distribution.
    let same = two_array_program("a(i, j, k) = b(i, j, k)\n a(i, j, k) = 2.0 * b(i, j, k)");
    assert_eq!(lifted(&same), 4);
    assert_matches_interpreter(&same, &["a", "b"]);
}

#[test]
fn a_nest_whose_reads_would_see_a_lifted_store_stays_loops() {
    // A store discovery keeps as loops (its scalar is carried), and a
    // reduction's load, would each see every value a lifted store of the
    // same nest writes instead of the ones before it.
    let carried = two_array_program("s = s + 1.0\n a(i, j, k) = s\n b(i, j, k) = a(i, j, k) * 2.0")
        .replace("k\n  real", "k\n  real(kind=8) :: s\n  real")
        .replace("  do k = 1, n\n", "  s = 0.0\n  do k = 1, n\n");
    assert_eq!(lifted(&carried), 2);
    assert_matches_interpreter(&carried, &["a", "b"]);
    let reduction = two_array_program("s = s + a(i, j, k)\n a(i, j, k) = 1.0")
        .replace("k\n  real", "k\n  real(kind=8) :: s\n  real")
        .replace("  do k = 1, n\n", "  s = 0.0\n  do k = 1, n\n")
        .replace("end program", "b(1, 1, 1) = s\nend program");
    assert_eq!(lifted(&reduction), 2);
    assert_matches_interpreter(&reduction, &["a", "b"]);
}

#[test]
fn write_after_read_pair_matches_the_interpreter() {
    // Nest a reads u at i±1, nest b overwrites u: fused into one region,
    // the reads must still see the old u.
    let source = "
program war
  implicit none
  integer, parameter :: n = 12
  integer :: i
  real(kind=8) :: u(0:n+1), v(0:n+1)
  do i = 0, n+1
    u(i) = i * i
  end do
  do i = 1, n
    v(i) = u(i-1) + u(i+1)
  end do
  do i = 1, n
    u(i) = 3.0 * i
  end do
end program war
";
    assert_matches_interpreter(source, &["u", "v"]);
}

#[test]
fn pipelined_gauss_seidel_matches_the_interpreter() {
    // n = 64 runs the copy sweep one plane and one row behind the stencil
    // in several steps of 15 planes and blocks of 15 rows; a non-harmonic
    // field makes every lag visible.
    let source = gauss_seidel::fortran_source(64, 1).replace(
        "0.01 * i + 0.02 * j + 0.03 * k",
        "0.01 * i * j + 0.02 * k * k + 0.03 * i",
    );
    let compiled = Compiler::compile(&source, &CompileOptions::default()).unwrap();
    let schedules: Vec<String> = compiled.kernels.values().map(|k| k.schedule(1)).collect();
    assert!(
        schedules.contains(
            &"pipelined, lags [0, 1], period 2, 15 planes/step, 15 rows/block".to_string()
        ),
        "{schedules:?}"
    );
    // On `omp:2` every nest is work enough to split in two, so the
    // interpreter check below covers the slab splitter too.
    let omp = Target::StencilOpenMp { threads: 2 };
    let compiled = Compiler::compile(&source, &CompileOptions::for_target(omp)).unwrap();
    for k in compiled.kernels.values() {
        assert!(k.slabs(2).iter().all(|&s| s == 2), "{}", k.schedule(2));
    }
    assert_matches_interpreter(&source, &["u", "un"]);
}

#[test]
fn repeated_runs_of_one_artifact_match_the_interpreter_bit_for_bit() {
    // Each run's arena takes the storage the previous run on this thread
    // dropped: no run may see another's values.
    let cases = [
        (gauss_seidel::fortran_source(12, 3), &["u", "un"][..]),
        (
            pw_advection::fortran_source(12),
            &["u", "v", "w", "su", "sv", "sw"],
        ),
    ];
    for (source, arrays) in cases {
        let flang = Compiler::run(&source, &CompileOptions::for_target(Target::FlangOnly)).unwrap();
        let compiled = Compiler::compile(&source, &CompileOptions::default()).unwrap();
        for run in 0..3 {
            let exec = compiled.run().unwrap();
            for name in arrays {
                let (got, want) = (exec.array(name).unwrap(), flang.array(name).unwrap());
                assert!(
                    got.len() == want.len()
                        && got
                            .iter()
                            .zip(want)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "run {run} {name}"
                );
            }
        }
    }
}

#[test]
fn an_array_the_program_never_writes_reads_zero_after_a_previous_run() {
    // `fill` leaves 7.0 in two arrays of n doubles; `read`'s two arrays of
    // n doubles then take that storage, and `z` is never written.
    let fill = "
program fill
  implicit none
  integer, parameter :: n = 64
  integer :: i
  real(kind=8) :: a(n), b(n)
  do i = 1, n
    a(i) = 7.0
    b(i) = 7.0
  end do
end program fill
";
    let read = "
program read
  implicit none
  integer, parameter :: n = 64
  integer :: i
  real(kind=8) :: z(n), r(n)
  do i = 1, n
    r(i) = z(i) + 1.0
  end do
end program read
";
    let reader = Compiler::compile(read, &CompileOptions::default()).unwrap();
    let filled = Compiler::run(fill, &CompileOptions::default()).unwrap();
    assert!(filled.array("a").unwrap().iter().all(|&v| v == 7.0));
    drop(filled);
    let exec = reader.run().unwrap();
    assert!(exec.array("z").unwrap().iter().all(|&v| v == 0.0));
    assert!(exec.array("r").unwrap().iter().all(|&v| v == 1.0));
}

#[test]
fn multi_gpu_future_work_matches_reference_and_scales() {
    // Further-work avenue 5: distributed-memory + GPU. Correctness must be
    // exact; the modeled per-device time must shrink with more GPUs.
    let expect = gauss_seidel::reference(8, 2);
    let mut totals = Vec::new();
    for ranks in [vec![1i64], vec![2, 2]] {
        let exec = run_gs(
            8,
            2,
            Target::StencilMultiGpu {
                grid: ranks.clone(),
                tile: [8, 8, 1],
            },
        );
        assert_fields_match(
            exec.array("u").unwrap(),
            &expect.data,
            1e-12,
            &format!("multi-gpu {ranks:?}"),
        );
        let gpu = exec.report.gpu_seconds.unwrap();
        let comm = exec.report.distributed_seconds.unwrap_or(0.0);
        totals.push((gpu, comm));
    }
    let (gpu1, _) = totals[0];
    let (gpu4, comm4) = totals[1];
    assert!(gpu4 < gpu1, "per-device time must shrink: {gpu4} vs {gpu1}");
    assert!(comm4 > 0.0, "4 GPUs must pay halo communication");
}

#[test]
fn stencil_cpu_beats_flang_only_wall_clock() {
    // Small smoke check of the paper's headline direction (the benches do
    // this properly at realistic sizes).
    let n = 24;
    let iters = 3;
    let flang = run_gs(n, iters, Target::FlangOnly);
    let stencil = run_gs(n, iters, Target::StencilCpu);
    assert!(
        stencil.report.wall < flang.report.wall,
        "stencil {:?} should beat flang-only {:?}",
        stencil.report.wall,
        flang.report.wall
    );
}

#[test]
fn gpu_explicit_data_beats_host_register() {
    let n = 16;
    let iters = 4;
    let naive = run_gs(
        n,
        iters,
        Target::StencilGpu {
            explicit_data: false,
            tile: [16, 16, 1],
        },
    );
    let explicit = run_gs(
        n,
        iters,
        Target::StencilGpu {
            explicit_data: true,
            tile: [16, 16, 1],
        },
    );
    let t_naive = naive.report.gpu_seconds.unwrap();
    let t_explicit = explicit.report.gpu_seconds.unwrap();
    assert!(
        t_naive > 2.0 * t_explicit,
        "host_register {t_naive} must be much slower than explicit {t_explicit}"
    );
}

// ---------------------------------------------------------------------------
// Real distributed execution (rank bodies on the MPI micro-sim)
// ---------------------------------------------------------------------------

#[test]
fn distributed_bit_identical_to_serial_across_grids_and_tiers() {
    // Every decomposition shape (1-D, 2-D, 3-D, asymmetric) on every
    // execution tier must reproduce the single-rank serial result *bit for
    // bit*: rank bodies run the same compiled per-cell arithmetic over
    // sub-boxes, and halo traffic only moves values, never rounds them.
    let grids: [&[i64]; 4] = [&[2], &[2, 2], &[2, 2, 2], &[4, 2]];
    let gs_source = gauss_seidel::fortran_source(8, 2);
    let pw_source = pw_advection::fortran_source(8);
    for (label, source, arrays) in [
        ("gs", &gs_source, vec!["u"]),
        ("pw", &pw_source, vec!["su", "sv", "sw"]),
    ] {
        let serial =
            Compiler::run(source, &CompileOptions::for_target(Target::StencilCpu)).unwrap();
        for grid in grids {
            let opts = CompileOptions::for_target(Target::StencilDistributed {
                grid: grid.to_vec(),
            });
            let mut compiled = Compiler::compile(source, &opts).unwrap();
            for path in [
                ExecPath::Specialized,
                ExecPath::Jit,
                ExecPath::FusedVm,
                ExecPath::GenericVm,
            ] {
                for kernel in compiled.kernels.values_mut() {
                    kernel.force_exec_path(path);
                }
                let exec = compiled.run().expect("distributed run");
                let tag = format!("{label} grid={grid:?} {path:?}");
                assert!(
                    exec.report.degradation.attempts.is_empty(),
                    "{tag}: degraded: {}",
                    exec.report.degradation.describe()
                );
                let d = exec
                    .report
                    .distributed
                    .as_ref()
                    .expect("distributed report");
                assert!(d.dispatches > 0, "{tag}: rank bodies must actually run");
                assert!(d.bytes_exchanged > 0, "{tag}: halo traffic must flow");
                for a in &arrays {
                    let got = exec.array(a).unwrap();
                    let want = serial.array(a).unwrap();
                    assert_eq!(got.len(), want.len(), "{tag}: {a} length");
                    assert!(
                        got.iter()
                            .zip(want.iter())
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "{tag}: {a} not bit-identical to serial"
                    );
                }
            }
        }
    }
}

#[test]
fn distributed_report_attests_measured_time_and_model_cross_check() {
    let exec = run_gs(8, 3, Target::StencilDistributed { grid: vec![2, 2] });
    let d = exec.report.distributed.clone().expect("distributed report");
    assert_eq!(d.ranks, 4);
    assert_eq!(d.dispatches, 3, "one rank-body dispatch per sweep");
    assert_eq!(d.per_rank_wall.len(), 4);
    assert!(d.per_rank_wall.iter().all(|&w| w > 0.0));
    assert!(d.bytes_exchanged > 0 && d.messages > 0);
    assert!(
        d.measured_seconds > 0.0,
        "makespan is measured, not modeled"
    );
    assert!(
        d.modeled_seconds > 0.0,
        "the cost model rides along as a cross-check"
    );
    assert!(d.model_ratio() > 0.0);
    // `distributed_seconds` is now the *measured* makespan accumulation.
    let total = exec.report.distributed_seconds.unwrap();
    assert!(
        (total - d.measured_seconds).abs() < 1e-12,
        "distributed_seconds {total} must equal measured {0}",
        d.measured_seconds
    );
}

#[test]
fn overlapped_halos_attest_overlap_and_do_not_lose_to_blocking() {
    use flang_stencil::exec::HaloSchedule;
    // Same program, same grid, only the halo schedule differs. Overlap must
    // be attested with a non-zero overlap fraction; how the two schedules'
    // wall times compare is the benchmark's to say (`dist.blocking_run_s`
    // against `op_ms_p50` on `dist_gs`), not a test's on a shared machine.
    let source = gauss_seidel::fortran_source(20, 4);
    let measure = |overlap: bool| {
        let opts = CompileOptions {
            target: Target::StencilDistributed { grid: vec![2, 2] },
            overlap_halos: overlap,
            ..Default::default()
        };
        let exec = Compiler::run(&source, &opts).expect("distributed run");
        let d = exec.report.distributed.expect("distributed report");
        assert!(d.dispatches > 0, "rank bodies must actually run");
        d
    };
    let blocking = measure(false);
    let overlapped = measure(true);
    assert_eq!(blocking.schedule, Some(HaloSchedule::Blocking));
    assert_eq!(overlapped.schedule, Some(HaloSchedule::Overlap));
    assert_eq!(
        blocking.overlap_fraction(),
        0.0,
        "blocking computes nothing while waiting"
    );
    assert!(
        overlapped.overlap_fraction() > 0.0,
        "overlap fraction must be attested: {:?}",
        overlapped
    );
}

#[test]
fn distributed_composes_with_forced_plans() {
    use flang_stencil::exec::ExecPlan;
    // Per-rank execution honours whatever plan is installed on the nests
    // (PR 4's autotuner installs plans the same way), and every plan is
    // bit-identical by construction.
    let source = gauss_seidel::fortran_source(8, 2);
    let serial = Compiler::run(&source, &CompileOptions::for_target(Target::StencilCpu)).unwrap();
    let want = serial.array("u").unwrap().to_vec();
    let opts = CompileOptions::for_target(Target::StencilDistributed { grid: vec![2, 2] });
    let mut compiled = Compiler::compile(&source, &opts).unwrap();
    for plan in [
        ExecPlan {
            tiles: vec![4, 2, 2],
            ..ExecPlan::default()
        },
        ExecPlan {
            unroll: 4,
            ..ExecPlan::default()
        },
    ] {
        for kernel in compiled.kernels.values_mut() {
            kernel.force_plan(&plan);
        }
        let exec = compiled.run().expect("planned distributed run");
        let d = exec
            .report
            .distributed
            .as_ref()
            .expect("distributed report");
        assert!(d.dispatches > 0, "plan {plan:?}: rank bodies must run");
        let got = exec.array("u").unwrap();
        assert!(
            got.iter()
                .zip(want.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "plan {plan:?}: not bit-identical to serial"
        );
    }
}

#[test]
fn measured_execution_engages_at_a_thousand_ranks() {
    use flang_stencil::core::{DistMode, DistProvenance};
    // Regression guard for the scaling tentpole: at >= 1024 virtual ranks
    // the cooperative scheduler must still *execute* every rank body
    // (provenance `measured`), never silently fall back to the analytic
    // cost model — and the result stays bit-identical to single-rank
    // serial.
    let source = gauss_seidel::fortran_source(16, 2);
    let serial = Compiler::run(&source, &CompileOptions::for_target(Target::StencilCpu)).unwrap();
    let opts = CompileOptions::for_target(Target::StencilDistributed {
        grid: vec![16, 8, 8],
    });
    let compiled = Compiler::compile(&source, &opts).unwrap();
    let exec = compiled.run().expect("1024-rank run");
    let d = exec
        .report
        .distributed
        .as_ref()
        .expect("distributed report");
    assert_eq!(d.ranks, 1024);
    assert!(d.dispatches > 0, "rank bodies must actually run");
    assert_eq!(
        d.provenance,
        Some(DistProvenance::Measured),
        "1024 ranks must run measured, not modeled: {d:?}"
    );
    assert_eq!(
        d.modeled_dispatches, 0,
        "no dispatch may fall back to the model"
    );
    assert_eq!(d.scheduler, Some(DistMode::Coop));
    assert!(d.workers > 0, "worker pool size must be attested");
    let got = exec.array("u").unwrap();
    let want = serial.array("u").unwrap();
    assert!(
        got.iter()
            .zip(want.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "1024 ranks not bit-identical to serial"
    );
}

#[test]
fn deep_halos_skip_exchange_rounds_at_equal_results() {
    // Communication-avoiding deep halos: with `halo_depth = k` on a 1-D
    // decomposition the compiler exchanges a k-wide ghost region once and
    // runs the next k-1 sweeps communication-free, shrinking the computed
    // redundant region each cycle. The trade is bandwidth for latency —
    // never accuracy: results stay bit-identical to the k=1 schedule and
    // to single-rank serial.
    let iters = 6;
    let source = gauss_seidel::fortran_source(12, iters);
    let serial = Compiler::run(&source, &CompileOptions::for_target(Target::StencilCpu)).unwrap();
    let want = serial.array("u").unwrap().to_vec();
    let mut rounds = Vec::new();
    for depth in [1u32, 2, 3] {
        let opts = CompileOptions {
            halo_depth: depth,
            ..CompileOptions::for_target(Target::StencilDistributed { grid: vec![4] })
        };
        let exec = Compiler::run(&source, &opts).expect("deep-halo run");
        let d = exec
            .report
            .distributed
            .as_ref()
            .expect("distributed report");
        assert!(d.dispatches > 0, "depth {depth}: rank bodies must run");
        assert_eq!(d.halo_depth, depth, "depth must be attested");
        let got = exec.array("u").unwrap();
        assert!(
            got.iter()
                .zip(want.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "depth {depth}: not bit-identical to serial"
        );
        rounds.push(d.exchange_rounds);
    }
    // Depth k runs only ceil(iters / k) exchanging dispatches for the
    // sweep kernel; the exchange-round count must drop strictly with k.
    assert!(
        rounds[1] < rounds[0] && rounds[2] < rounds[1],
        "exchange rounds must shrink with depth: {rounds:?}"
    );
}

#[test]
fn hierarchical_aggregation_coalesces_cross_node_halos() {
    use flang_stencil::core::DistProvenance;
    // Node-level aggregation: same-destination-node halo messages leaving a
    // node within one flush window ride one physical envelope. On a 2-D
    // decomposition where a node holds a full grid row, every rank in the
    // row sends its axis-0 face to the same neighbour node — the logical /
    // physical ratio must reach 2x while the numbers stay untouched.
    let source = gauss_seidel::fortran_source(16, 2);
    let serial = Compiler::run(&source, &CompileOptions::for_target(Target::StencilCpu)).unwrap();
    let want = serial.array("u").unwrap().to_vec();
    let opts = CompileOptions {
        dist_node_size: 16,
        ..CompileOptions::for_target(Target::StencilDistributed { grid: vec![16, 16] })
    };
    let exec = Compiler::run(&source, &opts).expect("aggregated run");
    let d = exec
        .report
        .distributed
        .as_ref()
        .expect("distributed report");
    assert_eq!(d.provenance, Some(DistProvenance::Measured));
    assert!(
        d.physical_messages > 0 && d.logical_messages > d.physical_messages,
        "aggregation must coalesce envelopes: {d:?}"
    );
    assert!(
        d.aggregation_ratio() >= 2.0,
        "row-per-node layout must reach 2x aggregation, got {:.2}: {d:?}",
        d.aggregation_ratio()
    );
    let got = exec.array("u").unwrap();
    assert!(
        got.iter()
            .zip(want.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "aggregated run not bit-identical to serial"
    );
}

#[test]
fn steal_heavy_schedule_matches_serial_bit_for_bit() {
    use flang_stencil::core::{DistMode, DistProvenance};
    // 512 virtual ranks multiplexed over just two workers: every rank body
    // parks on its halo recvs, wake bursts pile onto one deque and the
    // other worker must steal to make progress. The schedule is thereby
    // maximally unlike thread-per-rank — and the numbers must not care.
    let source = gauss_seidel::fortran_source(8, 2);
    let serial = Compiler::run(&source, &CompileOptions::for_target(Target::StencilCpu)).unwrap();
    let opts = CompileOptions::for_target(Target::StencilDistributed {
        grid: vec![8, 8, 8],
    });
    let mut compiled = Compiler::compile(&source, &opts).unwrap();
    compiled.dist_options.workers = 2;
    let exec = compiled.run().expect("512-rank run");
    let d = exec
        .report
        .distributed
        .as_ref()
        .expect("distributed report");
    assert_eq!(d.ranks, 512);
    assert_eq!(d.provenance, Some(DistProvenance::Measured));
    assert_eq!(d.scheduler, Some(DistMode::Coop));
    assert_eq!(d.workers, 2);
    assert!(
        d.steals > 0,
        "2 workers x 512 parked ranks must steal: {d:?}"
    );
    assert!(d.parks > 0, "halo recvs must park tasks: {d:?}");
    let got = exec.array("u").unwrap();
    let want = serial.array("u").unwrap();
    assert!(
        got.iter()
            .zip(want.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "steal-heavy schedule not bit-identical to serial"
    );
}

/// GS with a non-harmonic start, so every lag and period shows.
fn gs_time_loop(n: usize, iters: usize) -> String {
    gauss_seidel::fortran_source(n, iters).replace(
        "0.01 * i + 0.02 * j + 0.03 * k",
        "0.01 * i * j + 0.02 * k * k + 0.03 * i",
    )
}

#[test]
fn batched_time_loops_match_the_interpreter() {
    // A time loop's dispatches of one region on the same arrays run as one
    // sweep: each must still see what the one before it wrote.
    let pw_arrays = ["u", "v", "w", "su", "sv", "sw"];
    for n in [1usize, 3, 24] {
        // PW's time loop recomputes su, sv and sw from u, v and w, which it
        // never writes: one step's interpreter run is every step count's
        // reference.
        let pw = |iters| pw_advection::fortran_source_repeated(n, iters);
        let pw_reference = interpreted(&pw(1), &pw_arrays);
        for iters in [1usize, 2, 8] {
            assert_matches_interpreter(&gs_time_loop(n, iters), &["u", "un"]);
            assert_targets_match(&pw(iters), &pw_arrays, &pw_reference);
        }
    }
    // The init region runs alone (the time loop's first dispatch flushes
    // it); the eight time steps run as one sweep.
    let exec = Compiler::run(&gs_time_loop(24, 8), &CompileOptions::default()).unwrap();
    assert_eq!(exec.report.sweeps, (9, 2));
    // A sweep is timed once, outside every dispatch's own timer.
    assert!(exec.report.kernel_wall <= exec.report.wall);
    let omp = CompileOptions::for_target(Target::StencilOpenMp { threads: 2 });
    let exec = Compiler::run(&gs_time_loop(24, 8), &omp).unwrap();
    assert_eq!(exec.report.sweeps, (9, 9), "omp:2 dispatches run alone");
}

/// GS over `u` and `un` with `body` after the two sweeps of each of four
/// time steps; `c` changes every step and scales the stencil.
fn gs_with_host_code(body: &str) -> String {
    format!(
        "program host
  implicit none
  integer, parameter :: n = 10
  integer :: i, j, k, t
  real(kind=8) :: c
  real(kind=8) :: u(0:n+1, 0:n+1, 0:n+1), un(0:n+1, 0:n+1, 0:n+1)
  do k = 0, n+1
    do j = 0, n+1
      do i = 0, n+1
        u(i, j, k) = 0.01 * i * j + 0.02 * k * k + 0.03 * i
      end do
    end do
  end do
  do t = 1, 4
    c = 0.5 * t
    do k = 1, n
      do j = 1, n
        do i = 1, n
          un(i, j, k) = (u(i-1, j, k) + u(i+1, j, k) + u(i, j, k-1) + u(i, j, k+1)) * c
        end do
      end do
    end do
    do k = 1, n
      do j = 1, n
        do i = 1, n
          u(i, j, k) = un(i, j, k) / 4.0
        end do
      end do
    end do
{body}
  end do
end program host
"
    )
}

#[test]
fn host_code_between_dispatches_sees_every_result() {
    // Only a scalar changes between dispatches: they join one sweep, each
    // with its own `c`.
    let scalars_only = gs_with_host_code("");
    assert_matches_interpreter(&scalars_only, &["u", "un"]);
    let exec = Compiler::run(&scalars_only, &CompileOptions::default()).unwrap();
    assert_eq!(exec.report.sweeps, (5, 2));
    // Host code reads `un` and writes `u` after every step: each step runs
    // before it, and no two steps share a sweep.
    let element = gs_with_host_code("    u(1, 1, 1) = un(2, 2, 2) + 1.0");
    assert_matches_interpreter(&element, &["u", "un"]);
    let exec = Compiler::run(&element, &CompileOptions::default()).unwrap();
    assert_eq!(exec.report.sweeps, (5, 5));
}

#[test]
fn regions_alternating_or_swapping_arrays_run_one_dispatch_a_sweep() {
    let relax = "
subroutine relax(src, dst)
  implicit none
  integer, parameter :: n = 10
  integer :: i, j, k
  real(kind=8) :: src(0:n+1, 0:n+1, 0:n+1), dst(0:n+1, 0:n+1, 0:n+1)
  do k = 1, n
    do j = 1, n
      do i = 1, n
        dst(i, j, k) = (src(i-1, j, k) + src(i+1, j, k) + src(i, j-1, k) &
                     + src(i, j+1, k) + src(i, j, k-1) + src(i, j, k+1)) / 6.0
      end do
    end do
  end do
end subroutine relax
";
    let program = |steps: &str| {
        format!(
            "{relax}
program pingpong
  implicit none
  integer, parameter :: n = 10
  integer :: i, j, k, t
  real(kind=8) :: u(0:n+1, 0:n+1, 0:n+1), un(0:n+1, 0:n+1, 0:n+1)
  do k = 0, n+1
    do j = 0, n+1
      do i = 0, n+1
        u(i, j, k) = 0.01 * i * j + 0.02 * k * k + 0.03 * i
      end do
    end do
  end do
  do t = 1, 3
{steps}
  end do
end program pingpong
"
        )
    };
    // One region, called on (u, un) and then on (un, u).
    let swapped = program("    call relax(u, un)\n    call relax(un, u)");
    // Two regions alternating on the same arrays.
    let alternating = program(
        "    call relax(u, un)
    do k = 1, n
      do j = 1, n
        do i = 1, n
          u(i, j, k) = 0.5 * un(i, j, k) + 0.25 * u(i, j, k)
        end do
      end do
    end do",
    );
    for source in [swapped, alternating] {
        assert_matches_interpreter(&source, &["u", "un"]);
        let exec = Compiler::run(&source, &CompileOptions::default()).unwrap();
        assert_eq!(exec.report.sweeps, (7, 7));
    }
}

#[test]
fn a_distributed_time_loop_keeps_its_halo_counts() {
    // GS n=96 x 10 on two ranks exchanges what it did before sweeps
    // existed, now that its ten time steps run as one queued rank run.
    let opts = CompileOptions {
        overlap_halos: true,
        dist_workers: 2,
        ..CompileOptions::for_target(Target::StencilDistributed { grid: vec![2] })
    };
    let exec = Compiler::run(&gauss_seidel::fortran_source(96, 10), &opts).unwrap();
    let d = exec
        .report
        .distributed
        .as_ref()
        .expect("distributed report");
    assert_eq!(
        (d.messages, d.bytes_exchanged, d.exchange_rounds),
        (20, 1_536_640, 10)
    );
    assert_eq!(
        exec.report.sweeps,
        (11, 2),
        "the init region's sweep, then the ten time steps' rank run"
    );
}
