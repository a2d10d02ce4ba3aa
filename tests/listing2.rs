//! Listings 1–2 of the paper: the Fortran five-point average and its
//! stencil-dialect IR. Discovery must turn the former into the latter, and
//! the textual IR must round-trip through the printer/parser.

use flang_stencil::dialects::stencil;
use flang_stencil::ir::types::DimBound;
use flang_stencil::ir::walk::collect_ops_named;
use flang_stencil::passes::discover::discover_stencils;

/// The paper's Listing 1 (sketch), sizes as in Listing 2's types.
const LISTING1: &str = "
program average
  implicit none
  integer, parameter :: n = 256
  integer :: i, j
  real(kind=8) :: data(0:n+1, 0:n+1), res(0:n+1, 0:n+1)
  do i = 1, n
    do j = 1, n
      res(j, i) = 0.25 * (data(j, i-1) + data(j, i+1) + data(j-1, i) + data(j+1, i))
    end do
  end do
end program average
";

#[test]
fn listing1_produces_listing2_structure() {
    let mut m = flang_stencil::fortran::compile_to_fir(LISTING1).unwrap();
    assert_eq!(discover_stencils(&mut m).unwrap(), 1);

    let applies = collect_ops_named(&m, stencil::APPLY);
    assert_eq!(applies.len(), 1);
    let apply = stencil::ApplyOp(applies[0]);

    // Listing 2 line 13: input temp covers the whole declared array, the
    // result temp covers the iteration domain.
    let input = apply.inputs(&m)[0];
    assert_eq!(
        m.value_type(input).stencil_bounds().unwrap(),
        &[DimBound::new(0, 257), DimBound::new(0, 257)],
        "input temp bounds (Fortran index space 0..n+1)"
    );
    assert_eq!(
        apply.output_bounds(&m),
        vec![DimBound::new(1, 256), DimBound::new(1, 256)],
        "apply domain = loop ranges"
    );

    // Listing 2 lines 4–7: the four neighbour accesses with their offsets.
    let body = apply.body(&m);
    let mut offsets: Vec<Vec<i64>> = m
        .block_ops(body)
        .into_iter()
        .filter_map(|op| stencil::access_offset(&m, op))
        .collect();
    offsets.sort();
    assert_eq!(
        offsets,
        vec![vec![-1, 0], vec![0, -1], vec![0, 1], vec![1, 0]]
    );

    // Lines 3 and 8–11: one constant (0.25), three addf, one mulf.
    let names: Vec<String> = m
        .block_ops(body)
        .into_iter()
        .map(|op| m.op(op).name.full().to_string())
        .collect();
    assert_eq!(names.iter().filter(|n| *n == "arith.addf").count(), 3);
    assert_eq!(names.iter().filter(|n| *n == "arith.mulf").count(), 1);
    assert_eq!(names.iter().filter(|n| *n == "arith.constant").count(), 1);
    // Line 12: the terminator.
    assert_eq!(names.last().map(String::as_str), Some("stencil.return"));
}

#[test]
fn stencil_ir_round_trips_through_text() {
    let mut m = flang_stencil::fortran::compile_to_fir(LISTING1).unwrap();
    discover_stencils(&mut m).unwrap();
    let st = flang_stencil::passes::extract::extract_stencils(&mut m).unwrap();

    let printed = flang_stencil::ir::print::print_module(&st);
    assert!(printed.contains("\"stencil.apply\""), "{printed}");
    assert!(
        printed.contains("!stencil.temp<[0,257]x[0,257]xf64>"),
        "{printed}"
    );
    assert!(printed.contains("#index<0, -1>"), "{printed}");

    let reparsed = flang_stencil::ir::parse::parse_module(&printed).unwrap();
    let reprinted = flang_stencil::ir::print::print_module(&reparsed);
    assert_eq!(printed, reprinted, "print→parse→print must be stable");
}

#[test]
fn reparsed_stencil_module_still_compiles_and_runs() {
    // The separate-module compilation of §3 in full: print the extracted
    // module to text (what would cross between Flang and mlir-opt), parse
    // it back, lower, kernel-compile and execute — results must match the
    // kernels compiled from the in-memory module.
    use flang_stencil::exec::kernel::{compile_kernel, run_kernel, KernelArg};
    use flang_stencil::exec::value::Memory;

    let mut m = flang_stencil::fortran::compile_to_fir(LISTING1).unwrap();
    discover_stencils(&mut m).unwrap();
    let st = flang_stencil::passes::extract::extract_stencils(&mut m).unwrap();

    let lower = |mut module: flang_stencil::ir::Module| {
        flang_stencil::passes::pipelines::cpu_pipeline()
            .unwrap()
            .run(&mut module)
            .unwrap();
        compile_kernel(&module, "stencil_region_0").unwrap()
    };
    let from_memory = lower(st.clone());
    let text = flang_stencil::ir::print::print_module(&st);
    let from_text = lower(flang_stencil::ir::parse::parse_module(&text).unwrap());

    let run = |k: &flang_stencil::exec::kernel::CompiledKernel| {
        let e = 258usize;
        let mut memory = Memory::new();
        let data = memory.alloc_buffer(e * e);
        let res = memory.alloc_buffer(e * e);
        for i in 0..e * e {
            memory.buffer_mut(data)[i] = (i % 101) as f64 * 0.01;
        }
        run_kernel(
            k,
            &mut memory,
            &[KernelArg::Buf(data), KernelArg::Buf(res)],
            1,
        )
        .unwrap();
        memory.buffer(res).to_vec()
    };
    assert_eq!(run(&from_memory), run(&from_text));
}

#[test]
fn fir_module_also_round_trips() {
    let m = flang_stencil::fortran::compile_to_fir(LISTING1).unwrap();
    let printed = flang_stencil::ir::print::print_module(&m);
    let reparsed = flang_stencil::ir::parse::parse_module(&printed).unwrap();
    let reprinted = flang_stencil::ir::print::print_module(&reparsed);
    assert_eq!(printed, reprinted);
}
