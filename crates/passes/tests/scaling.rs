//! Discovery, fusion and extraction of one generated 1-D stencil with 8, 64
//! and 512 terms. Only structure and numbers are asserted, never a clock:
//! rewriting that is quadratic in the body takes tens of seconds on the
//! 512-term nest in a debug build, so a regression shows up as the test
//! run's timeout and not as a ratio that flakes on a busy machine.

use std::collections::HashMap;

use fsc_dialects::stencil;
use fsc_dialects::verify::{assert_dialect_absent, verify};
use fsc_exec::interp::{Interpreter, NoDispatch, RegionDispatcher};
use fsc_exec::kernel::{compile_kernel, run_kernel, CompiledKernel, KernelArg};
use fsc_exec::value::{Memory, Ref, Value};
use fsc_ir::walk::collect_ops_named;
use fsc_ir::{IrError, Module, Pass};
use fsc_passes::{extract_stencils, pipelines, DiscoverStencils};

const CELLS: usize = 16;

/// The sum of terms `k` in `lo..hi`, each `c_k * a(i + k - terms/2)`,
/// parenthesised as a balanced tree: the frontend bounds expression depth
/// (`fsc_fortran::parser::MAX_EXPR_DEPTH`), and 512 terms in a left-leaning
/// chain are far past it; balanced, they nest ten deep.
fn sum(lo: usize, hi: usize, terms: usize) -> String {
    if hi - lo == 1 {
        let coefficient = 0.125 * (lo % 7 + 1) as f64;
        let offset = lo as i64 - (terms / 2) as i64;
        return format!("{coefficient} * a(i{offset:+})");
    }
    let mid = lo + (hi - lo) / 2;
    format!("({} + {})", sum(lo, mid, terms), sum(mid, hi, terms))
}

/// `r(i) = c0*a(i-terms/2) + c1*a(i-terms/2+1) + ...` over `CELLS` interior
/// cells. The initialisation sits under an `if`, which discovery leaves
/// alone, so the wide nest is the program's only stencil.
fn source(terms: usize) -> String {
    format!(
        "
program wide
  integer, parameter :: n = {CELLS}, h = {terms}
  integer :: i
  real(kind=8) :: a(0:n+h+1), r(0:n+h+1)
  do i = 0, n+h+1
    if (i >= 0) then
      a(i) = 0.25 * i + 1.0
    end if
  end do
  do i = {first}, {last}
    r(i) = {}
  end do
end program wide
",
        sum(0, terms, terms),
        first = terms / 2 + 1,
        last = terms / 2 + CELLS,
    )
}

fn result_bits<D: RegionDispatcher>(module: &Module, dispatcher: D) -> Vec<u64> {
    let mut interp = Interpreter::new(module, dispatcher);
    interp.run_func("wide", vec![]).unwrap();
    match interp.array_binding("r") {
        Some(Ref::Array { buf, .. }) => interp
            .memory
            .buffer(buf)
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        other => panic!("no binding for r: {other:?}"),
    }
}

/// Runs each extracted region on its compiled kernel.
struct Kernels(HashMap<String, CompiledKernel>);

impl RegionDispatcher for Kernels {
    fn call(&mut self, callee: &str, args: &[Value], memory: &mut Memory) -> fsc_ir::Result<()> {
        let kernel = self
            .0
            .get(callee)
            .ok_or_else(|| IrError::new(format!("no kernel '{callee}'")))?;
        let args: Vec<KernelArg> = args
            .iter()
            .map(|v| match v {
                Value::Ref(Ref::Array { buf, .. }) => KernelArg::Buf(*buf),
                other => panic!("unexpected region argument {other:?}"),
            })
            .collect();
        run_kernel(kernel, memory, &args, 1)
    }
}

#[test]
fn wide_stencils_lift_to_one_apply_and_compute_the_same_numbers() {
    for terms in [8, 64, 512] {
        let pristine = fsc_fortran::compile_to_fir(&source(terms)).unwrap();
        let mut fir = pristine.clone();
        DiscoverStencils::default().run(&mut fir).unwrap();
        verify(&fir).unwrap_or_else(|e| panic!("{terms} terms after discovery: {e}"));
        let applies = collect_ops_named(&fir, stencil::APPLY);
        assert_eq!(applies.len(), 1, "{terms} terms");
        let body = stencil::ApplyOp(applies[0]).body(&fir);
        let accesses = fir
            .block_ops(body)
            .into_iter()
            .filter(|&op| fir.op(op).name.full() == stencil::ACCESS)
            .count();
        assert_eq!(accesses, terms);

        let mut stencils = extract_stencils(&mut fir).unwrap();
        assert_dialect_absent(&fir, "stencil").unwrap();
        verify(&fir).unwrap_or_else(|e| panic!("{terms} terms, host side: {e}"));
        verify(&stencils).unwrap_or_else(|e| panic!("{terms} terms, stencil side: {e}"));
        assert_eq!(collect_ops_named(&stencils, stencil::APPLY).len(), 1);

        if terms == 512 {
            pipelines::cpu_pipeline()
                .unwrap()
                .run(&mut stencils)
                .unwrap();
            let kernel = compile_kernel(&stencils, "stencil_region_0").unwrap();
            let kernels = Kernels(HashMap::from([("stencil_region_0".to_string(), kernel)]));
            assert_eq!(
                result_bits(&fir, kernels),
                result_bits(&pristine, NoDispatch),
                "the lifted stencil must reproduce the FIR interpreter bit for bit"
            );
        }
    }
}
