//! The frontend bounds expression depth, so a deep expression is a coded
//! diagnostic and never a stack overflow — which is a process abort that
//! neither `catch_unwind` nor the crash-only supervisor of `fsc-serve`
//! contains. Every case runs on a 2 MiB thread, the stack of an `fsc-serve`
//! worker, in whatever profile the test is built in.

use flang_stencil::core::{CompileOptions, Compiler, Target};
use flang_stencil::fortran::parser::MAX_EXPR_DEPTH;
use flang_stencil::ir::diag::codes;

const WORKER_STACK: usize = 2 << 20;

fn on_worker_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(WORKER_STACK)
        .spawn(f)
        .expect("spawns")
        .join()
        .expect("no panic, and the process is still here")
}

fn program(rhs: &str) -> String {
    format!(
        "program deep
integer, parameter :: n = 8
integer :: i
real(kind=8) :: a(0:n+1), r(0:n+1)
do i = 0, n+1
  a(i) = 0.5 * i
end do
do i = 1, n
  r(i) = {rhs}
end do
end program deep
"
    )
}

/// `a(i) + a(i) + ...`: a left-deep chain, one tree level per term above
/// the two levels of `a(i)` itself.
fn sum_of(terms: usize) -> String {
    program(&vec!["a(i)"; terms].join(" + "))
}

/// `((( a(i-1) + a(i+1) )))`: one nesting level per parenthesis, and one
/// more for the index inside.
fn parenthesised(depth: usize) -> String {
    program(&format!(
        "{}a(i-1) + a(i+1){}",
        "(".repeat(depth),
        ")".repeat(depth)
    ))
}

/// Compiles for the stencil target and computes what Flang alone does.
fn compiles_and_agrees(source: String) {
    on_worker_stack(move || {
        let run = |target| {
            Compiler::run(&source, &CompileOptions::for_target(target))
                .expect("an expression at the limit compiles and runs")
        };
        let (stencil, reference) = (run(Target::StencilCpu), run(Target::FlangOnly));
        let bits = |e: &flang_stencil::core::Execution| -> Vec<u64> {
            e.array("r")
                .expect("r")
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&stencil), bits(&reference));
    });
}

fn rejected_as_too_deep(source: String) {
    on_worker_stack(move || {
        let err = match Compiler::compile(&source, &CompileOptions::for_target(Target::StencilCpu))
        {
            Ok(_) => panic!("an expression past the limit compiled"),
            Err(e) => e,
        };
        let codes: Vec<&str> = err.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, [codes::PARSE_EXPR_TOO_DEEP], "{err}");
        assert!(err.diagnostics[0].span.is_some(), "{err}");
    });
}

#[test]
fn operator_chain_at_the_limit_compiles_and_past_it_is_a_diagnostic() {
    compiles_and_agrees(sum_of(MAX_EXPR_DEPTH - 1));
    rejected_as_too_deep(sum_of(MAX_EXPR_DEPTH));
    rejected_as_too_deep(sum_of(20_000));
}

#[test]
fn parentheses_at_the_limit_compile_and_past_it_are_a_diagnostic() {
    compiles_and_agrees(parenthesised(MAX_EXPR_DEPTH - 1));
    rejected_as_too_deep(parenthesised(MAX_EXPR_DEPTH));
    rejected_as_too_deep(parenthesised(20_000));
}

#[test]
fn prefix_operator_and_power_chains_are_bounded_too() {
    rejected_as_too_deep(program(&format!("{}a(i)", "- ".repeat(20_000))));
    rejected_as_too_deep(program(&format!("{}2.0", "a(i) ** ".repeat(20_000))));
}
