//! Quickstart: compile the paper's Listing 1 through the full pipeline,
//! watch the stencil get discovered, run it, and verify the numbers.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use flang_stencil::core::{CompileOptions, Compiler, Target};

fn main() {
    // The paper's Listing 1: a 5-point average over a 2-D grid.
    let source = "
program average
  implicit none
  integer, parameter :: n = 256
  integer :: i, j
  real(kind=8) :: data(0:n+1, 0:n+1), res(0:n+1, 0:n+1)
  do i = 0, n+1
    do j = 0, n+1
      data(j, i) = 0.001 * i * j
    end do
  end do
  do i = 1, n
    do j = 1, n
      res(j, i) = 0.25 * (data(j, i-1) + data(j, i+1) + data(j-1, i) + data(j+1, i))
    end do
  end do
end program average
";

    println!("== compiling through the stencil flow (Figure 1) ==");
    let compiled = Compiler::compile(
        source,
        &CompileOptions {
            target: Target::StencilCpu,
            ..Default::default()
        },
    )
    .expect("compilation failed");

    println!(
        "extracted {} stencil region(s): {:?}",
        compiled.kernels.len(),
        compiled.kernels.keys().collect::<Vec<_>>()
    );
    for (name, kernel) in &compiled.kernels {
        for (i, nest) in kernel.nests.iter().enumerate() {
            println!(
                "  {name} nest {i}: domain {:?}, {} flops/cell, {} loads/cell",
                nest.bounds, nest.program.flops_per_cell, nest.program.loads_per_cell
            );
        }
    }

    println!("\n== the extracted stencil module (lowered to scf/memref) ==");
    let st = compiled.stencil_module.as_ref().unwrap();
    let text = flang_stencil::ir::print::print_module(st);
    for line in text.lines().take(20) {
        println!("  {line}");
    }
    println!("  ... ({} lines total)", text.lines().count());

    println!("\n== running ==");
    let exec = compiled.run().expect("execution failed");
    let res = exec.array("res").expect("res array");
    // Spot-check one interior point against the formula.
    let e = 258usize;
    let at = |j: usize, i: usize| res[j + e * i];
    let expect = |j: f64, i: f64| 0.001 * i * j;
    let got = at(100, 100);
    let want = 0.25
        * (expect(100.0, 99.0) + expect(100.0, 101.0) + expect(99.0, 100.0) + expect(101.0, 100.0));
    println!("res(100,100) = {got} (expected {want})");
    assert!((got - want).abs() < 1e-12);
    println!(
        "ok — {} cells through compiled stencil kernels in {:?}",
        exec.report.kernel_cells, exec.report.kernel_wall
    );
    let paths: Vec<String> = exec
        .report
        .exec_paths
        .iter()
        .map(|p| p.to_string())
        .collect();
    println!("execution paths attested: {}", paths.join(", "));
}
