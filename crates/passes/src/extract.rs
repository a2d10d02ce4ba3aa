//! *Stencil extraction* (§3 of the paper): lift stencil-dialect ops out of
//! FIR functions into a separate module.
//!
//! Flang does not register the stencil dialect and mlir-opt does not know
//! FIR, so after discovery the mixed module must be split: the stencil
//! cluster in each block becomes a fresh function in a new module, and the
//! original block calls it through `fir.call`. Array storage crosses the
//! boundary as a pointer: the FIR side inserts
//! `fir.convert %ref : !fir.llvm_ptr<elem>` and the extracted function
//! declares the argument as `!llvm.ptr<elem>` — two types that (as the paper
//! notes) only line up because they are semantically identical at link time.
//! Captured scalars are passed by value.

use std::collections::HashMap;

use fsc_dialects::{fir, func};
use fsc_ir::rewrite::{clone_op_into, ValueMap};
use fsc_ir::{IrError, Module, OpBuilder, OpId, Result, Type, ValueId};

/// Split every stencil cluster out of `main`, returning the stencil module.
/// The `main` module is left free of stencil-dialect ops, with `fir.call`s
/// to functions named `stencil_region_<N>`.
pub fn extract_stencils(main: &mut Module) -> Result<Module> {
    let mut stencil_module = Module::new();
    let mut region_counter = 0usize;

    // Blocks containing stencil ops, in discovery order.
    let mut blocks = Vec::new();
    fsc_ir::walk::walk_module(main, &mut |op| {
        if main.op(op).name.dialect() == "stencil" {
            if let Some(b) = main.op(op).parent {
                if !blocks.contains(&b) {
                    blocks.push(b);
                }
            }
        }
    });

    for block in blocks {
        extract_block_clusters(main, &mut stencil_module, block, &mut region_counter)?;
    }
    Ok(stencil_module)
}

/// Extract each *connected* stencil cluster of a block as its own region
/// function. Two stencil ops belong to the same cluster when one's results
/// feed the other (directly or through other stencil ops in the block).
fn extract_block_clusters(
    main: &mut Module,
    stencil_module: &mut Module,
    block: fsc_ir::BlockId,
    region_counter: &mut usize,
) -> Result<()> {
    let stencil_ops: Vec<OpId> = main
        .block_ops(block)
        .into_iter()
        .filter(|&o| main.op(o).name.dialect() == "stencil")
        .collect();
    if stencil_ops.is_empty() {
        return Ok(());
    }
    // Union-find by value flow.
    let mut cluster_of: HashMap<OpId, usize> = HashMap::new();
    let mut next = 0usize;
    for &op in &stencil_ops {
        // Any operand produced by an already-clustered stencil op joins it.
        let mut found: Option<usize> = None;
        for &operand in &main.op(op).operands {
            if let Some(def) = main.defining_op(operand) {
                if let Some(&c) = cluster_of.get(&def) {
                    match found {
                        None => found = Some(c),
                        Some(f) if f != c => {
                            // Merge c into f.
                            for v in cluster_of.values_mut() {
                                if *v == c {
                                    *v = f;
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        let c = found.unwrap_or_else(|| {
            next += 1;
            next - 1
        });
        cluster_of.insert(op, c);
    }
    let mut clusters: Vec<Vec<OpId>> = Vec::new();
    {
        let mut ids: Vec<usize> = Vec::new();
        for &op in &stencil_ops {
            let c = cluster_of[&op];
            let idx = match ids.iter().position(|&i| i == c) {
                Some(i) => i,
                None => {
                    ids.push(c);
                    clusters.push(Vec::new());
                    ids.len() - 1
                }
            };
            clusters[idx].push(op);
        }
    }
    for cluster in clusters {
        extract_cluster(main, stencil_module, &cluster, region_counter)?;
    }
    Ok(())
}

fn extract_cluster(
    main: &mut Module,
    stencil_module: &mut Module,
    cluster: &[OpId],
    region_counter: &mut usize,
) -> Result<()> {
    // Gather boundary values: operands of cluster ops defined outside it.
    let mut ptr_inputs: Vec<ValueId> = Vec::new(); // fir refs feeding external_load
    let mut scalar_inputs: Vec<ValueId> = Vec::new();
    for &op in cluster {
        for &operand in &main.op(op).operands {
            let defined_inside = main
                .defining_op(operand)
                .is_some_and(|d| cluster.contains(&d));
            if defined_inside {
                continue;
            }
            let is_ptr_like = matches!(
                main.value_type(operand),
                Type::FirRef(_) | Type::FirHeap(_) | Type::FirLlvmPtr(_)
            );
            let list = if is_ptr_like {
                &mut ptr_inputs
            } else {
                &mut scalar_inputs
            };
            if !list.contains(&operand) {
                list.push(operand);
            }
        }
        // Results must not escape the cluster.
        for &r in &main.op(op).results {
            for (user, _) in main.uses(r) {
                if !cluster.contains(&user) {
                    return Err(IrError::new(format!(
                        "stencil result escapes its cluster into '{}'",
                        main.op(user).name
                    )));
                }
            }
        }
    }

    // Build the extracted function.
    let name = format!("stencil_region_{}", *region_counter);
    *region_counter += 1;
    let mut arg_types = Vec::new();
    for &p in &ptr_inputs {
        arg_types.push(Type::LlvmPtr(Some(Box::new(pointee_elem(main, p)))));
    }
    for &s in &scalar_inputs {
        arg_types.push(main.value_type(s).clone());
    }
    let (f, entry) = func::build_func(stencil_module, &name, arg_types, vec![]);
    let args = f.arguments(stencil_module);

    let mut map: ValueMap = HashMap::new();
    for (i, &p) in ptr_inputs.iter().enumerate() {
        map.insert(p, args[i]);
    }
    for (i, &s) in scalar_inputs.iter().enumerate() {
        map.insert(s, args[ptr_inputs.len() + i]);
    }
    for &op in cluster {
        clone_op_into(main, op, stencil_module, entry, &mut map);
    }
    {
        let mut b = OpBuilder::at_end(stencil_module, entry);
        func::build_return(&mut b, vec![]);
    }

    // Replace the cluster in the main module with a fir.call.
    let last = *cluster
        .last()
        .ok_or_else(|| IrError::new("empty stencil cluster"))?;
    {
        let mut b = OpBuilder::before(main, last);
        let mut call_args = Vec::new();
        for &p in &ptr_inputs {
            let elem = pointee_elem(b.module_ref(), p);
            call_args.push(fir::convert(&mut b, p, Type::FirLlvmPtr(Box::new(elem))));
        }
        call_args.extend(scalar_inputs.iter().copied());
        fir::call(&mut b, &name, call_args, vec![]);
    }
    for &op in cluster.iter().rev() {
        main.erase_op(op);
    }
    Ok(())
}

/// The element type behind an array reference (`!fir.ref<!fir.array<..xT>>`
/// → `T`).
fn pointee_elem(m: &Module, p: ValueId) -> Type {
    m.value_type(p)
        .elem_type()
        .map(|inner| match inner {
            Type::FirArray { elem, .. } => (**elem).clone(),
            other => other.clone(),
        })
        .unwrap_or(Type::f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discover::discover_stencils;
    use crate::merge::merge_adjacent_applies;
    use fsc_dialects::stencil;
    use fsc_dialects::verify::{assert_dialect_absent, verify};
    use fsc_fortran::compile_to_fir;
    use fsc_ir::walk::collect_ops_named;

    const LISTING1: &str = "
program average
  integer, parameter :: n = 64
  integer :: i, j
  real(kind=8) :: data(0:n+1, 0:n+1), res(0:n+1, 0:n+1)
  do i = 1, n
    do j = 1, n
      res(j, i) = 0.25 * (data(j, i-1) + data(j, i+1) + data(j-1, i) + data(j+1, i))
    end do
  end do
end program average
";

    fn discover_and_extract(src: &str) -> (Module, Module) {
        let mut m = compile_to_fir(src).unwrap();
        discover_stencils(&mut m).unwrap();
        merge_adjacent_applies(&mut m).unwrap();
        let st = extract_stencils(&mut m).unwrap();
        (m, st)
    }

    #[test]
    fn main_module_is_stencil_free_and_calls_region() {
        let (m, st) = discover_and_extract(LISTING1);
        assert_dialect_absent(&m, "stencil").unwrap();
        let calls = collect_ops_named(&m, fir::CALL);
        assert_eq!(calls.len(), 1);
        assert_eq!(
            m.op(calls[0]).attr("callee").unwrap().as_symbol(),
            Some("stencil_region_0")
        );
        assert!(func::find_func(&st, "stencil_region_0").is_some());
        assert_eq!(collect_ops_named(&st, stencil::APPLY).len(), 1);
        verify(&m).unwrap();
        verify(&st).unwrap();
    }

    #[test]
    fn pointers_cross_as_llvm_ptr() {
        let (m, st) = discover_and_extract(LISTING1);
        let calls = collect_ops_named(&m, fir::CALL);
        let operands = m.op(calls[0]).operands.clone();
        assert_eq!(operands.len(), 2);
        for o in operands {
            assert_eq!(
                m.value_type(o),
                &Type::FirLlvmPtr(Box::new(Type::f64())),
                "FIR side passes fir.llvm_ptr"
            );
        }
        let f = func::find_func(&st, "stencil_region_0").unwrap();
        let (ins, _) = f.signature(&st);
        for t in ins {
            assert_eq!(t, Type::LlvmPtr(Some(Box::new(Type::f64()))));
        }
    }

    #[test]
    fn stencil_module_is_fir_free() {
        let (_, st) = discover_and_extract(LISTING1);
        assert_dialect_absent(&st, "fir").unwrap();
    }

    #[test]
    fn captured_scalars_pass_by_value() {
        let src = "
program t
  integer, parameter :: n = 8
  integer :: i
  real(kind=8) :: c
  real(kind=8) :: a(0:n+1), r(0:n+1)
  c = 0.5
  do i = 1, n
    r(i) = c * (a(i-1) + a(i+1))
  end do
end program t
";
        let (m, st) = discover_and_extract(src);
        let calls = collect_ops_named(&m, fir::CALL);
        let operands = m.op(calls[0]).operands.clone();
        assert_eq!(operands.len(), 3);
        assert_eq!(m.value_type(operands[2]), &Type::f64());
        let f = func::find_func(&st, "stencil_region_0").unwrap();
        let (ins, _) = f.signature(&st);
        assert_eq!(ins[2], Type::f64());
    }

    #[test]
    fn call_sits_inside_surviving_time_loop() {
        let src = "
program gs
  integer, parameter :: n = 8
  integer :: i, j, t
  real(kind=8) :: u(0:n+1, 0:n+1), un(0:n+1, 0:n+1)
  do t = 1, 4
    do i = 1, n
      do j = 1, n
        un(j, i) = 0.25 * (u(j-1, i) + u(j+1, i) + u(j, i-1) + u(j, i+1))
      end do
    end do
    do i = 1, n
      do j = 1, n
        u(j, i) = un(j, i)
      end do
    end do
  end do
end program gs
";
        let (m, st) = discover_and_extract(src);
        let loops = collect_ops_named(&m, fir::DO_LOOP);
        assert_eq!(loops.len(), 1);
        let calls = collect_ops_named(&m, fir::CALL);
        // The two applies share their fields (u is read by the first and
        // written by the copy), so they form one connected cluster: a
        // single region call inside the time loop, holding both applies in
        // program order.
        assert_eq!(calls.len(), 1);
        assert!(m.ancestors(calls[0]).contains(&loops[0]));
        assert_eq!(collect_ops_named(&st, stencil::APPLY).len(), 2);
        verify(&st).unwrap();
    }
}
