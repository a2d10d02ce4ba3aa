//! `convert-fir-to-standard` — the paper's fourth further-work avenue,
//! implemented:
//!
//! > "we believe that it would be worth exploring the potential of lowering
//! > FIR into the standard MLIR dialects rather than directly to LLVM-IR.
//! > This could reduce the maintenance burden … and would also aid in
//! > bringing additional dialects into the Flang ecosystem." (§6)
//!
//! The pass rewrites a FIR module into `scf`/`memref`/`arith`/`func` only:
//!
//! * `fir.do_loop` (inclusive bound) → `scf.for` (exclusive bound);
//! * `fir.if` → `scf.if`; `fir.result` → `scf.yield`;
//! * array `fir.alloca`/`fir.allocmem` → `memref.alloc`, scalar allocations
//!   → rank-1 single-element memrefs;
//! * `fir.load`/`fir.store` through `fir.coordinate_of` → `memref.load` /
//!   `memref.store` with the same indices;
//! * `fir.convert` → the matching `arith` cast (or forwarding);
//! * `fir.no_reassoc` → forwarded; `fir.call` → `func.call`;
//! * pointer hand-off converts (`!fir.llvm_ptr`) forward the memref value —
//!   the callee receives the same buffer either way.
//!
//! The resulting module contains no `fir` ops and runs on the same
//! interpreter — demonstrating exactly the composability the paper argues
//! Flang forgoes.

use fsc_dialects::{fir, func, memref};
use fsc_ir::rewrite::replace_op;
use fsc_ir::walk::{collect_ops_named, collect_ops_where};
use fsc_ir::{
    Attribute, IrError, Module, OpBuilder, OpId, Pass, PassResult, Result, Type, ValueId,
};

/// The conversion pass. Registered as `convert-fir-to-standard`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConvertFirToStandard;

impl Pass for ConvertFirToStandard {
    fn name(&self) -> &str {
        "convert-fir-to-standard"
    }

    fn run(&self, module: &mut Module) -> Result<PassResult> {
        let had_fir = collect_ops_where(module, |m, op| m.op(op).name.dialect() == "fir")
            .into_iter()
            .next()
            .is_some();
        if !had_fir {
            return Ok(PassResult::Unchanged);
        }
        convert(module)?;
        fsc_dialects::verify::assert_dialect_absent(module, "fir")?;
        Ok(PassResult::Changed)
    }
}

fn err(msg: impl std::fmt::Display) -> IrError {
    IrError::new(format!("convert-fir-to-standard: {msg}"))
}

/// The memref type a FIR allocation lowers to.
fn lowered_alloc_type(in_type: &Type) -> Result<Type> {
    Ok(match in_type {
        Type::FirArray { shape, elem } => Type::memref(shape.clone(), (**elem).clone()),
        scalar if scalar.is_scalar() => Type::memref(vec![1], scalar.clone()),
        other => return Err(err(format!("cannot lower allocation of {other}"))),
    })
}

fn convert(module: &mut Module) -> Result<()> {
    // 1. Allocations → memref.alloc (keeping the Fortran metadata attrs).
    for op in collect_ops_where(module, |m, o| {
        matches!(m.op(o).name.full(), fir::ALLOCA | fir::ALLOCMEM)
    }) {
        let in_type = module
            .op(op)
            .attr("in_type")
            .and_then(Attribute::as_type)
            .cloned()
            .ok_or_else(|| err("allocation without in_type"))?;
        let ty = lowered_alloc_type(&in_type)?;
        let attrs: Vec<(String, Attribute)> = module
            .op(op)
            .attrs
            .iter()
            .filter(|(k, _)| k.as_str() != "in_type")
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let new = {
            let mut b = OpBuilder::before(module, op);
            let (alloc, v) = b.op1(
                memref::ALLOC,
                vec![],
                ty,
                attrs.iter().map(|(k, a)| (k.as_str(), a.clone())).collect(),
            );
            let _ = alloc;
            v
        };
        replace_op(module, op, &[new]);
    }
    for op in collect_ops_named(module, fir::FREEMEM) {
        let buf = module.op(op).operands[0];
        {
            let mut b = OpBuilder::before(module, op);
            b.op(memref::DEALLOC, vec![buf], vec![], vec![]);
        }
        module.erase_op(op);
    }

    // 2. Loads/stores. Element accesses go through fir.coordinate_of; the
    //    indices transfer directly. Scalar accesses index element 0.
    for op in collect_ops_named(module, fir::LOAD) {
        if !module.is_alive(op) {
            continue;
        }
        let addr = module.op(op).operands[0];
        let (buf, indices) = lowered_address(module, op, addr)?;
        let result_ty = module.value_type(module.result(op)).clone();
        let mut operands = vec![buf];
        operands.extend(indices);
        let new = {
            let mut b = OpBuilder::before(module, op);
            b.op1(memref::LOAD, operands, result_ty, vec![]).1
        };
        replace_op(module, op, &[new]);
    }
    for op in collect_ops_named(module, fir::STORE) {
        if !module.is_alive(op) {
            continue;
        }
        let value = module.op(op).operands[0];
        let addr = module.op(op).operands[1];
        let (buf, indices) = lowered_address(module, op, addr)?;
        let mut operands = vec![value, buf];
        operands.extend(indices);
        {
            let mut b = OpBuilder::before(module, op);
            b.op(memref::STORE, operands, vec![], vec![]);
        }
        module.erase_op(op);
    }
    // Dead coordinate_of chains.
    fsc_ir::rewrite::erase_dead_pure_ops(module);

    // 3. Structured control flow: in-place renames (the region shapes of
    //    fir.do_loop/scf.for and fir.if/scf.if are identical).
    for op in collect_ops_named(module, fir::DO_LOOP) {
        // Exclusive upper bound.
        let ub = module.op(op).operands[1];
        let new_ub = {
            let mut b = OpBuilder::before(module, op);
            let one = fsc_dialects::arith::const_index(&mut b, 1);
            fsc_dialects::arith::addi(&mut b, ub, one)
        };
        module.set_operand(op, 1, new_ub);
        *module.op_mut(op).name = "scf.for".into();
    }
    for op in collect_ops_named(module, fir::IF) {
        *module.op_mut(op).name = "scf.if".into();
    }
    for op in collect_ops_named(module, fir::RESULT) {
        *module.op_mut(op).name = "scf.yield".into();
    }

    // 4. Converts: numeric casts or forwarding.
    for op in collect_ops_named(module, fir::CONVERT) {
        if !module.is_alive(op) {
            continue;
        }
        let from = module.value_type(module.op(op).operands[0]).clone();
        let to = module.value_type(module.result(op)).clone();
        let operand = module.op(op).operands[0];
        let replacement = match (&from, &to) {
            // Pointer hand-off: the memref value *is* the buffer.
            (Type::MemRef { .. }, _) | (_, Type::FirLlvmPtr(_) | Type::LlvmPtr(_)) => operand,
            _ if from == to => operand,
            (Type::Int(_) | Type::Index, Type::Float(_)) => {
                cast(module, op, operand, "arith.sitofp", to.clone())
            }
            (Type::Float(_), Type::Int(_) | Type::Index) => {
                cast(module, op, operand, "arith.fptosi", to.clone())
            }
            (Type::Int(a), Type::Int(b)) if b > a => {
                cast(module, op, operand, "arith.extsi", to.clone())
            }
            (Type::Int(a), Type::Int(b)) if b < a => {
                cast(module, op, operand, "arith.trunci", to.clone())
            }
            (Type::Index, Type::Int(_)) | (Type::Int(_), Type::Index) => {
                cast(module, op, operand, "arith.index_cast", to.clone())
            }
            (Type::Float(_), Type::Float(_)) => operand,
            (f, t) => return Err(err(format!("unsupported conversion {f} -> {t}"))),
        };
        replace_op(module, op, &[replacement]);
    }
    for op in collect_ops_named(module, fir::NO_REASSOC) {
        if module.is_alive(op) {
            let operand = module.op(op).operands[0];
            replace_op(module, op, &[operand]);
        }
    }

    // 5. Calls.
    for op in collect_ops_named(module, fir::CALL) {
        *module.op_mut(op).name = func::CALL.into();
    }
    fsc_ir::rewrite::erase_dead_pure_ops(module);
    Ok(())
}

fn cast(
    module: &mut Module,
    anchor: OpId,
    operand: ValueId,
    name: &'static str,
    to: Type,
) -> ValueId {
    let mut b = OpBuilder::before(module, anchor);
    b.op1(name, vec![operand], to, vec![]).1
}

/// The (buffer, indices) a FIR memory access lowers to.
fn lowered_address(
    module: &mut Module,
    access: OpId,
    addr: ValueId,
) -> Result<(ValueId, Vec<ValueId>)> {
    match module.defining_op(addr) {
        Some(def) if module.op(def).name.full() == fir::COORDINATE_OF => {
            let base = module.op(def).operands[0];
            let indices = module.op(def).operands[1..].to_vec();
            Ok((base, indices))
        }
        _ => {
            // A scalar allocation (now a rank-1 memref): index 0.
            let zero = {
                let mut b = OpBuilder::before(module, access);
                fsc_dialects::arith::const_index(&mut b, 0)
            };
            Ok((addr, vec![zero]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_dialects::scf;
    use fsc_exec::interp::{Interpreter, NoDispatch};
    use fsc_exec::value::Ref;

    const PROGRAM: &str = "
program t
  implicit none
  integer, parameter :: n = 6
  integer :: i, t2
  real(kind=8) :: a(0:n+1), r(0:n+1)
  do i = 0, n+1
    a(i) = 0.5 * i
  end do
  do t2 = 1, 2
    do i = 1, n
      r(i) = 0.25 * (a(i-1) + a(i+1)) + 0.5 * a(i)
    end do
    do i = 1, n
      a(i) = r(i)
    end do
  end do
end program t
";

    fn run_module(m: &Module) -> Vec<f64> {
        let mut interp = Interpreter::new(m, NoDispatch);
        interp.run_func("t", vec![]).unwrap();
        match interp.array_binding("a") {
            Some(Ref::Array { buf, .. }) => interp.memory.buffer(buf).to_vec(),
            other => panic!("no binding for a: {other:?}"),
        }
    }

    #[test]
    fn converted_module_is_fir_free_and_equivalent(
    ) -> std::result::Result<(), Box<dyn std::error::Error>> {
        let m1 = fsc_fortran::compile_to_fir(PROGRAM)?;
        let before = run_module(&m1);

        let mut m2 = fsc_fortran::compile_to_fir(PROGRAM)?;
        assert_eq!(ConvertFirToStandard.run(&mut m2)?, PassResult::Changed);
        fsc_dialects::verify::assert_dialect_absent(&m2, "fir")?;
        fsc_ir::verifier::verify_module(&m2)?;
        let after = run_module(&m2);
        assert_eq!(before, after, "same numbers through standard dialects");
        Ok(())
    }

    #[test]
    fn loop_bounds_become_exclusive() -> std::result::Result<(), Box<dyn std::error::Error>> {
        let mut m = fsc_fortran::compile_to_fir(
            "program t
integer :: i
real(kind=8) :: a(4)
do i = 1, 4
  a(i) = 1.0
end do
end program t",
        )?;
        ConvertFirToStandard.run(&mut m)?;
        let fors = collect_ops_named(&m, scf::FOR);
        assert_eq!(fors.len(), 1);
        // Executing must fill exactly 4 cells.
        let mut interp = Interpreter::new(&m, NoDispatch);
        interp.run_func("t", vec![])?;
        let Ref::Array { buf, .. } = interp.array_binding("a").ok_or("missing value")? else {
            panic!()
        };
        assert_eq!(interp.memory.buffer(buf), &[1.0, 1.0, 1.0, 1.0]);
        Ok(())
    }

    #[test]
    fn if_and_intrinsics_convert() -> std::result::Result<(), Box<dyn std::error::Error>> {
        let mut m = fsc_fortran::compile_to_fir(
            "program t
integer :: i
real(kind=8) :: a(4)
do i = 1, 4
  if (i <= 2) then
    a(i) = sqrt(16.0)
  else
    a(i) = max(1.0, 2.0)
  end if
end do
end program t",
        )?;
        ConvertFirToStandard.run(&mut m)?;
        assert!(collect_ops_named(&m, "scf.if").len() == 1);
        let mut interp = Interpreter::new(&m, NoDispatch);
        interp.run_func("t", vec![])?;
        let Ref::Array { buf, .. } = interp.array_binding("a").ok_or("missing value")? else {
            panic!()
        };
        assert_eq!(interp.memory.buffer(buf), &[4.0, 4.0, 2.0, 2.0]);
        Ok(())
    }

    #[test]
    fn idempotent_on_standard_modules() -> std::result::Result<(), Box<dyn std::error::Error>> {
        let mut m = fsc_fortran::compile_to_fir("program t\nend program t")?;
        ConvertFirToStandard.run(&mut m)?;
        assert_eq!(ConvertFirToStandard.run(&mut m)?, PassResult::Unchanged);
        Ok(())
    }
}
