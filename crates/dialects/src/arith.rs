//! The `arith` dialect: constants, integer/float arithmetic, comparisons.
//!
//! Flang lowers Fortran scalar expressions to these ops, and — as §3 of the
//! paper notes — the fact that FIR reuses standard `arith`/`math` is what
//! makes extracting stencil bodies out of FIR feasible.

use fsc_ir::{Attribute, Module, OpBuilder, OpId, Type, ValueId};

/// `arith.constant`.
pub const CONSTANT: &str = "arith.constant";

/// Comparison predicates for `arith.cmpi` / `arith.cmpf`, stored as the
/// `predicate` string attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpPredicate {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Strictly less than (signed / ordered).
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpPredicate {
    /// Attribute spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CmpPredicate::Eq => "eq",
            CmpPredicate::Ne => "ne",
            CmpPredicate::Lt => "lt",
            CmpPredicate::Le => "le",
            CmpPredicate::Gt => "gt",
            CmpPredicate::Ge => "ge",
        }
    }

    /// Parse the attribute spelling back.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "eq" => CmpPredicate::Eq,
            "ne" => CmpPredicate::Ne,
            "lt" | "slt" | "olt" => CmpPredicate::Lt,
            "le" | "sle" | "ole" => CmpPredicate::Le,
            "gt" | "sgt" | "ogt" => CmpPredicate::Gt,
            "ge" | "sge" | "oge" => CmpPredicate::Ge,
            _ => return None,
        })
    }
}

/// Build an integer constant of the given type.
pub fn const_int(b: &mut OpBuilder, value: i64, ty: Type) -> ValueId {
    b.op1(
        CONSTANT,
        vec![],
        ty.clone(),
        vec![("value", Attribute::Int(value, ty))],
    )
    .1
}

/// Build an `index`-typed constant.
pub fn const_index(b: &mut OpBuilder, value: i64) -> ValueId {
    const_int(b, value, Type::Index)
}

/// Build a float constant of the given type.
pub fn const_float(b: &mut OpBuilder, value: f64, ty: Type) -> ValueId {
    b.op1(
        CONSTANT,
        vec![],
        ty.clone(),
        vec![("value", Attribute::Float(value, ty))],
    )
    .1
}

/// Build an `f64` constant.
pub fn const_f64(b: &mut OpBuilder, value: f64) -> ValueId {
    const_float(b, value, Type::f64())
}

/// Build a binary op (`arith.addf`, `arith.muli`, ...); the result type is
/// the lhs type.
pub fn binary(b: &mut OpBuilder, name: &'static str, lhs: ValueId, rhs: ValueId) -> ValueId {
    let ty = b.module_ref().value_type(lhs).clone();
    b.op1(name, vec![lhs, rhs], ty, vec![]).1
}

/// `arith.addf`.
pub fn addf(b: &mut OpBuilder, lhs: ValueId, rhs: ValueId) -> ValueId {
    binary(b, "arith.addf", lhs, rhs)
}

/// `arith.subf`.
pub fn subf(b: &mut OpBuilder, lhs: ValueId, rhs: ValueId) -> ValueId {
    binary(b, "arith.subf", lhs, rhs)
}

/// `arith.mulf`.
pub fn mulf(b: &mut OpBuilder, lhs: ValueId, rhs: ValueId) -> ValueId {
    binary(b, "arith.mulf", lhs, rhs)
}

/// `arith.divf`.
pub fn divf(b: &mut OpBuilder, lhs: ValueId, rhs: ValueId) -> ValueId {
    binary(b, "arith.divf", lhs, rhs)
}

/// `arith.addi`.
pub fn addi(b: &mut OpBuilder, lhs: ValueId, rhs: ValueId) -> ValueId {
    binary(b, "arith.addi", lhs, rhs)
}

/// `arith.subi`.
pub fn subi(b: &mut OpBuilder, lhs: ValueId, rhs: ValueId) -> ValueId {
    binary(b, "arith.subi", lhs, rhs)
}

/// `arith.muli`.
pub fn muli(b: &mut OpBuilder, lhs: ValueId, rhs: ValueId) -> ValueId {
    binary(b, "arith.muli", lhs, rhs)
}

/// `arith.negf`.
pub fn negf(b: &mut OpBuilder, value: ValueId) -> ValueId {
    let ty = b.module_ref().value_type(value).clone();
    b.op1("arith.negf", vec![value], ty, vec![]).1
}

/// Integer comparison producing `i1`.
pub fn cmpi(b: &mut OpBuilder, pred: CmpPredicate, lhs: ValueId, rhs: ValueId) -> ValueId {
    b.op1(
        "arith.cmpi",
        vec![lhs, rhs],
        Type::bool(),
        vec![("predicate", Attribute::string(pred.as_str()))],
    )
    .1
}

/// Float comparison producing `i1`.
pub fn cmpf(b: &mut OpBuilder, pred: CmpPredicate, lhs: ValueId, rhs: ValueId) -> ValueId {
    b.op1(
        "arith.cmpf",
        vec![lhs, rhs],
        Type::bool(),
        vec![("predicate", Attribute::string(pred.as_str()))],
    )
    .1
}

/// `arith.select` — ternary choice.
pub fn select(b: &mut OpBuilder, cond: ValueId, if_true: ValueId, if_false: ValueId) -> ValueId {
    let ty = b.module_ref().value_type(if_true).clone();
    b.op1("arith.select", vec![cond, if_true, if_false], ty, vec![])
        .1
}

/// `arith.index_cast` between `index` and integer types.
pub fn index_cast(b: &mut OpBuilder, value: ValueId, to: Type) -> ValueId {
    b.op1("arith.index_cast", vec![value], to, vec![]).1
}

/// `arith.sitofp` — signed int to float.
pub fn sitofp(b: &mut OpBuilder, value: ValueId, to: Type) -> ValueId {
    b.op1("arith.sitofp", vec![value], to, vec![]).1
}

/// `arith.fptosi` — float to signed int.
pub fn fptosi(b: &mut OpBuilder, value: ValueId, to: Type) -> ValueId {
    b.op1("arith.fptosi", vec![value], to, vec![]).1
}

/// If `op` is an `arith.constant`, return its attribute value.
pub fn constant_value(module: &Module, op: OpId) -> Option<&Attribute> {
    if module.op(op).name.full() == CONSTANT {
        module.op(op).attr("value")
    } else {
        None
    }
}

/// If `value` is produced by an `arith.constant` with an integer/index
/// attribute, return the integer.
pub fn const_int_value(module: &Module, value: ValueId) -> Option<i64> {
    let op = module.defining_op(value)?;
    constant_value(module, op)?.as_int()
}

/// If `value` is produced by an `arith.constant` float, return it.
pub fn const_float_value(module: &Module, value: ValueId) -> Option<f64> {
    let op = module.defining_op(value)?;
    constant_value(module, op)?.as_float()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_extraction() {
        let mut m = Module::new();
        let top = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, top);
        let i = const_index(&mut b, 42);
        let f = const_f64(&mut b, 0.25);
        assert_eq!(const_int_value(&m, i), Some(42));
        assert_eq!(const_float_value(&m, f), Some(0.25));
        assert_eq!(const_float_value(&m, i), None);
        assert_eq!(m.value_type(i), &Type::Index);
    }

    #[test]
    fn binary_result_type_follows_lhs() {
        let mut m = Module::new();
        let top = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, top);
        let x = const_f64(&mut b, 1.0);
        let y = const_f64(&mut b, 2.0);
        let s = addf(&mut b, x, y);
        assert_eq!(m.value_type(s), &Type::f64());
        let op = m.defining_op(s).unwrap();
        assert_eq!(m.op(op).name.full(), "arith.addf");
        assert_eq!(m.op(op).operands, vec![x, y]);
    }

    #[test]
    fn cmp_has_predicate_and_bool_result() {
        let mut m = Module::new();
        let top = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, top);
        let x = const_index(&mut b, 1);
        let y = const_index(&mut b, 2);
        let c = cmpi(&mut b, CmpPredicate::Lt, x, y);
        assert_eq!(m.value_type(c), &Type::bool());
        let op = m.defining_op(c).unwrap();
        assert_eq!(m.op(op).attr("predicate").unwrap().as_str(), Some("lt"));
    }

    #[test]
    fn predicate_roundtrip() {
        for p in [
            CmpPredicate::Eq,
            CmpPredicate::Ne,
            CmpPredicate::Lt,
            CmpPredicate::Le,
            CmpPredicate::Gt,
            CmpPredicate::Ge,
        ] {
            assert_eq!(CmpPredicate::parse(p.as_str()), Some(p));
        }
        assert_eq!(CmpPredicate::parse("bogus"), None);
        // MLIR signed/ordered spellings map onto ours.
        assert_eq!(CmpPredicate::parse("slt"), Some(CmpPredicate::Lt));
        assert_eq!(CmpPredicate::parse("oge"), Some(CmpPredicate::Ge));
    }

    #[test]
    fn casts_have_requested_types() {
        let mut m = Module::new();
        let top = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, top);
        let i = const_int(&mut b, 7, Type::i64());
        let idx = index_cast(&mut b, i, Type::Index);
        let f = sitofp(&mut b, i, Type::f64());
        let back = fptosi(&mut b, f, Type::i32());
        assert_eq!(m.value_type(idx), &Type::Index);
        assert_eq!(m.value_type(f), &Type::f64());
        assert_eq!(m.value_type(back), &Type::i32());
    }
}
