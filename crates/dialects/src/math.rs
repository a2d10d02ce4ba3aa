//! The `math` dialect: transcendental and power functions.
//!
//! Fortran intrinsics (`sqrt`, `exp`, `abs`, ...) lower here, and the GPU
//! pipeline of the paper's Listing 4 runs `test-math-algebraic-simplification`
//! and `test-expand-math` over these ops.

use fsc_ir::{OpBuilder, ValueId};

/// Unary math ops supported by the frontend and executors.
pub const UNARY_OPS: &[&str] = &[
    "math.sqrt",
    "math.absf",
    "math.exp",
    "math.log",
    "math.sin",
    "math.cos",
    "math.tanh",
];

/// Binary math ops.
pub const BINARY_OPS: &[&str] = &["math.powf", "math.atan2", "math.copysign"];

/// Build a unary math op; result type matches the operand.
pub fn unary(b: &mut OpBuilder, name: &'static str, value: ValueId) -> ValueId {
    debug_assert!(UNARY_OPS.contains(&name), "unknown math unary op {name}");
    let ty = b.module_ref().value_type(value).clone();
    b.op1(name, vec![value], ty, vec![]).1
}

/// Build a binary math op; result type matches the lhs.
pub fn binary(b: &mut OpBuilder, name: &'static str, lhs: ValueId, rhs: ValueId) -> ValueId {
    debug_assert!(BINARY_OPS.contains(&name), "unknown math binary op {name}");
    let ty = b.module_ref().value_type(lhs).clone();
    b.op1(name, vec![lhs, rhs], ty, vec![]).1
}

/// `math.sqrt`.
pub fn sqrt(b: &mut OpBuilder, value: ValueId) -> ValueId {
    unary(b, "math.sqrt", value)
}

/// `math.powf`.
pub fn powf(b: &mut OpBuilder, base: ValueId, exp: ValueId) -> ValueId {
    binary(b, "math.powf", base, exp)
}

/// Map a Fortran intrinsic name to the math-dialect op implementing it, if
/// one exists.
pub fn intrinsic_to_op(intrinsic: &str) -> Option<&'static str> {
    Some(match intrinsic.to_ascii_lowercase().as_str() {
        "sqrt" => "math.sqrt",
        "abs" => "math.absf",
        "exp" => "math.exp",
        "log" => "math.log",
        "sin" => "math.sin",
        "cos" => "math.cos",
        "tanh" => "math.tanh",
        "atan2" => "math.atan2",
        _ => return None,
    })
}

/// Evaluate a unary math op on a concrete double (shared by both execution
/// tiers so they cannot diverge).
pub fn eval_unary(name: &str, x: f64) -> Option<f64> {
    Some(match name {
        "math.sqrt" => x.sqrt(),
        "math.absf" => x.abs(),
        "math.exp" => x.exp(),
        "math.log" => x.ln(),
        "math.sin" => x.sin(),
        "math.cos" => x.cos(),
        "math.tanh" => x.tanh(),
        _ => return None,
    })
}

/// Evaluate a binary math op on concrete doubles.
pub fn eval_binary(name: &str, x: f64, y: f64) -> Option<f64> {
    Some(match name {
        "math.powf" => x.powf(y),
        "math.atan2" => x.atan2(y),
        "math.copysign" => x.copysign(y),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_ir::{Module, Type};

    #[test]
    fn build_and_type() {
        let mut m = Module::new();
        let top = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, top);
        let x = crate::arith::const_f64(&mut b, 4.0);
        let r = sqrt(&mut b, x);
        assert_eq!(m.value_type(r), &Type::f64());
    }

    #[test]
    fn intrinsic_mapping() {
        assert_eq!(intrinsic_to_op("SQRT"), Some("math.sqrt"));
        assert_eq!(intrinsic_to_op("sin"), Some("math.sin"));
        assert_eq!(intrinsic_to_op("nosuch"), None);
    }

    #[test]
    fn eval_matches_std() {
        assert_eq!(eval_unary("math.sqrt", 9.0), Some(3.0));
        assert_eq!(eval_unary("math.absf", -2.5), Some(2.5));
        assert_eq!(eval_binary("math.powf", 2.0, 10.0), Some(1024.0));
        assert_eq!(eval_unary("math.bogus", 1.0), None);
        assert_eq!(eval_binary("math.bogus", 1.0, 2.0), None);
    }

    #[test]
    fn every_declared_op_evaluates() {
        for op in UNARY_OPS {
            assert!(eval_unary(op, 0.5).is_some(), "{op} missing eval");
        }
        for op in BINARY_OPS {
            assert!(eval_binary(op, 0.5, 0.25).is_some(), "{op} missing eval");
        }
    }
}
