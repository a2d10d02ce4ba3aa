//! Generic cleanup passes: `canonicalize` (constant folding + algebraic
//! identities + DCE), `cse` and `dce` — the "existing MLIR miscellaneous
//! passes" slots of the paper's pipeline.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use fsc_ir::rewrite::{erase_dead_pure_ops, is_pure, replace_op};
use fsc_ir::walk::collect_ops_where;
use fsc_ir::{Attribute, Module, OpBuilder, OpId, Pass, PassResult, Result};

/// Constant folding + identities + dead-code sweep. Registered as
/// `canonicalize`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Canonicalize;

impl Pass for Canonicalize {
    fn name(&self) -> &str {
        "canonicalize"
    }

    fn run(&self, module: &mut Module) -> Result<PassResult> {
        let mut changed = false;
        loop {
            let mut round = false;
            round |= fold_constants(module);
            round |= erase_dead_pure_ops(module) > 0;
            if !round {
                break;
            }
            changed = true;
        }
        Ok(if changed {
            PassResult::Changed
        } else {
            PassResult::Unchanged
        })
    }
}

/// Common-subexpression elimination over pure ops, per block. Registered as
/// `cse`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cse;

impl Pass for Cse {
    fn name(&self) -> &str {
        "cse"
    }

    fn run(&self, module: &mut Module) -> Result<PassResult> {
        let changed = run_cse(module);
        Ok(if changed {
            PassResult::Changed
        } else {
            PassResult::Unchanged
        })
    }
}

/// Dead-code elimination. Registered as `dce`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Dce;

impl Pass for Dce {
    fn name(&self) -> &str {
        "dce"
    }

    fn run(&self, module: &mut Module) -> Result<PassResult> {
        let n = erase_dead_pure_ops(module);
        Ok(if n > 0 {
            PassResult::Changed
        } else {
            PassResult::Unchanged
        })
    }
}

fn const_of(m: &Module, v: fsc_ir::ValueId) -> Option<&Attribute> {
    let def = m.defining_op(v)?;
    if m.op(def).name.full() == "arith.constant" {
        m.op(def).attr("value")
    } else {
        None
    }
}

/// One folding sweep; returns whether anything changed.
fn fold_constants(m: &mut Module) -> bool {
    let candidates = collect_ops_where(m, |m, op| {
        let name = m.op(op).name.full();
        (name.starts_with("arith.") && name != "arith.constant") || name == "fir.convert"
    });
    let mut changed = false;
    for op in candidates {
        if !m.is_alive(op) {
            continue;
        }
        if try_fold(m, op) {
            changed = true;
        }
    }
    changed
}

fn try_fold(m: &mut Module, op: OpId) -> bool {
    let name = m.op(op).name.full().to_string();
    let operands = m.op(op).operands.clone();
    let result_ty = match m.op(op).results.as_slice() {
        [r] => m.value_type(*r).clone(),
        _ => return false,
    };

    // Integer binary folding.
    let int2 = |m: &Module| -> Option<(i64, i64)> {
        Some((
            const_of(m, operands[0])?.as_int()?,
            const_of(m, operands[1])?.as_int()?,
        ))
    };
    let float2 = |m: &Module| -> Option<(f64, f64)> {
        Some((
            const_of(m, operands[0])?.as_float()?,
            const_of(m, operands[1])?.as_float()?,
        ))
    };

    let folded: Option<Attribute> = match name.as_str() {
        "arith.addi" => int2(m).map(|(a, b)| Attribute::Int(a + b, result_ty.clone())),
        "arith.subi" => int2(m).map(|(a, b)| Attribute::Int(a - b, result_ty.clone())),
        "arith.muli" => int2(m).map(|(a, b)| Attribute::Int(a * b, result_ty.clone())),
        "arith.addf" => float2(m).map(|(a, b)| Attribute::Float(a + b, result_ty.clone())),
        "arith.subf" => float2(m).map(|(a, b)| Attribute::Float(a - b, result_ty.clone())),
        "arith.mulf" => float2(m).map(|(a, b)| Attribute::Float(a * b, result_ty.clone())),
        "arith.divf" => float2(m).map(|(a, b)| Attribute::Float(a / b, result_ty.clone())),
        "fir.convert" | "arith.index_cast" | "arith.extsi" | "arith.trunci" => {
            // Conversions between integer-ish types of a constant.
            const_of(m, operands[0])
                .and_then(Attribute::as_int)
                .and_then(|v| {
                    result_ty
                        .is_int_or_index()
                        .then(|| Attribute::Int(v, result_ty.clone()))
                })
        }
        "arith.sitofp" => const_of(m, operands[0])
            .and_then(Attribute::as_int)
            .map(|v| Attribute::Float(v as f64, result_ty.clone())),
        _ => None,
    };

    if let Some(attr) = folded {
        let anchor = op;
        let mut b = OpBuilder::before(m, anchor);
        let (_, v) = b.op1("arith.constant", vec![], result_ty, vec![("value", attr)]);
        replace_op(m, op, &[v]);
        return true;
    }

    // Algebraic identities: x+0, x-0, x*1, x*0, 0+x, 1*x.
    let ident = match name.as_str() {
        "arith.addf" | "arith.addi" => {
            if const_is_zero(m, operands[1]) {
                Some(operands[0])
            } else if const_is_zero(m, operands[0]) {
                Some(operands[1])
            } else {
                None
            }
        }
        "arith.subf" | "arith.subi" => {
            if const_is_zero(m, operands[1]) {
                Some(operands[0])
            } else {
                None
            }
        }
        "arith.mulf" | "arith.muli" => {
            if const_is_one(m, operands[1]) {
                Some(operands[0])
            } else if const_is_one(m, operands[0]) {
                Some(operands[1])
            } else {
                None
            }
        }
        _ => None,
    };
    if let Some(v) = ident {
        replace_op(m, op, &[v]);
        return true;
    }
    false
}

fn const_is_zero(m: &Module, v: fsc_ir::ValueId) -> bool {
    match const_of(m, v) {
        Some(Attribute::Int(0, _)) => true,
        Some(Attribute::Float(f, _)) => *f == 0.0,
        _ => false,
    }
}

fn const_is_one(m: &Module, v: fsc_ir::ValueId) -> bool {
    match const_of(m, v) {
        Some(Attribute::Int(1, _)) => true,
        Some(Attribute::Float(f, _)) => *f == 1.0,
        _ => false,
    }
}

/// A hash of what [`same_computation`] compares.
fn computation_hash(m: &Module, op: OpId) -> u64 {
    let data = m.op(op);
    let mut h = DefaultHasher::new();
    (&data.name, &data.operands, m.value_type(data.results[0])).hash(&mut h);
    for (key, attr) in &data.attrs {
        key.hash(&mut h);
        attr.hash_identity(&mut h);
    }
    h.finish()
}

/// Two single-result ops with the same name, operands, attributes and
/// result type.
fn same_computation(m: &Module, a: OpId, b: OpId) -> bool {
    let (x, y) = (m.op(a), m.op(b));
    x.name == y.name
        && x.operands == y.operands
        && m.value_type(x.results[0]) == m.value_type(y.results[0])
        && x.attrs.len() == y.attrs.len()
        && x.attrs
            .iter()
            .zip(&y.attrs)
            .all(|((ka, va), (kb, vb))| ka == kb && va.identical(vb))
}

/// CSE over pure ops, scoped per block.
fn run_cse(m: &mut Module) -> bool {
    let mut changed = false;
    // Blocks holding live ops, in order of their first op's creation.
    let mut blocks: Vec<fsc_ir::BlockId> = Vec::new();
    let mut listed = HashSet::new();
    for op in m.all_live_ops() {
        if let Some(b) = m.op(op).parent {
            if listed.insert(b) {
                blocks.push(b);
            }
        }
    }
    for block in blocks {
        // Earlier ops of the block, bucketed by computation hash.
        let mut seen: HashMap<u64, Vec<OpId>> = HashMap::new();
        for op in m.block_ops(block) {
            let data = m.op(op);
            if !is_pure(data.name.full()) || data.results.len() != 1 || !data.regions.is_empty() {
                continue;
            }
            let bucket = seen.entry(computation_hash(m, op)).or_default();
            match bucket.iter().find(|&&prev| same_computation(m, prev, op)) {
                Some(&prev) => {
                    let old = m.result(op);
                    let new = m.result(prev);
                    m.replace_all_uses(old, new);
                    m.erase_op(op);
                    changed = true;
                }
                None => bucket.push(op),
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_dialects::arith;
    use fsc_ir::{OpBuilder, Type};

    #[test]
    fn folds_constant_arith_chain() {
        let mut m = Module::new();
        let top = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, top);
        let two = arith::const_f64(&mut b, 2.0);
        let three = arith::const_f64(&mut b, 3.0);
        let sum = arith::addf(&mut b, two, three);
        let keep = b.op("test.keep", vec![sum], vec![], vec![]);
        let _ = keep;
        Canonicalize.run(&mut m).unwrap();
        // The add folded to a constant 5.0 feeding test.keep.
        let keep_ops = fsc_ir::walk::collect_ops_named(&m, "test.keep");
        let operand = m.op(keep_ops[0]).operands[0];
        let def = m.defining_op(operand).unwrap();
        assert_eq!(m.op(def).name.full(), "arith.constant");
        assert_eq!(m.op(def).attr("value").unwrap().as_float(), Some(5.0));
    }

    #[test]
    fn identity_mul_by_one_removed() {
        let mut m = Module::new();
        let top = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, top);
        let x = b.op1("test.x", vec![], Type::f64(), vec![]).1;
        let one = arith::const_f64(&mut b, 1.0);
        let y = arith::mulf(&mut b, x, one);
        b.op("test.keep", vec![y], vec![], vec![]);
        Canonicalize.run(&mut m).unwrap();
        let keep_ops = fsc_ir::walk::collect_ops_named(&m, "test.keep");
        assert_eq!(m.op(keep_ops[0]).operands[0], x);
    }

    #[test]
    fn cse_merges_duplicate_constants() {
        let mut m = Module::new();
        let top = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, top);
        let a = arith::const_f64(&mut b, 7.0);
        let c = arith::const_f64(&mut b, 7.0);
        b.op("test.keep", vec![a, c], vec![], vec![]);
        Cse.run(&mut m).unwrap();
        let keep_ops = fsc_ir::walk::collect_ops_named(&m, "test.keep");
        let ops = m.op(keep_ops[0]).operands.clone();
        assert_eq!(ops[0], ops[1]);
        assert_eq!(
            fsc_ir::walk::collect_ops_named(&m, "arith.constant").len(),
            1
        );
    }

    #[test]
    fn cse_respects_differing_attrs() {
        let mut m = Module::new();
        let top = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, top);
        let a = arith::const_f64(&mut b, 7.0);
        let c = arith::const_f64(&mut b, 8.0);
        b.op("test.keep", vec![a, c], vec![], vec![]);
        Cse.run(&mut m).unwrap();
        assert_eq!(
            fsc_ir::walk::collect_ops_named(&m, "arith.constant").len(),
            2
        );
    }

    #[test]
    fn dce_removes_unused_pure() {
        let mut m = Module::new();
        let top = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, top);
        arith::const_f64(&mut b, 1.0);
        assert_eq!(Dce.run(&mut m).unwrap(), PassResult::Changed);
        assert_eq!(m.live_op_count(), 0);
    }

    #[test]
    fn integer_fold_through_convert() {
        let mut m = Module::new();
        let top = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, top);
        let c = arith::const_int(&mut b, 41, Type::i32());
        let one = arith::const_int(&mut b, 1, Type::i32());
        let sum = arith::addi(&mut b, c, one);
        let conv = fsc_dialects::fir::convert(&mut b, sum, Type::i64());
        b.op("test.keep", vec![conv], vec![], vec![]);
        Canonicalize.run(&mut m).unwrap();
        let keep_ops = fsc_ir::walk::collect_ops_named(&m, "test.keep");
        let def = m.defining_op(m.op(keep_ops[0]).operands[0]).unwrap();
        assert_eq!(m.op(def).attr("value").unwrap().as_int(), Some(42));
    }
}
