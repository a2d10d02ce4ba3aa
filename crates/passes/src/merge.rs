//! `merge_stencils_if_possible` (line 29 of the paper's Listing 3): fuse
//! adjacent `stencil.apply` ops that share the same iteration bounds, after
//! deduplicating redundant field/temp loads.
//!
//! This is the transformation responsible for the PW advection benchmark's
//! "three separate stencil computations across three fields which are then
//! fused by our stencil transformation into a single stencil region" (§4.1).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use fsc_dialects::stencil;
use fsc_ir::rewrite::{hoist_defs_before, move_op_to_end};
use fsc_ir::walk::collect_ops_named;
use fsc_ir::{IrError, Module, OpBuilder, OpId, Pass, PassResult, Result, Type, ValueId};

/// The merge pass. Registered as `merge-stencils`.
#[derive(Debug, Default, Clone, Copy)]
pub struct MergeStencils;

impl Pass for MergeStencils {
    fn name(&self) -> &str {
        "merge-stencils"
    }

    fn run(&self, module: &mut Module) -> Result<PassResult> {
        let changed = merge_adjacent_applies(module)?;
        Ok(if changed {
            PassResult::Changed
        } else {
            PassResult::Unchanged
        })
    }
}

/// Deduplicate loads, then fuse sibling applies until a fixed point.
/// Returns whether anything changed.
pub fn merge_adjacent_applies(module: &mut Module) -> Result<bool> {
    let mut changed = dedupe_loads(module);
    loop {
        if !fuse_one_pair(module)? {
            break;
        }
        changed = true;
    }
    Ok(changed)
}

/// Within each block, identical `stencil.external_load`s of the same source
/// (and `stencil.load`s of the same field) collapse onto the first one.
fn dedupe_loads(module: &mut Module) -> bool {
    let mut changed = false;
    let blocks: Vec<_> = {
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for op in collect_ops_named(module, stencil::EXTERNAL_LOAD)
            .into_iter()
            .chain(collect_ops_named(module, stencil::LOAD))
        {
            if let Some(b) = module.op(op).parent {
                if seen.insert(b) {
                    out.push(b);
                }
            }
        }
        out
    };
    for block in blocks {
        // (is an external_load, source, result type) -> first such load.
        let mut first: HashMap<(bool, ValueId, Type), ValueId> = HashMap::new();
        for op in module.block_ops(block) {
            let external = match module.op(op).name.full() {
                stencil::EXTERNAL_LOAD => true,
                stencil::LOAD => false,
                _ => continue,
            };
            let result = module.result(op);
            let key = (
                external,
                module.op(op).operands[0],
                module.value_type(result).clone(),
            );
            match first.entry(key) {
                Entry::Occupied(canonical) => {
                    module.replace_all_uses(result, *canonical.get());
                    module.erase_op(op);
                    changed = true;
                }
                Entry::Vacant(slot) => {
                    slot.insert(result);
                }
            }
        }
    }
    changed
}

/// Find one fusible adjacent pair of applies and fuse it.
fn fuse_one_pair(module: &mut Module) -> Result<bool> {
    for a in collect_ops_named(module, stencil::APPLY) {
        // The next apply in the same block, if any.
        let after = module.ops_after(a);
        let Some(&b) = after
            .iter()
            .find(|&&o| module.op(o).name.full() == stencil::APPLY)
        else {
            continue;
        };
        if can_fuse(module, a, b, &after) {
            fuse(module, a, b)?;
            return Ok(true);
        }
    }
    Ok(false)
}

/// `b` can fold into `a` when bounds match and no value or memory
/// dependency runs from `a`'s outputs to `b`'s inputs.
fn can_fuse(m: &Module, a: OpId, b: OpId, between_and_after: &[OpId]) -> bool {
    let bounds_a = stencil::ApplyOp(a).output_bounds(m);
    let bounds_b = stencil::ApplyOp(b).output_bounds(m);
    if bounds_a != bounds_b {
        return false;
    }
    // Direct value dependency: any input of b produced by a.
    for &input in &m.op(b).operands {
        if m.defining_op(input) == Some(a) {
            return false;
        }
    }
    // Memory dependency: a's results stored to a field whose source array is
    // also the source of one of b's input temps.
    let mut stored_bases = Vec::new();
    for &op in between_and_after {
        if m.op(op).name.full() == stencil::STORE {
            let temp = m.op(op).operands[0];
            if m.defining_op(temp) == Some(a) {
                if let Some(base) = field_source(m, m.op(op).operands[1]) {
                    stored_bases.push(base);
                }
            }
        }
    }
    for &input in &m.op(b).operands {
        if let Some(load) = m.defining_op(input) {
            if m.op(load).name.full() == stencil::LOAD {
                if let Some(base) = field_source(m, m.op(load).operands[0]) {
                    if stored_bases.contains(&base) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// The external storage value behind a field.
fn field_source(m: &Module, field: ValueId) -> Option<ValueId> {
    let def = m.defining_op(field)?;
    if m.op(def).name.full() == stencil::EXTERNAL_LOAD {
        Some(m.op(def).operands[0])
    } else {
        None
    }
}

/// Fuse apply `b` into apply `a`, producing a combined apply at `a`'s
/// position with `a`'s results first.
fn fuse(module: &mut Module, a: OpId, b: OpId) -> Result<()> {
    let a_view = stencil::ApplyOp(a);
    let bounds = a_view.output_bounds(module);

    // Deduplicated input list.
    let mut inputs: Vec<ValueId> = Vec::new();
    for &v in module.op(a).operands.iter().chain(&module.op(b).operands) {
        if !inputs.contains(&v) {
            inputs.push(v);
        }
    }
    let mut result_elems = Vec::new();
    for &r in module.op(a).results.iter().chain(&module.op(b).results) {
        let elem = module
            .value_type(r)
            .elem_type()
            .ok_or_else(|| IrError::new("apply result is not a temp type"))?
            .clone();
        result_elems.push(elem);
    }
    let old_results: Vec<ValueId> = module
        .op(a)
        .results
        .iter()
        .chain(&module.op(b).results)
        .copied()
        .collect();

    let fused = {
        let mut builder = OpBuilder::before(module, a);
        stencil::build_apply(&mut builder, inputs.clone(), bounds, result_elems)
    };
    // `b`'s inputs (field/temp loads, captured scalar loads) were created
    // after `a`; hoist them (and their pure dependencies) above the fused
    // apply so SSA dominance holds.
    hoist_defs_before(module, &inputs, fused.0);
    let fused_body = fused.body(module);

    // Point each original apply's block args at the fused block args, then
    // move the body ops across; the originals keep only their returns.
    let mut return_values = Vec::new();
    for &src_apply in &[a, b] {
        let src_body = stencil::ApplyOp(src_apply).body(module);
        let src_inputs = module.op(src_apply).operands.clone();
        let src_args = module.block_args(src_body).to_vec();
        for (arg, input) in src_args.iter().zip(&src_inputs) {
            let fused_idx = inputs
                .iter()
                .position(|v| v == input)
                .ok_or_else(|| IrError::new("fused apply lost an input"))?;
            let fused_arg = module.block_args(fused_body)[fused_idx];
            module.replace_all_uses(*arg, fused_arg);
        }
        for op in module.block_ops(src_body) {
            if module.op(op).name.full() == stencil::RETURN {
                return_values.extend_from_slice(&module.op(op).operands);
            } else {
                move_op_to_end(module, op, fused_body);
            }
        }
    }
    {
        let mut builder = OpBuilder::at_end(module, fused_body);
        stencil::build_return(&mut builder, return_values);
    }

    // Rewire consumers (the stencil.stores) and drop the originals.
    let fused_results = module.op(fused.0).results.clone();
    for (old, new) in old_results.iter().zip(&fused_results) {
        module.replace_all_uses(*old, *new);
    }
    module.erase_op(a);
    module.erase_op(b);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discover::discover_stencils;
    use fsc_dialects::verify::verify;
    use fsc_fortran::compile_to_fir;
    use fsc_ir::types::DimBound;

    /// Three same-domain stencils over shared inputs (PW advection shape).
    const THREE_STENCILS: &str = "
program pw
  integer, parameter :: n = 8
  integer :: i, j, k
  real(kind=8) :: u(0:n+1, 0:n+1, 0:n+1), v(0:n+1, 0:n+1, 0:n+1)
  real(kind=8) :: su(0:n+1, 0:n+1, 0:n+1), sv(0:n+1, 0:n+1, 0:n+1), sw(0:n+1, 0:n+1, 0:n+1)
  do k = 1, n
    do j = 1, n
      do i = 1, n
        su(i, j, k) = 0.5 * (u(i-1, j, k) + u(i+1, j, k))
        sv(i, j, k) = 0.5 * (v(i, j-1, k) + v(i, j+1, k))
        sw(i, j, k) = 0.25 * (u(i, j, k-1) + v(i, j, k+1))
      end do
    end do
  end do
end program pw
";

    #[test]
    fn three_applies_fuse_into_one() {
        let mut m = compile_to_fir(THREE_STENCILS).unwrap();
        let n = discover_stencils(&mut m).unwrap();
        assert_eq!(n, 3);
        merge_adjacent_applies(&mut m).unwrap();
        let applies = collect_ops_named(&m, stencil::APPLY);
        assert_eq!(applies.len(), 1, "expected one fused apply");
        let apply = stencil::ApplyOp(applies[0]);
        assert_eq!(m.op(applies[0]).results.len(), 3);
        // Shared inputs deduplicated: u and v temps only.
        assert_eq!(apply.inputs(&m).len(), 2);
        // Three stores remain, now fed by the fused apply.
        let stores = collect_ops_named(&m, stencil::STORE);
        assert_eq!(stores.len(), 3);
        for s in stores {
            assert_eq!(m.defining_op(m.op(s).operands[0]), Some(applies[0]));
        }
        verify(&m).unwrap();
    }

    #[test]
    fn dependent_applies_do_not_fuse() {
        // Second stencil reads what the first wrote: must stay separate.
        let src = "
program t
  integer, parameter :: n = 8
  integer :: i
  real(kind=8) :: a(0:n+1), b(0:n+1), c(0:n+1)
  do i = 1, n
    b(i) = 0.5 * (a(i-1) + a(i+1))
  end do
  do i = 1, n
    c(i) = 0.5 * (b(i-1) + b(i+1))
  end do
end program t
";
        let mut m = compile_to_fir(src).unwrap();
        assert_eq!(discover_stencils(&mut m).unwrap(), 2);
        merge_adjacent_applies(&mut m).unwrap();
        assert_eq!(collect_ops_named(&m, stencil::APPLY).len(), 2);
        verify(&m).unwrap();
    }

    #[test]
    fn different_bounds_do_not_fuse() {
        let src = "
program t
  integer, parameter :: n = 8
  integer :: i
  real(kind=8) :: a(0:n+1), b(0:n+1), c(0:n+1)
  do i = 1, n
    b(i) = a(i)
  end do
  do i = 2, n
    c(i) = a(i)
  end do
end program t
";
        let mut m = compile_to_fir(src).unwrap();
        assert_eq!(discover_stencils(&mut m).unwrap(), 2);
        merge_adjacent_applies(&mut m).unwrap();
        assert_eq!(collect_ops_named(&m, stencil::APPLY).len(), 2);
    }

    #[test]
    fn dedupe_collapses_shared_field_loads() {
        let mut m = compile_to_fir(THREE_STENCILS).unwrap();
        discover_stencils(&mut m).unwrap();
        // After dedupe+fusion, one external_load per distinct array.
        merge_adjacent_applies(&mut m).unwrap();
        let loads = collect_ops_named(&m, stencil::EXTERNAL_LOAD);
        assert_eq!(loads.len(), 5); // u, v, su, sv, sw
        verify(&m).unwrap();
    }

    #[test]
    fn fused_domain_bounds_preserved() {
        let mut m = compile_to_fir(THREE_STENCILS).unwrap();
        discover_stencils(&mut m).unwrap();
        merge_adjacent_applies(&mut m).unwrap();
        let applies = collect_ops_named(&m, stencil::APPLY);
        let apply = stencil::ApplyOp(applies[0]);
        assert_eq!(
            apply.output_bounds(&m),
            vec![
                DimBound::new(1, 8),
                DimBound::new(1, 8),
                DimBound::new(1, 8)
            ]
        );
    }
}
