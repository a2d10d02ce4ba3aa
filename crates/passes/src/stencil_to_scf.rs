//! The xDSL stencil lowering: `stencil` → `scf` + `memref` + `arith`.
//!
//! As described in §3 of the paper, both architecture flavours share one
//! implementation driven by an option:
//!
//! * **CPU** — "converts the top level loop into `scf.parallel` and nested
//!   inner loops into `scf.for`": the slowest-varying dimension becomes a
//!   1-D `scf.parallel`, remaining dimensions nested serial `scf.for`s with
//!   the contiguous (first Fortran) dimension innermost;
//! * **GPU** — "attempts to coalesce the loops into a single `scf.parallel`
//!   loop": one multi-dimensional `scf.parallel` over the whole domain.
//!
//! Memory model: a `!stencil.field<[l0,u0]x...>` lowers to a
//! `memref<e0x...xT>` viewed over the external pointer
//! ([`fsc_dialects::memref::FROM_PTR`]), with **column-major linearisation**
//! (dimension 0 fastest) matching Fortran array layout. All loop
//! coordinates stay in the global (Fortran index) space; address arithmetic
//! subtracts the field's lower bound per dimension.

use std::collections::HashMap;

use fsc_dialects::{arith, memref, scf, stencil};
use fsc_ir::pass::PassOptions;
use fsc_ir::rewrite::hoist_defs_before;
use fsc_ir::types::DimBound;
use fsc_ir::walk::collect_ops_named;
use fsc_ir::{
    Attribute, BlockId, IrError, Module, OpBuilder, OpId, Pass, PassResult, Result, Type, ValueId,
};

/// Which loop shape to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoweringTarget {
    /// Outer `scf.parallel` over the slowest dimension, inner `scf.for`s.
    #[default]
    Cpu,
    /// One coalesced multi-dimensional `scf.parallel`.
    Gpu,
}

/// The `stencil-to-scf` pass (option `target=cpu|gpu`).
#[derive(Debug, Default, Clone, Copy)]
pub struct StencilToScf {
    /// Loop shape flavour.
    pub target: LoweringTarget,
}

impl StencilToScf {
    /// Construct from pipeline options.
    pub fn from_options(opts: &PassOptions) -> Self {
        let target = match opts.get("target") {
            Some("gpu") => LoweringTarget::Gpu,
            _ => LoweringTarget::Cpu,
        };
        Self { target }
    }
}

impl Pass for StencilToScf {
    fn name(&self) -> &str {
        "stencil-to-scf"
    }

    fn run(&self, module: &mut Module) -> Result<PassResult> {
        let changed = lower_stencils(module, self.target)?;
        Ok(if changed {
            PassResult::Changed
        } else {
            PassResult::Unchanged
        })
    }
}

/// A lowered view of a field/temp: the memref plus the global lower bound
/// per dimension.
#[derive(Debug, Clone)]
struct View {
    memref: ValueId,
    lbs: Vec<i64>,
}

/// Lower all stencil ops in the module; returns whether anything changed.
pub fn lower_stencils(module: &mut Module, target: LoweringTarget) -> Result<bool> {
    let applies = collect_ops_named(module, stencil::APPLY);
    if applies.is_empty() && collect_ops_named(module, stencil::EXTERNAL_LOAD).is_empty() {
        return Ok(false);
    }

    // 1. Lower external_loads to memref views; record field → view.
    let mut views: HashMap<ValueId, View> = HashMap::new();
    for op in collect_ops_named(module, stencil::EXTERNAL_LOAD) {
        let source = module.op(op).operands[0];
        let field = module.result(op);
        let (bounds, elem) = match module.value_type(field) {
            Type::StencilField { bounds, elem } => (bounds.clone(), (**elem).clone()),
            other => {
                return Err(IrError::new(format!("external_load produced {other}")));
            }
        };
        let extents: Vec<i64> = bounds.iter().map(DimBound::extent).collect();
        let lbs: Vec<i64> = bounds.iter().map(|b| b.lower).collect();
        let mr = {
            let mut b = OpBuilder::before(module, op);
            memref::from_ptr(&mut b, source, Type::memref(extents, elem))
        };
        if let Some(def) = module.defining_op(mr) {
            module.op_mut(def).attrs.insert(
                memref::LOWER_BOUNDS.into(),
                Attribute::IndexList(lbs.clone()),
            );
        }
        views.insert(field, View { memref: mr, lbs });
    }

    // 2. Temps from stencil.load alias their field's view.
    for op in collect_ops_named(module, stencil::LOAD) {
        let field = module.op(op).operands[0];
        let temp = module.result(op);
        let view = views
            .get(&field)
            .cloned()
            .ok_or_else(|| IrError::new("stencil.load of unlowered field"))?;
        views.insert(temp, view);
    }

    // 3. Lower each apply (+ its stores) to a loop nest.
    for apply_op in collect_ops_named(module, stencil::APPLY) {
        lower_apply(module, apply_op, &views, target)?;
    }

    // 4. Halo-exchange ops inserted by `stencil-to-dmp` / `dmp-to-mpi`
    // reference fields/temps; retarget every such operand at the memref
    // views so the stencil ops can be erased. (`mpi.pack`/`mpi.halo_buffer`
    // carry the field as operand 0, `mpi.unpack` as operand 1; staging
    // operands are never stencil-typed and pass through untouched.)
    for name in [
        fsc_dialects::dmp::SWAP,
        fsc_dialects::mpi::ISEND,
        fsc_dialects::mpi::IRECV,
        fsc_dialects::mpi::PACK,
        fsc_dialects::mpi::HALO_BUFFER,
        fsc_dialects::mpi::UNPACK,
    ] {
        for op in collect_ops_named(module, name) {
            for i in 0..module.op(op).operands.len() {
                let buffer = module.op(op).operands[i];
                if let Some(view) = views.get(&buffer) {
                    let mr = view.memref;
                    module.set_operand(op, i, mr);
                    hoist_defs_before(module, &[mr], op);
                }
            }
        }
    }

    // 5. Erase the stencil ops (stores first — they use apply results).
    for op in collect_ops_named(module, stencil::STORE)
        .into_iter()
        .chain(collect_ops_named(module, stencil::APPLY))
        .chain(collect_ops_named(module, stencil::LOAD))
        .chain(collect_ops_named(module, stencil::EXTERNAL_LOAD))
        .chain(collect_ops_named(module, stencil::EXTERNAL_STORE))
    {
        if module.is_alive(op) {
            module.erase_op(op);
        }
    }
    Ok(true)
}

fn lower_apply(
    module: &mut Module,
    apply_op: OpId,
    views: &HashMap<ValueId, View>,
    target: LoweringTarget,
) -> Result<()> {
    let apply = stencil::ApplyOp(apply_op);
    let bounds = apply.output_bounds(module);
    let rank = bounds.len();

    // Pair each apply result with the store consuming it.
    let results = module.op(apply_op).results.clone();
    let mut out_views: Vec<View> = Vec::with_capacity(results.len());
    for &r in &results {
        let store = module
            .uses(r)
            .into_iter()
            .map(|(op, _)| op)
            .find(|&op| module.op(op).name.full() == stencil::STORE)
            .ok_or_else(|| IrError::new("apply result is never stored"))?;
        let field = module.op(store).operands[1];
        let view = views
            .get(&field)
            .cloned()
            .ok_or_else(|| IrError::new("store to unlowered field"))?;
        out_views.push(view);
    }

    // The from_ptr views for fields loaded *after* this apply in the block
    // (an artefact of fusion ordering) must dominate the loop nest.
    let out_memrefs: Vec<ValueId> = out_views.iter().map(|v| v.memref).collect();
    hoist_defs_before(module, &out_memrefs, apply_op);

    // Map apply inputs: temps → views (with copies where an input aliases an
    // output), scalars → the operand value itself.
    let operands = module.op(apply_op).operands.clone();
    let body = apply.body(module);
    let body_args = module.block_args(body).to_vec();
    let mut input_views: HashMap<ValueId, View> = HashMap::new(); // keyed by body arg
    let mut scalar_map: HashMap<ValueId, ValueId> = HashMap::new();
    for (&operand, &arg) in operands.iter().zip(&body_args) {
        if let Some(view) = views.get(&operand) {
            let aliases_output = out_views.iter().any(|ov| ov.memref == view.memref);
            let v = if aliases_output {
                // Value semantics: snapshot the input before writing.
                let mr_ty = module.value_type(view.memref).clone();
                let mut b = OpBuilder::before(module, apply_op);
                let copy = memref::alloc(&mut b, mr_ty);
                memref::copy(&mut b, view.memref, copy);
                View {
                    memref: copy,
                    lbs: view.lbs.clone(),
                }
            } else {
                view.clone()
            };
            input_views.insert(arg, v);
        } else {
            scalar_map.insert(arg, operand);
        }
    }

    // Build the loop nest before the apply.
    // ivs[d] = induction variable for dimension d (global coords).
    let mut ivs: Vec<ValueId> = vec![ValueId(u32::MAX); rank];
    let innermost: BlockId;
    let loop_root: OpId;
    {
        let mut b = OpBuilder::before(module, apply_op);
        let lb_consts: Vec<ValueId> = bounds
            .iter()
            .map(|d| arith::const_index(&mut b, d.lower))
            .collect();
        let ub_consts: Vec<ValueId> = bounds
            .iter()
            .map(|d| arith::const_index(&mut b, d.upper + 1))
            .collect();
        let one = arith::const_index(&mut b, 1);

        match target {
            LoweringTarget::Gpu => {
                // One coalesced parallel loop, slowest dim first.
                let order: Vec<usize> = (0..rank).rev().collect();
                let par = scf::build_parallel(
                    &mut b,
                    order.iter().map(|&d| lb_consts[d]).collect(),
                    order.iter().map(|&d| ub_consts[d]).collect(),
                    vec![one; rank],
                );
                let m = b.module();
                let par_ivs = par.ivs(m);
                for (pos, &d) in order.iter().enumerate() {
                    ivs[d] = par_ivs[pos];
                }
                innermost = par.body(m);
                loop_root = par.0;
            }
            LoweringTarget::Cpu => {
                // Parallel over the slowest dim, serial loops inwards.
                let top_dim = rank - 1;
                let par = scf::build_parallel(
                    &mut b,
                    vec![lb_consts[top_dim]],
                    vec![ub_consts[top_dim]],
                    vec![one],
                );
                let m = b.module();
                ivs[top_dim] = par.ivs(m)[0];
                let mut current = par.body(m);
                for d in (0..top_dim).rev() {
                    let term = m
                        .block_terminator(current)
                        .ok_or_else(|| IrError::new("loop body lost its terminator"))?;
                    let mut ib = OpBuilder::before(m, term);
                    let f = scf::build_for(&mut ib, lb_consts[d], ub_consts[d], one);
                    let m2 = ib.module();
                    ivs[d] = f.iv(m2);
                    current = f.body(m2);
                }
                innermost = current;
                loop_root = par.0;
            }
        }
    }

    // The halo schedule proved by `mpi-overlap-halos` rides on the loop
    // root, like the tiling pass's `"tiled"` attribute, so the kernel
    // compiler can surface it per nest.
    if let Some(sched) = module.op(apply_op).attr("halo_schedule").cloned() {
        module
            .op_mut(loop_root)
            .attrs
            .insert("halo_schedule".into(), sched);
    }

    // Populate the innermost body from the apply region.
    let mut value_map: HashMap<ValueId, ValueId> = HashMap::new();
    let body_ops = module.block_ops(body);
    let term = module
        .block_terminator(innermost)
        .ok_or_else(|| IrError::new("innermost loop body lost its terminator"))?;
    for op in body_ops {
        let name = module.op(op).name.clone();
        match name.full() {
            stencil::ACCESS => {
                let temp_arg = module.op(op).operands[0];
                let offsets = stencil::access_offset(module, op)
                    .ok_or_else(|| IrError::new("access without offset"))?;
                let view = input_views
                    .get(&temp_arg)
                    .ok_or_else(|| IrError::new("access of unmapped temp"))?
                    .clone();
                let result = module.result(op);
                let mut b = OpBuilder::before(module, term);
                let indices = address_indices(&mut b, &ivs, &offsets, &view.lbs);
                let loaded = memref::load(&mut b, view.memref, indices);
                value_map.insert(result, loaded);
            }
            stencil::INDEX => {
                let dim = module
                    .op(op)
                    .attr("dim")
                    .and_then(Attribute::as_int)
                    .unwrap_or(0) as usize;
                value_map.insert(module.result(op), ivs[dim]);
            }
            stencil::RETURN => {
                let values = module.op(op).operands.clone();
                for (i, v) in values.into_iter().enumerate() {
                    let out = out_views[i].clone();
                    let stored = *value_map.get(&v).unwrap_or(&v);
                    let mut b = OpBuilder::before(module, term);
                    let indices = address_indices(&mut b, &ivs, &vec![0; rank], &out.lbs);
                    memref::store(&mut b, stored, out.memref, indices);
                }
            }
            _ => {
                // arith/math ops: clone with remapped operands.
                let operands: Vec<ValueId> = module
                    .op(op)
                    .operands
                    .iter()
                    .map(|o| *value_map.get(o).or_else(|| scalar_map.get(o)).unwrap_or(o))
                    .collect();
                let result_tys: Vec<Type> = module
                    .op(op)
                    .results
                    .iter()
                    .map(|&r| module.value_type(r).clone())
                    .collect();
                let attrs: Vec<(String, Attribute)> = module
                    .op(op)
                    .attrs
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                let old_results = module.op(op).results.clone();
                let mut b = OpBuilder::before(module, term);
                let new_op = b.op(
                    name,
                    operands,
                    result_tys,
                    attrs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect(),
                );
                let new_results = module.op(new_op).results.clone();
                for (old, new) in old_results.into_iter().zip(new_results) {
                    value_map.insert(old, new);
                }
            }
        }
    }
    Ok(())
}

/// Build the memref indices `iv_d + (offset_d - lb_d)` for each dimension.
fn address_indices(
    b: &mut OpBuilder,
    ivs: &[ValueId],
    offsets: &[i64],
    lbs: &[i64],
) -> Vec<ValueId> {
    ivs.iter()
        .zip(offsets.iter().zip(lbs))
        .map(|(&iv, (&off, &lb))| {
            let shift = off - lb;
            if shift == 0 {
                iv
            } else {
                let c = arith::const_index(b, shift);
                arith::addi(b, iv, c)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discover::discover_stencils;
    use crate::extract::extract_stencils;
    use crate::merge::merge_adjacent_applies;
    use fsc_dialects::verify::{assert_dialect_absent, verify};
    use fsc_fortran::compile_to_fir;

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

    fn stencil_module(src: &str) -> Module {
        let mut m = compile_to_fir(src).unwrap();
        discover_stencils(&mut m).unwrap();
        merge_adjacent_applies(&mut m).unwrap();
        extract_stencils(&mut m).unwrap()
    }

    #[test]
    fn cpu_shape_is_parallel_plus_for() {
        let mut st = stencil_module(LISTING1);
        lower_stencils(&mut st, LoweringTarget::Cpu).unwrap();
        assert_dialect_absent(&st, "stencil").unwrap();
        let pars = collect_ops_named(&st, scf::PARALLEL);
        assert_eq!(pars.len(), 1);
        assert_eq!(scf::ParallelOp(pars[0]).num_dims(&st), 1);
        let fors = collect_ops_named(&st, scf::FOR);
        assert_eq!(fors.len(), 1);
        // The for is nested inside the parallel.
        assert!(st.ancestors(fors[0]).contains(&pars[0]));
        verify(&st).unwrap();
    }

    #[test]
    fn gpu_shape_is_one_coalesced_parallel() {
        let mut st = stencil_module(LISTING1);
        lower_stencils(&mut st, LoweringTarget::Gpu).unwrap();
        let pars = collect_ops_named(&st, scf::PARALLEL);
        assert_eq!(pars.len(), 1);
        assert_eq!(scf::ParallelOp(pars[0]).num_dims(&st), 2);
        assert!(collect_ops_named(&st, scf::FOR).is_empty());
        verify(&st).unwrap();
    }

    #[test]
    fn memref_views_built_from_pointers() {
        let mut st = stencil_module(LISTING1);
        lower_stencils(&mut st, LoweringTarget::Cpu).unwrap();
        let views = collect_ops_named(&st, memref::FROM_PTR);
        assert_eq!(views.len(), 2);
        for v in views {
            assert_eq!(
                st.value_type(st.result(v)),
                &Type::memref(vec![66, 66], Type::f64())
            );
        }
    }

    #[test]
    fn loop_bounds_match_domain() {
        let mut st = stencil_module(LISTING1);
        lower_stencils(&mut st, LoweringTarget::Cpu).unwrap();
        let pars = collect_ops_named(&st, scf::PARALLEL);
        let par = scf::ParallelOp(pars[0]);
        let lb = arith::const_int_value(&st, par.lbs(&st)[0]).unwrap();
        let ub = arith::const_int_value(&st, par.ubs(&st)[0]).unwrap();
        assert_eq!((lb, ub), (1, 65), "domain 1..=64 → exclusive 65");
    }

    #[test]
    fn in_place_apply_gets_snapshot_copy() {
        let src = "
program t
  integer, parameter :: n = 8
  integer :: i
  real(kind=8) :: u(0:n+1)
  do i = 1, n
    u(i) = 0.5 * (u(i) + u(i+1))
  end do
end program t
";
        let mut st = stencil_module(src);
        lower_stencils(&mut st, LoweringTarget::Cpu).unwrap();
        assert_eq!(collect_ops_named(&st, memref::ALLOC).len(), 1);
        assert_eq!(collect_ops_named(&st, memref::COPY).len(), 1);
        verify(&st).unwrap();
    }

    #[test]
    fn no_copy_for_disjoint_in_out() {
        let mut st = stencil_module(LISTING1);
        lower_stencils(&mut st, LoweringTarget::Cpu).unwrap();
        assert!(collect_ops_named(&st, memref::ALLOC).is_empty());
        assert!(collect_ops_named(&st, memref::COPY).is_empty());
    }

    #[test]
    fn fused_apply_lowered_with_multiple_stores() {
        let src = "
program pw
  integer, parameter :: n = 8
  integer :: i, k
  real(kind=8) :: u(0:n+1, 0:n+1), su(0:n+1, 0:n+1), sv(0:n+1, 0:n+1)
  do k = 1, n
    do i = 1, n
      su(i, k) = 0.5 * (u(i-1, k) + u(i+1, k))
      sv(i, k) = 0.5 * (u(i, k-1) + u(i, k+1))
    end do
  end do
end program pw
";
        let mut st = stencil_module(src);
        lower_stencils(&mut st, LoweringTarget::Cpu).unwrap();
        // One loop nest, two memref.stores in the innermost body.
        assert_eq!(collect_ops_named(&st, scf::PARALLEL).len(), 1);
        assert_eq!(collect_ops_named(&st, memref::STORE).len(), 2);
        verify(&st).unwrap();
    }

    #[test]
    fn pass_options_select_target() {
        let mut opts = PassOptions::default();
        opts.set("target", "gpu");
        assert_eq!(
            StencilToScf::from_options(&opts).target,
            LoweringTarget::Gpu
        );
        assert_eq!(
            StencilToScf::from_options(&PassOptions::default()).target,
            LoweringTarget::Cpu
        );
    }
}
