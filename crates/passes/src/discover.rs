//! *Stencil discovery* — the paper's Listing 3.
//!
//! For every `fir.store` indexed by loops, walk the right-hand side's
//! backward slice; if it is built purely from neighbourhood array reads
//! (`loopvar + const` subscripts), captured loop-invariant scalars, loop
//! indices and `arith`/`math` arithmetic, rewrite the computation as
//! `stencil.external_load` / `stencil.load` / `stencil.apply` /
//! `stencil.store` ops inserted directly before the outermost applicable
//! loop, erase the original body computation, and finally delete loops left
//! empty. Adjacent compatible applies are merged afterwards
//! (`merge_stencils_if_possible`, line 29 of Listing 3 — our
//! [`crate::merge`] pass).
//!
//! The stencil coordinate system is the Fortran index space: a field built
//! from an array declared `a(0:n+1, 0:n+1)` gets bounds `[0,n+1]x[0,n+1]`,
//! and the apply's domain is the loop range, exactly as in the paper's
//! Listing 2 where `data(-1:256)` iterated over `1..256` yields
//! `!stencil.temp<[-1,255]x...>` (zero-based there because C-style bounds).

use std::collections::{HashMap, HashSet};

use fsc_dialects::{fir, stencil};
use fsc_ir::rewrite::{erase_dead_pure_ops, erase_op_and_dead_defs};
use fsc_ir::types::DimBound;
use fsc_ir::walk::{collect_nested_ops, collect_ops_named};
use fsc_ir::{
    Attribute, IrError, Module, OpBuilder, OpId, Pass, PassResult, Result, Type, ValueId,
};

use crate::analysis::{decode_access, gather_program_loops, ArrayAccess, IndexExpr, LoopInfo};
use crate::merge;

/// The discovery pass. Registered as `discover-stencils`. `fuse` controls
/// whether line 29 of Listing 3 (`merge_stencils_if_possible`) runs — the
/// fusion ablation and the unoptimised comparison tier turn it off.
#[derive(Debug, Clone, Copy)]
pub struct DiscoverStencils {
    /// Run the adjacent-apply fusion after discovery.
    pub fuse: bool,
}

impl Default for DiscoverStencils {
    fn default() -> Self {
        Self { fuse: true }
    }
}

impl Pass for DiscoverStencils {
    fn name(&self) -> &str {
        "discover-stencils"
    }

    fn run(&self, module: &mut Module) -> Result<PassResult> {
        let found = discover_stencils(module)?;
        if found == 0 {
            return Ok(PassResult::Unchanged);
        }
        if self.fuse {
            merge::merge_adjacent_applies(module)?;
        }
        Ok(PassResult::Changed)
    }
}

/// Run discovery; returns the number of stencils created.
pub fn discover_stencils(module: &mut Module) -> Result<usize> {
    let loops = gather_program_loops(module);
    let mut built = 0usize;
    // Identify candidate stores first (ids stay valid across rewrites).
    let stores: Vec<OpId> = collect_ops_named(module, fir::STORE)
        .into_iter()
        .filter(|&s| module.value_type(module.op(s).operands[0]).is_float())
        .collect();
    // Scalars stored to inside each loop nest, gathered once per nest:
    // every candidate is analysed before any is built, so the set holds for
    // every candidate of the nest.
    let mut nest_stores: HashMap<OpId, HashSet<ValueId>> = HashMap::new();
    let candidates: Vec<Candidate> = stores
        .into_iter()
        .filter_map(|store| analyze_candidate(module, store, &loops, &mut nest_stores))
        .collect();
    let mut nests: HashMap<OpId, Vec<&Candidate>> = HashMap::new();
    for cand in &candidates {
        nests.entry(cand.top_loop).or_default().push(cand);
    }
    let legal: HashSet<OpId> = nests
        .iter()
        .filter(|(&top_loop, lifted)| distribution_is_legal(module, top_loop, lifted))
        .map(|(&top_loop, _)| top_loop)
        .collect();
    for cand in candidates.iter().filter(|c| legal.contains(&c.top_loop)) {
        build_stencil(module, cand)?;
        module.erase_op(cand.store);
        built += 1;
    }
    if built > 0 {
        remove_empty_loops(module);
    }
    Ok(built)
}

/// One array read of a candidate's slice: the array and the constant added
/// to the loop variable in each subscript.
struct Read {
    base: ValueId,
    offsets: Vec<i64>,
}

/// Everything needed to materialise one stencil.
struct Candidate {
    /// The original array store.
    store: OpId,
    /// Decoded store target.
    target: ArrayAccess,
    /// Store subscript offsets per dimension.
    store_offsets: Vec<i64>,
    /// The loop driving each store dimension.
    dim_loops: Vec<LoopInfo>,
    /// Outermost applicable loop (insertion anchor).
    top_loop: OpId,
    /// Loop-variable alloca → store dimension.
    var_dims: HashMap<ValueId, usize>,
    /// Captured loop-invariant scalar allocas, in first-use order.
    captured: Vec<ValueId>,
    /// Array reads in the slice (deduplicated by base), in first-use order.
    read_bases: Vec<ValueId>,
    /// Representative access per read base (for bounds).
    read_info: HashMap<ValueId, ArrayAccess>,
    /// Every array `fir.load` of the slice, by its result, as decoded
    /// during validation.
    reads: HashMap<ValueId, Read>,
}

fn analyze_candidate(
    m: &Module,
    store: OpId,
    loops: &[LoopInfo],
    nest_stores: &mut HashMap<OpId, HashSet<ValueId>>,
) -> Option<Candidate> {
    let target = decode_access(m, m.op(store).operands[1])?;
    if !target.is_loop_indexed() {
        return None;
    }
    let ancestors = m.ancestors(store);
    // Map each store dim to its loop. The same Fortran variable may drive
    // several loops in the program (e.g. reused `i` across nests), so each
    // subscript resolves to the *enclosing* loop bound to that variable.
    let mut dim_loops: Vec<LoopInfo> = Vec::new();
    let mut var_dims = HashMap::new();
    let mut store_offsets = Vec::new();
    for (d, expr) in target.index_exprs.iter().enumerate() {
        let IndexExpr::LoopVar { alloca, offset } = *expr else {
            return None;
        };
        let info = loops
            .iter()
            .filter(|l| l.var_alloca == Some(alloca) && ancestors.contains(&l.op))
            .max_by_key(|l| l.depth)?
            .clone();
        if info.step != Some(1) || info.lb.is_none() || info.ub.is_none() {
            return None;
        }
        if var_dims.insert(alloca, d).is_some() {
            return None; // same loop used twice
        }
        store_offsets.push(offset);
        dim_loops.push(info);
    }
    let top_loop = dim_loops.iter().min_by_key(|l| l.depth).map(|l| l.op)?;
    // No conditional control flow between the store and the outermost
    // applicable loop: every ancestor on that path must itself be a
    // `fir.do_loop` (extracting the store would otherwise change which
    // iterations write).
    for &anc in &ancestors {
        if m.op(anc).name.full() != fir::DO_LOOP {
            return None;
        }
        if anc == top_loop {
            break;
        }
    }

    // Validate the RHS slice and collect reads/captures.
    let mutated = nest_stores.entry(top_loop).or_insert_with(|| {
        collect_nested_ops(m, top_loop)
            .into_iter()
            .filter(|&op| m.op(op).name.full() == fir::STORE)
            .map(|op| m.op(op).operands[1])
            .collect()
    });
    let mut ctx = SliceCtx {
        m,
        var_dims: &var_dims,
        target_rank: target.extents.len(),
        mutated,
        captured: Vec::new(),
        read_bases: Vec::new(),
        read_info: HashMap::new(),
        reads: HashMap::new(),
    };
    if !ctx.validate(m.op(store).operands[0]) {
        return None;
    }
    let SliceCtx {
        captured,
        read_bases,
        read_info,
        reads,
        ..
    } = ctx;
    // A read of the stored array at an offset the loops visit *earlier*
    // sees the value this nest just wrote there (a flow dependence, e.g.
    // `u(i) = u(i-1) + …`), which the apply's snapshot semantics would
    // not: leave such a nest as loops. Reads only at later offsets are
    // anti-dependences, which the snapshot preserves.
    let order = loop_order(&dim_loops);
    if reads
        .values()
        .any(|r| r.base == target.base && visited_before(&r.offsets, &store_offsets, &order))
    {
        return None;
    }
    Some(Candidate {
        store,
        store_offsets,
        dim_loops,
        top_loop,
        var_dims,
        captured,
        read_bases,
        read_info,
        reads,
        target,
    })
}

/// A candidate's store dimensions, outermost loop first.
fn loop_order(dim_loops: &[LoopInfo]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..dim_loops.len()).collect();
    order.sort_by_key(|&d| dim_loops[d].depth);
    order
}

/// True when the loops reach offset `a` strictly before offset `b`: the
/// first nonzero `a − b` delta, dims taken in `order`, is negative.
fn visited_before(a: &[i64], b: &[i64], order: &[usize]) -> bool {
    order
        .iter()
        .map(|&d| a[d] - b[d])
        .find(|&delta| delta != 0)
        .is_some_and(|delta| delta < 0)
}

/// The array an element address points into.
fn element_base(m: &Module, address: ValueId) -> Option<ValueId> {
    let def = m.defining_op(address)?;
    (m.op(def).name.full() == fir::COORDINATE_OF).then(|| m.op(def).operands[0])
}

/// Lifting a nest's candidates, one apply each, is *loop distribution*:
/// each runs over the whole domain, in body order, before anything the
/// nest keeps as loops. Legal when no dependence runs backwards: a store
/// the nest keeps, or an array load outside every lifted slice (a
/// reduction's, a condition's), touches no array a lifted store writes,
/// and every pair of lifted stores keeps its order.
fn distribution_is_legal(m: &Module, top_loop: OpId, lifted: &[&Candidate]) -> bool {
    let written: HashSet<ValueId> = lifted.iter().map(|c| c.target.base).collect();
    let touched: HashSet<ValueId> = lifted
        .iter()
        .flat_map(|c| c.reads.values().map(|r| r.base))
        .chain(written.iter().copied())
        .collect();
    let lifted_stores: HashSet<OpId> = lifted.iter().map(|c| c.store).collect();
    let lifted_loads: HashSet<ValueId> = lifted
        .iter()
        .flat_map(|c| c.reads.keys().copied())
        .collect();
    let foreign = collect_nested_ops(m, top_loop).into_iter().any(|op| {
        let data = m.op(op);
        match data.name.full() {
            fir::STORE if !lifted_stores.contains(&op) => {
                element_base(m, data.operands[1]).is_some_and(|b| touched.contains(&b))
            }
            fir::LOAD if !lifted_loads.contains(&m.result(op)) => {
                element_base(m, data.operands[0]).is_some_and(|b| written.contains(&b))
            }
            _ => false,
        }
    });
    !foreign
        && lifted
            .iter()
            .enumerate()
            .all(|(k, s1)| lifted[k + 1..].iter().all(|s2| stores_stay_ordered(s1, s2)))
}

/// Whether lifted stores `s1` before `s2` in the body may run one whole
/// domain after the other. Where they share an array, offsets compared in
/// loop-depth order, they may not if `s1` reads it earlier than `s2`
/// stores it (flow), `s2` reads it later than `s1` stores it (anti), or
/// `s1` stores it earlier than `s2` does (output). Stores over different
/// loops have no comparable offsets.
fn stores_stay_ordered(s1: &Candidate, s2: &Candidate) -> bool {
    let (a1, a2) = (s1.target.base, s2.target.base);
    let reads = |s: &Candidate, base: ValueId| s.reads.values().any(|r| r.base == base);
    if a1 != a2 && !reads(s1, a2) && !reads(s2, a1) {
        return true;
    }
    let loops = |s: &Candidate| s.dim_loops.iter().map(|l| l.op).collect::<Vec<_>>();
    let order = loop_order(&s1.dim_loops);
    let before = |a: &[i64], b: &[i64]| visited_before(a, b, &order);
    let (w1, w2) = (&s1.store_offsets, &s2.store_offsets);
    let flow = s1
        .reads
        .values()
        .any(|r| r.base == a2 && before(&r.offsets, w2));
    let anti = s2
        .reads
        .values()
        .any(|r| r.base == a1 && before(w1, &r.offsets));
    loops(s1) == loops(s2) && !(flow || anti || (a1 == a2 && before(w1, w2)))
}

struct SliceCtx<'a> {
    m: &'a Module,
    var_dims: &'a HashMap<ValueId, usize>,
    target_rank: usize,
    /// Scalars written anywhere inside the loop nest: not capturable.
    mutated: &'a HashSet<ValueId>,
    captured: Vec<ValueId>,
    read_bases: Vec<ValueId>,
    read_info: HashMap<ValueId, ArrayAccess>,
    reads: HashMap<ValueId, Read>,
}

impl<'a> SliceCtx<'a> {
    fn validate(&mut self, v: ValueId) -> bool {
        let m = self.m;
        let Some(def) = m.defining_op(v) else {
            // Block arguments (loop ivs) as raw values are not expected in
            // the value slice (the frontend goes through the alloca).
            return false;
        };
        let name = m.op(def).name.full();
        match name {
            fir::LOAD => {
                let addr = m.op(def).operands[0];
                if let Some(access) = decode_access(m, addr) {
                    // Array read: every dim must be loopvar+const with the
                    // loop matching the store's dimension.
                    if access.index_exprs.len() != self.target_rank {
                        return false;
                    }
                    let mut offsets = Vec::with_capacity(self.target_rank);
                    for (d, e) in access.index_exprs.iter().enumerate() {
                        let IndexExpr::LoopVar { alloca, offset } = e else {
                            return false;
                        };
                        if self.var_dims.get(alloca) != Some(&d) {
                            return false;
                        }
                        offsets.push(*offset);
                    }
                    let base = access.base;
                    self.reads.insert(v, Read { base, offsets });
                    if !self.read_bases.contains(&base) {
                        self.read_bases.push(base);
                        self.read_info.insert(base, access);
                    }
                    true
                } else {
                    // Scalar load: loop variable or captured invariant.
                    let src = m.op(def).operands[0];
                    if self.var_dims.contains_key(&src) {
                        return true; // loop index used as a value
                    }
                    if !matches!(m.value_type(src), Type::FirRef(_)) {
                        return false;
                    }
                    if self.mutated.contains(&src) {
                        return false;
                    }
                    if !self.captured.contains(&src) {
                        self.captured.push(src);
                    }
                    true
                }
            }
            "arith.constant" => true,
            fir::CONVERT | fir::NO_REASSOC => self.validate(m.op(def).operands[0]),
            _ if name.starts_with("arith.") || name.starts_with("math.") => {
                m.op(def).operands.clone().iter().all(|&o| self.validate(o))
            }
            _ => false,
        }
    }
}

/// Materialise the stencil ops for a candidate, inserted before its top
/// loop.
fn build_stencil(m: &mut Module, cand: &Candidate) -> Result<()> {
    let rank = cand.target.extents.len();
    let elem = cand.target.elem.clone();

    // Output domain bounds in Fortran index space.
    let mut out_bounds: Vec<DimBound> = Vec::with_capacity(rank);
    for d in 0..rank {
        let (Some(lb), Some(ub)) = (cand.dim_loops[d].lb, cand.dim_loops[d].ub) else {
            return Err(IrError::new(
                "stencil candidate has non-constant loop bounds",
            ));
        };
        out_bounds.push(DimBound::new(
            lb + cand.store_offsets[d],
            ub + cand.store_offsets[d],
        ));
    }

    // 1. Field loads for every read array and the output array.
    let mut temps: HashMap<ValueId, ValueId> = HashMap::new();
    let mut fields: HashMap<ValueId, ValueId> = HashMap::new();
    {
        let mut b = OpBuilder::before(m, cand.top_loop);
        for &base in &cand.read_bases {
            let acc = &cand.read_info[&base];
            let bounds = field_bounds(acc);
            let field = stencil::external_load(&mut b, base, bounds, acc.elem.clone());
            fields.insert(base, field);
            let temp = stencil::load(&mut b, field);
            temps.insert(base, temp);
        }
        if let std::collections::hash_map::Entry::Vacant(e) = fields.entry(cand.target.base) {
            let bounds = field_bounds(&cand.target);
            let field = stencil::external_load(&mut b, cand.target.base, bounds, elem.clone());
            e.insert(field);
        }
    }

    // 2. Captured scalars become loads just before the apply.
    let mut scalar_inputs = Vec::new();
    {
        let mut b = OpBuilder::before(m, cand.top_loop);
        for &alloca in &cand.captured {
            scalar_inputs.push(fir::load(&mut b, alloca));
        }
    }

    // 3. The apply op.
    let mut inputs: Vec<ValueId> = cand.read_bases.iter().map(|b| temps[b]).collect();
    let num_temps = inputs.len();
    inputs.extend(scalar_inputs.iter().copied());
    let apply = {
        let mut b = OpBuilder::before(m, cand.top_loop);
        stencil::build_apply(&mut b, inputs, out_bounds.clone(), vec![elem])
    };

    // 4. Populate the body by re-emitting the stored value's slice.
    let body = apply.body(m);
    let mut emitter = BodyEmitter {
        cand,
        memo: HashMap::new(),
        temp_args: cand
            .read_bases
            .iter()
            .enumerate()
            .map(|(i, &base)| (base, apply.body_arg(m, i)))
            .collect(),
        scalar_args: cand
            .captured
            .iter()
            .enumerate()
            .map(|(i, &alloca)| (alloca, apply.body_arg(m, num_temps + i)))
            .collect(),
    };
    let stored_value = m.op(cand.store).operands[0];
    let result = emitter.emit(m, body, stored_value)?;
    {
        let mut b = OpBuilder::at_end(m, body);
        stencil::build_return(&mut b, vec![result]);
    }

    // 5. Store the apply result back to the output field.
    {
        let apply_result = m.result(apply.0);
        let mut b = OpBuilder::before(m, cand.top_loop);
        stencil::store(&mut b, apply_result, fields[&cand.target.base], out_bounds);
    }
    Ok(())
}

/// Field bounds of an array in Fortran index space.
fn field_bounds(acc: &ArrayAccess) -> Vec<DimBound> {
    acc.lbounds
        .iter()
        .zip(&acc.extents)
        .map(|(&lb, &e)| DimBound::new(lb, lb + e - 1))
        .collect()
}

struct BodyEmitter<'a> {
    cand: &'a Candidate,
    memo: HashMap<ValueId, ValueId>,
    temp_args: HashMap<ValueId, ValueId>,
    scalar_args: HashMap<ValueId, ValueId>,
}

impl<'a> BodyEmitter<'a> {
    /// Re-emit the computation of `v` inside the apply body, returning the
    /// body-local value.
    fn emit(&mut self, m: &mut Module, body: fsc_ir::BlockId, v: ValueId) -> Result<ValueId> {
        if let Some(&done) = self.memo.get(&v) {
            return Ok(done);
        }
        let def = m
            .defining_op(v)
            .ok_or_else(|| IrError::new("slice value without defining op"))?;
        let name = m.op(def).name.clone();
        let out = match name.full() {
            fir::LOAD => {
                if let Some(read) = self.cand.reads.get(&v) {
                    // Relative offsets versus the store position.
                    let offsets = read
                        .offsets
                        .iter()
                        .zip(&self.cand.store_offsets)
                        .map(|(offset, store_offset)| offset - store_offset)
                        .collect();
                    let temp = *self
                        .temp_args
                        .get(&read.base)
                        .ok_or_else(|| IrError::new("stencil read base missing a temp argument"))?;
                    let mut b = OpBuilder::at_end(m, body);
                    stencil::access(&mut b, temp, offsets)
                } else {
                    let src = m.op(def).operands[0];
                    if let Some(&dim) = self.cand.var_dims.get(&src) {
                        // Loop index as a value: stencil.index gives the
                        // current coordinate; correct for the store offset
                        // and narrow to the Fortran integer type.
                        let off = self.cand.store_offsets[dim];
                        let mut b = OpBuilder::at_end(m, body);
                        let idx = stencil::index(&mut b, dim as i64);
                        let as_i32 = b.op1("arith.index_cast", vec![idx], Type::i32(), vec![]).1;
                        if off != 0 {
                            let c = fsc_dialects::arith::const_int(&mut b, off, Type::i32());
                            fsc_dialects::arith::subi(&mut b, as_i32, c)
                        } else {
                            as_i32
                        }
                    } else {
                        *self.scalar_args.get(&src).ok_or_else(|| {
                            IrError::new("scalar load not captured during validation")
                        })?
                    }
                }
            }
            "arith.constant" => {
                let value = m
                    .op(def)
                    .attr("value")
                    .cloned()
                    .ok_or_else(|| IrError::new("arith.constant without a value attr"))?;
                let ty = m.value_type(v).clone();
                let mut b = OpBuilder::at_end(m, body);
                b.op1("arith.constant", vec![], ty, vec![("value", value)])
                    .1
            }
            fir::NO_REASSOC => {
                let inner = m.op(def).operands[0];
                self.emit(m, body, inner)?
            }
            fir::CONVERT => {
                let inner = m.op(def).operands[0];
                let from = m.value_type(inner).clone();
                let to = m.value_type(v).clone();
                let iv = self.emit(m, body, inner)?;
                emit_standard_convert(m, body, iv, &from, &to)
            }
            other if other.starts_with("arith.") || other.starts_with("math.") => {
                let operands = m.op(def).operands.clone();
                let mut emitted = Vec::with_capacity(operands.len());
                for o in operands {
                    emitted.push(self.emit(m, body, o)?);
                }
                let ty = m.value_type(v).clone();
                let attrs: Vec<(String, Attribute)> = m
                    .op(def)
                    .attrs
                    .iter()
                    .map(|(k, a)| (k.clone(), a.clone()))
                    .collect();
                let mut b = OpBuilder::at_end(m, body);
                let op = b.op(
                    name.clone(),
                    emitted,
                    vec![ty],
                    attrs.iter().map(|(k, a)| (k.as_str(), a.clone())).collect(),
                );
                b.module().result(op)
            }
            other => {
                return Err(IrError::new(format!(
                    "unexpected op '{other}' in validated stencil slice"
                )));
            }
        };
        self.memo.insert(v, out);
        Ok(out)
    }
}

/// Translate a `fir.convert` into the equivalent standard-dialect cast —
/// needed because the extracted stencil module must not contain FIR (§3).
fn emit_standard_convert(
    m: &mut Module,
    body: fsc_ir::BlockId,
    v: ValueId,
    from: &Type,
    to: &Type,
) -> ValueId {
    if from == to {
        return v;
    }
    let name = match (from, to) {
        (Type::Int(_) | Type::Index, Type::Float(_)) => "arith.sitofp",
        (Type::Float(_), Type::Int(_) | Type::Index) => "arith.fptosi",
        (Type::Int(a), Type::Int(b)) if b > a => "arith.extsi",
        (Type::Int(a), Type::Int(b)) if b < a => "arith.trunci",
        (Type::Index, Type::Int(_)) | (Type::Int(_), Type::Index) => "arith.index_cast",
        (Type::Float(_), Type::Float(_)) => {
            return v; // single float width in this pipeline
        }
        _ => "arith.index_cast",
    };
    let mut b = OpBuilder::at_end(m, body);
    b.op1(name, vec![v], to.clone(), vec![]).1
}

/// Delete loops whose bodies contain only induction-variable bookkeeping
/// (lines 25–27 of Listing 3), inner loops before the loops around them:
/// the bound constants of an erased inner loop sit in the outer body and
/// are swept as they die, so the outer loop can be recognised as empty in
/// the same walk.
pub fn remove_empty_loops(m: &mut Module) {
    erase_dead_pure_ops(m);
    // Pre-order backwards: every loop comes before its ancestors.
    for lp_op in collect_ops_named(m, fir::DO_LOOP).into_iter().rev() {
        let lp = fir::DoLoopOp(lp_op);
        let iv = lp.iv(m);
        let only_bookkeeping = lp.body_ops(m).iter().all(|&op| {
            let data = m.op(op);
            match data.name.full() {
                fir::CONVERT => data.operands == [iv],
                fir::STORE => {
                    // A store of the converted iv into a scalar ref.
                    m.defining_op(data.operands[0]).is_some_and(|d| {
                        m.op(d).name.full() == fir::CONVERT && m.op(d).operands == [iv]
                    })
                }
                _ => false,
            }
        });
        if only_bookkeeping {
            erase_op_and_dead_defs(m, lp_op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsc_dialects::verify::verify;
    use fsc_fortran::compile_to_fir;

    /// The paper's Listing 1.
    const LISTING1: &str = "
program average
  integer, parameter :: n = 256
  integer :: i, j
  real(kind=8) :: data(0:n+1, 0:n+1), res(0:n+1, 0:n+1)
  do i = 1, n
    do j = 1, n
      res(j, i) = 0.25 * (data(j, i-1) + data(j, i+1) + data(j-1, i) + data(j+1, i))
    end do
  end do
end program average
";

    #[test]
    fn zero_trip_and_one_cell_nests_discover_cleanly(
    ) -> std::result::Result<(), Box<dyn std::error::Error>> {
        // `do i = 1, 0` (zero-extent interior) and `do i = 1, 1` (one-cell
        // interior) are degenerate but legal: discovery must either build a
        // verified zero/one-extent apply or reject the nest — never
        // underflow the bound arithmetic or emit IR the verifier rejects.
        for (upper, extent) in [(0i64, 0i64), (1, 1)] {
            let src = format!(
                "
program tiny
  integer, parameter :: n = {upper}
  integer :: i, j
  real(kind=8) :: a(0:n+1, 0:n+1), b(0:n+1, 0:n+1)
  do i = 1, n
    do j = 1, n
      b(j, i) = 0.25 * (a(j, i-1) + a(j, i+1) + a(j-1, i) + a(j+1, i))
    end do
  end do
end program tiny
"
            );
            let mut m = compile_to_fir(&src)?;
            let built = discover_stencils(&mut m)?;
            assert_eq!(built, 1, "extent-{extent} nest must still be discovered");
            verify(&m).unwrap_or_else(|e| panic!("extent-{extent}: {e}"));
            let applies = collect_ops_named(&m, stencil::APPLY);
            let apply = stencil::ApplyOp(applies[0]);
            for b in apply.output_bounds(&m) {
                assert_eq!(b.extent(), extent, "bound {b:?}");
            }
        }
        Ok(())
    }

    #[test]
    fn listing1_discovers_one_stencil() -> std::result::Result<(), Box<dyn std::error::Error>> {
        let mut m = compile_to_fir(LISTING1)?;
        let n = discover_stencils(&mut m)?;
        assert_eq!(n, 1);
        let applies = collect_ops_named(&m, stencil::APPLY);
        assert_eq!(applies.len(), 1);
        let apply = stencil::ApplyOp(applies[0]);
        // Domain = 1..=256 in both dims (Fortran index space).
        assert_eq!(
            apply.output_bounds(&m),
            vec![DimBound::new(1, 256), DimBound::new(1, 256)]
        );
        // Four neighbour accesses.
        let body = apply.body(&m);
        let accesses: Vec<Vec<i64>> = m
            .block_ops(body)
            .into_iter()
            .filter(|&o| m.op(o).name.full() == stencil::ACCESS)
            .map(|o| stencil::access_offset(&m, o).unwrap())
            .collect();
        let mut sorted = accesses.clone();
        sorted.sort();
        assert_eq!(
            sorted,
            vec![vec![-1, 0], vec![0, -1], vec![0, 1], vec![1, 0]]
        );
        // Loops are gone.
        assert!(collect_ops_named(&m, fir::DO_LOOP).is_empty());
        verify(&m)?;
        Ok(())
    }

    #[test]
    fn listing1_field_bounds_cover_declared_array(
    ) -> std::result::Result<(), Box<dyn std::error::Error>> {
        let mut m = compile_to_fir(LISTING1)?;
        discover_stencils(&mut m)?;
        let loads = collect_ops_named(&m, stencil::EXTERNAL_LOAD);
        assert_eq!(loads.len(), 2); // data + res
        for l in loads {
            let ty = m.value_type(m.result(l));
            assert_eq!(
                ty.stencil_bounds().ok_or("missing value")?,
                &[DimBound::new(0, 257), DimBound::new(0, 257)]
            );
        }
        Ok(())
    }

    #[test]
    fn apply_body_is_fir_free() -> std::result::Result<(), Box<dyn std::error::Error>> {
        let mut m = compile_to_fir(LISTING1)?;
        discover_stencils(&mut m)?;
        let applies = collect_ops_named(&m, stencil::APPLY);
        let apply = stencil::ApplyOp(applies[0]);
        for op in m.block_ops(apply.body(&m)) {
            assert_ne!(m.op(op).name.dialect(), "fir", "FIR op left in body");
        }
        Ok(())
    }

    #[test]
    fn time_loop_survives_inner_stencil_extraction(
    ) -> std::result::Result<(), Box<dyn std::error::Error>> {
        // An outer iteration loop must remain, with the stencil inside it.
        let src = "
program gs
  integer, parameter :: n = 8
  integer :: i, j, t
  real(kind=8) :: u(0:n+1, 0:n+1), un(0:n+1, 0:n+1)
  do t = 1, 10
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
        let mut m = compile_to_fir(src)?;
        let n = discover_stencils(&mut m)?;
        assert_eq!(n, 2);
        let loops = collect_ops_named(&m, fir::DO_LOOP);
        assert_eq!(loops.len(), 1, "only the time loop should remain");
        // Both applies are inside the time loop.
        for a in collect_ops_named(&m, stencil::APPLY) {
            assert!(m.ancestors(a).contains(&loops[0]));
        }
        verify(&m)?;
        Ok(())
    }

    #[test]
    fn non_stencil_store_left_alone() -> std::result::Result<(), Box<dyn std::error::Error>> {
        // a(2*i) disqualifies the subscript.
        let src = "
program t
  integer :: i
  real(kind=8) :: a(16)
  do i = 1, 8
    a(2*i) = 1.0
  end do
end program t
";
        let mut m = compile_to_fir(src)?;
        let n = discover_stencils(&mut m)?;
        assert_eq!(n, 0);
        assert_eq!(collect_ops_named(&m, fir::DO_LOOP).len(), 1);
        assert!(collect_ops_named(&m, stencil::APPLY).is_empty());
        Ok(())
    }

    #[test]
    fn transposed_access_disqualifies() -> std::result::Result<(), Box<dyn std::error::Error>> {
        let src = "
program t
  integer, parameter :: n = 8
  integer :: i, j
  real(kind=8) :: a(n, n), r(n, n)
  do i = 1, n
    do j = 1, n
      r(j, i) = a(i, j)
    end do
  end do
end program t
";
        let mut m = compile_to_fir(src)?;
        assert_eq!(discover_stencils(&mut m)?, 0);
        Ok(())
    }

    #[test]
    fn captured_scalar_becomes_apply_input() -> std::result::Result<(), Box<dyn std::error::Error>>
    {
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
        let mut m = compile_to_fir(src)?;
        assert_eq!(discover_stencils(&mut m)?, 1);
        let applies = collect_ops_named(&m, stencil::APPLY);
        let apply = stencil::ApplyOp(applies[0]);
        // Inputs: the temp for `a` plus the captured scalar load of `c`.
        let inputs = apply.inputs(&m);
        assert_eq!(inputs.len(), 2);
        assert_eq!(m.value_type(inputs[1]), &Type::f64());
        let def = m.defining_op(inputs[1]).ok_or("missing value")?;
        assert_eq!(m.op(def).name.full(), fir::LOAD);
        verify(&m)?;
        Ok(())
    }

    #[test]
    fn scalar_mutated_in_nest_disqualifies() -> std::result::Result<(), Box<dyn std::error::Error>>
    {
        let src = "
program t
  integer, parameter :: n = 8
  integer :: i
  real(kind=8) :: c
  real(kind=8) :: a(0:n+1), r(0:n+1)
  do i = 1, n
    c = c + 1.0
    r(i) = c * a(i)
  end do
end program t
";
        let mut m = compile_to_fir(src)?;
        assert_eq!(discover_stencils(&mut m)?, 0);
        Ok(())
    }

    #[test]
    fn loop_index_value_uses_stencil_index() -> std::result::Result<(), Box<dyn std::error::Error>>
    {
        let src = "
program t
  integer, parameter :: n = 8
  integer :: i
  real(kind=8) :: a(0:n+1), r(0:n+1)
  do i = 1, n
    r(i) = a(i) + i
  end do
end program t
";
        let mut m = compile_to_fir(src)?;
        assert_eq!(discover_stencils(&mut m)?, 1);
        let idx_ops = collect_ops_named(&m, stencil::INDEX);
        assert_eq!(idx_ops.len(), 1);
        verify(&m)?;
        Ok(())
    }

    #[test]
    fn in_place_update_is_discovered() -> std::result::Result<(), Box<dyn std::error::Error>> {
        // Reading and writing the same array at offsets the loop has not
        // reached yet (anti-dependence: value semantics snapshot).
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
        let mut m = compile_to_fir(src)?;
        assert_eq!(discover_stencils(&mut m)?, 1);
        // One external_load for u (shared by read temp and store field).
        assert_eq!(collect_ops_named(&m, stencil::EXTERNAL_LOAD).len(), 1);
        assert_eq!(collect_ops_named(&m, stencil::STORE).len(), 1);
        verify(&m)?;
        Ok(())
    }

    #[test]
    fn loop_carried_update_is_not_lifted() -> std::result::Result<(), Box<dyn std::error::Error>> {
        // `u(i-1)` is the value the previous iteration just wrote (flow
        // dependence); a snapshot would read the old one. In the 2-D nest
        // `u(i+1, k-1)` was written a whole `k` iteration earlier: the
        // outer dimension decides even though the inner delta is positive.
        let one_d = "
program t
  integer, parameter :: n = 8
  integer :: i
  real(kind=8) :: u(0:n+1)
  do i = 1, n
    u(i) = 0.5 * (u(i-1) + u(i+1))
  end do
end program t
";
        let two_d = "
program t
  integer, parameter :: n = 8
  integer :: i, k
  real(kind=8) :: u(0:n+1, 0:n+1)
  do k = 1, n
    do i = 1, n
      u(i, k) = u(i+1, k-1)
    end do
  end do
end program t
";
        for src in [one_d, two_d] {
            let mut m = compile_to_fir(src)?;
            assert_eq!(discover_stencils(&mut m)?, 0, "{src}");
            assert!(collect_ops_named(&m, stencil::APPLY).is_empty());
            assert!(!collect_ops_named(&m, fir::DO_LOOP).is_empty());
        }
        Ok(())
    }

    #[test]
    fn loop_with_if_is_not_a_stencil() -> std::result::Result<(), Box<dyn std::error::Error>> {
        let src = "
program t
  integer, parameter :: n = 8
  integer :: i
  real(kind=8) :: a(0:n+1), r(0:n+1)
  do i = 1, n
    if (a(i) > 0.0) then
      r(i) = a(i)
    end if
  end do
end program t
";
        let mut m = compile_to_fir(src)?;
        // The store sits under fir.if; its driving loops still enclose it,
        // but the slice is fine — what must stop it is that removing the
        // store would leave the `if` behind. Conservatively, stores under
        // conditional control flow are skipped.
        let n = discover_stencils(&mut m)?;
        assert_eq!(n, 0);
        Ok(())
    }
}
