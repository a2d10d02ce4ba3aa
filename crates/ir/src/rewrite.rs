//! Rewrite utilities: cloning with value remapping, op motion, region
//! surgery and dead-code sweeping.
//!
//! These are the moves the paper's transformations are built from:
//! * stencil *discovery* moves arithmetic out of FIR loop bodies into a new
//!   `stencil.apply` region and deletes emptied loops;
//! * stencil *extraction* outlines a subgraph into a fresh function in a
//!   separate module (a clone-with-remap across modules);
//! * fusion splices one apply region into another.

use std::collections::{HashMap, HashSet};

use crate::module::{BlockId, Module, OpId, ValueId};
use crate::walk::collect_nested_ops;

/// A mapping from values in a source context to values in a destination
/// context, used when cloning or outlining IR.
pub type ValueMap = HashMap<ValueId, ValueId>;

/// Clone `src_op` (with all nested regions) from `src` into `dest_block` of
/// the separate module `dest`, remapping operand values through `map`.
/// Result values of cloned ops are added to `map` so later clones see them.
/// Returns the new op id.
///
/// Within one module nothing needs cloning: passes move ops between blocks
/// ([`move_op_to_end`], [`move_op_before`]) and rewire block arguments with
/// [`Module::replace_all_uses`].
pub fn clone_op_into(
    src: &Module,
    src_op: OpId,
    dest: &mut Module,
    dest_block: BlockId,
    map: &mut ValueMap,
) -> OpId {
    let data = src.op(src_op);
    let operands: Vec<ValueId> = data
        .operands
        .iter()
        .map(|v| *map.get(v).unwrap_or(v))
        .collect();
    let result_types: Vec<_> = data
        .results
        .iter()
        .map(|&r| src.value_type(r).clone())
        .collect();
    let attrs: Vec<(&str, _)> = data
        .attrs
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();

    let new_op = dest.create_op(data.name.clone(), operands, result_types, attrs);
    dest.append_op(dest_block, new_op);
    for (&src_r, &dest_r) in data.results.iter().zip(&dest.op(new_op).results) {
        map.insert(src_r, dest_r);
    }
    for &src_region in &data.regions {
        let dest_region = dest.add_region(new_op);
        for src_block in src.region_blocks(src_region) {
            let src_args = src.block_args(src_block);
            let arg_types: Vec<_> = src_args
                .iter()
                .map(|&a| src.value_type(a).clone())
                .collect();
            let dest_blk = dest.add_block(dest_region, &arg_types);
            for (sa, da) in src_args.iter().zip(dest.block_args(dest_blk)) {
                map.insert(*sa, *da);
            }
            for inner in src.block_ops(src_block) {
                clone_op_into(src, inner, dest, dest_blk, map);
            }
        }
    }
    new_op
}

/// Move `op` (keeping its regions intact) so it becomes the last op of
/// `dest_block` in the same module.
pub fn move_op_to_end(module: &mut Module, op: OpId, dest_block: BlockId) {
    module.detach_op(op);
    module.append_op(dest_block, op);
}

/// Move `op` so it sits immediately before `anchor` in the same module.
pub fn move_op_before(module: &mut Module, op: OpId, anchor: OpId) {
    module.detach_op(op);
    module.insert_op_before(anchor, op);
}

/// Replace `op` with `replacement_values` (one per result) and erase it.
pub fn replace_op(module: &mut Module, op: OpId, replacement_values: &[ValueId]) {
    let results = module.op(op).results.clone();
    assert_eq!(
        results.len(),
        replacement_values.len(),
        "replacement count mismatch for {}",
        module.op(op).name
    );
    for (old, new) in results.iter().zip(replacement_values) {
        module.replace_all_uses(*old, *new);
    }
    module.erase_op(op);
}

/// For each of `values` whose defining op sits after `anchor` in the same
/// block, move it (and transitively its operand definitions) to just before
/// `anchor`. Definitions that already dominate the anchor or live in a
/// different block stay put.
pub fn hoist_defs_before(m: &mut Module, values: &[ValueId], anchor: OpId) {
    let mut after: HashSet<OpId> = m.ops_after(anchor).into_iter().collect();
    for &value in values {
        hoist_def(m, value, anchor, &mut after);
    }
}

fn hoist_def(m: &mut Module, value: ValueId, anchor: OpId, after: &mut HashSet<OpId>) {
    let Some(def) = m.defining_op(value) else {
        return;
    };
    if after.remove(&def) {
        for operand in m.op(def).operands.clone() {
            hoist_def(m, operand, anchor, after);
        }
        move_op_before(m, def, anchor);
    }
}

/// Names of ops that may be removed when their results are unused.
/// Anything with memory or control side effects must not be listed here.
pub fn is_pure(name: &str) -> bool {
    matches!(
        name.split_once('.').map_or("", |(d, _)| d),
        "arith" | "math" | "index"
    ) || matches!(
        name,
        "fir.convert"
            | "fir.no_reassoc"
            | "fir.coordinate_of"
            | "fir.load"
            | "stencil.access"
            | "stencil.index"
            | "stencil.load"
            | "memref.load"
    )
}

/// A live, attached, pure op none of whose results is used.
fn is_dead_pure(module: &Module, op: OpId) -> bool {
    let data = module.op(op);
    data.is_alive()
        && data.parent.is_some()
        && is_pure(data.name.full())
        && !data.results.is_empty()
        && data.results.iter().all(|&r| module.is_unused(r))
}

/// Sweep the module erasing pure ops whose results are all unused, repeating
/// until a fixed point. Returns the number of erased ops.
pub fn erase_dead_pure_ops(module: &mut Module) -> usize {
    let dead: Vec<OpId> = module
        .all_live_ops()
        .filter(|&op| is_dead_pure(module, op))
        .collect();
    erase_dead_from(module, dead)
}

/// Erase `op` (pure or not), then sweep what that left dead. In a module
/// already swept, this is the whole of [`erase_dead_pure_ops`]: an op can
/// only die when an erased op, or one nested in it, releases it.
pub fn erase_op_and_dead_defs(module: &mut Module, op: OpId) -> usize {
    let mut released = Vec::new();
    release_and_erase(module, op, &mut released);
    erase_dead_from(module, dead_defs(module, &released))
}

/// Erase `op`, adding every operand it and its nested ops held to `released`.
fn release_and_erase(module: &mut Module, op: OpId, released: &mut Vec<ValueId>) {
    released.extend_from_slice(&module.op(op).operands);
    for nested in collect_nested_ops(module, op) {
        released.extend_from_slice(&module.op(nested).operands);
    }
    module.erase_op(op);
}

/// The dead pure definitions among `values`, in op order, each once.
fn dead_defs(module: &Module, values: &[ValueId]) -> Vec<OpId> {
    let mut defs: Vec<OpId> = values
        .iter()
        .filter_map(|&v| module.defining_op(v))
        .filter(|&def| is_dead_pure(module, def))
        .collect();
    defs.sort_unstable();
    defs.dedup();
    defs
}

/// Erase the dead pure ops of `round`, then in rounds whatever those
/// erasures left dead.
fn erase_dead_from(module: &mut Module, mut round: Vec<OpId>) -> usize {
    let mut erased = 0;
    while !round.is_empty() {
        erased += round.len();
        let mut released = Vec::new();
        for &op in &round {
            // Dead already (but counted, as it always was) when an earlier
            // op of the round enclosed it.
            if module.is_alive(op) {
                release_and_erase(module, op, &mut released);
            }
        }
        round = dead_defs(module, &released);
    }
    erased
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Attribute;
    use crate::types::Type;

    #[test]
    fn clone_remaps_operands_and_results() {
        let mut src = Module::new();
        let top = src.top_block();
        let a = src.create_op(
            "arith.constant",
            vec![],
            vec![Type::f64()],
            vec![("value", Attribute::float(1.0))],
        );
        src.append_op(top, a);
        let va = src.result(a);
        let add = src.create_op("arith.addf", vec![va, va], vec![Type::f64()], vec![]);
        src.append_op(top, add);

        let mut dest = Module::new();
        let dtop = dest.top_block();
        let mut map = ValueMap::new();
        let ca = clone_op_into(&src, a, &mut dest, dtop, &mut map);
        let cadd = clone_op_into(&src, add, &mut dest, dtop, &mut map);
        let cva = dest.result(ca);
        assert_eq!(dest.op(cadd).operands, vec![cva, cva]);
    }

    #[test]
    fn clone_carries_regions_and_block_args() {
        let mut src = Module::new();
        let top = src.top_block();
        let lp = src.create_op("scf.for", vec![], vec![], vec![]);
        src.append_op(top, lp);
        let r = src.add_region(lp);
        let b = src.add_block(r, &[Type::Index]);
        let iv = src.block_args(b)[0];
        let use_iv = src.create_op("t.use", vec![iv], vec![], vec![]);
        src.append_op(b, use_iv);

        let mut dest = Module::new();
        let dtop = dest.top_block();
        let mut map = ValueMap::new();
        let clp = clone_op_into(&src, lp, &mut dest, dtop, &mut map);
        let dregion = dest.op(clp).regions[0];
        let dblock = dest.region_blocks(dregion)[0];
        let dargs = dest.block_args(dblock).to_vec();
        assert_eq!(dargs.len(), 1);
        let dops = dest.block_ops(dblock);
        assert_eq!(dops.len(), 1);
        assert_eq!(dest.op(dops[0]).operands, vec![dargs[0]]);
    }

    #[test]
    fn replace_op_rewires_uses() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = m.create_op("t.a", vec![], vec![Type::i64()], vec![]);
        let b = m.create_op("t.b", vec![], vec![Type::i64()], vec![]);
        m.append_op(top, a);
        m.append_op(top, b);
        let va = m.result(a);
        let vb = m.result(b);
        let user = m.create_op("t.use", vec![va], vec![], vec![]);
        m.append_op(top, user);
        replace_op(&mut m, a, &[vb]);
        assert!(!m.is_alive(a));
        assert_eq!(m.op(user).operands, vec![vb]);
    }

    #[test]
    fn dead_pure_sweep_is_transitive() {
        let mut m = Module::new();
        let top = m.top_block();
        // c -> neg -> (unused); both should go in one sweep call.
        let c = m.create_op("arith.constant", vec![], vec![Type::f64()], vec![]);
        m.append_op(top, c);
        let vc = m.result(c);
        let neg = m.create_op("arith.negf", vec![vc], vec![Type::f64()], vec![]);
        m.append_op(top, neg);
        assert_eq!(erase_dead_pure_ops(&mut m), 2);
        assert_eq!(m.live_op_count(), 0);
    }

    #[test]
    fn dead_sweep_keeps_side_effecting_ops() {
        let mut m = Module::new();
        let top = m.top_block();
        let c = m.create_op(
            "fir.alloca",
            vec![],
            vec![Type::fir_ref(Type::f64())],
            vec![],
        );
        m.append_op(top, c);
        assert_eq!(erase_dead_pure_ops(&mut m), 0);
        assert_eq!(m.live_op_count(), 1);
    }

    #[test]
    fn move_ops_between_blocks() {
        let mut m = Module::new();
        let top = m.top_block();
        let f = m.create_op("func.func", vec![], vec![], vec![]);
        m.append_op(top, f);
        let r = m.add_region(f);
        let inner = m.add_block(r, &[]);
        let x = m.create_op("t.x", vec![], vec![], vec![]);
        m.append_op(top, x);
        move_op_to_end(&mut m, x, inner);
        assert_eq!(m.block_ops(inner), vec![x]);
        assert_eq!(m.block_ops(top), vec![f]);
    }

    /// The round-based fixed point `erase_dead_pure_ops` used to be, asking
    /// the arena scan who uses what: the worklist's oracle.
    fn erase_dead_pure_ops_by_rounds(module: &mut Module) -> usize {
        let mut erased = 0;
        loop {
            let candidates: Vec<OpId> = module
                .all_live_ops()
                .filter(|&op| {
                    let data = module.op(op);
                    data.parent.is_some()
                        && is_pure(data.name.full())
                        && !data.results.is_empty()
                        && data.results.iter().all(|&r| module.scan_uses(r).is_empty())
                })
                .collect();
            if candidates.is_empty() {
                return erased;
            }
            for op in candidates {
                module.erase_op(op);
                erased += 1;
            }
        }
    }

    fn assert_same_sweep(m: &Module, what: &str) {
        let (mut by_rounds, mut by_worklist) = (m.clone(), m.clone());
        let want = erase_dead_pure_ops_by_rounds(&mut by_rounds);
        let got = erase_dead_pure_ops(&mut by_worklist);
        assert_eq!(got, want, "{what}: erased count");
        for i in 0..m.live_op_count() as u32 {
            let op = OpId(i);
            assert_eq!(
                by_worklist.is_alive(op),
                by_rounds.is_alive(op),
                "{what}: {} {op:?}",
                m.op(op).name
            );
        }
        assert_eq!(
            erase_dead_pure_ops(&mut by_worklist),
            0,
            "{what}: fixed point"
        );
    }

    #[test]
    fn dead_sweep_follows_uses_out_of_an_erased_region() {
        let mut m = Module::new();
        let top = m.top_block();
        // `d` is read only by an impure op inside the dead, pure `scope`.
        let d = m.create_op("arith.constant", vec![], vec![Type::f64()], vec![]);
        m.append_op(top, d);
        let scope = m.create_op("arith.scope", vec![], vec![Type::f64()], vec![]);
        m.append_op(top, scope);
        let region = m.add_region(scope);
        let body = m.add_block(region, &[]);
        let user = m.create_op("test.use", vec![m.result(d)], vec![], vec![]);
        m.append_op(body, user);
        assert_same_sweep(&m, "nested user");
        assert_eq!(erase_dead_pure_ops(&mut m), 2);
        assert_eq!(m.live_op_count(), 0);
    }

    #[test]
    fn worklist_sweep_erases_what_the_rounds_did_on_random_dags() {
        use crate::module::tests::Rng;
        for seed in 0..40u64 {
            let mut rng = Rng(seed);
            let mut m = Module::new();
            let mut blocks = vec![m.top_block()];
            let mut values: Vec<ValueId> = Vec::new();
            for _ in 0..120 {
                let operands: Vec<ValueId> = (0..rng.below(3))
                    .filter(|_| !values.is_empty())
                    .map(|_| rng.pick(&values))
                    .collect();
                let name = rng.pick(&["arith.addf", "arith.constant", "fir.load", "test.keep"]);
                let results = vec![Type::f64(); rng.pick(&[0, 1, 1, 1, 2])];
                let op = m.create_op(name, operands, results, vec![]);
                // One op in ten stays detached: never swept, its operands
                // still pin their definitions.
                if rng.below(10) > 0 {
                    let block = rng.pick(&blocks);
                    m.append_op(block, op);
                }
                values.extend(&m.op(op).results);
                if rng.below(6) == 0 {
                    let region = m.add_region(op);
                    blocks.push(m.add_block(region, &[]));
                }
            }
            assert_same_sweep(&m, &format!("seed {seed}"));
        }
    }
}
