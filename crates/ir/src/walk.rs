//! IR traversal helpers.
//!
//! The paper's Listing 3 is phrased as "walk the module, gather loops, walk
//! backwards from stores" — these helpers provide exactly those sweeps.

use crate::module::{Module, OpId, RegionId};

/// Pre-order walk over every live op nested (transitively) inside `region`.
pub fn walk_region_preorder(module: &Module, region: RegionId, f: &mut impl FnMut(OpId)) {
    for block in module.region_blocks(region) {
        for op in module.block_ops(block) {
            f(op);
            for &nested in &module.op(op).regions {
                walk_region_preorder(module, nested, f);
            }
        }
    }
}

/// Post-order walk (children before parents) over `region`.
pub fn walk_region_postorder(module: &Module, region: RegionId, f: &mut impl FnMut(OpId)) {
    for block in module.region_blocks(region) {
        for op in module.block_ops(block) {
            for &nested in &module.op(op).regions {
                walk_region_postorder(module, nested, f);
            }
            f(op);
        }
    }
}

/// Pre-order walk over the whole module.
pub fn walk_module(module: &Module, f: &mut impl FnMut(OpId)) {
    walk_region_preorder(module, module.body, f);
}

/// Collect all live ops in the module whose name equals `name`, pre-order.
pub fn collect_ops_named(module: &Module, name: &str) -> Vec<OpId> {
    let mut out = Vec::new();
    walk_module(module, &mut |op| {
        if module.op(op).name.full() == name {
            out.push(op);
        }
    });
    out
}

/// Collect all live ops inside `op`'s regions (not including `op` itself).
pub fn collect_nested_ops(module: &Module, op: OpId) -> Vec<OpId> {
    let mut out = Vec::new();
    for &region in &module.op(op).regions {
        walk_region_preorder(module, region, &mut |o| out.push(o));
    }
    out
}

/// Collect ops in the module matching a predicate, pre-order.
pub fn collect_ops_where(module: &Module, pred: impl Fn(&Module, OpId) -> bool) -> Vec<OpId> {
    let mut out = Vec::new();
    walk_module(module, &mut |op| {
        if pred(module, op) {
            out.push(op);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type;

    /// Build a module shaped like: func { loop { inner } ; tail }.
    fn nested_module() -> (Module, OpId, OpId, OpId, OpId) {
        let mut m = Module::new();
        let top = m.top_block();
        let f = m.create_op("func.func", vec![], vec![], vec![]);
        m.append_op(top, f);
        let fr = m.add_region(f);
        let fb = m.add_block(fr, &[]);
        let lp = m.create_op("fir.do_loop", vec![], vec![], vec![]);
        m.append_op(fb, lp);
        let lr = m.add_region(lp);
        let lb = m.add_block(lr, &[Type::Index]);
        let inner = m.create_op("t.inner", vec![], vec![], vec![]);
        m.append_op(lb, inner);
        let tail = m.create_op("t.tail", vec![], vec![], vec![]);
        m.append_op(fb, tail);
        (m, f, lp, inner, tail)
    }

    #[test]
    fn preorder_visits_parent_first() {
        let (m, f, lp, inner, tail) = nested_module();
        let mut seen = Vec::new();
        walk_module(&m, &mut |op| seen.push(op));
        assert_eq!(seen, vec![f, lp, inner, tail]);
    }

    #[test]
    fn postorder_visits_children_first() {
        let (m, f, lp, inner, tail) = nested_module();
        let mut seen = Vec::new();
        walk_region_postorder(&m, m.body, &mut |op| seen.push(op));
        assert_eq!(seen, vec![inner, lp, tail, f]);
    }

    #[test]
    fn collect_named_finds_nested() {
        let (m, _, lp, _, _) = nested_module();
        assert_eq!(collect_ops_named(&m, "fir.do_loop"), vec![lp]);
        assert!(collect_ops_named(&m, "no.such").is_empty());
    }

    #[test]
    fn collect_nested_excludes_self() {
        let (m, f, lp, inner, tail) = nested_module();
        assert_eq!(collect_nested_ops(&m, f), vec![lp, inner, tail]);
        assert_eq!(collect_nested_ops(&m, lp), vec![inner]);
    }

    #[test]
    fn erased_ops_are_skipped() {
        let (mut m, f, lp, _, tail) = nested_module();
        m.erase_op(lp);
        let mut seen = Vec::new();
        walk_module(&m, &mut |op| seen.push(op));
        assert_eq!(seen, vec![f, tail]);
    }
}
