//! The [`Module`] arena: operations, blocks, regions and SSA values.
//!
//! A module owns four flat arenas indexed by copyable ids. Erasure is by
//! tombstoning (`alive = false`, payload released); iteration APIs skip
//! dead entities. This keeps ids stable across rewrites, which matters
//! because the paper's stencil-discovery pass gathers ids in one sweep
//! (loops, stores, reads) and mutates the IR afterwards.
//!
//! Like MLIR, the module keeps use-def chains: every operand slot of a live
//! op is linked into the use list of the value it reads, and every attached
//! op is linked to its block neighbours. Both are intrusive lists over flat
//! arenas, so "who uses this value", insertion and erasure cost what they
//! touch, and a clone stays a handful of `memcpy`s. The invariant — *slot
//! `i` of a live op is on the use list of `operands[i]`, and of nothing
//! else* — is kept by [`Module::create_op`], [`Module::set_operand`],
//! [`Module::replace_all_uses`] and [`Module::erase_op`]; nothing else can
//! write an operand ([`Module::op_mut`] hands out name and attributes only).

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;

use crate::attributes::Attribute;
use crate::types::Type;

/// Identifier of an operation inside a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

/// Identifier of a basic block inside a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Identifier of a region inside a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// Identifier of an SSA value inside a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// Fully qualified operation name such as `fir.store` or `stencil.apply`.
///
/// Passes and the lowering name the ops they create with string literals,
/// which are borrowed for the life of the program: such a name costs no
/// allocation to create, copy or drop. Only names read from text
/// ([`crate::parse`]) or built at run time own their spelling.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpName(Cow<'static, str>);

impl OpName {
    /// Create an op name from its full `dialect.op` spelling: a literal is
    /// borrowed, a `String` is owned.
    pub fn new(full: impl Into<Cow<'static, str>>) -> Self {
        Self(full.into())
    }

    /// The full `dialect.op` name.
    pub fn full(&self) -> &str {
        &self.0
    }

    /// The dialect prefix (`fir` in `fir.store`). Names without a dot are
    /// treated as belonging to the `builtin` dialect.
    pub fn dialect(&self) -> &str {
        self.0.split_once('.').map_or("builtin", |(d, _)| d)
    }

    /// The op suffix (`store` in `fir.store`).
    pub fn op(&self) -> &str {
        self.0.split_once('.').map_or(self.full(), |(_, o)| o)
    }
}

impl fmt::Display for OpName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.full())
    }
}

impl From<&'static str> for OpName {
    fn from(s: &'static str) -> Self {
        OpName::new(s)
    }
}

impl From<String> for OpName {
    fn from(s: String) -> Self {
        OpName::new(s)
    }
}

/// Where an SSA value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueDef {
    /// The `index`-th result of operation `op`.
    OpResult {
        /// Producing operation.
        op: OpId,
        /// Result position.
        index: u32,
    },
    /// The `index`-th argument of block `block`.
    BlockArg {
        /// Owning block.
        block: BlockId,
        /// Argument position.
        index: u32,
    },
}

/// "No entry" in the intrusive lists below.
const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct ValueData {
    def: ValueDef,
    ty: Type,
    /// Head of the value's use list (an index into `Module::uses`).
    first_use: u32,
}

/// One operand slot of one op, linked into the use list of the value it
/// reads. Operand `i` of an op owns slot `OpData::first_use + i` for the
/// op's whole life (an op's operand count never changes).
#[derive(Debug, Clone, Copy)]
struct UseLink {
    user: OpId,
    prev: u32,
    next: u32,
}

/// Payload of one operation. Exposed read-only through [`Module::op`].
#[derive(Debug, Clone)]
pub struct OpData {
    /// Dialect-qualified name.
    pub name: OpName,
    /// SSA operands, in order.
    pub operands: Vec<ValueId>,
    /// SSA results, in order.
    pub results: Vec<ValueId>,
    /// Attribute dictionary (sorted for deterministic printing).
    pub attrs: BTreeMap<String, Attribute>,
    /// Nested regions, in order.
    pub regions: Vec<RegionId>,
    /// The block the op currently lives in, if attached.
    pub parent: Option<BlockId>,
    alive: bool,
    /// The op's first operand slot in `Module::uses`.
    first_use: u32,
    /// Neighbours in the parent block's op list.
    prev: u32,
    next: u32,
}

/// What [`Module::op_mut`] lets a pass rewrite in place. Operands are not
/// here: they change through [`Module::set_operand`], which keeps the use
/// lists right.
#[derive(Debug)]
pub struct OpMut<'a> {
    /// Dialect-qualified name.
    pub name: &'a mut OpName,
    /// Attribute dictionary.
    pub attrs: &'a mut BTreeMap<String, Attribute>,
}

impl OpData {
    /// Fetch an attribute by name.
    pub fn attr(&self, name: &str) -> Option<&Attribute> {
        self.attrs.get(name)
    }

    /// Whether the op is still live (not erased).
    pub fn is_alive(&self) -> bool {
        self.alive
    }
}

#[derive(Debug, Clone)]
struct BlockData {
    args: Vec<ValueId>,
    /// Ends of the block's op list (linked through `OpData::prev/next`).
    first: u32,
    last: u32,
    parent: Option<RegionId>,
    alive: bool,
}

#[derive(Debug, Clone)]
struct RegionData {
    blocks: Vec<BlockId>,
    parent: Option<OpId>,
    alive: bool,
}

/// An IR module: the owner of all IR entities plus a distinguished top-level
/// region (with a single entry block) that holds module-scope operations
/// such as `func.func`.
#[derive(Debug)]
pub struct Module {
    ops: Vec<OpData>,
    blocks: Vec<BlockData>,
    regions: Vec<RegionData>,
    values: Vec<ValueData>,
    uses: Vec<UseLink>,
    /// The module-level region.
    pub body: RegionId,
}

impl Default for Module {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    static MODULE_CLONES: Cell<u64> = const { Cell::new(0) };
}

/// How many times this thread has deep-copied a [`Module`]. The copy is the
/// one super-unit cost of handing a module from stage to stage, so tests pin
/// how many a compile makes by reading this before and after.
pub fn module_clone_count() -> u64 {
    MODULE_CLONES.with(Cell::get)
}

impl Clone for Module {
    fn clone(&self) -> Self {
        MODULE_CLONES.with(|n| n.set(n.get() + 1));
        Module {
            ops: self.ops.clone(),
            blocks: self.blocks.clone(),
            regions: self.regions.clone(),
            values: self.values.clone(),
            uses: self.uses.clone(),
            body: self.body,
        }
    }
}

impl Module {
    /// Create an empty module with one top-level region containing one block.
    pub fn new() -> Self {
        let mut m = Module {
            ops: Vec::new(),
            blocks: Vec::new(),
            regions: Vec::new(),
            values: Vec::new(),
            uses: Vec::new(),
            body: RegionId(0),
        };
        let region = m.new_region(None);
        m.body = region;
        m.add_block(region, &[]);
        m
    }

    /// The single entry block of the module-level region.
    pub fn top_block(&self) -> BlockId {
        self.regions[self.body.0 as usize].blocks[0]
    }

    // ---------------------------------------------------------------- regions

    fn new_region(&mut self, parent: Option<OpId>) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(RegionData {
            blocks: Vec::new(),
            parent,
            alive: true,
        });
        id
    }

    /// Append a fresh (empty) region to an operation.
    pub fn add_region(&mut self, op: OpId) -> RegionId {
        let region = self.new_region(Some(op));
        self.ops[op.0 as usize].regions.push(region);
        region
    }

    /// Blocks of a region, in order, live only.
    pub fn region_blocks(&self, region: RegionId) -> Vec<BlockId> {
        self.regions[region.0 as usize]
            .blocks
            .iter()
            .copied()
            .filter(|b| self.blocks[b.0 as usize].alive)
            .collect()
    }

    /// The operation owning a region (none for the module body).
    pub fn region_parent(&self, region: RegionId) -> Option<OpId> {
        self.regions[region.0 as usize].parent
    }

    // ----------------------------------------------------------------- blocks

    /// Append a new block with the given argument types to a region.
    pub fn add_block(&mut self, region: RegionId, arg_types: &[Type]) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BlockData {
            args: Vec::new(),
            first: NONE,
            last: NONE,
            parent: Some(region),
            alive: true,
        });
        for (i, ty) in arg_types.iter().enumerate() {
            let v = self.new_value(
                ValueDef::BlockArg {
                    block: id,
                    index: i as u32,
                },
                ty.clone(),
            );
            self.blocks[id.0 as usize].args.push(v);
        }
        self.regions[region.0 as usize].blocks.push(id);
        id
    }

    /// Add one more argument to an existing block, returning its value.
    pub fn add_block_arg(&mut self, block: BlockId, ty: Type) -> ValueId {
        let index = self.blocks[block.0 as usize].args.len() as u32;
        let v = self.new_value(ValueDef::BlockArg { block, index }, ty);
        self.blocks[block.0 as usize].args.push(v);
        v
    }

    /// The argument values of a block.
    pub fn block_args(&self, block: BlockId) -> &[ValueId] {
        &self.blocks[block.0 as usize].args
    }

    /// Live operations of a block, in order.
    pub fn block_ops(&self, block: BlockId) -> Vec<OpId> {
        self.ops_from(self.blocks[block.0 as usize].first)
    }

    /// Live ops following `op` in its block, in order (none if detached).
    pub fn ops_after(&self, op: OpId) -> Vec<OpId> {
        self.ops_from(self.ops[op.0 as usize].next)
    }

    fn ops_from(&self, mut cur: u32) -> Vec<OpId> {
        let mut out = Vec::new();
        while cur != NONE {
            let data = &self.ops[cur as usize];
            if data.alive {
                out.push(OpId(cur));
            }
            cur = data.next;
        }
        out
    }

    /// The region a block belongs to.
    pub fn block_parent(&self, block: BlockId) -> Option<RegionId> {
        self.blocks[block.0 as usize].parent
    }

    /// The last live operation of a block (its terminator if the dialect
    /// requires one).
    pub fn block_terminator(&self, block: BlockId) -> Option<OpId> {
        let last = self.blocks[block.0 as usize].last;
        (last != NONE && self.ops[last as usize].alive).then_some(OpId(last))
    }

    // ----------------------------------------------------------------- values

    fn new_value(&mut self, def: ValueDef, ty: Type) -> ValueId {
        let id = ValueId(self.values.len() as u32);
        self.values.push(ValueData {
            def,
            ty,
            first_use: NONE,
        });
        id
    }

    /// The type of a value.
    pub fn value_type(&self, v: ValueId) -> &Type {
        &self.values[v.0 as usize].ty
    }

    /// Overwrite the type of a value (used by type-conversion passes).
    pub fn set_value_type(&mut self, v: ValueId, ty: Type) {
        self.values[v.0 as usize].ty = ty;
    }

    /// Where the value is defined.
    pub fn value_def(&self, v: ValueId) -> ValueDef {
        self.values[v.0 as usize].def
    }

    /// The op producing this value, if it is an op result.
    pub fn defining_op(&self, v: ValueId) -> Option<OpId> {
        match self.value_def(v) {
            ValueDef::OpResult { op, .. } => Some(op),
            ValueDef::BlockArg { .. } => None,
        }
    }

    // -------------------------------------------------------------------- ops

    /// Create a detached operation. Results are created according to
    /// `result_types`. Attach it with [`Module::append_op`] or
    /// [`Module::insert_op_before`].
    pub fn create_op(
        &mut self,
        name: impl Into<OpName>,
        operands: Vec<ValueId>,
        result_types: Vec<Type>,
        attrs: Vec<(&str, Attribute)>,
    ) -> OpId {
        let id = OpId(self.ops.len() as u32);
        let first_use = self.uses.len() as u32;
        for (i, &v) in operands.iter().enumerate() {
            self.uses.push(UseLink {
                user: id,
                prev: NONE,
                next: NONE,
            });
            self.link_use(first_use + i as u32, v);
        }
        self.ops.push(OpData {
            name: name.into(),
            operands,
            results: Vec::new(),
            attrs: attrs.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            regions: Vec::new(),
            parent: None,
            alive: true,
            first_use,
            prev: NONE,
            next: NONE,
        });
        for ty in result_types {
            self.add_op_result(id, ty);
        }
        id
    }

    /// Append an extra result value of type `ty` to an existing op.
    ///
    /// Used by the textual parser, where result types are only known after
    /// the op's regions have been parsed.
    pub fn add_op_result(&mut self, op: OpId, ty: Type) -> ValueId {
        let index = self.ops[op.0 as usize].results.len() as u32;
        let v = self.new_value(ValueDef::OpResult { op, index }, ty);
        self.ops[op.0 as usize].results.push(v);
        v
    }

    /// Read-only access to an operation.
    pub fn op(&self, op: OpId) -> &OpData {
        &self.ops[op.0 as usize]
    }

    /// Mutable access to an operation's name and attributes.
    pub fn op_mut(&mut self, op: OpId) -> OpMut<'_> {
        let data = &mut self.ops[op.0 as usize];
        OpMut {
            name: &mut data.name,
            attrs: &mut data.attrs,
        }
    }

    /// Shorthand: the single result of an op (panics if not exactly one).
    pub fn result(&self, op: OpId) -> ValueId {
        let r = &self.ops[op.0 as usize].results;
        assert_eq!(
            r.len(),
            1,
            "op {} has {} results",
            self.op(op).name,
            r.len()
        );
        r[0]
    }

    /// Append an op at the end of a block.
    pub fn append_op(&mut self, block: BlockId, op: OpId) {
        let last = self.blocks[block.0 as usize].last;
        self.link_op(block, op, last, NONE);
    }

    /// Insert `new` directly before `anchor` in the anchor's block.
    pub fn insert_op_before(&mut self, anchor: OpId, new: OpId) {
        let block = self.anchor_block(anchor);
        let prev = self.ops[anchor.0 as usize].prev;
        self.link_op(block, new, prev, anchor.0);
    }

    /// Insert `new` directly after `anchor` in the anchor's block.
    pub fn insert_op_after(&mut self, anchor: OpId, new: OpId) {
        let block = self.anchor_block(anchor);
        let next = self.ops[anchor.0 as usize].next;
        self.link_op(block, new, anchor.0, next);
    }

    /// The block an insertion anchor sits in. Only an attached op has a
    /// "before" and an "after": a detached anchor is a bug in the calling
    /// pass, which the hardened driver contains like any other.
    fn anchor_block(&self, anchor: OpId) -> BlockId {
        match self.ops[anchor.0 as usize].parent {
            Some(block) => block,
            None => unreachable!("insertion anchor {anchor:?} is not attached to a block"),
        }
    }

    /// Attach the detached `op` to `block` between neighbours `prev` and
    /// `next` (either may be `NONE` at the block's ends).
    fn link_op(&mut self, block: BlockId, op: OpId, prev: u32, next: u32) {
        let data = &mut self.ops[op.0 as usize];
        assert!(data.parent.is_none(), "op already attached");
        data.parent = Some(block);
        data.prev = prev;
        data.next = next;
        match prev {
            NONE => self.blocks[block.0 as usize].first = op.0,
            p => self.ops[p as usize].next = op.0,
        }
        match next {
            NONE => self.blocks[block.0 as usize].last = op.0,
            n => self.ops[n as usize].prev = op.0,
        }
    }

    /// Detach an op from its block without erasing it (it can be re-attached).
    pub fn detach_op(&mut self, op: OpId) {
        let data = &mut self.ops[op.0 as usize];
        let Some(block) = data.parent.take() else {
            return;
        };
        let (prev, next) = (data.prev, data.next);
        data.prev = NONE;
        data.next = NONE;
        match prev {
            NONE => self.blocks[block.0 as usize].first = next,
            p => self.ops[p as usize].next = next,
        }
        match next {
            NONE => self.blocks[block.0 as usize].last = prev,
            n => self.ops[n as usize].prev = prev,
        }
    }

    /// Erase an op and everything nested inside its regions, releasing
    /// every operand they held. Erasing a dead op does nothing.
    pub fn erase_op(&mut self, op: OpId) {
        if !self.ops[op.0 as usize].alive {
            return;
        }
        self.detach_op(op);
        self.kill_op(op);
    }

    /// Tombstone `op` and its regions' contents; block lists of the dead
    /// blocks are left as they are. A tombstone keeps its name and list
    /// links and gives back what only a live op needs — attributes, operand,
    /// result and region lists — so it costs its fixed-size header to copy,
    /// keep and drop.
    fn kill_op(&mut self, op: OpId) {
        let data = &mut self.ops[op.0 as usize];
        data.alive = false;
        data.attrs = BTreeMap::new();
        data.results = Vec::new();
        let first_use = data.first_use;
        let operands = std::mem::take(&mut data.operands);
        for (i, &v) in operands.iter().enumerate() {
            self.unlink_use(first_use + i as u32, v);
        }
        for region in std::mem::take(&mut self.ops[op.0 as usize].regions) {
            self.regions[region.0 as usize].alive = false;
            for b in 0..self.regions[region.0 as usize].blocks.len() {
                let block = self.regions[region.0 as usize].blocks[b];
                self.blocks[block.0 as usize].alive = false;
                let mut cur = self.blocks[block.0 as usize].first;
                while cur != NONE {
                    if self.ops[cur as usize].alive {
                        self.kill_op(OpId(cur));
                    }
                    cur = self.ops[cur as usize].next;
                }
            }
        }
    }

    /// Whether an op is live.
    pub fn is_alive(&self, op: OpId) -> bool {
        self.ops[op.0 as usize].alive
    }

    // -------------------------------------------------------------- use lists

    fn link_use(&mut self, slot: u32, value: ValueId) {
        let head = std::mem::replace(&mut self.values[value.0 as usize].first_use, slot);
        self.uses[slot as usize].prev = NONE;
        self.uses[slot as usize].next = head;
        if head != NONE {
            self.uses[head as usize].prev = slot;
        }
    }

    fn unlink_use(&mut self, slot: u32, value: ValueId) {
        let UseLink { prev, next, .. } = self.uses[slot as usize];
        match prev {
            NONE => self.values[value.0 as usize].first_use = next,
            p => self.uses[p as usize].next = next,
        }
        if next != NONE {
            self.uses[next as usize].prev = prev;
        }
    }

    /// All live ops (anywhere in the module) that use `value` as an operand,
    /// together with the operand positions, ordered by op then position.
    pub fn uses(&self, value: ValueId) -> Vec<(OpId, usize)> {
        let mut out = Vec::new();
        let mut slot = self.values[value.0 as usize].first_use;
        while slot != NONE {
            let link = self.uses[slot as usize];
            let pos = slot - self.ops[link.user.0 as usize].first_use;
            out.push((link.user, pos as usize));
            slot = link.next;
        }
        out.sort_unstable();
        out
    }

    /// True if the value has no live uses.
    pub fn is_unused(&self, value: ValueId) -> bool {
        self.values[value.0 as usize].first_use == NONE
    }

    /// Make operand `index` of the live op `op` read `value`.
    pub fn set_operand(&mut self, op: OpId, index: usize, value: ValueId) {
        let data = &mut self.ops[op.0 as usize];
        assert!(data.alive, "set_operand on an erased op");
        let slot = data.first_use + index as u32;
        let old = std::mem::replace(&mut data.operands[index], value);
        self.unlink_use(slot, old);
        self.link_use(slot, value);
    }

    /// Replace every use of `old` by `new` across the whole module.
    pub fn replace_all_uses(&mut self, old: ValueId, new: ValueId) {
        if old == new {
            return;
        }
        let head = std::mem::replace(&mut self.values[old.0 as usize].first_use, NONE);
        let mut slot = head;
        let mut tail = NONE;
        while slot != NONE {
            let link = self.uses[slot as usize];
            let user = &mut self.ops[link.user.0 as usize];
            let pos = slot - user.first_use;
            user.operands[pos as usize] = new;
            tail = slot;
            slot = link.next;
        }
        if tail == NONE {
            return;
        }
        // Splice old's whole list in front of new's.
        let new_head = std::mem::replace(&mut self.values[new.0 as usize].first_use, head);
        self.uses[tail as usize].next = new_head;
        if new_head != NONE {
            self.uses[new_head as usize].prev = tail;
        }
    }

    /// Iterate over all live ops in creation order (no structural order).
    pub fn all_live_ops(&self) -> impl Iterator<Item = OpId> + '_ {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.alive)
            .map(|(i, _)| OpId(i as u32))
    }

    /// Number of live operations in the module (diagnostic / test helper).
    pub fn live_op_count(&self) -> usize {
        self.ops.iter().filter(|o| o.alive).count()
    }

    /// Find the enclosing op of `op` (the op owning the region that owns the
    /// block `op` lives in).
    pub fn parent_op(&self, op: OpId) -> Option<OpId> {
        let block = self.ops[op.0 as usize].parent?;
        let region = self.blocks[block.0 as usize].parent?;
        self.regions[region.0 as usize].parent
    }

    /// Walk up the parent chain collecting enclosing ops, innermost first.
    pub fn ancestors(&self, op: OpId) -> Vec<OpId> {
        let mut out = Vec::new();
        let mut cur = self.parent_op(op);
        while let Some(p) = cur {
            out.push(p);
            cur = self.parent_op(p);
        }
        out
    }

    /// Find module-level ops with the given name (e.g. all `func.func`).
    pub fn top_level_ops_named(&self, name: &str) -> Vec<OpId> {
        self.block_ops(self.top_block())
            .into_iter()
            .filter(|&o| self.op(o).name.full() == name)
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    impl Module {
        /// [`Module::uses`] by scanning the whole op arena: the definition the
        /// use lists must agree with, kept as the tests' oracle.
        pub(crate) fn scan_uses(&self, value: ValueId) -> Vec<(OpId, usize)> {
            let mut out = Vec::new();
            for (i, op) in self.ops.iter().enumerate() {
                if !op.alive {
                    continue;
                }
                for (pos, &operand) in op.operands.iter().enumerate() {
                    if operand == value {
                        out.push((OpId(i as u32), pos));
                    }
                }
            }
            out
        }
    }

    #[test]
    fn op_name_parts() {
        let n = OpName::new("fir.store");
        assert_eq!(n.dialect(), "fir");
        assert_eq!(n.op(), "store");
        assert_eq!(n.full(), "fir.store");
        let m = OpName::new("module");
        assert_eq!(m.dialect(), "builtin");
        assert_eq!(m.op(), "module");
        // A name read from text owns its spelling; it is the same name.
        let owned = OpName::new(String::from("fir.store"));
        assert_eq!(owned, n);
        assert_eq!(owned.cmp(&n), std::cmp::Ordering::Equal);
        assert_eq!((owned.dialect(), owned.op()), ("fir", "store"));
        assert_eq!(
            OpName::from("fir.store"),
            OpName::from(String::from("fir.store"))
        );
    }

    #[test]
    fn create_and_attach_op() {
        let mut m = Module::new();
        let top = m.top_block();
        let c = m.create_op(
            "arith.constant",
            vec![],
            vec![Type::i64()],
            vec![("value", Attribute::int(4))],
        );
        m.append_op(top, c);
        assert_eq!(m.block_ops(top), vec![c]);
        assert_eq!(m.value_type(m.result(c)), &Type::i64());
        assert_eq!(m.defining_op(m.result(c)), Some(c));
    }

    #[test]
    fn insert_before_and_after() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = m.create_op("t.a", vec![], vec![], vec![]);
        let b = m.create_op("t.b", vec![], vec![], vec![]);
        let c = m.create_op("t.c", vec![], vec![], vec![]);
        m.append_op(top, b);
        m.insert_op_before(b, a);
        m.insert_op_after(b, c);
        assert_eq!(m.block_ops(top), vec![a, b, c]);
    }

    #[test]
    fn erase_recursive() {
        let mut m = Module::new();
        let top = m.top_block();
        let outer = m.create_op("scf.for", vec![], vec![], vec![]);
        m.append_op(top, outer);
        let region = m.add_region(outer);
        let body = m.add_block(region, &[Type::Index]);
        let inner = m.create_op("t.inner", vec![], vec![], vec![]);
        m.append_op(body, inner);
        assert_eq!(m.live_op_count(), 2);
        m.erase_op(outer);
        assert_eq!(m.live_op_count(), 0);
        assert!(!m.is_alive(inner));
        assert!(m.block_ops(top).is_empty());
    }

    #[test]
    fn erasing_an_op_releases_everything_only_a_live_op_needs() {
        let mut m = Module::new();
        let top = m.top_block();
        let c = m.create_op(
            "arith.constant",
            vec![],
            vec![Type::i64()],
            vec![("value", Attribute::int(4))],
        );
        m.append_op(top, c);
        let v = m.result(c);
        let outer = m.create_op(
            "scf.for",
            vec![v],
            vec![],
            vec![("tiled", Attribute::int(1))],
        );
        m.append_op(top, outer);
        let region = m.add_region(outer);
        let body = m.add_block(region, &[Type::Index]);
        let inner = m.create_op(
            "t.inner",
            vec![v],
            vec![Type::i64()],
            vec![("k", Attribute::int(2))],
        );
        m.append_op(body, inner);
        assert_eq!(m.uses(v).len(), 2);
        m.erase_op(outer);
        // Both tombstones keep their name and nothing else.
        for dead in [outer, inner] {
            let data = m.op(dead);
            assert!(!data.is_alive());
            assert!(data.attrs.is_empty(), "{}", data.name);
            assert!(data.operands.is_empty() && data.results.is_empty());
            assert!(data.regions.is_empty());
        }
        assert_eq!(m.op(outer).name.full(), "scf.for");
        assert!(
            m.is_unused(v),
            "the operands were unlinked before they went"
        );
        // The survivor keeps its payload.
        assert_eq!(m.op(c).attr("value").and_then(Attribute::as_int), Some(4));
        m.erase_op(outer); // a dead op stays dead
        assert_eq!(m.live_op_count(), 1);
    }

    #[test]
    fn a_clone_full_of_tombstones_prints_like_the_original() {
        let mut m = Module::new();
        let top = m.top_block();
        let mut values = Vec::new();
        for i in 0..40 {
            let operands = values.iter().rev().take(i % 3).copied().collect();
            let name = if i % 2 == 0 {
                OpName::from("t.lit")
            } else {
                OpName::from(format!("t.made{i}"))
            };
            let op = m.create_op(
                name,
                operands,
                vec![Type::i64()],
                vec![("i", Attribute::int(i as i64))],
            );
            m.append_op(top, op);
            values.push(m.result(op));
        }
        // Erase from the back, so no survivor reads an erased value.
        let ops = m.block_ops(top);
        for &op in ops.iter().rev().take(30) {
            m.erase_op(op);
        }
        assert_eq!(m.live_op_count(), 10);
        let before = module_clone_count();
        let copy = m.clone();
        assert_eq!(module_clone_count(), before + 1);
        assert_eq!(
            crate::print::print_module(&copy),
            crate::print::print_module(&m)
        );
        assert_eq!(copy.live_op_count(), 10);
        crate::verifier::verify_module(&copy).expect("the copy verifies");
    }

    #[test]
    fn replace_all_uses_and_use_lists() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = m.create_op("t.a", vec![], vec![Type::i64()], vec![]);
        let b = m.create_op("t.b", vec![], vec![Type::i64()], vec![]);
        m.append_op(top, a);
        m.append_op(top, b);
        let va = m.result(a);
        let vb = m.result(b);
        let user = m.create_op("t.use", vec![va, va], vec![], vec![]);
        m.append_op(top, user);
        assert_eq!(m.uses(va).len(), 2);
        assert!(m.is_unused(vb));
        m.replace_all_uses(va, vb);
        assert!(m.is_unused(va));
        assert_eq!(m.uses(vb), vec![(user, 0), (user, 1)]);
    }

    #[test]
    fn parent_chain() {
        let mut m = Module::new();
        let top = m.top_block();
        let f = m.create_op("func.func", vec![], vec![], vec![]);
        m.append_op(top, f);
        let region = m.add_region(f);
        let entry = m.add_block(region, &[]);
        let lp = m.create_op("fir.do_loop", vec![], vec![], vec![]);
        m.append_op(entry, lp);
        let lr = m.add_region(lp);
        let lb = m.add_block(lr, &[Type::Index]);
        let body_op = m.create_op("t.x", vec![], vec![], vec![]);
        m.append_op(lb, body_op);
        assert_eq!(m.parent_op(body_op), Some(lp));
        assert_eq!(m.ancestors(body_op), vec![lp, f]);
        assert_eq!(m.parent_op(f), None);
    }

    #[test]
    fn block_args_and_terminator() {
        let mut m = Module::new();
        let f = m.create_op("func.func", vec![], vec![], vec![]);
        let region = m.add_region(f);
        let b = m.add_block(region, &[Type::Index, Type::f64()]);
        assert_eq!(m.block_args(b).len(), 2);
        let extra = m.add_block_arg(b, Type::i64());
        assert_eq!(m.block_args(b).len(), 3);
        assert_eq!(m.value_type(extra), &Type::i64());
        assert_eq!(m.block_terminator(b), None);
        let t = m.create_op("func.return", vec![], vec![], vec![]);
        m.append_op(b, t);
        assert_eq!(m.block_terminator(b), Some(t));
    }

    #[test]
    fn detach_and_reattach() {
        let mut m = Module::new();
        let top = m.top_block();
        let a = m.create_op("t.a", vec![], vec![], vec![]);
        m.append_op(top, a);
        m.detach_op(a);
        assert!(m.block_ops(top).is_empty());
        assert!(m.is_alive(a));
        m.append_op(top, a);
        assert_eq!(m.block_ops(top), vec![a]);
    }

    #[test]
    fn top_level_ops_named() {
        let mut m = Module::new();
        let top = m.top_block();
        for _ in 0..3 {
            let f = m.create_op("func.func", vec![], vec![], vec![]);
            m.append_op(top, f);
        }
        let g = m.create_op("fir.global", vec![], vec![], vec![]);
        m.append_op(top, g);
        assert_eq!(m.top_level_ops_named("func.func").len(), 3);
        assert_eq!(m.top_level_ops_named("fir.global").len(), 1);
    }

    /// SplitMix64: the seeded stream behind the randomized tests.
    pub(crate) struct Rng(pub u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        pub(crate) fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len())]
        }
    }

    /// The block lists as the old `Vec<OpId>` per block kept them, and every
    /// value ever made: what the randomized test checks the module against.
    #[derive(Default)]
    struct Shadow {
        blocks: Vec<(BlockId, Vec<OpId>)>,
        values: Vec<ValueId>,
        ops: Vec<OpId>,
    }

    impl Shadow {
        fn list(&mut self, block: BlockId) -> &mut Vec<OpId> {
            let at = self.blocks.iter().position(|(b, _)| *b == block).unwrap();
            &mut self.blocks[at].1
        }

        fn detach(&mut self, op: OpId) {
            for (_, ops) in &mut self.blocks {
                ops.retain(|&o| o != op);
            }
        }

        fn check(&self, m: &Module, step: usize) {
            for &v in &self.values {
                assert_eq!(m.uses(v), m.scan_uses(v), "step {step}: uses of {v:?}");
                assert_eq!(m.is_unused(v), m.scan_uses(v).is_empty(), "step {step}");
            }
            for (block, ops) in &self.blocks {
                // A block lives and dies with the op that holds it, and
                // takes its ops with it.
                let owner = m.block_parent(*block).and_then(|r| m.region_parent(r));
                let block_alive = m.blocks[block.0 as usize].alive;
                assert_eq!(block_alive, owner.is_none_or(|o| m.is_alive(o)));
                assert!(block_alive || ops.iter().all(|&o| !m.is_alive(o)));
                let live: Vec<OpId> = ops.iter().copied().filter(|&o| m.is_alive(o)).collect();
                assert_eq!(m.block_ops(*block), live, "step {step}: {block:?}");
                assert_eq!(m.block_terminator(*block), live.last().copied());
                for (i, &op) in live.iter().enumerate() {
                    assert_eq!(m.op(op).parent, Some(*block));
                    assert_eq!(m.ops_after(op), live[i + 1..], "step {step}: after {op:?}");
                }
            }
        }
    }

    #[test]
    fn use_lists_and_block_lists_match_a_brute_force_scan() {
        for seed in 0..6u64 {
            let mut rng = Rng(seed);
            let mut m = Module::new();
            let mut shadow = Shadow::default();
            shadow.blocks.push((m.top_block(), Vec::new()));
            for step in 0..300 {
                let live_ops: Vec<OpId> = shadow
                    .ops
                    .iter()
                    .copied()
                    .filter(|&o| m.is_alive(o))
                    .collect();
                let live_blocks: Vec<BlockId> = shadow
                    .blocks
                    .iter()
                    .map(|(b, _)| *b)
                    .filter(|b| m.blocks[b.0 as usize].alive)
                    .collect();
                match rng.below(10) {
                    // Create an op, sometimes with a region, and attach it.
                    0..=4 => {
                        let operands: Vec<ValueId> = (0..rng.below(4))
                            .filter(|_| !shadow.values.is_empty())
                            .map(|_| rng.pick(&shadow.values))
                            .collect();
                        let results = vec![Type::i64(); rng.below(3)];
                        // Borrowed and owned names mixed, as a parsed
                        // module rewritten by passes holds them.
                        let name = if step % 2 == 0 {
                            OpName::from("t.op")
                        } else {
                            OpName::from(format!("t.op{}", step % 7))
                        };
                        let op = m.create_op(name, operands, results, vec![]);
                        shadow.ops.push(op);
                        shadow.values.extend(&m.op(op).results);
                        if rng.below(4) == 0 {
                            let region = m.add_region(op);
                            let block = m.add_block(region, &[Type::Index]);
                            shadow.values.extend(m.block_args(block));
                            shadow.blocks.push((block, Vec::new()));
                        }
                        let attached: Vec<OpId> = live_ops
                            .iter()
                            .copied()
                            .filter(|&o| m.op(o).parent.is_some())
                            .collect();
                        match rng.below(4) {
                            0 if !attached.is_empty() => {
                                let anchor = rng.pick(&attached);
                                m.insert_op_before(anchor, op);
                                let list = shadow.list(m.op(anchor).parent.unwrap());
                                let at = list.iter().position(|&o| o == anchor).unwrap();
                                list.insert(at, op);
                            }
                            1 if !attached.is_empty() => {
                                let anchor = rng.pick(&attached);
                                m.insert_op_after(anchor, op);
                                let list = shadow.list(m.op(anchor).parent.unwrap());
                                let at = list.iter().position(|&o| o == anchor).unwrap();
                                list.insert(at + 1, op);
                            }
                            2 => {} // stays detached, its operands still count
                            _ => {
                                let block = rng.pick(&live_blocks);
                                m.append_op(block, op);
                                shadow.list(block).push(op);
                            }
                        }
                    }
                    5 if !live_ops.is_empty() => {
                        let op = rng.pick(&live_ops);
                        let n = m.op(op).operands.len();
                        if n > 0 {
                            let v = rng.pick(&shadow.values);
                            m.set_operand(op, rng.below(n), v);
                        }
                    }
                    6 if !shadow.values.is_empty() => {
                        let (old, new) = (rng.pick(&shadow.values), rng.pick(&shadow.values));
                        m.replace_all_uses(old, new);
                        assert!(old == new || m.is_unused(old));
                    }
                    7 if !live_ops.is_empty() => {
                        // Detach, and half the time re-attach elsewhere.
                        let op = rng.pick(&live_ops);
                        m.detach_op(op);
                        shadow.detach(op);
                        // Not into its own regions: an op cannot hold itself.
                        let block = rng.pick(&live_blocks);
                        let inside = std::iter::successors(m.block_parent(block), |&r| {
                            let owner = m.region_parent(r)?;
                            m.block_parent(m.op(owner).parent?)
                        })
                        .any(|r| m.region_parent(r) == Some(op));
                        if rng.below(2) == 0 && !inside {
                            m.append_op(block, op);
                            shadow.list(block).push(op);
                        }
                    }
                    8 if !live_ops.is_empty() => {
                        let op = rng.pick(&live_ops);
                        m.erase_op(op);
                        shadow.detach(op);
                        assert!(!m.is_alive(op));
                    }
                    _ => {}
                }
                shadow.check(&m, step);
            }
            // A clone carries the same lists.
            shadow.check(&m.clone(), usize::MAX);
        }
    }
}
