//! Template-stitching JIT tier: compile any [`BodyProgram`] + [`ExecPlan`]
//! into a flat, dispatch-free row program.
//!
//! # Stitching strategy (DESIGN.md §14)
//!
//! The fused VM still pays one `match` per instruction per 64-lane strip.
//! This module removes that dispatch for *arbitrary* nests: at
//! kernel-compile time every cell instruction is lowered to a
//! **pre-monomorphized fragment** — a concrete Rust type instantiated per
//! op kind (`BinKind`/`UnKind`/`MaKind`/`CmpKind`) whose inner loop over
//! the unit-stride row is straight-line, branch-free and
//! auto-vectorisable. The stitched program is a flat
//! `Vec<Box<dyn RowOp>>`: one indirect call per fragment per *row*,
//! amortised over the whole row width, zero dispatch per cell — and for a
//! program of one fragment one call per *box*, the fragment walking the
//! box's rows itself ([`JitProgram::run_box`]). What does not vary along
//! a row (constants, arguments, outer coordinates and anything computed
//! from only those) is evaluated once per row as a scalar, not as a row.
//!
//! On top of the 1:1 fragments a peephole stitches **linear-combination
//! chains** (`acc = seed ± c·load ± …`, optionally scaled and stored) into
//! a single [`LinChain`] fragment with the accumulator held in a register
//! across taps; a seed or tap may also be a row scalar or the `c·i`
//! coordinate ramp, so an affine fill is one chain. This is the one CPU code generator for linear stencils:
//! sums (Gauss–Seidel, Listing 1), linear combinations and copies (a
//! chain of no taps) run here. Chain arithmetic reproduces the VM's exact
//! per-cell operation sequence (two roundings per multiply–accumulate,
//! left-folded order), so every tier stays bit-identical; the differential
//! proptests force all of them.
//!
//! View-offset address arithmetic is resolved at stitch time: offsets are
//! already linearised against the strides by the kernel compiler, so
//! fragments index `cursor + off` directly. The `unroll` knob of the
//! [`ExecPlan`] selects the unroll-4 loop skeleton inside chain fragments:
//! four cells per iteration, each with its own accumulator chain.
//!
//! # No cache
//!
//! A stitch costs a few microseconds — less than hashing the bytecode to
//! look one up (DESIGN.md §14) — so every kernel compile stitches its own
//! [`JitProgram`] and the owning `Nest` keeps it. Cross-request reuse is
//! the compile service's `Arc<Compiled>` artifact cache, one level up.
//! What is process-wide here is counters only: [`stats`]. Construction
//! failures are reported as [`JitSkip`] and degrade to the fused VM (coded
//! [`codes::JIT_FALLBACK`](fsc_ir::diag::codes::JIT_FALLBACK) warning),
//! never a run failure.

// Fragments run on input-derived shapes: a skip or a coded error, never a panic.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fsc_ir::hist::Log2Histogram;

use crate::bytecode::{
    bin_eval, cmp_eval, exec_scalar_instr, mul_acc, un_eval, BinKind, BodyProgram, CmpKind, Instr,
    MaKind, UnKind,
};
use crate::plan::ExecPlan;

/// Registers above this are declared pathological and skipped (the row
/// scratch is `num_regs * width` doubles per thread).
const MAX_JIT_REGS: u16 = 4096;

/// Longest chain folded into a single monomorphized fragment; longer
/// chains continue into a follow-up chain seeded by the accumulator.
const MAX_CHAIN_TAPS: usize = 8;

// ---------------------------------------------------------------------------
// Skip reasons
// ---------------------------------------------------------------------------

/// Why a program was not stitched. Never an error: the nest degrades to
/// the fused VM with a coded warning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JitSkip {
    /// Two stores target the same view: full-row store passes would
    /// reorder the per-cell overwrite sequence the VM performs.
    MultiStoreView,
    /// An instruction reads a register at or above its destination,
    /// breaking the SSA split the row buffers rely on.
    RegisterOrder,
    /// The register file is too large to stage as row buffers.
    TooManyRegs,
    /// The prelude holds something other than `Const`/`Arg`.
    PreludeShape,
}

impl JitSkip {
    /// Stable reason string for diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            JitSkip::MultiStoreView => "multiple stores to one view",
            JitSkip::RegisterOrder => "register order violates SSA split",
            JitSkip::TooManyRegs => "register file too large for row staging",
            JitSkip::PreludeShape => "non-scalar prelude instruction",
        }
    }
}

// ---------------------------------------------------------------------------
// Row execution context + fragment trait
// ---------------------------------------------------------------------------

/// Machine state a fragment sees while executing one unit-stride row.
struct RowCtx<'a, 'i, 'o> {
    /// Row register file: `num_regs * w` doubles, prelude and ramp rows
    /// filled for the box.
    regs: &'a mut [f64],
    /// Row width (cells).
    w: usize,
    /// Input view slices.
    inputs: &'a [&'i [f64]],
    /// Output slabs.
    outputs: &'a mut [&'o mut [f64]],
    /// View index → output slot.
    out_view_map: &'a [Option<u16>],
    /// Per-view linear cursor of lane 0 (slab-relative for outputs), moved
    /// from row to row by the [`Walk`].
    cursors: &'a mut [i64],
    /// Every dimension's coordinate of lane 0, moved with the cursors.
    coords: &'a mut [i64],
    /// Scalar kernel arguments.
    scalars: &'a [f64],
    /// Scalar registers: the prelude's for the box, the row scalars' for
    /// this row.
    pre: &'a mut [f64],
    /// A row of ones: the operand of a chain's scalar seed or tap.
    ones: &'a [f64],
}

/// One stitched fragment: `run` picks a copy of its `Row` once per row,
/// `run_box` once per box for a chain.
trait RowOp: Send + Sync + std::fmt::Debug {
    fn run(&self, ctx: &mut RowCtx<'_, '_, '_>);
    fn run_box(&self, ctx: &mut RowCtx<'_, '_, '_>, walk: &Walk<'_>, rows: &RowScalars);
}

/// A fragment's row loop, inlined into the copies of `row_op`, or of
/// `box_op` for a chain.
trait Row: Send + Sync + std::fmt::Debug {
    fn row(&self, ctx: &mut RowCtx<'_, '_, '_>);

    /// One row at the host's vector width.
    fn run_row(&self, ctx: &mut RowCtx<'_, '_, '_>)
    where
        Self: Sized,
    {
        row_op::run(self, ctx);
    }

    /// Every row of `walk`'s box, one [`Row::run_row`] after another.
    fn run_rows(&self, ctx: &mut RowCtx<'_, '_, '_>, walk: &Walk<'_>, rows: &RowScalars)
    where
        Self: Sized,
    {
        loop {
            self.run_row(ctx);
            if !walk.next(ctx.cursors, ctx.coords) {
                break;
            }
            rows.eval(ctx);
        }
    }
}

crate::wide::multiversion! {
    /// One fragment over one row at the host's vector width.
    fn row_op[T: Row](op: &T, ctx: &mut RowCtx<'_, '_, '_>) {
        op.row(ctx)
    }
}

crate::wide::multiversion! {
    /// A chain over every row of a box at the host's vector width, the row
    /// body inlined: no call per row. A chain's one row is a box of one.
    fn box_op[T: Row](op: &T, ctx: &mut RowCtx<'_, '_, '_>, walk: &Walk<'_>, rows: &RowScalars) {
        loop {
            op.row(ctx);
            if !walk.next(ctx.cursors, ctx.coords) {
                break;
            }
            rows.eval(ctx);
        }
    }
}

impl<T: Row> RowOp for T {
    fn run(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        self.run_row(ctx);
    }

    fn run_box(&self, ctx: &mut RowCtx<'_, '_, '_>, walk: &Walk<'_>, rows: &RowScalars) {
        self.run_rows(ctx, walk, rows);
    }
}

/// The rows of one box, visited dimension 1 fastest, and where each view's
/// cursor points in each of them.
#[derive(Debug, Clone, Copy)]
pub struct Walk<'a> {
    /// Half-open bounds per dimension, dimension 0 (the row) first.
    pub bounds: &'a [(i64, i64)],
    /// Each view's strides over the box's dimensions, `strides[v * rank + d]`.
    pub strides: &'a [i64],
    /// Flat index of each view's buffer origin, subtracted from its cursor.
    pub bases: &'a [i64],
}

impl Walk<'_> {
    /// A box of one row, whatever the cursors: [`Walk::next`] ends it.
    const ONE_ROW: Walk<'static> = Walk {
        bounds: &[(0, 1)],
        strides: &[],
        bases: &[],
    };

    /// Point `coords` at the box's first row and each view's cursor at its
    /// first cell.
    pub fn start(&self, cursors: &mut [i64], coords: &mut [i64]) {
        for (c, &(lb, _)) in coords.iter_mut().zip(self.bounds) {
            *c = lb;
        }
        self.aim(cursors, coords);
    }

    fn aim(&self, cursors: &mut [i64], coords: &[i64]) {
        let rank = self.bounds.len();
        for (v, cur) in cursors.iter_mut().enumerate() {
            let strides = &self.strides[v * rank..v * rank + rank];
            let at: i64 = coords.iter().zip(strides).map(|(c, s)| c * s).sum();
            *cur = at - self.bases[v];
        }
    }

    /// Move to the next row; `false` past the last one. Within a plane a
    /// row step adds each view's dimension-1 stride to its cursor.
    #[inline(always)]
    pub fn next(&self, cursors: &mut [i64], coords: &mut [i64]) -> bool {
        let rank = self.bounds.len();
        if rank < 2 {
            return false;
        }
        coords[1] += 1;
        if coords[1] < self.bounds[1].1 {
            for (v, cur) in cursors.iter_mut().enumerate() {
                *cur += self.strides[v * rank + 1];
            }
            return true;
        }
        self.carry(cursors, coords)
    }

    /// The row step that leaves a plane: odometer over dimensions 1 and up.
    #[cold]
    #[inline(never)]
    fn carry(&self, cursors: &mut [i64], coords: &mut [i64]) -> bool {
        let mut d = 1;
        loop {
            coords[d] = self.bounds[d].0;
            d += 1;
            if d == self.bounds.len() {
                return false;
            }
            coords[d] += 1;
            if coords[d] < self.bounds[d].1 {
                break;
            }
        }
        self.aim(cursors, coords);
        true
    }
}

/// The cell instructions that do not vary along a row, evaluated once per
/// row as scalars (their rows filled where a fragment reads them).
#[derive(Debug)]
struct RowScalars {
    instrs: Vec<Instr>,
    fills: Vec<u16>,
}

impl RowScalars {
    /// None: what a box of one row evaluates after it.
    const NONE: RowScalars = RowScalars {
        instrs: Vec::new(),
        fills: Vec::new(),
    };

    #[inline]
    fn eval(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        for instr in &self.instrs {
            exec_scalar_instr(instr, ctx.pre, ctx.coords, ctx.scalars);
        }
        for &r in &self.fills {
            let r = usize::from(r);
            ctx.regs[r * ctx.w..(r + 1) * ctx.w].fill(ctx.pre[r]);
        }
    }
}

/// Split the register file into the destination row and the (strictly
/// lower, per SSA) source region.
#[inline(always)]
fn split_dst(regs: &mut [f64], w: usize, dst: u16) -> (&mut [f64], &[f64]) {
    let (lo, hi) = regs.split_at_mut(dst as usize * w);
    (&mut hi[..w], lo)
}

#[inline(always)]
fn row(lo: &[f64], w: usize, r: u16) -> &[f64] {
    &lo[r as usize * w..r as usize * w + w]
}

// ---------------------------------------------------------------------------
// Op-kind ZSTs: one monomorphized fragment body per kind, all evaluated
// through the same `bin_eval`/`un_eval`/`cmp_eval`/`mul_acc` the VM uses,
// with the kind a compile-time constant so the match folds away.
// ---------------------------------------------------------------------------

trait BinK: Send + Sync + std::fmt::Debug + 'static {
    const KIND: BinKind;
}
trait UnK: Send + Sync + std::fmt::Debug + 'static {
    const KIND: UnKind;
}
trait CmpK: Send + Sync + std::fmt::Debug + 'static {
    const KIND: CmpKind;
}
trait MaK: Send + Sync + std::fmt::Debug + 'static {
    const KIND: MaKind;
}

macro_rules! kind_zsts {
    ($tr:ident, $kty:ident : $($name:ident => $variant:ident),+ $(,)?) => {
        $(
            #[derive(Debug)]
            struct $name;
            impl $tr for $name {
                const KIND: $kty = $kty::$variant;
            }
        )+
    };
}

kind_zsts!(BinK, BinKind:
    ZAdd => Add, ZSub => Sub, ZMul => Mul, ZDiv => Div, ZMin => Min,
    ZMax => Max, ZPow => Pow, ZAtan2 => Atan2, ZCopySign => CopySign, ZRem => Rem,
);
kind_zsts!(UnK, UnKind:
    ZNeg => Neg, ZSqrt => Sqrt, ZAbs => Abs, ZExp => Exp, ZLog => Log,
    ZSin => Sin, ZCos => Cos, ZTanh => Tanh, ZTrunc => Trunc,
);
kind_zsts!(CmpK, CmpKind:
    ZEq => Eq, ZNe => Ne, ZLt => Lt, ZLe => Le, ZGt => Gt, ZGe => Ge,
);
kind_zsts!(MaK, MaKind:
    ZCPlusMul => CPlusMul, ZCMinusMul => CMinusMul, ZMulMinusC => MulMinusC,
);

// ---------------------------------------------------------------------------
// 1:1 fragments
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct LoadRow {
    dst: u16,
    view: u16,
    off: i64,
}
impl Row for LoadRow {
    #[inline(always)]
    fn row(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        let base = (ctx.cursors[self.view as usize] + self.off) as usize;
        let src = &ctx.inputs[self.view as usize][base..base + ctx.w];
        let (d, _) = split_dst(ctx.regs, ctx.w, self.dst);
        d.copy_from_slice(src);
    }
}

#[derive(Debug)]
struct StoreRow {
    view: u16,
    off: i64,
    src: u16,
}
impl Row for StoreRow {
    #[inline(always)]
    fn row(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        // `NestIo::new` gave every stored view a slot (else `E0701`).
        let Some(slot) = ctx.out_view_map[self.view as usize] else {
            return;
        };
        let base = (ctx.cursors[self.view as usize] + self.off) as usize;
        let src = row(ctx.regs, ctx.w, self.src);
        ctx.outputs[usize::from(slot)][base..base + ctx.w].copy_from_slice(src);
    }
}

#[derive(Debug)]
struct BinRow<K: BinK> {
    dst: u16,
    a: u16,
    b: u16,
    _k: std::marker::PhantomData<K>,
}
impl<K: BinK> Row for BinRow<K> {
    #[inline(always)]
    fn row(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        let w = ctx.w;
        let (d, lo) = split_dst(ctx.regs, w, self.dst);
        let (a, b) = (row(lo, w, self.a), row(lo, w, self.b));
        for ((dv, &av), &bv) in d.iter_mut().zip(a).zip(b) {
            *dv = bin_eval(K::KIND, av, bv);
        }
    }
}

#[derive(Debug)]
struct UnRow<K: UnK> {
    dst: u16,
    a: u16,
    _k: std::marker::PhantomData<K>,
}
impl<K: UnK> Row for UnRow<K> {
    #[inline(always)]
    fn row(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        let w = ctx.w;
        let (d, lo) = split_dst(ctx.regs, w, self.dst);
        let a = row(lo, w, self.a);
        for (dv, &av) in d.iter_mut().zip(a) {
            *dv = un_eval(K::KIND, av);
        }
    }
}

#[derive(Debug)]
struct CmpRow<K: CmpK> {
    dst: u16,
    a: u16,
    b: u16,
    _k: std::marker::PhantomData<K>,
}
impl<K: CmpK> Row for CmpRow<K> {
    #[inline(always)]
    fn row(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        let w = ctx.w;
        let (d, lo) = split_dst(ctx.regs, w, self.dst);
        let (a, b) = (row(lo, w, self.a), row(lo, w, self.b));
        for ((dv, &av), &bv) in d.iter_mut().zip(a).zip(b) {
            *dv = cmp_eval(K::KIND, av, bv);
        }
    }
}

#[derive(Debug)]
struct SelectRow {
    dst: u16,
    c: u16,
    a: u16,
    b: u16,
}
impl Row for SelectRow {
    #[inline(always)]
    fn row(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        let w = ctx.w;
        let (d, lo) = split_dst(ctx.regs, w, self.dst);
        let (c, a, b) = (row(lo, w, self.c), row(lo, w, self.a), row(lo, w, self.b));
        for (x, dv) in d.iter_mut().enumerate() {
            *dv = if c[x] != 0.0 { a[x] } else { b[x] };
        }
    }
}

#[derive(Debug)]
struct MaRow<K: MaK> {
    dst: u16,
    a: u16,
    b: u16,
    c: u16,
    _k: std::marker::PhantomData<K>,
}
impl<K: MaK> Row for MaRow<K> {
    #[inline(always)]
    fn row(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        let w = ctx.w;
        let (d, lo) = split_dst(ctx.regs, w, self.dst);
        let (a, b, c) = (row(lo, w, self.a), row(lo, w, self.b), row(lo, w, self.c));
        for (x, dv) in d.iter_mut().enumerate() {
            *dv = mul_acc(K::KIND, a[x], b[x], c[x]);
        }
    }
}

#[derive(Debug)]
struct BinLoadRow<K: BinK, const LOAD_LEFT: bool> {
    dst: u16,
    a: u16,
    view: u16,
    off: i64,
    _k: std::marker::PhantomData<K>,
}
impl<K: BinK, const LOAD_LEFT: bool> Row for BinLoadRow<K, LOAD_LEFT> {
    #[inline(always)]
    fn row(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        let w = ctx.w;
        let base = (ctx.cursors[self.view as usize] + self.off) as usize;
        let mem = &ctx.inputs[self.view as usize][base..base + w];
        let (d, lo) = split_dst(ctx.regs, w, self.dst);
        let a = row(lo, w, self.a);
        for ((dv, &av), &mv) in d.iter_mut().zip(a).zip(mem) {
            *dv = if LOAD_LEFT {
                bin_eval(K::KIND, mv, av)
            } else {
                bin_eval(K::KIND, av, mv)
            };
        }
    }
}

// ---------------------------------------------------------------------------
// Linear-combination chains
// ---------------------------------------------------------------------------

/// Where a chain's accumulator starts, or what a tap multiplies.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Src {
    /// A direct load (the absorbed `Load` / `BinLoad{Mul}` seed, a tap).
    View { view: u16, off: i64 },
    /// An already-materialised register row: the accumulator of a chain
    /// cut at [`MAX_CHAIN_TAPS`], or a `Coord` ramp filled per box.
    Reg(u16),
    /// A row of ones, scaled by the coefficient: a scalar operand
    /// (`s · 1.0` is `s` exactly).
    Ones,
}

/// Per-tap coefficient. `One`/`NegOne` reproduce plain add/sub taps
/// (`1.0 * x` and `-1.0 * x` are exact, so the accumulated value is
/// bit-identical to the VM's `acc + x` / `acc - x`); `Pre` reads a scalar
/// register, negated for `CMinusMul` (`c - m` ≡ `c + (-a)*b` exactly);
/// `Prod` is the product of two, rounded once as the VM's `mul_acc` does.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TapCoef {
    One,
    NegOne,
    Pre { reg: u16, negate: bool },
    Prod { a: u16, b: u16, negate: bool },
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct ChainTap {
    src: Src,
    coef: TapCoef,
}

/// Where the chain result lands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sink {
    Reg,
    Store { view: u16, off: i64 },
}

/// Detected chain shape, before monomorphization.
#[derive(Debug, Clone, PartialEq)]
struct ChainSpec {
    /// Final destination register (post-scale).
    dst: u16,
    seed: Src,
    /// `Some(coef_reg)` when the seed is `coef * operand` (a folded
    /// `BinLoad{Mul}` or ramp product against a scalar register, or a
    /// scalar seed over [`Src::Ones`]).
    seed_coef: Option<u16>,
    taps: Vec<ChainTap>,
    /// `0` none, `1` divide by prelude reg, `2` multiply by prelude reg.
    scale_kind: u8,
    scale_reg: u16,
    sink: Sink,
}

impl ChainSpec {
    /// An unscaled seed plus unit taps: stitched as a `UNIT` chain.
    fn is_unit(&self) -> bool {
        self.seed_coef.is_none() && self.taps.iter().all(|t| t.coef == TapCoef::One)
    }
}

/// The stitched chain fragment: `K` taps monomorphized (none for a copy),
/// seed scaling and result scaling folded in, optional direct store sink,
/// unroll-4 skeleton from the plan. `UNIT` chains (every tap
/// [`TapCoef::One`], unscaled seed: Gauss–Seidel, Listing 1, copies) add
/// each tap without a multiply.
#[derive(Debug)]
struct LinChain<const K: usize, const SEED_SCALED: bool, const SCALE: u8, const UNIT: bool> {
    dst: u16,
    seed: Src,
    seed_coef: u16,
    taps: [ChainTap; K],
    scale_reg: u16,
    sink: Sink,
    unroll4: bool,
}

/// A chain's operands for one row.
struct ChainRow<'r, const K: usize> {
    seed: &'r [f64],
    seed_coef: f64,
    coefs: [f64; K],
    bases: [&'r [f64]; K],
    scale: f64,
}

impl<const K: usize, const SEED_SCALED: bool, const SCALE: u8, const UNIT: bool>
    LinChain<K, SEED_SCALED, SCALE, UNIT>
{
    /// Cell `x`. A function, not a closure: a closure's body is not
    /// reliably inlined into `row_op`'s copies, which then call it per
    /// cell at baseline width (`ci.sh == vector width gate ==`).
    #[inline(always)]
    fn lane(r: &ChainRow<'_, K>, x: usize) -> f64 {
        let mut acc = r.seed[x];
        if SEED_SCALED {
            // `coef * value`, never `value * coef`: operand order must
            // mirror the VM's `mul` bit-for-bit.
            #[allow(clippy::assign_op_pattern)]
            {
                acc = r.seed_coef * acc;
            }
        }
        // Indexed, not zipped: an unoptimised build runs this per tap per
        // cell, and the iterator's calls there made the jit no faster than
        // the generic VM.
        #[allow(clippy::needless_range_loop)]
        for t in 0..K {
            // `1.0 * x` is `x` exactly, so a unit tap skips the multiply.
            acc += if UNIT {
                r.bases[t][x]
            } else {
                r.coefs[t] * r.bases[t][x]
            };
        }
        match SCALE {
            1 => acc / r.scale,
            2 => acc * r.scale,
            _ => acc,
        }
    }
}

impl<const K: usize, const SEED_SCALED: bool, const SCALE: u8, const UNIT: bool> Row
    for LinChain<K, SEED_SCALED, SCALE, UNIT>
{
    /// A box of one row: a chain has `box_op`'s copies only, not also
    /// `row_op`'s (each copy is a few kilobytes of text).
    fn run_row(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        box_op::run(self, ctx, &Walk::ONE_ROW, &RowScalars::NONE);
    }

    fn run_rows(&self, ctx: &mut RowCtx<'_, '_, '_>, walk: &Walk<'_>, rows: &RowScalars) {
        box_op::run(self, ctx, walk, rows);
    }

    #[inline(always)]
    fn row(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        let w = ctx.w;
        let RowCtx {
            regs,
            inputs,
            outputs,
            out_view_map,
            cursors,
            pre,
            ones,
            ..
        } = ctx;
        let (d, lo) = split_dst(regs, w, self.dst);
        // Filled by a loop: built with `array::map`, the rows' lengths were
        // lost to LLVM and the plain loop below stayed scalar.
        let mut coefs = [0.0f64; K];
        let mut bases: [&[f64]; K] = [&[]; K];
        for (t, tap) in self.taps.iter().enumerate() {
            coefs[t] = match tap.coef {
                TapCoef::One => 1.0,
                TapCoef::NegOne => -1.0,
                TapCoef::Pre { reg, negate } => negated(pre[reg as usize], negate),
                TapCoef::Prod { a, b, negate } => {
                    negated(pre[a as usize] * pre[b as usize], negate)
                }
            };
            bases[t] = src_row(tap.src, inputs, cursors, lo, ones, w);
        }
        let r = ChainRow {
            seed: src_row(self.seed, inputs, cursors, lo, ones, w),
            seed_coef: if SEED_SCALED {
                pre[self.seed_coef as usize]
            } else {
                0.0
            },
            coefs,
            bases,
            scale: if SCALE != 0 {
                pre[self.scale_reg as usize]
            } else {
                0.0
            },
        };
        let d: &mut [f64] = match self.sink {
            Sink::Reg => d,
            Sink::Store { view, off } => {
                // As in `StoreRow`: `NestIo::new` gave the view a slot.
                let Some(slot) = out_view_map[view as usize] else {
                    return;
                };
                let base = (cursors[view as usize] + off) as usize;
                &mut outputs[usize::from(slot)][base..base + w]
            }
        };
        let mut x = 0;
        if self.unroll4 {
            while x + 4 <= w {
                d[x] = Self::lane(&r, x);
                d[x + 1] = Self::lane(&r, x + 1);
                d[x + 2] = Self::lane(&r, x + 2);
                d[x + 3] = Self::lane(&r, x + 3);
                x += 4;
            }
        }
        while x < w {
            d[x] = Self::lane(&r, x);
            x += 1;
        }
    }
}

#[inline(always)]
fn negated(v: f64, negate: bool) -> f64 {
    if negate {
        -v
    } else {
        v
    }
}

/// The row a chain operand reads this row.
#[inline(always)]
fn src_row<'r>(
    src: Src,
    inputs: &[&'r [f64]],
    cursors: &[i64],
    lo: &'r [f64],
    ones: &'r [f64],
    w: usize,
) -> &'r [f64] {
    match src {
        Src::View { view, off } => {
            let base = (cursors[view as usize] + off) as usize;
            &inputs[view as usize][base..base + w]
        }
        Src::Reg(r) => row(lo, w, r),
        Src::Ones => &ones[..w],
    }
}

/// Monomorphize a detected chain: `K` × seed-scaled × scale-kind, and
/// `UNIT` for the unscaled seeds.
fn box_chain(spec: &ChainSpec, unroll4: bool) -> Box<dyn RowOp> {
    fn mk<const K: usize>(spec: &ChainSpec, unroll4: bool) -> Box<dyn RowOp> {
        // `box_chain` picked `K` as `spec.taps.len()`.
        let taps: [ChainTap; K] = std::array::from_fn(|t| spec.taps[t]);
        macro_rules! chain {
            ($ss:literal, $sc:literal, $unit:literal) => {
                Box::new(LinChain::<K, $ss, $sc, $unit> {
                    dst: spec.dst,
                    seed: spec.seed,
                    seed_coef: spec.seed_coef.unwrap_or(0),
                    taps,
                    scale_reg: spec.scale_reg,
                    sink: spec.sink,
                    unroll4,
                })
            };
        }
        match (spec.seed_coef.is_some(), spec.is_unit(), spec.scale_kind) {
            (false, false, 0) => chain!(false, 0, false),
            (false, false, 1) => chain!(false, 1, false),
            (false, false, 2) => chain!(false, 2, false),
            (false, true, 0) => chain!(false, 0, true),
            (false, true, 1) => chain!(false, 1, true),
            (false, true, 2) => chain!(false, 2, true),
            (true, _, 0) => chain!(true, 0, false),
            (true, _, 1) => chain!(true, 1, false),
            (true, _, 2) => chain!(true, 2, false),
            _ => unreachable!("scale kind out of range"),
        }
    }
    match spec.taps.len() {
        0 => mk::<0>(spec, unroll4),
        1 => mk::<1>(spec, unroll4),
        2 => mk::<2>(spec, unroll4),
        3 => mk::<3>(spec, unroll4),
        4 => mk::<4>(spec, unroll4),
        5 => mk::<5>(spec, unroll4),
        6 => mk::<6>(spec, unroll4),
        7 => mk::<7>(spec, unroll4),
        8 => mk::<8>(spec, unroll4),
        n => unreachable!("chain arity {n} exceeds MAX_CHAIN_TAPS"),
    }
}

// ---------------------------------------------------------------------------
// Chain detection
// ---------------------------------------------------------------------------

/// Registers a cell instruction reads.
fn operand_regs(instr: &Instr, out: &mut Vec<u16>) {
    out.clear();
    match *instr {
        Instr::Const { .. } | Instr::Arg { .. } | Instr::Coord { .. } | Instr::Load { .. } => {}
        Instr::Bin { a, b, .. } | Instr::Cmp { a, b, .. } => out.extend([a, b]),
        Instr::Un { a, .. } | Instr::BinLoad { a, .. } => out.push(a),
        Instr::Select { c, a, b, .. } => out.extend([c, a, b]),
        Instr::MulAdd { a, b, c, .. } => out.extend([a, b, c]),
        Instr::Store { src, .. } => out.push(src),
    }
}

fn dst_reg(instr: &Instr) -> Option<u16> {
    match *instr {
        Instr::Const { dst, .. }
        | Instr::Arg { dst, .. }
        | Instr::Coord { dst, .. }
        | Instr::Load { dst, .. }
        | Instr::Bin { dst, .. }
        | Instr::Un { dst, .. }
        | Instr::Cmp { dst, .. }
        | Instr::Select { dst, .. }
        | Instr::MulAdd { dst, .. }
        | Instr::BinLoad { dst, .. } => Some(dst),
        Instr::Store { .. } => None,
    }
}

/// One emission unit after chain detection.
enum StitchItem {
    Plain(Instr),
    Chain(ChainSpec),
}

/// How the stitched program holds a register's value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Held {
    /// A row a fragment computes.
    Row,
    /// A prelude scalar, set once per box (its row filled too).
    Prelude,
    /// A row scalar, evaluated once per row.
    RowScalar,
    /// A `Coord` along dimension 0: a row filled once per box.
    Ramp,
}

/// The row body left for fragments once the cell instructions that do not
/// vary along a row are hoisted out, and how each register is held.
struct ChainScan {
    ins: Vec<Instr>,
    uses: Vec<u32>,
    held: Vec<Held>,
}

impl ChainScan {
    /// `Const`, `Arg` and `Coord` on dimensions ≥ 1 do not vary along a row,
    /// and neither does an instruction over only those and the prelude:
    /// returned as the row scalars, in order. `Coord` on dimension 0 is
    /// returned as a ramp. Every other instruction stays in the body.
    fn new(program: &BodyProgram) -> (Self, Vec<Instr>, Vec<u16>) {
        let n = usize::from(program.num_regs);
        let mut held = vec![Held::Row; n];
        for instr in &program.instrs[..program.prelude_len] {
            if let Some(d) = dst_reg(instr) {
                held[usize::from(d)] = Held::Prelude;
            }
        }
        let (mut ins, mut row_scalars, mut ramps) = (Vec::new(), Vec::new(), Vec::new());
        let mut scratch = Vec::new();
        for instr in program.cell_instrs() {
            operand_regs(instr, &mut scratch);
            let scalar_operands = scratch
                .iter()
                .all(|&r| matches!(held[usize::from(r)], Held::Prelude | Held::RowScalar));
            match *instr {
                Instr::Coord { dst, dim: 0 } => {
                    held[usize::from(dst)] = Held::Ramp;
                    ramps.push(dst);
                }
                Instr::Load { .. } | Instr::BinLoad { .. } | Instr::Store { .. } => {
                    ins.push(instr.clone())
                }
                _ if scalar_operands => {
                    if let Some(d) = dst_reg(instr) {
                        held[usize::from(d)] = Held::RowScalar;
                    }
                    row_scalars.push(instr.clone());
                }
                _ => ins.push(instr.clone()),
            }
        }
        let mut uses = vec![0u32; n];
        for instr in &ins {
            operand_regs(instr, &mut scratch);
            for &r in &scratch {
                uses[usize::from(r)] += 1;
            }
        }
        (Self { ins, uses, held }, row_scalars, ramps)
    }

    fn used_once(&self, r: u16) -> bool {
        self.uses[r as usize] == 1
    }

    /// `pre[r]` holds the register's value for the row.
    fn scalar(&self, r: u16) -> bool {
        matches!(self.held[r as usize], Held::Prelude | Held::RowScalar)
    }

    fn ramp(&self, r: u16) -> bool {
        self.held[r as usize] == Held::Ramp
    }

    /// The tap that adds (or with `negate` subtracts) register `m`, when it
    /// is a scalar or a ramp.
    fn affine_tap(&self, m: u16, negate: bool) -> Option<ChainTap> {
        if self.scalar(m) {
            let coef = TapCoef::Pre { reg: m, negate };
            Some(ChainTap {
                src: Src::Ones,
                coef,
            })
        } else if self.ramp(m) {
            let coef = if negate {
                TapCoef::NegOne
            } else {
                TapCoef::One
            };
            Some(ChainTap {
                src: Src::Reg(m),
                coef,
            })
        } else {
            None
        }
    }

    /// The tap that adds (or subtracts) `a · b`, when one factor is a scalar
    /// and the other a scalar or a ramp.
    fn product_tap(&self, a: u16, b: u16, negate: bool) -> Option<ChainTap> {
        let (s, other) = if self.scalar(a) {
            (a, b)
        } else if self.scalar(b) {
            (b, a)
        } else {
            return None;
        };
        if self.scalar(other) {
            let coef = TapCoef::Prod { a, b, negate };
            Some(ChainTap {
                src: Src::Ones,
                coef,
            })
        } else if self.ramp(other) {
            let coef = TapCoef::Pre { reg: s, negate };
            Some(ChainTap {
                src: Src::Reg(other),
                coef,
            })
        } else {
            None
        }
    }

    /// If `ins[j]` (with possibly one helper `Load` at `j`) extends a
    /// chain whose accumulator is `acc`, return the tap, the new
    /// accumulator and the next scan index.
    fn link_at(&self, j: usize, acc: u16) -> Option<(ChainTap, u16, usize)> {
        match self.ins.get(j) {
            Some(&Instr::BinLoad {
                dst,
                kind,
                a,
                view,
                off,
                load_left,
            }) if a == acc => {
                let coef = match kind {
                    BinKind::Add => TapCoef::One,
                    // `load - acc` is not linear in the accumulator.
                    BinKind::Sub if !load_left => TapCoef::NegOne,
                    _ => return None,
                };
                let src = Src::View { view, off };
                Some((ChainTap { src, coef }, dst, j + 1))
            }
            Some(&Instr::Load {
                dst: lreg,
                view,
                off,
            }) if self.used_once(lreg) => match self.ins.get(j + 1) {
                Some(&Instr::MulAdd {
                    dst,
                    a,
                    b,
                    c,
                    kind: kind @ (MaKind::CPlusMul | MaKind::CMinusMul),
                }) if c == acc => {
                    // Exactly one multiplicand is the fresh load, the
                    // other a scalar.
                    let coef_reg = if a == lreg && self.scalar(b) {
                        b
                    } else if b == lreg && self.scalar(a) {
                        a
                    } else {
                        return None;
                    };
                    let coef = TapCoef::Pre {
                        reg: coef_reg,
                        negate: kind == MaKind::CMinusMul,
                    };
                    let src = Src::View { view, off };
                    Some((ChainTap { src, coef }, dst, j + 2))
                }
                _ => None,
            },
            Some(&Instr::Bin {
                dst,
                kind: BinKind::Add,
                a,
                b,
            }) => {
                let tap = match (a == acc, b == acc) {
                    (true, _) => self.affine_tap(b, false),
                    (_, true) => self.affine_tap(a, false),
                    _ => None,
                };
                Some((tap?, dst, j + 1))
            }
            Some(&Instr::Bin {
                dst,
                kind: BinKind::Sub,
                a,
                b,
            }) if a == acc => Some((self.affine_tap(b, true)?, dst, j + 1)),
            Some(&Instr::MulAdd {
                dst,
                a,
                b,
                c,
                kind: kind @ (MaKind::CPlusMul | MaKind::CMinusMul),
            }) if c == acc => {
                let tap = self.product_tap(a, b, kind == MaKind::CMinusMul)?;
                Some((tap, dst, j + 1))
            }
            _ => None,
        }
    }

    /// Try to start a chain at instruction `i`; returns the spec and the
    /// index just past the consumed instructions.
    fn chain_from(&self, i: usize) -> Option<(ChainSpec, usize)> {
        // Absorbable seed: a single-use Load, or a single-use product of a
        // scalar coefficient and a load (`c*l0 + …`) or a ramp (`c*i + …`).
        let seeded = match self.ins[i] {
            Instr::Load { dst, view, off } if self.used_once(dst) => {
                Some((Src::View { view, off }, None, dst))
            }
            Instr::BinLoad {
                dst,
                kind: BinKind::Mul,
                a,
                view,
                off,
                ..
            } if self.used_once(dst) && self.scalar(a) => {
                Some((Src::View { view, off }, Some(a), dst))
            }
            Instr::Bin {
                dst,
                kind: BinKind::Mul,
                a,
                b,
            } if self.used_once(dst) => match (self.scalar(a), self.scalar(b)) {
                (true, false) if self.ramp(b) => Some((Src::Reg(b), Some(a), dst)),
                (false, true) if self.ramp(a) => Some((Src::Reg(a), Some(b), dst)),
                _ => None,
            },
            _ => None,
        };
        let start = |dst, seed, seed_coef| ChainSpec {
            dst,
            seed,
            seed_coef,
            taps: Vec::new(),
            scale_kind: 0,
            scale_reg: 0,
            sink: Sink::Reg,
        };
        if let Some((seed, seed_coef, dst)) = seeded {
            let mut spec = start(dst, seed, seed_coef);
            let end = self.grow(&mut spec, i + 1);
            // With no taps the seed is a chain only as a copy, its (scaled)
            // value stored: one pass instead of a load row and a store row.
            if !spec.taps.is_empty() || matches!(spec.sink, Sink::Store { .. }) {
                return Some((spec, end));
            }
        }
        // Otherwise the chain may still start from what `i` itself, a link,
        // accumulates onto: a register row (the accumulator of a chain cut
        // at `MAX_CHAIN_TAPS`, a ramp) or a scalar, seeded over the ones.
        self.acc_candidates(i)
            .into_iter()
            .flatten()
            .find_map(|acc| {
                let (tap, dst, next) = self.link_at(i, acc)?;
                let mut spec = if self.scalar(acc) {
                    start(dst, Src::Ones, Some(acc))
                } else {
                    start(dst, Src::Reg(acc), None)
                };
                spec.taps.push(tap);
                let end = self.grow(&mut spec, next);
                Some((spec, end))
            })
    }

    /// The accumulators a link at `i` could consume.
    fn acc_candidates(&self, i: usize) -> [Option<u16>; 2] {
        match self.ins[i] {
            Instr::BinLoad { a, .. } => [Some(a), None],
            Instr::Load { dst, .. } if self.used_once(dst) => match self.ins.get(i + 1) {
                Some(&Instr::MulAdd { c, .. }) => [Some(c), None],
                _ => [None, None],
            },
            Instr::Bin {
                kind: BinKind::Add,
                a,
                b,
                ..
            } => [Some(a), Some(b)],
            Instr::Bin {
                kind: BinKind::Sub,
                a,
                ..
            }
            | Instr::MulAdd { c: a, .. } => [Some(a), None],
            _ => [None, None],
        }
    }

    /// Grow `spec` with further links, then fold a trailing scale and
    /// store. Returns the index just past everything consumed.
    fn grow(&self, spec: &mut ChainSpec, mut j: usize) -> usize {
        loop {
            if spec.taps.len() >= MAX_CHAIN_TAPS {
                break;
            }
            // The accumulator must be consumed *only* by the next link.
            if !self.used_once(spec.dst) {
                break;
            }
            match self.link_at(j, spec.dst) {
                Some((tap, acc, next)) => {
                    spec.taps.push(tap);
                    spec.dst = acc;
                    j = next;
                }
                None => break,
            }
        }
        // Fold `acc / c`, `acc * c`, `c * acc` against a scalar.
        if self.used_once(spec.dst) {
            if let Some(&Instr::Bin { dst, kind, a, b }) = self.ins.get(j) {
                let folded = match kind {
                    BinKind::Div if a == spec.dst && self.scalar(b) => Some((1u8, b)),
                    BinKind::Mul if a == spec.dst && self.scalar(b) => Some((2u8, b)),
                    BinKind::Mul if b == spec.dst && self.scalar(a) => Some((2u8, a)),
                    _ => None,
                };
                if let Some((sk, sr)) = folded {
                    spec.scale_kind = sk;
                    spec.scale_reg = sr;
                    spec.dst = dst;
                    j += 1;
                }
            }
        }
        // Fold a trailing store of the (scaled) result.
        if self.used_once(spec.dst) {
            if let Some(&Instr::Store { view, off, src }) = self.ins.get(j) {
                if src == spec.dst {
                    spec.sink = Sink::Store { view, off };
                    j += 1;
                }
            }
        }
        j
    }

    /// Split the row body into plain fragments and folded chains.
    fn items(&self) -> Vec<StitchItem> {
        let mut items = Vec::new();
        let mut i = 0;
        while i < self.ins.len() {
            match self.chain_from(i) {
                Some((spec, end)) => {
                    items.push(StitchItem::Chain(spec));
                    i = end;
                }
                None => {
                    items.push(StitchItem::Plain(self.ins[i].clone()));
                    i += 1;
                }
            }
        }
        items
    }
}

// ---------------------------------------------------------------------------
// The stitched program
// ---------------------------------------------------------------------------

/// A stitched, dispatch-free row program.
#[derive(Debug)]
pub struct JitProgram {
    steps: Vec<Box<dyn RowOp>>,
    /// Loop-invariant prefix (Const/Arg only), evaluated per box.
    prelude: Vec<Instr>,
    prelude_dsts: Vec<u16>,
    /// Evaluated per row.
    rows: RowScalars,
    /// `Coord` rows along dimension 0, filled per box.
    ramps: Vec<u16>,
    num_regs: u16,
    chained_taps: usize,
    unit_chains: usize,
}

/// A stitched program's register files for the boxes of one nest: rows of
/// one width, the scalars, and what [`JitProgram::prepare`] last filled
/// them for.
#[derive(Debug, Default)]
pub struct JitRegs {
    rows: Vec<f64>,
    pre: Vec<f64>,
    ones: Vec<f64>,
    /// Row width, first column and scalar arguments (as bits) filled for.
    filled: Option<(usize, i64, Vec<u64>)>,
}

impl JitProgram {
    /// Stitch `program` (normally the *fused* body) under `plan`, counting
    /// the attempt and its wall time in the process-wide [`stats`].
    pub fn build(program: &BodyProgram, plan: &ExecPlan) -> Result<Self, JitSkip> {
        let t0 = Instant::now();
        let built = Self::stitch(program, plan);
        STITCH_TIME.record(t0.elapsed());
        let counter = if built.is_ok() { &BUILDS } else { &SKIPS };
        counter.fetch_add(1, Ordering::Relaxed);
        built
    }

    fn stitch(program: &BodyProgram, plan: &ExecPlan) -> Result<Self, JitSkip> {
        if program.num_regs > MAX_JIT_REGS {
            return Err(JitSkip::TooManyRegs);
        }
        let prelude = &program.instrs[..program.prelude_len];
        if !prelude
            .iter()
            .all(|i| matches!(i, Instr::Const { .. } | Instr::Arg { .. }))
        {
            return Err(JitSkip::PreludeShape);
        }
        // Full-row store passes must not reorder per-cell overwrites.
        let mut stores = HashSet::new();
        for instr in program.cell_instrs() {
            if let Instr::Store { view, .. } = instr {
                if !stores.insert(*view) {
                    return Err(JitSkip::MultiStoreView);
                }
            }
        }
        // SSA split invariant: every operand register below its dst.
        let mut scratch = Vec::new();
        for instr in program.cell_instrs() {
            if let Some(d) = dst_reg(instr) {
                operand_regs(instr, &mut scratch);
                if scratch.iter().any(|&r| r >= d) {
                    return Err(JitSkip::RegisterOrder);
                }
            }
        }

        let unroll4 = plan.unroll >= 4;
        let (scan, row_instrs, ramps) = ChainScan::new(program);
        let items = scan.items();
        let mut steps: Vec<Box<dyn RowOp>> = Vec::with_capacity(items.len());
        let (mut chained_taps, mut unit_chains) = (0, 0);
        // Row scalars a plain fragment reads as a row are filled each row.
        let mut fills = Vec::new();
        for item in &items {
            match item {
                StitchItem::Plain(instr) => {
                    operand_regs(instr, &mut scratch);
                    for &r in &scratch {
                        if scan.held[usize::from(r)] == Held::RowScalar && !fills.contains(&r) {
                            fills.push(r);
                        }
                    }
                    steps.push(box_instr(instr));
                }
                StitchItem::Chain(spec) => {
                    chained_taps += spec.taps.len();
                    unit_chains += usize::from(spec.is_unit());
                    steps.push(box_chain(spec, unroll4));
                }
            }
        }
        let prelude_dsts = prelude.iter().filter_map(dst_reg).collect();
        Ok(Self {
            steps,
            prelude: prelude.to_vec(),
            prelude_dsts,
            rows: RowScalars {
                instrs: row_instrs,
                fills,
            },
            ramps,
            num_regs: program.num_regs,
            chained_taps,
            unit_chains,
        })
    }

    /// Stitched fragment count (after chain folding).
    pub fn steps_len(&self) -> usize {
        self.steps.len()
    }

    /// Taps folded into linear-combination chains.
    pub fn chained_taps(&self) -> usize {
        self.chained_taps
    }

    /// Chains stitched as `UNIT` (unscaled seed, every tap added without a
    /// multiply).
    pub fn unit_chains(&self) -> usize {
        self.unit_chains
    }

    /// Conservative in-memory footprint, charged to whichever cache holds
    /// the owning artifact (`Compiled::approx_bytes`).
    pub fn approx_bytes(&self) -> u64 {
        let scalars = self.prelude.len() + self.rows.instrs.len();
        256 + self.steps.len() as u64 * 96 + scalars as u64 * 32
    }

    /// Fill what stays put over a box of rows `w` wide from column
    /// `coord0`: the prelude's values and rows, the `Coord` ramps and the
    /// row of ones. Nothing to do when `regs` already holds them.
    pub fn prepare(&self, regs: &mut JitRegs, w: usize, coord0: i64, scalars: &[f64]) {
        let filled = |(fw, fc, bits): &(usize, i64, Vec<u64>)| {
            *fw == w
                && *fc == coord0
                && bits.iter().copied().eq(scalars.iter().map(|s| s.to_bits()))
        };
        if regs.filled.as_ref().is_some_and(filled) {
            return;
        }
        regs.pre.clear();
        regs.pre.resize(usize::from(self.num_regs), 0.0);
        for instr in &self.prelude {
            exec_scalar_instr(instr, &mut regs.pre, &[], scalars);
        }
        regs.rows.resize(usize::from(self.num_regs.max(1)) * w, 0.0);
        for &d in &self.prelude_dsts {
            let d = usize::from(d);
            regs.rows[d * w..d * w + w].fill(regs.pre[d]);
        }
        for &d in &self.ramps {
            let d = usize::from(d);
            for (x, r) in regs.rows[d * w..d * w + w].iter_mut().enumerate() {
                *r = (coord0 + x as i64) as f64;
            }
        }
        regs.ones.clear();
        regs.ones.resize(w, 1.0);
        regs.filled = Some((w, coord0, scalars.iter().map(|s| s.to_bits()).collect()));
    }

    /// Execute every row of `walk`'s box. `regs` must be [`prepared`] for
    /// its rows' width and first column, and `cursors`/`coords` at its
    /// first row ([`Walk::start`]); addressing conventions match
    /// [`BodyProgram::run_strip`]. A program of one fragment runs the box in
    /// that fragment's loop, any other one fragment per row after another.
    ///
    /// [`prepared`]: JitProgram::prepare
    #[allow(clippy::too_many_arguments)]
    pub fn run_box(
        &self,
        regs: &mut JitRegs,
        inputs: &[&[f64]],
        outputs: &mut [&mut [f64]],
        out_view_map: &[Option<u16>],
        cursors: &mut [i64],
        coords: &mut [i64],
        scalars: &[f64],
        walk: &Walk<'_>,
    ) {
        let Some(&(lb0, ub0)) = walk.bounds.first() else {
            return;
        };
        if ub0 <= lb0 {
            return;
        }
        let JitRegs {
            rows, pre, ones, ..
        } = regs;
        let mut ctx = RowCtx {
            regs: rows,
            w: (ub0 - lb0) as usize,
            inputs,
            outputs,
            out_view_map,
            cursors,
            coords,
            scalars,
            pre,
            ones,
        };
        self.rows.eval(&mut ctx);
        if let [step] = self.steps.as_slice() {
            step.run_box(&mut ctx, walk, &self.rows);
            return;
        }
        loop {
            for step in &self.steps {
                step.run(&mut ctx);
            }
            if !walk.next(ctx.cursors, ctx.coords) {
                break;
            }
            self.rows.eval(&mut ctx);
        }
    }
}

/// Monomorphize one plain instruction into its fragment.
fn box_instr(instr: &Instr) -> Box<dyn RowOp> {
    fn pd<K>() -> std::marker::PhantomData<K> {
        std::marker::PhantomData
    }
    fn bl<K: BinK>(dst: u16, a: u16, view: u16, off: i64, load_left: bool) -> Box<dyn RowOp> {
        if load_left {
            Box::new(BinLoadRow::<K, true> {
                dst,
                a,
                view,
                off,
                _k: pd(),
            })
        } else {
            Box::new(BinLoadRow::<K, false> {
                dst,
                a,
                view,
                off,
                _k: pd(),
            })
        }
    }
    match *instr {
        Instr::Const { .. } | Instr::Arg { .. } | Instr::Coord { .. } => {
            unreachable!("hoisted out of the row body")
        }
        Instr::Load { dst, view, off } => Box::new(LoadRow { dst, view, off }),
        Instr::Store { view, off, src } => Box::new(StoreRow { view, off, src }),
        Instr::Select { dst, c, a, b } => Box::new(SelectRow { dst, c, a, b }),
        Instr::Bin { dst, kind, a, b } => match kind {
            BinKind::Add => Box::new(BinRow::<ZAdd> {
                dst,
                a,
                b,
                _k: pd(),
            }),
            BinKind::Sub => Box::new(BinRow::<ZSub> {
                dst,
                a,
                b,
                _k: pd(),
            }),
            BinKind::Mul => Box::new(BinRow::<ZMul> {
                dst,
                a,
                b,
                _k: pd(),
            }),
            BinKind::Div => Box::new(BinRow::<ZDiv> {
                dst,
                a,
                b,
                _k: pd(),
            }),
            BinKind::Min => Box::new(BinRow::<ZMin> {
                dst,
                a,
                b,
                _k: pd(),
            }),
            BinKind::Max => Box::new(BinRow::<ZMax> {
                dst,
                a,
                b,
                _k: pd(),
            }),
            BinKind::Pow => Box::new(BinRow::<ZPow> {
                dst,
                a,
                b,
                _k: pd(),
            }),
            BinKind::Atan2 => Box::new(BinRow::<ZAtan2> {
                dst,
                a,
                b,
                _k: pd(),
            }),
            BinKind::CopySign => Box::new(BinRow::<ZCopySign> {
                dst,
                a,
                b,
                _k: pd(),
            }),
            BinKind::Rem => Box::new(BinRow::<ZRem> {
                dst,
                a,
                b,
                _k: pd(),
            }),
        },
        Instr::Un { dst, kind, a } => match kind {
            UnKind::Neg => Box::new(UnRow::<ZNeg> { dst, a, _k: pd() }),
            UnKind::Sqrt => Box::new(UnRow::<ZSqrt> { dst, a, _k: pd() }),
            UnKind::Abs => Box::new(UnRow::<ZAbs> { dst, a, _k: pd() }),
            UnKind::Exp => Box::new(UnRow::<ZExp> { dst, a, _k: pd() }),
            UnKind::Log => Box::new(UnRow::<ZLog> { dst, a, _k: pd() }),
            UnKind::Sin => Box::new(UnRow::<ZSin> { dst, a, _k: pd() }),
            UnKind::Cos => Box::new(UnRow::<ZCos> { dst, a, _k: pd() }),
            UnKind::Tanh => Box::new(UnRow::<ZTanh> { dst, a, _k: pd() }),
            UnKind::Trunc => Box::new(UnRow::<ZTrunc> { dst, a, _k: pd() }),
        },
        Instr::Cmp { dst, kind, a, b } => match kind {
            CmpKind::Eq => Box::new(CmpRow::<ZEq> {
                dst,
                a,
                b,
                _k: pd(),
            }),
            CmpKind::Ne => Box::new(CmpRow::<ZNe> {
                dst,
                a,
                b,
                _k: pd(),
            }),
            CmpKind::Lt => Box::new(CmpRow::<ZLt> {
                dst,
                a,
                b,
                _k: pd(),
            }),
            CmpKind::Le => Box::new(CmpRow::<ZLe> {
                dst,
                a,
                b,
                _k: pd(),
            }),
            CmpKind::Gt => Box::new(CmpRow::<ZGt> {
                dst,
                a,
                b,
                _k: pd(),
            }),
            CmpKind::Ge => Box::new(CmpRow::<ZGe> {
                dst,
                a,
                b,
                _k: pd(),
            }),
        },
        Instr::MulAdd { dst, a, b, c, kind } => match kind {
            MaKind::CPlusMul => Box::new(MaRow::<ZCPlusMul> {
                dst,
                a,
                b,
                c,
                _k: pd(),
            }),
            MaKind::CMinusMul => Box::new(MaRow::<ZCMinusMul> {
                dst,
                a,
                b,
                c,
                _k: pd(),
            }),
            MaKind::MulMinusC => Box::new(MaRow::<ZMulMinusC> {
                dst,
                a,
                b,
                c,
                _k: pd(),
            }),
        },
        Instr::BinLoad {
            dst,
            kind,
            a,
            view,
            off,
            load_left,
        } => match kind {
            BinKind::Add => bl::<ZAdd>(dst, a, view, off, load_left),
            BinKind::Sub => bl::<ZSub>(dst, a, view, off, load_left),
            BinKind::Mul => bl::<ZMul>(dst, a, view, off, load_left),
            BinKind::Div => bl::<ZDiv>(dst, a, view, off, load_left),
            BinKind::Min => bl::<ZMin>(dst, a, view, off, load_left),
            BinKind::Max => bl::<ZMax>(dst, a, view, off, load_left),
            BinKind::Pow => bl::<ZPow>(dst, a, view, off, load_left),
            BinKind::Atan2 => bl::<ZAtan2>(dst, a, view, off, load_left),
            BinKind::CopySign => bl::<ZCopySign>(dst, a, view, off, load_left),
            BinKind::Rem => bl::<ZRem>(dst, a, view, off, load_left),
        },
    }
}

// ---------------------------------------------------------------------------
// Process-wide stitch counters
// ---------------------------------------------------------------------------

static BUILDS: AtomicU64 = AtomicU64::new(0);
static SKIPS: AtomicU64 = AtomicU64::new(0);
static STITCH_TIME: Log2Histogram = Log2Histogram::new();

/// Snapshot of the process-wide stitch counters (all monotonic).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JitStats {
    /// Stitches that produced a program.
    pub builds: u64,
    /// Always 0 — there is no cache to hit. `benchmark/src/layers.rs` reads
    /// it; the benchmark-only catch-up PR (ROADMAP item 5) removes it
    /// together with `exec.jit_hits`.
    pub hits: u64,
    /// Stitches that ended in a [`JitSkip`].
    pub skips: u64,
    /// Stitch wall-time distribution (milliseconds), skips included.
    pub codegen_count: u64,
    /// See `codegen_count`.
    pub codegen_mean_ms: f64,
    /// See `codegen_count`.
    pub codegen_p50_ms: f64,
    /// See `codegen_count`.
    pub codegen_p99_ms: f64,
}

/// Read the process-wide stitch counters.
pub fn stats() -> JitStats {
    JitStats {
        builds: BUILDS.load(Ordering::Relaxed),
        hits: 0,
        skips: SKIPS.load(Ordering::Relaxed),
        codegen_count: STITCH_TIME.count(),
        codegen_mean_ms: STITCH_TIME.mean_ms(),
        codegen_p50_ms: STITCH_TIME.quantile_ms(0.5),
        codegen_p99_ms: STITCH_TIME.quantile_ms(0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specialize::fuse_program;
    use crate::wide;
    use std::sync::Barrier;

    /// `out[i] = (0.5*in[i] + in[i+1] + arg0*in[i+2]) / arg0` — collapses
    /// into a single scaled chain with a store sink.
    fn chain_program() -> BodyProgram {
        BodyProgram {
            instrs: vec![
                Instr::Const { dst: 0, val: 0.5 },
                Instr::Arg { dst: 1, arg: 0 },
                Instr::BinLoad {
                    dst: 2,
                    kind: BinKind::Mul,
                    a: 0,
                    view: 0,
                    off: 0,
                    load_left: false,
                },
                Instr::BinLoad {
                    dst: 3,
                    kind: BinKind::Add,
                    a: 2,
                    view: 0,
                    off: 1,
                    load_left: false,
                },
                Instr::Load {
                    dst: 4,
                    view: 0,
                    off: 2,
                },
                Instr::MulAdd {
                    dst: 5,
                    a: 1,
                    b: 4,
                    c: 3,
                    kind: MaKind::CPlusMul,
                },
                Instr::Bin {
                    dst: 6,
                    kind: BinKind::Div,
                    a: 5,
                    b: 1,
                },
                Instr::Store {
                    view: 1,
                    off: 0,
                    src: 6,
                },
            ],
            prelude_len: 2,
            num_regs: 7,
            ..BodyProgram::default()
        }
    }

    /// Exercises Un/Cmp/Select/Coord/Bin fragments (no chains).
    fn mixed_program() -> BodyProgram {
        BodyProgram {
            instrs: vec![
                Instr::Const { dst: 0, val: 2.0 },
                Instr::Load {
                    dst: 1,
                    view: 0,
                    off: 0,
                },
                Instr::Un {
                    dst: 2,
                    kind: UnKind::Abs,
                    a: 1,
                },
                Instr::Un {
                    dst: 3,
                    kind: UnKind::Sqrt,
                    a: 2,
                },
                Instr::Coord { dst: 4, dim: 0 },
                Instr::Cmp {
                    dst: 5,
                    kind: CmpKind::Lt,
                    a: 4,
                    b: 0,
                },
                Instr::Select {
                    dst: 6,
                    c: 5,
                    a: 3,
                    b: 1,
                },
                Instr::Bin {
                    dst: 7,
                    kind: BinKind::Max,
                    a: 6,
                    b: 0,
                },
                Instr::Store {
                    view: 1,
                    off: 0,
                    src: 7,
                },
            ],
            prelude_len: 1,
            num_regs: 8,
            ..BodyProgram::default()
        }
    }

    /// Input row of the jit and VM runs: room for offsets up to 16.
    fn data(w: usize) -> Vec<f64> {
        (0..w + 16).map(|i| (i as f64 * 0.37).sin() * 3.0).collect()
    }

    const SCALARS: [f64; 1] = [1.75];
    const OUT_VIEW_MAP: [Option<u16>; 2] = [None, Some(0)];

    /// `program` stitched under `plan`, over one row of width `w`.
    fn run_jit(program: &BodyProgram, plan: &ExecPlan, w: usize) -> Vec<f64> {
        let data = data(w);
        let jit = JitProgram::build(program, plan).expect("stitchable");
        let mut out = vec![0.0f64; w.max(1)];
        let mut regs = JitRegs::default();
        jit.prepare(&mut regs, w, 0, &SCALARS);
        let walk = Walk {
            bounds: &[(0, w as i64)],
            strides: &[1, 1],
            bases: &[0, 0],
        };
        let (mut cursors, mut coords) = ([0, 0], [0]);
        walk.start(&mut cursors, &mut coords);
        jit.run_box(
            &mut regs,
            &[&data, &[]],
            &mut [&mut out],
            &OUT_VIEW_MAP,
            &mut cursors,
            &mut coords,
            &SCALARS,
            &walk,
        );
        out
    }

    /// `program` on the VM over one row of width `w`.
    fn run_vm(program: &BodyProgram, w: usize) -> Vec<f64> {
        let data = data(w);
        let mut out = vec![0.0f64; w.max(1)];
        if w > 0 {
            let mut regs = vec![0.0f64; program.num_regs as usize * w];
            program.run_prelude_strip(&mut regs, w, &SCALARS);
            program.run_strip(
                &mut regs,
                w,
                &[&data, &[]],
                &mut [&mut out],
                &OUT_VIEW_MAP,
                &[0, 0],
                0,
                &[0, 0],
                &SCALARS,
            );
        }
        out
    }

    fn run_both(program: &BodyProgram, plan: &ExecPlan, w: usize) -> (Vec<f64>, Vec<f64>) {
        (run_jit(program, plan, w), run_vm(program, w))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn chain_collapses_to_one_fragment_and_matches_vm_bitwise() {
        let program = chain_program();
        let jit = JitProgram::build(&program, &ExecPlan::default()).unwrap();
        assert_eq!(
            jit.steps_len(),
            1,
            "seed+taps+scale+store stitched into one chain"
        );
        assert_eq!(jit.chained_taps(), 2);
        for w in [1usize, 3, 8, 17] {
            let (j, v) = run_both(&program, &ExecPlan::default(), w);
            assert_eq!(bits(&j), bits(&v), "w={w}");
        }
    }

    #[test]
    fn unroll4_skeleton_is_bit_identical() {
        let program = chain_program();
        let plan4 = ExecPlan {
            unroll: 4,
            ..ExecPlan::default()
        };
        for w in [1usize, 4, 9, 32] {
            let (j, v) = run_both(&program, &plan4, w);
            assert_eq!(bits(&j), bits(&v), "w={w}");
        }
    }

    /// `out = (l(0) + l(1) + … + l(k−1)) / 6`, or with `signed` the
    /// combination `2·l(0) − 3·l(1) + 2·l(2) − …`, as the kernel compiler
    /// emits it (unfused, invariants hoisted).
    fn k_term_program(k: u16, signed: bool) -> BodyProgram {
        let mut instrs = vec![
            Instr::Const { dst: 0, val: 6.0 },
            Instr::Const { dst: 1, val: 2.0 },
            Instr::Const { dst: 2, val: 3.0 },
        ];
        let mut next = 3u16;
        let mut acc = None;
        for t in 0..k {
            instrs.push(Instr::Load {
                dst: next,
                view: 0,
                off: i64::from(t),
            });
            let mut term = next;
            next += 1;
            if signed {
                let c = if t % 2 == 0 { 1 } else { 2 };
                instrs.push(Instr::Bin {
                    dst: next,
                    kind: BinKind::Mul,
                    a: c,
                    b: term,
                });
                term = next;
                next += 1;
            }
            acc = Some(match acc {
                None => term,
                Some(a) => {
                    let kind = if signed && t % 2 == 1 {
                        BinKind::Sub
                    } else {
                        BinKind::Add
                    };
                    instrs.push(Instr::Bin {
                        dst: next,
                        kind,
                        a,
                        b: term,
                    });
                    next += 1;
                    next - 1
                }
            });
        }
        let mut src = acc.unwrap();
        if !signed {
            instrs.push(Instr::Bin {
                dst: next,
                kind: BinKind::Div,
                a: src,
                b: 0,
            });
            src = next;
            next += 1;
        }
        instrs.push(Instr::Store {
            view: 1,
            off: 0,
            src,
        });
        let mut p = BodyProgram {
            instrs,
            num_regs: next,
            ..Default::default()
        };
        p.finalize_stats();
        p.hoist_invariants();
        p
    }

    /// Sums and signed combinations of any arity: past `MAX_CHAIN_TAPS`
    /// taps a chain continues in one seeded by its accumulator. The fused
    /// program stitched at unroll 1 and 4 gives the generic VM's bits.
    #[test]
    fn chains_of_any_arity_match_the_vm() {
        for k in [2u16, 6, 8, 9, 12] {
            for signed in [false, true] {
                let program = k_term_program(k, signed);
                let fused = fuse_program(&program);
                let chains = usize::from(k - 1).div_ceil(MAX_CHAIN_TAPS);
                for unroll in [1, 4] {
                    let plan = ExecPlan {
                        unroll,
                        ..ExecPlan::default()
                    };
                    let jit = JitProgram::build(&fused, &plan).expect("stitchable");
                    let shape = (jit.steps_len(), jit.chained_taps(), jit.unit_chains());
                    let unit = if signed { 0 } else { chains };
                    assert_eq!(shape, (chains, usize::from(k - 1), unit), "k = {k}");
                    for w in [1usize, 7, 16, 33] {
                        let vm = run_vm(&program, w);
                        assert!(vm.iter().any(|&x| x != 0.0));
                        assert_eq!(
                            bits(&run_jit(&fused, &plan, w)),
                            bits(&vm),
                            "k = {k}, signed {signed}, unroll {unroll}, w = {w}"
                        );
                    }
                }
            }
        }
    }

    /// Rows 24 cells apart, planes 7 rows apart, on both views.
    const STRIDES: [i64; 6] = [1, 24, 168, 1, 24, 168];
    /// A box of 3 planes of 4 rows of 13 cells inside 6 planes of them.
    const BOX: [(i64, i64); 3] = [(1, 14), (1, 5), (1, 4)];
    const LEN: usize = 24 * 7 * 6;

    /// Each row of `BOX`, as a box of its own.
    fn rows_of(b: &[(i64, i64)]) -> Vec<Vec<(i64, i64)>> {
        let (rows, planes) = (b[1].0..b[1].1, b[2].0..b[2].1);
        planes
            .flat_map(|k| {
                rows.clone()
                    .map(move |j| vec![b[0], (j, j + 1), (k, k + 1)])
            })
            .collect()
    }

    /// `program` stitched under `plan` over `boxes`, its buffers windowed
    /// by `bases` as a rank's are: view 0 is read from `bases[0]` on, view 1
    /// written from `bases[1]` on.
    fn run_boxes(
        program: &BodyProgram,
        plan: &ExecPlan,
        boxes: &[Vec<(i64, i64)>],
        bases: [i64; 2],
    ) -> Vec<f64> {
        let input: Vec<f64> = (0..LEN).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        let jit = JitProgram::build(program, plan).expect("stitchable");
        let mut out = vec![0.0; LEN - bases[1] as usize];
        let mut regs = JitRegs::default();
        for b in boxes {
            let walk = Walk {
                bounds: b,
                strides: &STRIDES,
                bases: &bases,
            };
            jit.prepare(&mut regs, (b[0].1 - b[0].0) as usize, b[0].0, &SCALARS);
            let (mut cursors, mut coords) = ([0; 2], [0; 3]);
            walk.start(&mut cursors, &mut coords);
            jit.run_box(
                &mut regs,
                &[&input[bases[0] as usize..], &[]],
                &mut [&mut out],
                &OUT_VIEW_MAP,
                &mut cursors,
                &mut coords,
                &SCALARS,
                &walk,
            );
        }
        out
    }

    /// Chains of 0 to 8 taps, `UNIT` and scaled, unrolled by 1 and 4, are
    /// one fragment that sweeps a box's rows itself: bit-identical to the
    /// same program run row by row, with and without windowed buffers.
    /// (`k` counts the programs: two copies, then sums of 2 to 9 terms.)
    #[test]
    fn one_fragment_sweeps_a_box_as_its_rows_do() {
        let sums = (2..=9u16).flat_map(|k| [false, true].map(|signed| k_term_program(k, signed)));
        let programs: Vec<BodyProgram> = copies().into_iter().chain(sums).collect();
        for (k, unroll) in (0..programs.len()).flat_map(|k| [(k, 1), (k, 4)]) {
            let program = fuse_program(&programs[k]);
            let plan = ExecPlan {
                unroll,
                ..ExecPlan::default()
            };
            let jit = JitProgram::build(&program, &plan).expect("stitchable");
            assert_eq!(jit.steps_len(), 1, "k = {k}");
            let by_rows = run_boxes(&program, &plan, &rows_of(&BOX), [0, 0]);
            assert!(by_rows.iter().any(|&x| x != 0.0));
            let whole = run_boxes(&program, &plan, &[BOX.to_vec()], [0, 0]);
            assert_eq!(bits(&whole), bits(&by_rows), "k = {k}, unroll {unroll}");
            let windowed = run_boxes(&program, &plan, &[BOX.to_vec()], [24, 192]);
            assert_eq!(bits(&windowed), bits(&by_rows[192..]), "k = {k}, windowed");
        }
    }

    /// A copy and a scaled copy: `out = in(2)`, `out = arg0 · in(2)`.
    fn copies() -> [BodyProgram; 2] {
        let store = Instr::Store {
            view: 1,
            off: 0,
            src: 1,
        };
        let copy = BodyProgram {
            instrs: vec![
                Instr::Load {
                    dst: 1,
                    view: 0,
                    off: 2,
                },
                store.clone(),
            ],
            num_regs: 2,
            ..BodyProgram::default()
        };
        let scaled = BodyProgram {
            instrs: vec![
                Instr::Arg { dst: 0, arg: 0 },
                Instr::BinLoad {
                    dst: 1,
                    kind: BinKind::Mul,
                    a: 0,
                    view: 0,
                    off: 2,
                    load_left: false,
                },
                store,
            ],
            prelude_len: 1,
            num_regs: 2,
            ..BodyProgram::default()
        };
        let mut copies = [copy, scaled];
        for program in &mut copies {
            program.finalize_stats();
        }
        copies
    }

    /// A copy, plain or scaled, is a chain of no taps with a store sink:
    /// one fragment, bit-identical to the VM.
    #[test]
    fn a_copy_is_a_chain_of_no_taps() {
        for (program, unit) in copies().into_iter().zip([1, 0]) {
            for unroll in [1, 4] {
                let plan = ExecPlan {
                    unroll,
                    ..ExecPlan::default()
                };
                let jit = JitProgram::build(&program, &plan).unwrap();
                let shape = (jit.steps_len(), jit.chained_taps(), jit.unit_chains());
                assert_eq!(shape, (1, 0, unit));
                for w in [1usize, 7, 16, 33] {
                    let (j, v) = run_both(&program, &plan, w);
                    assert_eq!(bits(&j), bits(&v), "unroll {unroll}, w = {w}");
                }
            }
        }
    }

    #[test]
    fn mixed_fragments_match_vm_bitwise() {
        let program = mixed_program();
        for w in [1usize, 7, 16] {
            let (j, v) = run_both(&program, &ExecPlan::default(), w);
            assert_eq!(bits(&j), bits(&v), "w={w}");
        }
    }

    #[test]
    fn degenerate_width_is_a_noop() {
        let (j, _) = run_both(&chain_program(), &ExecPlan::default(), 0);
        assert_eq!(j, vec![0.0]);
    }

    #[test]
    fn multi_store_view_is_skipped() {
        let mut program = chain_program();
        program.instrs.push(Instr::Store {
            view: 1,
            off: 1,
            src: 6,
        });
        assert_eq!(
            JitProgram::build(&program, &ExecPlan::default()).unwrap_err(),
            JitSkip::MultiStoreView
        );
    }

    /// Nothing is shared between stitches, so nothing can race: eight
    /// threads stitching the same body at once each get a program that
    /// runs bit-identically to the VM.
    #[test]
    fn concurrent_stitches_are_independent_and_bit_identical() {
        let program = chain_program();
        let plan = ExecPlan::default();
        let n = 8;
        let barrier = Barrier::new(n);
        let results: Vec<(Vec<f64>, Vec<f64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        run_both(&program, &plan, 17)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (j, v) in &results {
            assert_eq!(bits(j), bits(v));
            assert_eq!(bits(j), bits(&results[0].0));
        }
    }

    /// Other tests stitch concurrently, so the process-wide counters are
    /// only checked for moving by at least what this test did.
    #[test]
    fn stats_count_builds_skips_and_stitch_time() {
        let before = stats();
        let mut program = chain_program();
        JitProgram::build(&program, &ExecPlan::default()).unwrap();
        program.instrs.push(Instr::Store {
            view: 1,
            off: 1,
            src: 6,
        });
        JitProgram::build(&program, &ExecPlan::default()).unwrap_err();
        let after = stats();
        assert!(after.builds > before.builds);
        assert!(after.skips > before.skips);
        assert!(after.codegen_count >= before.codegen_count + 2);
        assert!(after.codegen_mean_ms > 0.0 && after.codegen_p99_ms >= after.codegen_p50_ms);
        assert_eq!(after.hits, 0);
    }

    /// Registers the copy tests' fragments address: seven rows, the
    /// prelude values and chain coefficients reading the same indices.
    const COPY_REGS: usize = 7;

    /// `op` over one row of width `w` through the AVX-512F copy (`Some`)
    /// or the baseline one of `row_op`, or with `boxed` of `box_op` (a
    /// chain's): every register row and the output, as bits.
    fn run_copy<T: Row>(
        op: &T,
        w: usize,
        host: Option<wide::Avx512f>,
        boxed: bool,
    ) -> [Vec<u64>; 2] {
        let input = wide::testing::seeded(w + 16, 1);
        let mut pre = wide::testing::seeded(COPY_REGS, 2);
        let mut regs = wide::testing::seeded(COPY_REGS * w, 3);
        let ones = vec![1.0; w];
        let mut out = vec![0.0; w + 16];
        let mut ctx = RowCtx {
            regs: &mut regs,
            w,
            inputs: &[&input, &[]],
            outputs: &mut [&mut out],
            out_view_map: &[None, Some(0)],
            cursors: &mut [1, 2],
            coords: &mut [0, 5],
            scalars: &[0.5],
            pre: &mut pre,
            ones: &ones,
        };
        let (walk, rows) = (&Walk::ONE_ROW, &RowScalars::NONE);
        match (host, boxed) {
            (Some(host), false) => row_op::avx512f(host, op, &mut ctx),
            (None, false) => row_op::base(op, &mut ctx),
            (Some(host), true) => box_op::avx512f(host, op, &mut ctx, walk, rows),
            (None, true) => box_op::base(op, &mut ctx, walk, rows),
        }
        [wide::testing::bits(&regs), wide::testing::bits(&out)]
    }

    fn both_copies<T: Row>(op: T) {
        let Some(host) = wide::testing::host() else {
            return;
        };
        for (w, boxed) in wide::testing::WIDTHS
            .into_iter()
            .flat_map(|w| [(w, false), (w, true)])
        {
            let base = run_copy(&op, w, None, boxed);
            assert_eq!(base, run_copy(&op, w, Some(host), boxed), "{op:?}, w = {w}");
            assert_eq!(base, run_copy(&op, w, None, !boxed), "{op:?}, w = {w}");
        }
    }

    /// Every fragment kind, through both copies of its row loop.
    #[test]
    fn fragment_copies_are_bit_identical() {
        fn kinds<B: BinK>() {
            both_copies(BinRow::<B> {
                dst: 3,
                a: 1,
                b: 2,
                _k: pd(),
            });
            let (dst, a, view, off) = (3, 1, 0, 2);
            both_copies(BinLoadRow::<B, false> {
                dst,
                a,
                view,
                off,
                _k: pd(),
            });
            both_copies(BinLoadRow::<B, true> {
                dst,
                a,
                view,
                off,
                _k: pd(),
            });
        }
        fn un<U: UnK>() {
            both_copies(UnRow::<U> {
                dst: 3,
                a: 1,
                _k: pd(),
            });
        }
        fn cmp<C: CmpK>() {
            both_copies(CmpRow::<C> {
                dst: 3,
                a: 1,
                b: 2,
                _k: pd(),
            });
        }
        fn ma<M: MaK>() {
            both_copies(MaRow::<M> {
                dst: 3,
                a: 0,
                b: 1,
                c: 2,
                _k: pd(),
            });
        }
        fn pd<K>() -> std::marker::PhantomData<K> {
            std::marker::PhantomData
        }
        kinds::<ZAdd>();
        kinds::<ZSub>();
        kinds::<ZMul>();
        kinds::<ZDiv>();
        kinds::<ZMin>();
        kinds::<ZMax>();
        kinds::<ZPow>();
        kinds::<ZAtan2>();
        kinds::<ZCopySign>();
        kinds::<ZRem>();
        un::<ZNeg>();
        un::<ZSqrt>();
        un::<ZAbs>();
        un::<ZExp>();
        un::<ZLog>();
        un::<ZSin>();
        un::<ZCos>();
        un::<ZTanh>();
        un::<ZTrunc>();
        cmp::<ZEq>();
        cmp::<ZNe>();
        cmp::<ZLt>();
        cmp::<ZLe>();
        cmp::<ZGt>();
        cmp::<ZGe>();
        ma::<ZCPlusMul>();
        ma::<ZCMinusMul>();
        ma::<ZMulMinusC>();
        both_copies(SelectRow {
            dst: 3,
            c: 0,
            a: 1,
            b: 2,
        });
        both_copies(LoadRow {
            dst: 3,
            view: 0,
            off: 5,
        });
        both_copies(StoreRow {
            view: 1,
            off: 3,
            src: 2,
        });
    }

    /// Every `LinChain` monomorph, copies (no taps) included: seeded from a
    /// view or a register, sunk into a register or a store, plain or
    /// unrolled by 4; `UNIT` ones with unit taps only.
    #[test]
    fn chain_copies_are_bit_identical() {
        fn chain<const K: usize, const SEED_SCALED: bool, const SCALE: u8, const UNIT: bool>() {
            let coefs = [
                TapCoef::One,
                TapCoef::NegOne,
                TapCoef::Pre {
                    reg: 4,
                    negate: false,
                },
                TapCoef::Pre {
                    reg: 5,
                    negate: true,
                },
                TapCoef::Prod {
                    a: 4,
                    b: 5,
                    negate: true,
                },
            ];
            // Views, a register row and the ones, as affine chains read them.
            let srcs = |t: usize| match t % 3 {
                0 => Src::View {
                    view: 0,
                    off: t as i64 * 2 - 1,
                },
                1 => Src::Reg(t as u16 % 3),
                _ if UNIT => Src::Reg(2),
                _ => Src::Ones,
            };
            let taps = std::array::from_fn(|t| ChainTap {
                src: srcs(t),
                coef: if UNIT { TapCoef::One } else { coefs[t % 5] },
            });
            for seed in [Src::View { view: 0, off: 3 }, Src::Reg(1), Src::Ones] {
                for sink in [Sink::Reg, Sink::Store { view: 1, off: 1 }] {
                    for unroll4 in [false, true] {
                        both_copies(LinChain::<K, SEED_SCALED, SCALE, UNIT> {
                            dst: 6,
                            seed,
                            seed_coef: 2,
                            taps,
                            scale_reg: 3,
                            sink,
                            unroll4,
                        });
                    }
                }
            }
        }
        macro_rules! chains {
            ($($k:literal)*) => {$(
                chain::<$k, false, 0, false>();
                chain::<$k, false, 1, false>();
                chain::<$k, false, 2, false>();
                chain::<$k, false, 0, true>();
                chain::<$k, false, 1, true>();
                chain::<$k, false, 2, true>();
                chain::<$k, true, 0, false>();
                chain::<$k, true, 1, false>();
                chain::<$k, true, 2, false>();
            )*};
        }
        chains!(0 1 2 3 4 5 6 7 8);
    }
}
