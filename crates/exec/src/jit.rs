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
//! one `LinChain` fragment of any arity; a seed or tap may also be a row
//! scalar or the `c·i` ramp, so an affine fill is one chain too. Its
//! choices are checked once per 256-cell strip, each step one pass over the
//! strip; only GS's update keeps a monomorph of its own (`Fixed`, its pair
//! tables in EXPERIMENTS.md), a cell per iteration, or four where the plan
//! unrolls (a pipeline with the tiling pass: the GPU and tiled flows). Chains
//! reproduce the VM's per-cell operation sequence (two roundings per
//! multiply–accumulate, left-folded order), so every tier stays
//! bit-identical. View offsets are linearised by the kernel compiler, so
//! fragments index `cursor + off` directly.
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
}

/// One stitched fragment: `run` picks a copy of its `Row` once per row,
/// `run_box` once per box for a chain.
trait RowOp: Send + Sync + std::fmt::Debug {
    fn run(&self, ctx: &mut RowCtx<'_, '_, '_>);
    fn run_box(&self, ctx: &mut RowCtx<'_, '_, '_>, walk: &Walk<'_>, rows: &RowScalars);
    fn chain(&self) -> Option<&LinChain>;
}

/// A fragment's row loop, inlined into the copies of `row_op`, or of
/// `box_op` for a chain.
trait Row: Send + Sync + std::fmt::Debug {
    fn row(&self, ctx: &mut RowCtx<'_, '_, '_>);

    /// The chain a chain fragment runs; `None` for a 1:1 fragment.
    fn chain(&self) -> Option<&LinChain> {
        None
    }

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

    fn chain(&self) -> Option<&LinChain> {
        Row::chain(self)
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

    /// Evaluate them for the row `ctx` points at. Only the emptiness check
    /// is inlined into a box loop: the evaluation stays out of line, where
    /// inlined it was cloned into every fragment type's loop (`ci.sh == jit
    /// text gate ==`).
    #[inline]
    fn eval(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        if !self.instrs.is_empty() || !self.fills.is_empty() {
            self.eval_row(ctx);
        }
    }

    #[inline(never)]
    fn eval_row(&self, ctx: &mut RowCtx<'_, '_, '_>) {
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
        // `NestRun::new` gave every stored view a slot (else `E0701`).
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
    /// An already-materialised register row: a fragment's result or a
    /// `Coord` ramp filled per box.
    Reg(u16),
    /// One, scaled by the coefficient: a scalar operand (`s · 1.0` is `s`
    /// exactly, so the term is the coefficient itself).
    Ones,
}

/// Per-tap coefficient. `One`/`NegOne` are plain add/sub taps (`acc + x`
/// and `acc + -1.0 · x`, the VM's `acc - x` bits); `Pre` reads a scalar
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

/// What a chain does to its sum before the sink: nothing, or divide or
/// multiply by a scalar register.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scale {
    None,
    Div(u16),
    Mul(u16),
}

/// Where the chain result lands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sink {
    Reg,
    Store { view: u16, off: i64 },
}

/// Cells a chain evaluates per pass: one strip's accumulators stay in L1
/// while each step passes over them, and a row of the benchmark grids
/// (GS 194 cells, PW 130) is one strip.
const STRIP: usize = 256;

/// A linear-combination chain, any number of taps (none for a copy): the
/// seed, optionally scaled, then each tap in bytecode order, then the
/// scale, into a register row or straight into the stored view. A row is
/// swept strip by strip, each step one pass over the strip, so every cell
/// sees the VM's operations in the VM's order and each choice is made once
/// per strip, never per cell.
#[derive(Debug, Clone, PartialEq)]
struct LinChain {
    /// Final destination register (post-scale).
    dst: u16,
    seed: Src,
    /// `Some(coef_reg)` when the seed is `coef * operand` (a folded
    /// `BinLoad{Mul}` or ramp product against a scalar register, or a
    /// scalar seed over [`Src::Ones`]).
    seed_coef: Option<u16>,
    taps: Vec<ChainTap>,
    scale: Scale,
    sink: Sink,
}

impl LinChain {
    /// An unscaled seed plus unit taps: every tap an add, no multiply.
    fn is_unit(&self) -> bool {
        self.seed_coef.is_none() && self.taps.iter().all(|t| t.coef == TapCoef::One)
    }

    /// The chain's form: `<taps, seed scaled, scale kind, unit>`.
    fn form(&self) -> (usize, bool, u8, bool) {
        let scale = match self.scale {
            Scale::None => 0,
            Scale::Div(_) => 1,
            Scale::Mul(_) => 2,
        };
        let unit = self.is_unit();
        (self.taps.len(), self.seed_coef.is_some(), scale, unit)
    }

    /// The fragment that runs the chain: [`Fixed`] when the chain has its
    /// form, else the chain itself.
    fn stitch(self, unroll4: bool) -> Box<dyn RowOp> {
        match Fixed::resolve(&self) {
            Some((ops, scale)) => Box::new(Fixed {
                chain: self,
                ops,
                scale,
                unroll4,
            }),
            None => Box::new(self),
        }
    }

    /// `const <taps, seed scaled, scale kind, unit>` for a chain run by
    /// [`Fixed`], `runtime <…>` for any other.
    fn describe(&self) -> String {
        let (k, seed_scaled, scale, unit) = self.form();
        let run = if Fixed::resolve(self).is_some() {
            "const"
        } else {
            "runtime"
        };
        format!("{run} <{k}, {seed_scaled}, {scale}, {unit}>")
    }

    /// The row the chain writes this row (its register row, or the stored
    /// view's) and where it reads its operands.
    #[inline(always)]
    fn operands<'r>(
        &self,
        ctx: &'r mut RowCtx<'_, '_, '_>,
    ) -> Option<(&'r mut [f64], Operands<'r>)> {
        let w = ctx.w;
        let RowCtx {
            regs,
            inputs,
            outputs,
            out_view_map,
            cursors,
            pre,
            ..
        } = ctx;
        let (d, lo) = split_dst(regs, w, self.dst);
        let d = match self.sink {
            Sink::Reg => d,
            Sink::Store { view, off } => {
                // As in `StoreRow`: `NestRun::new` gave the view a slot.
                let slot = out_view_map[view as usize]?;
                let base = (cursors[view as usize] + off) as usize;
                &mut outputs[usize::from(slot)][base..base + w]
            }
        };
        let (inputs, cursors, pre) = (&**inputs, &**cursors, &**pre);
        Some((
            d,
            Operands {
                inputs,
                cursors,
                lo,
                pre,
                w,
            },
        ))
    }

    /// The strip at `x` of `acc`: seed, taps, scale, one pass each.
    #[inline(always)]
    fn strip(&self, acc: &mut [f64], rows: &Operands<'_>, x: usize) {
        let (n, pre) = (acc.len(), rows.pre);
        // `coef * value`, never `value * coef`: operand order mirrors the
        // VM's `mul` bit for bit. The ones' value is the coefficient.
        match (rows.strip(self.seed, x, n), self.seed_coef) {
            (Some(v), None) => acc.copy_from_slice(v),
            (Some(v), Some(c)) => {
                let c = pre[c as usize];
                for (a, &v) in acc.iter_mut().zip(v) {
                    *a = c * v;
                }
            }
            (None, c) => acc.fill(c.map_or(1.0, |c| pre[c as usize])),
        }
        for tap in &self.taps {
            match (rows.strip(tap.src, x, n), tap.coef) {
                (Some(v), TapCoef::One) => {
                    for (a, &v) in acc.iter_mut().zip(v) {
                        *a += v;
                    }
                }
                // `-1.0 · v` is `-v` exactly: `acc + -1.0 · v` is `acc - v`.
                (Some(v), coef) => {
                    let c = coef_value(coef, pre);
                    for (a, &v) in acc.iter_mut().zip(v) {
                        *a += c * v;
                    }
                }
                (None, coef) => {
                    let c = coef_value(coef, pre);
                    for a in acc.iter_mut() {
                        *a += c;
                    }
                }
            }
        }
        match self.scale {
            Scale::None => {}
            Scale::Div(r) => {
                let s = pre[r as usize];
                for a in acc.iter_mut() {
                    *a /= s;
                }
            }
            Scale::Mul(r) => {
                let s = pre[r as usize];
                for a in acc.iter_mut() {
                    *a *= s;
                }
            }
        }
    }
}

impl Row for LinChain {
    fn chain(&self) -> Option<&LinChain> {
        Some(self)
    }

    /// A box of one row: a chain has `box_op`'s copies only, not also
    /// `row_op`'s.
    fn run_row(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        box_op::run(self, ctx, &Walk::ONE_ROW, &RowScalars::NONE);
    }

    fn run_rows(&self, ctx: &mut RowCtx<'_, '_, '_>, walk: &Walk<'_>, rows: &RowScalars) {
        box_op::run(self, ctx, walk, rows);
    }

    #[inline(always)]
    fn row(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        // The destination row holds the accumulators.
        let Some((d, rows)) = self.operands(ctx) else {
            return;
        };
        for (x, acc) in (0..).step_by(STRIP).zip(d.chunks_mut(STRIP)) {
            self.strip(acc, &rows, x);
        }
    }
}

/// A row an operand reads: a view's or a register's.
#[derive(Debug, Clone, Copy)]
enum Operand {
    View { view: u16, off: i64 },
    Reg(u16),
}

impl Src {
    /// The row this operand reads; `None` for the ones.
    #[inline(always)]
    fn operand(self) -> Option<Operand> {
        match self {
            Src::View { view, off } => Some(Operand::View { view, off }),
            Src::Reg(r) => Some(Operand::Reg(r)),
            Src::Ones => None,
        }
    }
}

/// The one chain form kept as a monomorph of its own: Gauss–Seidel's
/// update, an unscaled seed plus five taps, each added without a multiply,
/// then a divide. Each cell's accumulator stays in a register across the
/// taps, four cells per iteration when the plan unrolls.
#[derive(Debug)]
struct Fixed {
    chain: LinChain,
    /// The seed's row, then each tap's.
    ops: [Operand; 6],
    /// The scalar register divided by.
    scale: u16,
    unroll4: bool,
}

impl Fixed {
    /// `chain`'s rows and divisor when it has the kept form.
    fn resolve(chain: &LinChain) -> Option<([Operand; 6], u16)> {
        let Scale::Div(scale) = chain.scale else {
            return None;
        };
        if chain.taps.len() != 5 || !chain.is_unit() {
            return None;
        }
        let mut ops = [Operand::Reg(0); 6];
        let srcs = std::iter::once(chain.seed).chain(chain.taps.iter().map(|t| t.src));
        for (op, src) in ops.iter_mut().zip(srcs) {
            *op = src.operand()?;
        }
        Some((ops, scale))
    }

    /// Cell `x` of the seed and tap rows `ops`. A function, not a closure:
    /// a closure's body is not reliably inlined into `box_op`'s copies,
    /// which then call it per cell (`ci.sh == vector width gate ==`).
    #[inline(always)]
    fn lane(ops: &[&[f64]; 6], scale: f64, x: usize) -> f64 {
        let mut acc = ops[0][x];
        // Indexed, not zipped: an unoptimised build runs this per tap per
        // cell, and the iterator's calls there made the jit no faster than
        // the generic VM.
        #[allow(clippy::needless_range_loop)]
        for t in 1..6 {
            acc += ops[t][x];
        }
        acc / scale
    }
}

impl Row for Fixed {
    fn chain(&self) -> Option<&LinChain> {
        Some(&self.chain)
    }

    /// As [`LinChain`]'s: `box_op`'s copies only.
    fn run_row(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        box_op::run(self, ctx, &Walk::ONE_ROW, &RowScalars::NONE);
    }

    fn run_rows(&self, ctx: &mut RowCtx<'_, '_, '_>, walk: &Walk<'_>, rows: &RowScalars) {
        box_op::run(self, ctx, walk, rows);
    }

    #[inline(always)]
    fn row(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        let w = ctx.w;
        let Some((d, rows)) = self.chain.operands(ctx) else {
            return;
        };
        let scale = rows.pre[usize::from(self.scale)];
        let mut ops: [&[f64]; 6] = [&[]; 6];
        for (row, &op) in ops.iter_mut().zip(&self.ops) {
            *row = rows.row(op);
        }
        // Every row is `w` long by construction; checked once here so that
        // no cell is bounds-checked.
        if d.len() != w || ops.iter().any(|op| op.len() != w) {
            debug_assert!(false, "a row of a kept chain is not {w} cells");
            return;
        }
        let mut x = 0;
        if self.unroll4 {
            while x + 4 <= w {
                d[x] = Self::lane(&ops, scale, x);
                d[x + 1] = Self::lane(&ops, scale, x + 1);
                d[x + 2] = Self::lane(&ops, scale, x + 2);
                d[x + 3] = Self::lane(&ops, scale, x + 3);
                x += 4;
            }
        }
        while x < w {
            d[x] = Self::lane(&ops, scale, x);
            x += 1;
        }
    }
}

/// A tap's coefficient this row.
#[inline(always)]
fn coef_value(coef: TapCoef, pre: &[f64]) -> f64 {
    match coef {
        TapCoef::One => 1.0,
        TapCoef::NegOne => -1.0,
        TapCoef::Pre { reg, negate } => negated(pre[reg as usize], negate),
        TapCoef::Prod { a, b, negate } => negated(pre[a as usize] * pre[b as usize], negate),
    }
}

/// Where a chain's operands are read this row.
struct Operands<'r> {
    inputs: &'r [&'r [f64]],
    cursors: &'r [i64],
    /// The register rows below the chain's destination.
    lo: &'r [f64],
    /// The scalar registers.
    pre: &'r [f64],
    w: usize,
}

impl<'r> Operands<'r> {
    /// Cells `x..x + n` of `src`'s row; `None` for [`Src::Ones`], whose
    /// term is its coefficient.
    #[inline(always)]
    fn strip(&self, src: Src, x: usize, n: usize) -> Option<&'r [f64]> {
        Some(&self.row(src.operand()?)[x..x + n])
    }

    /// The row `op` reads.
    #[inline(always)]
    fn row(&self, op: Operand) -> &'r [f64] {
        match op {
            Operand::View { view, off } => {
                let base = (self.cursors[view as usize] + off) as usize;
                &self.inputs[view as usize][base..base + self.w]
            }
            Operand::Reg(r) => row(self.lo, self.w, r),
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
    Chain(LinChain),
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
    fn chain_from(&self, i: usize) -> Option<(LinChain, usize)> {
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
        let start = |dst, seed, seed_coef| LinChain {
            dst,
            seed,
            seed_coef,
            taps: Vec::new(),
            scale: Scale::None,
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
        // accumulates onto: a register row (a fragment's result, a ramp) or
        // a scalar, seeded over the ones.
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
    fn grow(&self, spec: &mut LinChain, mut j: usize) -> usize {
        loop {
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
                    BinKind::Div if a == spec.dst && self.scalar(b) => Some(Scale::Div(b)),
                    BinKind::Mul if a == spec.dst && self.scalar(b) => Some(Scale::Mul(b)),
                    BinKind::Mul if b == spec.dst && self.scalar(a) => Some(Scale::Mul(a)),
                    _ => None,
                };
                if let Some(scale) = folded {
                    spec.scale = scale;
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
}

/// A stitched program's register files for the boxes of one nest: rows of
/// one width, the scalars, and what [`JitProgram::prepare`] last filled
/// them for.
#[derive(Debug, Default)]
pub struct JitRegs {
    rows: Vec<f64>,
    pre: Vec<f64>,
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
        // Row scalars a plain fragment reads as a row are filled each row.
        let mut fills = Vec::new();
        for item in items {
            match item {
                StitchItem::Plain(instr) => {
                    operand_regs(&instr, &mut scratch);
                    for &r in &scratch {
                        if scan.held[usize::from(r)] == Held::RowScalar && !fills.contains(&r) {
                            fills.push(r);
                        }
                    }
                    steps.push(box_instr(&instr));
                }
                StitchItem::Chain(chain) => steps.push(chain.stitch(unroll4)),
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
        })
    }

    /// Stitched fragment count (after chain folding).
    pub fn steps_len(&self) -> usize {
        self.steps.len()
    }

    fn chains(&self) -> impl Iterator<Item = &LinChain> {
        self.steps.iter().filter_map(|step| step.chain())
    }

    /// Taps folded into linear-combination chains.
    pub fn chained_taps(&self) -> usize {
        self.chains().map(|chain| chain.taps.len()).sum()
    }

    /// Unit chains: an unscaled seed, every tap added without a multiply.
    pub fn unit_chains(&self) -> usize {
        self.chains().filter(|chain| chain.is_unit()).count()
    }

    /// Each fragment's form, in order: `const <taps, seed scaled, scale
    /// kind, unit>` for a chain run by a monomorph of its form, `runtime
    /// <…>` for one run by the runtime-arity chain loop (scale kind `0`
    /// none, `1` divide, `2` multiply), `1:1` for any other fragment.
    pub fn chain_forms(&self) -> Vec<String> {
        let form = |chain: Option<&LinChain>| chain.map_or("1:1".into(), LinChain::describe);
        self.steps.iter().map(|step| form(step.chain())).collect()
    }

    /// Conservative in-memory footprint, charged to whichever cache holds
    /// the owning artifact (`Compiled::approx_bytes`).
    pub fn approx_bytes(&self) -> u64 {
        let scalars = self.prelude.len() + self.rows.instrs.len();
        256 + self.steps.len() as u64 * 96 + scalars as u64 * 32
    }

    /// Fill what stays put over a box of rows `w` wide from column
    /// `coord0`: the prelude's values and rows and the `Coord` ramps.
    /// Nothing to do when `regs` already holds them.
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
        let JitRegs { rows, pre, .. } = regs;
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

    /// A chain's form: whether its seed is scaled, how it scales its sum,
    /// whether every tap is a unit add, and whether it sinks into a store
    /// (else a register row another fragment reads).
    #[derive(Debug, Clone, Copy)]
    struct Form {
        seed_scaled: bool,
        scale: Scale,
        unit: bool,
        store: bool,
    }

    /// Every form: 2 seeds × 3 scales × {unit, mixed} taps × 2 sinks.
    fn forms() -> Vec<Form> {
        let mut forms = Vec::new();
        for seed_scaled in [false, true] {
            for scale in [Scale::None, Scale::Div(2), Scale::Mul(1)] {
                for unit in [true, false] {
                    for store in [true, false] {
                        forms.push(Form {
                            seed_scaled,
                            scale,
                            unit,
                            store,
                        });
                    }
                }
            }
        }
        forms
    }

    /// Widths around the chain's strip: one cell, 8-lane tails, a strip's
    /// tail, one strip, a strip and one, two strips and a tail.
    const CHAIN_WIDTHS: [usize; 8] = [1, 63, 64, 65, 255, 256, 257, 520];

    /// `k` taps onto a seed at `in(0)`, in `form`, as fused bytecode: the
    /// prelude holds `0.5`, `arg0` and `3.0`, register 3 is the `i` ramp.
    /// Unit taps add `in(t)`; mixed ones cycle through every operand and
    /// coefficient a chain folds: `± in(t)`, `in(t)·arg0`, `− 0.5·in(t)`,
    /// `+ 3.0`, `− 0.5·arg0`, `± i` and `i·3.0`. A register sink is read
    /// by an `abs` before the store.
    fn form_program(k: usize, form: Form) -> BodyProgram {
        let mut instrs = vec![
            Instr::Const { dst: 0, val: 0.5 },
            Instr::Arg { dst: 1, arg: 0 },
            Instr::Const { dst: 2, val: 3.0 },
            Instr::Coord { dst: 3, dim: 0 },
        ];
        let ramp = 3;
        let mut acc = 4u16;
        instrs.push(if form.seed_scaled {
            Instr::BinLoad {
                dst: acc,
                kind: BinKind::Mul,
                a: 0,
                view: 0,
                off: 0,
                load_left: false,
            }
        } else {
            Instr::Load {
                dst: acc,
                view: 0,
                off: 0,
            }
        });
        for t in 1..=k {
            let (c, off) = (acc, t as i64);
            let (l, dst) = (c + 1, c + 2);
            let bin_load = |kind| Instr::BinLoad {
                dst: l,
                kind,
                a: c,
                view: 0,
                off,
                load_left: false,
            };
            let load = Instr::Load {
                dst: l,
                view: 0,
                off,
            };
            let ma = |kind, a, b| Instr::MulAdd { dst, a, b, c, kind };
            let bin = |kind, a, b| Instr::Bin { dst, kind, a, b };
            let step: Vec<Instr> = match if form.unit { 0 } else { t % 9 } {
                0 => vec![bin_load(BinKind::Add)],
                1 => vec![bin_load(BinKind::Sub)],
                2 => vec![load, ma(MaKind::CPlusMul, l, 1)],
                3 => vec![load, ma(MaKind::CMinusMul, 0, l)],
                4 => vec![bin(BinKind::Add, c, 2)],
                5 => vec![ma(MaKind::CMinusMul, 0, 1)],
                6 => vec![bin(BinKind::Add, ramp, c)],
                7 => vec![bin(BinKind::Sub, c, ramp)],
                _ => vec![ma(MaKind::CPlusMul, ramp, 2)],
            };
            // A `BinLoad` link's result is `l`; the others' is `dst`.
            acc = match step[..] {
                [Instr::BinLoad { .. }] => l,
                _ => dst,
            };
            instrs.extend(step);
        }
        let scaled = acc + 1;
        match form.scale {
            Scale::None => {}
            Scale::Div(r) => instrs.push(Instr::Bin {
                dst: scaled,
                kind: BinKind::Div,
                a: acc,
                b: r,
            }),
            Scale::Mul(r) => instrs.push(Instr::Bin {
                dst: scaled,
                kind: BinKind::Mul,
                a: r,
                b: acc,
            }),
        }
        if form.scale != Scale::None {
            acc = scaled;
        }
        if !form.store {
            instrs.push(Instr::Un {
                dst: acc + 1,
                kind: UnKind::Abs,
                a: acc,
            });
            acc += 1;
        }
        instrs.push(Instr::Store {
            view: 1,
            off: 0,
            src: acc,
        });
        let mut p = BodyProgram {
            instrs,
            prelude_len: 3,
            num_regs: acc + 1,
            ..BodyProgram::default()
        };
        p.finalize_stats();
        p
    }

    /// Every form at arities 0 to 12, unroll 1 and 4, over rows that end
    /// anywhere in a strip: one chain of all `k` taps (a register-sunk one
    /// then `abs` and a store; no chain for a bare seed read by `abs`),
    /// with the generic VM's bits. The kernel compiler's sums and signed
    /// combinations, fused, are one chain at any arity too.
    #[test]
    fn chains_of_any_arity_match_the_vm() {
        for (k, form, unroll) in (0..=12)
            .flat_map(|k| forms().into_iter().map(move |form| (k, form)))
            .flat_map(|(k, form)| [(k, form, 1), (k, form, 4)])
        {
            let program = form_program(k, form);
            let plan = ExecPlan {
                unroll,
                ..ExecPlan::default()
            };
            let jit = JitProgram::build(&program, &plan).expect("stitchable");
            let shape = (jit.steps_len(), jit.chained_taps(), jit.unit_chains());
            let chained = k > 0 || form.store;
            let unit = chained && !form.seed_scaled && (form.unit || k == 0);
            let steps = match (chained, form.store) {
                (true, true) => 1,
                (true, false) => 3,
                (false, _) => 3 + usize::from(form.scale != Scale::None),
            };
            assert_eq!(shape, (steps, k, usize::from(unit)), "k = {k}, {form:?}");
            for w in CHAIN_WIDTHS {
                let vm = run_vm(&program, w);
                assert!(w == 1 || vm.iter().any(|&x| x != 0.0));
                assert_eq!(
                    bits(&run_jit(&program, &plan, w)),
                    bits(&vm),
                    "k = {k}, {form:?}, unroll {unroll}, w = {w}"
                );
            }
        }
        for k in [2u16, 6, 8, 9, 12] {
            for signed in [false, true] {
                let program = k_term_program(k, signed);
                let fused = fuse_program(&program);
                let jit = JitProgram::build(&fused, &ExecPlan::default()).expect("stitchable");
                let shape = (jit.steps_len(), jit.chained_taps(), jit.unit_chains());
                assert_eq!(shape, (1, usize::from(k - 1), usize::from(!signed)));
                for w in CHAIN_WIDTHS {
                    let vm = run_vm(&program, w);
                    assert_eq!(
                        bits(&run_jit(&fused, &ExecPlan::default(), w)),
                        bits(&vm),
                        "k = {k}, signed {signed}, w = {w}"
                    );
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

    /// A store-sunk chain of every form, 0 to 12 taps, unrolled by 1 and
    /// 4, is one fragment that sweeps a box's rows itself: bit-identical
    /// to the same program run row by row, with and without windowed
    /// buffers. So are the kernel compiler's sums of 2 to 9 terms.
    #[test]
    fn one_fragment_sweeps_a_box_as_its_rows_do() {
        let forms = (0..=12).flat_map(|k| {
            forms()
                .into_iter()
                .filter(|f| f.store)
                .map(move |f| form_program(k, f))
        });
        let sums = (2..=9u16).flat_map(|k| [false, true].map(|signed| k_term_program(k, signed)));
        let programs: Vec<BodyProgram> = copies()
            .into_iter()
            .chain(forms)
            .chain(sums.map(|p| fuse_program(&p)))
            .collect();
        for (k, unroll) in (0..programs.len()).flat_map(|k| [(k, 1), (k, 4)]) {
            let program = &programs[k];
            let plan = ExecPlan {
                unroll,
                ..ExecPlan::default()
            };
            let jit = JitProgram::build(program, &plan).expect("stitchable");
            assert_eq!(jit.steps_len(), 1, "program {k}");
            let by_rows = run_boxes(program, &plan, &rows_of(&BOX), [0, 0]);
            assert!(by_rows.iter().any(|&x| x != 0.0));
            let whole = run_boxes(program, &plan, &[BOX.to_vec()], [0, 0]);
            assert_eq!(bits(&whole), bits(&by_rows), "program {k}, unroll {unroll}");
            let windowed = run_boxes(program, &plan, &[BOX.to_vec()], [24, 192]);
            assert_eq!(
                bits(&windowed),
                bits(&by_rows[192..]),
                "program {k}, windowed"
            );
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

    /// `chain` as [`Fixed`], if it has the kept form, through both copies,
    /// plain and unrolled by 4.
    fn fixed_copies(chain: &LinChain) {
        if let Some((ops, scale)) = Fixed::resolve(chain) {
            for unroll4 in [false, true] {
                both_copies(Fixed {
                    chain: chain.clone(),
                    ops,
                    scale,
                    unroll4,
                });
            }
        }
    }

    /// The chain's box loop through both copies, every form crossed:
    /// 0 to 12 taps, unit or mixed (views, a register row and the ones,
    /// under every coefficient), seeded from a view, a register or the
    /// ones, scaled or not, each scale, sunk into a register or a store.
    #[test]
    fn chain_copies_are_bit_identical() {
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
        let srcs = |t: usize| match t % 3 {
            0 => Src::View {
                view: 0,
                off: t as i64 % 7 * 2 - 1,
            },
            1 => Src::Reg(t as u16 % 3),
            _ => Src::Ones,
        };
        for k in 0..=12 {
            for unit in [true, false] {
                let taps: Vec<ChainTap> = (0..k)
                    .map(|t| match unit {
                        true => ChainTap {
                            src: if t % 3 == 2 { Src::Reg(2) } else { srcs(t) },
                            coef: TapCoef::One,
                        },
                        false => ChainTap {
                            src: srcs(t),
                            coef: coefs[t % 5],
                        },
                    })
                    .collect();
                for seed in [Src::View { view: 0, off: 3 }, Src::Reg(1), Src::Ones] {
                    for seed_coef in [None, Some(2)] {
                        for scale in [Scale::None, Scale::Div(3), Scale::Mul(3)] {
                            for sink in [Sink::Reg, Sink::Store { view: 1, off: 1 }] {
                                let chain = LinChain {
                                    dst: 6,
                                    seed,
                                    seed_coef,
                                    taps: taps.clone(),
                                    scale,
                                    sink,
                                };
                                fixed_copies(&chain);
                                both_copies(chain);
                            }
                        }
                    }
                }
            }
        }
    }
}
