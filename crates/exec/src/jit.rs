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
//! amortised over the whole row width, zero dispatch per cell.
//!
//! On top of the 1:1 fragments a peephole stitches **linear-combination
//! chains** (`acc = seed ± c·load ± …`, optionally scaled and stored) into
//! a single [`LinChain`] fragment with the accumulator held in a register
//! across taps. This is the one CPU code generator for linear stencils:
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

use std::cell::RefCell;
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
pub struct RowCtx<'a, 'i, 'o> {
    /// Row register file: `num_regs * w` doubles, prelude rows pre-filled.
    pub regs: &'a mut [f64],
    /// Row width (cells).
    pub w: usize,
    /// Input view slices.
    pub inputs: &'a [&'i [f64]],
    /// Output slabs.
    pub outputs: &'a mut [&'o mut [f64]],
    /// View index → output slot.
    pub out_view_map: &'a [Option<u16>],
    /// Per-view linear cursor of lane 0 (slab-relative for outputs).
    pub cursors: &'a [i64],
    /// Global dim-0 coordinate of lane 0.
    pub coord0: i64,
    /// Outer-dimension coordinates.
    pub coords: &'a [i64],
    /// Scalar kernel arguments.
    pub scalars: &'a [f64],
    /// Prelude register values for this nest invocation.
    pub pre: &'a [f64],
}

/// One stitched fragment: `run` picks a copy of its `Row` once per row.
trait RowOp: Send + Sync + std::fmt::Debug {
    fn run(&self, ctx: &mut RowCtx<'_, '_, '_>);
}

/// A fragment's row loop, inlined into both copies of `row_op`.
trait Row: Send + Sync + std::fmt::Debug {
    fn row(&self, ctx: &mut RowCtx<'_, '_, '_>);
}

crate::wide::multiversion! {
    /// One fragment over one row at the host's vector width.
    fn row_op[T: Row](op: &T, ctx: &mut RowCtx<'_, '_, '_>) {
        op.row(ctx)
    }
}

impl<T: Row> RowOp for T {
    fn run(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        row_op::run(self, ctx);
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
struct FillConst {
    dst: u16,
    val: f64,
}
impl Row for FillConst {
    #[inline(always)]
    fn row(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        let (d, _) = split_dst(ctx.regs, ctx.w, self.dst);
        d.fill(self.val);
    }
}

#[derive(Debug)]
struct FillArg {
    dst: u16,
    arg: u16,
}
impl Row for FillArg {
    #[inline(always)]
    fn row(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        let v = ctx.scalars[self.arg as usize];
        let (d, _) = split_dst(ctx.regs, ctx.w, self.dst);
        d.fill(v);
    }
}

#[derive(Debug)]
struct CoordRow {
    dst: u16,
    dim: u8,
}
impl Row for CoordRow {
    #[inline(always)]
    fn row(&self, ctx: &mut RowCtx<'_, '_, '_>) {
        let coord0 = ctx.coord0;
        let fill = if self.dim == 0 {
            None
        } else {
            Some(ctx.coords[self.dim as usize] as f64)
        };
        let (d, _) = split_dst(ctx.regs, ctx.w, self.dst);
        match fill {
            Some(v) => d.fill(v),
            None => {
                for (x, r) in d.iter_mut().enumerate() {
                    *r = (coord0 + x as i64) as f64;
                }
            }
        }
    }
}

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

/// Where a chain's accumulator starts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SeedRef {
    /// A direct load (the absorbed `Load` / `BinLoad{Mul}` seed).
    View { view: u16, off: i64 },
    /// An already-materialised register row.
    Reg(u16),
}

/// Per-tap coefficient. `One`/`NegOne` reproduce plain add/sub taps
/// (`1.0 * x` and `-1.0 * x` are exact, so the accumulated value is
/// bit-identical to the VM's `acc + x` / `acc - x`); `Pre` reads a prelude
/// register, negated for `CMinusMul` (`c - m` ≡ `c + (-a)*b` exactly).
#[derive(Debug, Clone, Copy, PartialEq)]
enum TapCoef {
    One,
    NegOne,
    Pre { reg: u16, negate: bool },
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct ChainTap {
    view: u16,
    off: i64,
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
    seed: SeedRef,
    /// `Some(coef_reg)` when the seed is `coef * load` (a folded
    /// `BinLoad{Mul}` against a prelude register).
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
    seed: SeedRef,
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
            ..
        } = ctx;
        // Filled by a loop: built with `array::map`, the rows' lengths were
        // lost to LLVM and the plain loop below stayed scalar.
        let mut coefs = [0.0f64; K];
        let mut bases: [&[f64]; K] = [&[]; K];
        for (t, tap) in self.taps.iter().enumerate() {
            coefs[t] = match tap.coef {
                TapCoef::One => 1.0,
                TapCoef::NegOne => -1.0,
                TapCoef::Pre { reg, negate } => {
                    let v = pre[reg as usize];
                    if negate {
                        -v
                    } else {
                        v
                    }
                }
            };
            let base = (cursors[tap.view as usize] + tap.off) as usize;
            bases[t] = &inputs[tap.view as usize][base..base + w];
        }
        let (d, lo) = split_dst(regs, w, self.dst);
        let r = ChainRow {
            seed: match self.seed {
                SeedRef::View { view, off } => {
                    let base = (cursors[view as usize] + off) as usize;
                    &inputs[view as usize][base..base + w]
                }
                SeedRef::Reg(r) => row(lo, w, r),
            },
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
    Plain(usize),
    Chain(ChainSpec),
}

struct ChainScan<'p> {
    ins: &'p [Instr],
    uses: Vec<u32>,
    is_pre: Vec<bool>,
}

impl<'p> ChainScan<'p> {
    fn new(program: &'p BodyProgram) -> Self {
        let ins = program.cell_instrs();
        let mut uses = vec![0u32; program.num_regs as usize];
        let mut scratch = Vec::new();
        for instr in ins {
            operand_regs(instr, &mut scratch);
            for &r in &scratch {
                uses[r as usize] += 1;
            }
        }
        let mut is_pre = vec![false; program.num_regs as usize];
        for instr in &program.instrs[..program.prelude_len] {
            if let Some(d) = dst_reg(instr) {
                is_pre[d as usize] = true;
            }
        }
        Self { ins, uses, is_pre }
    }

    fn used_once(&self, r: u16) -> bool {
        self.uses[r as usize] == 1
    }

    fn pre(&self, r: u16) -> bool {
        self.is_pre[r as usize]
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
                Some((ChainTap { view, off, coef }, dst, j + 1))
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
                    // other a loop-invariant prelude scalar.
                    let coef_reg = if a == lreg && self.pre(b) {
                        b
                    } else if b == lreg && self.pre(a) {
                        a
                    } else {
                        return None;
                    };
                    let coef = TapCoef::Pre {
                        reg: coef_reg,
                        negate: kind == MaKind::CMinusMul,
                    };
                    Some((ChainTap { view, off, coef }, dst, j + 2))
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// Try to start a chain at instruction `i`; returns the spec and the
    /// index just past the consumed instructions.
    fn chain_from(&self, i: usize) -> Option<(ChainSpec, usize)> {
        // Absorbable seed: a single-use Load, or a single-use
        // `BinLoad{Mul}` against a prelude coefficient (`c*l0 + …`).
        let seeded = match self.ins[i] {
            Instr::Load { dst, view, off } if self.used_once(dst) => {
                Some((SeedRef::View { view, off }, None, dst))
            }
            Instr::BinLoad {
                dst,
                kind: BinKind::Mul,
                a,
                view,
                off,
                ..
            } if self.used_once(dst) && self.pre(a) => {
                Some((SeedRef::View { view, off }, Some(a), dst))
            }
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
        // Otherwise the chain may still start from an existing register row
        // — the accumulator of a chain cut at `MAX_CHAIN_TAPS` — if `i`
        // itself is a link.
        let acc = self.acc_candidate(i)?;
        let (tap, dst, next) = self.link_at(i, acc)?;
        let mut spec = start(dst, SeedRef::Reg(acc), None);
        spec.taps.push(tap);
        let end = self.grow(&mut spec, next);
        Some((spec, end))
    }

    /// The accumulator register a link at `i` would consume, if any.
    fn acc_candidate(&self, i: usize) -> Option<u16> {
        match self.ins[i] {
            Instr::BinLoad { a, .. } => Some(a),
            Instr::Load { dst, .. } if self.used_once(dst) => match self.ins.get(i + 1) {
                Some(&Instr::MulAdd { c, .. }) => Some(c),
                _ => None,
            },
            _ => None,
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
        // Fold `acc / c`, `acc * c`, `c * acc` against a prelude scalar.
        if self.used_once(spec.dst) {
            if let Some(&Instr::Bin { dst, kind, a, b }) = self.ins.get(j) {
                let folded = match kind {
                    BinKind::Div if a == spec.dst && self.pre(b) => Some((1u8, b)),
                    BinKind::Mul if a == spec.dst && self.pre(b) => Some((2u8, b)),
                    BinKind::Mul if b == spec.dst && self.pre(a) => Some((2u8, a)),
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

    /// Split the cell program into plain fragments and folded chains.
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
                    items.push(StitchItem::Plain(i));
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
    /// Loop-invariant prefix (Const/Arg only), evaluated per nest.
    prelude: Vec<Instr>,
    prelude_dsts: Vec<u16>,
    num_regs: u16,
    chained_taps: usize,
    unit_chains: usize,
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
        let scan = ChainScan::new(program);
        let items = scan.items();
        let mut steps: Vec<Box<dyn RowOp>> = Vec::with_capacity(items.len());
        let (mut chained_taps, mut unit_chains) = (0, 0);
        for item in &items {
            match item {
                StitchItem::Plain(i) => steps.push(box_instr(&program.cell_instrs()[*i])),
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

    /// Register-file height (rows of width `w` the scratch must hold).
    pub fn num_regs(&self) -> u16 {
        self.num_regs
    }

    /// Conservative in-memory footprint, charged to whichever cache holds
    /// the owning artifact (`Compiled::approx_bytes`).
    pub fn approx_bytes(&self) -> u64 {
        256 + self.steps.len() as u64 * 96 + self.prelude.len() as u64 * 32
    }

    /// Evaluate the loop-invariant prelude registers for this invocation.
    pub fn prelude_values(&self, scalars: &[f64]) -> Vec<f64> {
        let mut pre = vec![0.0f64; self.num_regs as usize];
        for instr in &self.prelude {
            exec_scalar_instr(instr, &mut pre, &[], scalars);
        }
        pre
    }

    /// Broadcast the prelude values into their register rows (once per
    /// `run_range` call; the generic fragments read rows uniformly).
    pub fn fill_prelude_rows(&self, regs: &mut [f64], w: usize, pre: &[f64]) {
        for &d in &self.prelude_dsts {
            regs[d as usize * w..d as usize * w + w].fill(pre[d as usize]);
        }
    }

    /// Execute one unit-stride row of width `w`. `regs` must hold
    /// `num_regs * w` doubles with prelude rows already filled; addressing
    /// conventions match [`BodyProgram::run_strip`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_row(
        &self,
        regs: &mut [f64],
        w: usize,
        inputs: &[&[f64]],
        outputs: &mut [&mut [f64]],
        out_view_map: &[Option<u16>],
        cursors: &[i64],
        coord0: i64,
        coords: &[i64],
        scalars: &[f64],
        pre: &[f64],
    ) {
        if w == 0 {
            return;
        }
        let mut ctx = RowCtx {
            regs,
            w,
            inputs,
            outputs,
            out_view_map,
            cursors,
            coord0,
            coords,
            scalars,
            pre,
        };
        for step in &self.steps {
            step.run(&mut ctx);
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
        Instr::Const { dst, val } => Box::new(FillConst { dst, val }),
        Instr::Arg { dst, arg } => Box::new(FillArg { dst, arg }),
        Instr::Coord { dst, dim } => Box::new(CoordRow { dst, dim }),
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

// ---------------------------------------------------------------------------
// Per-thread row scratch
// ---------------------------------------------------------------------------

thread_local! {
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Borrow the thread's row-register scratch (return with [`put_scratch`]).
pub fn take_scratch() -> Vec<f64> {
    SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// Return a scratch buffer for reuse by later nests on this thread.
pub fn put_scratch(v: Vec<f64>) {
    SCRATCH.with(|s| {
        let mut slot = s.borrow_mut();
        if v.capacity() > slot.capacity() {
            *slot = v;
        }
    });
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
        let pre = jit.prelude_values(&SCALARS);
        let mut regs = vec![0.0f64; jit.num_regs() as usize * w.max(1)];
        jit.fill_prelude_rows(&mut regs, w.max(1), &pre);
        jit.run_row(
            &mut regs,
            w,
            &[&data, &[]],
            &mut [&mut out],
            &OUT_VIEW_MAP,
            &[0, 0],
            0,
            &[0, 0],
            &SCALARS,
            &pre,
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

    /// A copy, plain or scaled, is a chain of no taps with a store sink:
    /// one fragment, bit-identical to the VM.
    #[test]
    fn a_copy_is_a_chain_of_no_taps() {
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
        for (program, unit) in [(copy, 1), (scaled, 0)] {
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
    /// or the baseline one: every register row and the output, as bits.
    fn run_copy<T: Row>(op: &T, w: usize, host: Option<wide::Avx512f>) -> [Vec<u64>; 2] {
        let input = wide::testing::seeded(w + 16, 1);
        let pre = wide::testing::seeded(COPY_REGS, 2);
        let mut regs = wide::testing::seeded(COPY_REGS * w, 3);
        let mut out = vec![0.0; w + 16];
        let mut ctx = RowCtx {
            regs: &mut regs,
            w,
            inputs: &[&input, &[]],
            outputs: &mut [&mut out],
            out_view_map: &[None, Some(0)],
            cursors: &[1, 2],
            coord0: -3,
            coords: &[0, 5],
            scalars: &[0.5],
            pre: &pre,
        };
        match host {
            Some(host) => row_op::avx512f(host, op, &mut ctx),
            None => row_op::base(op, &mut ctx),
        }
        [wide::testing::bits(&regs), wide::testing::bits(&out)]
    }

    fn both_copies<T: Row>(op: T) {
        let Some(host) = wide::testing::host() else {
            return;
        };
        for w in wide::testing::WIDTHS {
            assert_eq!(
                run_copy(&op, w, None),
                run_copy(&op, w, Some(host)),
                "{op:?}, w = {w}"
            );
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
        both_copies(FillConst { dst: 3, val: -0.0 });
        both_copies(FillArg { dst: 3, arg: 0 });
        for dim in [0, 1] {
            both_copies(CoordRow { dst: 3, dim });
        }
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
            ];
            let taps = std::array::from_fn(|t| ChainTap {
                view: 0,
                off: t as i64 * 2 - 1,
                coef: if UNIT { TapCoef::One } else { coefs[t % 4] },
            });
            for seed in [SeedRef::View { view: 0, off: 3 }, SeedRef::Reg(1)] {
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
