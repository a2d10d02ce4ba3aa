//! Kernel specialization: native fast-path loops and superinstruction
//! fusion over [`BodyProgram`] bytecode.
//!
//! The register VM in `bytecode.rs` pays one dispatch per instruction per
//! strip. The "Flang only" line runs there, on the generic VM (DESIGN.md
//! §2). This module removes that floor from the stencil flow in two steps,
//! mirroring how a mature MLIR lowering emits *specialised* code instead of
//! interpreting generic IR:
//!
//! 1. [`specialize_program`] pattern-matches the dominant stencil body
//!    shapes — affine sums of constant-offset loads (the 7-point
//!    Gauss–Seidel update), plain copies, linear combinations, and the
//!    fused three-field Piacsek–Williams advection nest — and compiles
//!    each store (the PW triple as one) into a [`SpecBody`] executed by a
//!    direct native Rust loop over the unit-stride dimension: zero
//!    per-instruction dispatch, auto-vectorisable by rustc.
//! 2. [`fuse_program`] rewrites bodies that do *not* match a template into
//!    superinstructions ([`Instr::MulAdd`], [`Instr::BinLoad`]), shedding
//!    one dispatch per fused pair while keeping the VM fully general.
//!
//! Both transformations are **bit-exact**: they preserve the evaluation
//! order and rounding of every floating-point operation the generic
//! program performs. `MulAdd` is two roundings (`(a*b)+c`), *not* a
//! hardware FMA; templates reproduce the exact association of the source
//! expression (left-folded chains, `A*(B+C) - D*(E+F)` groups). The
//! differential tests in `tests/property.rs` force all three paths over
//! random stencils and compare results with `==`.

// Bodies run on input-derived shapes: a failure is a coded error or a
// rejected template, never a panic.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::bytecode::{BinKind, BodyProgram, Instr, MaKind};

/// Which executor a compiled nest runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExecPath {
    /// Native specialized loop (no bytecode dispatch at all).
    Specialized,
    /// Template-stitched row program: pre-monomorphized fragments with no
    /// per-instruction dispatch inside the unit-stride loop (`jit.rs`).
    Jit,
    /// Vector VM over the superinstruction-fused program.
    FusedVm,
    /// Vector VM over the original instruction-per-op program.
    GenericVm,
}

impl ExecPath {
    /// Parse the stable lowercase names used by `Display` and the
    /// `FSC_FORCE_EXEC_PATH`-style overrides at binary boundaries.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "specialized" => Some(ExecPath::Specialized),
            "jit" => Some(ExecPath::Jit),
            "fused-vm" => Some(ExecPath::FusedVm),
            "generic-vm" => Some(ExecPath::GenericVm),
            _ => None,
        }
    }
}

impl std::fmt::Display for ExecPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExecPath::Specialized => "specialized",
            ExecPath::Jit => "jit",
            ExecPath::FusedVm => "fused-vm",
            ExecPath::GenericVm => "generic-vm",
        })
    }
}

/// A coefficient operand: immediate or scalar kernel argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Coeff {
    /// Compile-time constant.
    Const(f64),
    /// Scalar argument slot.
    Arg(u16),
}

impl Coeff {
    #[inline]
    fn value(self, scalars: &[f64]) -> f64 {
        match self {
            Coeff::Const(v) => v,
            Coeff::Arg(slot) => scalars[slot as usize],
        }
    }
}

/// A constant-offset array access (load target or store destination).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// View index.
    pub view: u16,
    /// Relative linear offset from the view cursor.
    pub off: i64,
}

/// How a [`SpecBody::ScaledSum`] applies its scale factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scale {
    /// No scaling: the bare sum.
    None,
    /// `c * sum` (coefficient on the left).
    MulLeft(Coeff),
    /// `sum * c`.
    MulRight(Coeff),
    /// `sum / c` — the Gauss–Seidel `/ 6.0`.
    DivRight(Coeff),
}

/// One term of a [`SpecBody::LinComb`]: `[±] [c *] load`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinTerm {
    /// Term enters the left-folded chain via subtraction.
    pub negate: bool,
    /// Optional coefficient and whether it is the left multiplicand.
    pub coeff: Option<(Coeff, bool)>,
    /// The load.
    pub load: Access,
}

/// One specialized store: a native-loop realisation of `out[i] = expr(i)`
/// that reproduces the generic program's rounding order exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecBody {
    /// `out[i] = src[i]` — interior copy sweeps.
    Copy {
        /// Store destination.
        out: Access,
        /// Load source.
        src: Access,
    },
    /// `out[i] = scale(((l0 + l1) + l2) ... + lk)` — neighbour averages
    /// such as the 7-point Gauss–Seidel update and Listing 1.
    ScaledSum {
        /// Store destination.
        out: Access,
        /// Loads in left-folded source order (at least two).
        loads: Vec<Access>,
        /// Scale application.
        scale: Scale,
    },
    /// `out[i] = t0 ± t1 ± ... ± tk`, left-folded, each term `[c *] load`.
    LinComb {
        /// Store destination.
        out: Access,
        /// Terms in source order; the first never negates.
        terms: Vec<LinTerm>,
    },
    /// The whole fused Piacsek–Williams advection nest: `su`, `sv` and `sw`
    /// per cell from the 21 loads they share. Store `f` (advecting field
    /// `f`: 0 = u, 1 = v, 2 = w) is `((cx*gx + cy*gy) + (cu*a)*(b+c)) -
    /// (cd*d)*(e+f)` with `g = a*(b+c) - d*(e+f)` per horizontal dimension
    /// and the z taps unfactored (MONC's split vertical coefficients); the
    /// taps are the loads [`pw_taps`] names.
    PwAdvect {
        /// Store destinations of `su`, `sv`, `sw`.
        out: [Access; 3],
        /// Fields u, v, w, each at its centre, then −1/+1 along x, y, z.
        loads: Box<[Access; 21]>,
        /// Per store: `[cx, cy, cu, cd]` (MONC's `tcx, tcy, tzc1, tzc2`).
        coeffs: [[Coeff; 4]; 3],
    },
}

impl SpecBody {
    /// The accesses this body stores to.
    pub fn outputs(&self) -> &[Access] {
        match self {
            SpecBody::Copy { out, .. }
            | SpecBody::ScaledSum { out, .. }
            | SpecBody::LinComb { out, .. } => std::slice::from_ref(out),
            SpecBody::PwAdvect { out, .. } => out,
        }
    }
}

/// A fully specialized nest body: every store lowered to a native loop.
///
/// Bodies run one after another over each unit-stride row; the PW triple
/// is one body that writes all three stores per cell. Both are bit-exact
/// because no store view is read: specialization statically rejects bodies
/// whose loads touch a stored view — within a nest, inputs and outputs are
/// disjoint buffers (the snapshot mechanism guarantees it for in-place
/// stencils) — so per-cell interleaving and per-store loops produce
/// identical values.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecProgram {
    /// One body per store of the source program, in program order — the
    /// PW triple as one.
    pub bodies: Vec<SpecBody>,
}

// --------------------------------------------------------------------------
// Expression extraction
// --------------------------------------------------------------------------

/// A small expression tree rebuilt from the straight-line SSA bytecode.
#[derive(Debug, Clone, PartialEq)]
enum Expr {
    Const(f64),
    Arg(u16),
    Load(Access),
    Bin(BinKind, Box<Expr>, Box<Expr>),
}

impl Expr {
    fn size(&self) -> usize {
        match self {
            Expr::Bin(_, a, b) => 1 + a.size() + b.size(),
            _ => 1,
        }
    }
}

/// Rebuild per-store expression trees from a (generic) body program.
/// Returns `(store_access, expr)` pairs in program order, or `None` when
/// the program contains instructions outside the Const/Arg/Load/Bin/Store
/// subset the templates understand.
fn extract_store_trees(p: &BodyProgram) -> Option<Vec<(Access, Expr)>> {
    let mut defs: Vec<Option<Expr>> = vec![None; p.num_regs.max(1) as usize];
    let mut stores = Vec::new();
    for instr in &p.instrs {
        match *instr {
            Instr::Const { dst, val } => defs[dst as usize] = Some(Expr::Const(val)),
            Instr::Arg { dst, arg } => defs[dst as usize] = Some(Expr::Arg(arg)),
            Instr::Load { dst, view, off } => {
                defs[dst as usize] = Some(Expr::Load(Access { view, off }));
            }
            Instr::Bin { dst, kind, a, b } => {
                let ea = defs[a as usize].clone()?;
                let eb = defs[b as usize].clone()?;
                let e = Expr::Bin(kind, Box::new(ea), Box::new(eb));
                // Shared subtrees duplicate on use; cap the tree size so a
                // pathological reuse chain cannot blow up compilation.
                if e.size() > 256 {
                    return None;
                }
                defs[dst as usize] = Some(e);
            }
            Instr::Store { view, off, src } => {
                let e = defs[src as usize].clone()?;
                stores.push((Access { view, off }, e));
            }
            // Coord / Un / Cmp / Select / superinstructions: the templates
            // cannot reproduce these orders natively.
            _ => return None,
        }
    }
    if stores.is_empty() {
        return None;
    }
    Some(stores)
}

// --------------------------------------------------------------------------
// Template matching
// --------------------------------------------------------------------------

fn as_coeff(e: &Expr) -> Option<Coeff> {
    match *e {
        Expr::Const(v) => Some(Coeff::Const(v)),
        Expr::Arg(slot) => Some(Coeff::Arg(slot)),
        _ => None,
    }
}

fn as_load(e: &Expr) -> Option<Access> {
    match *e {
        Expr::Load(a) => Some(a),
        _ => None,
    }
}

/// Collect a left-folded addition chain of loads: `((l0+l1)+l2)...`.
fn collect_add_chain(e: &Expr, out: &mut Vec<Access>) -> bool {
    match e {
        Expr::Load(a) => {
            out.push(*a);
            true
        }
        Expr::Bin(BinKind::Add, l, r) => {
            if !collect_add_chain(l, out) {
                return false;
            }
            match as_load(r) {
                Some(a) => {
                    out.push(a);
                    true
                }
                None => false,
            }
        }
        _ => false,
    }
}

fn match_scaled_sum(out: Access, e: &Expr) -> Option<SpecBody> {
    let (scale, sum) = match e {
        Expr::Bin(BinKind::Mul, l, r) => {
            if let Some(c) = as_coeff(l) {
                (Scale::MulLeft(c), &**r)
            } else if let Some(c) = as_coeff(r) {
                (Scale::MulRight(c), &**l)
            } else {
                return None;
            }
        }
        Expr::Bin(BinKind::Div, l, r) => (Scale::DivRight(as_coeff(r)?), &**l),
        _ => (Scale::None, e),
    };
    let mut loads = Vec::new();
    if !collect_add_chain(sum, &mut loads) || loads.len() < 2 {
        return None;
    }
    Some(SpecBody::ScaledSum { out, loads, scale })
}

fn match_lin_term(e: &Expr) -> Option<LinTerm> {
    if let Some(load) = as_load(e) {
        return Some(LinTerm {
            negate: false,
            coeff: None,
            load,
        });
    }
    if let Expr::Bin(BinKind::Mul, l, r) = e {
        if let (Some(c), Some(load)) = (as_coeff(l), as_load(r)) {
            return Some(LinTerm {
                negate: false,
                coeff: Some((c, true)),
                load,
            });
        }
        if let (Some(load), Some(c)) = (as_load(l), as_coeff(r)) {
            return Some(LinTerm {
                negate: false,
                coeff: Some((c, false)),
                load,
            });
        }
    }
    None
}

/// Collect a left-folded `t0 ± t1 ± …` chain of linear terms.
fn collect_lin_chain(e: &Expr, out: &mut Vec<LinTerm>) -> bool {
    match e {
        Expr::Bin(kind @ (BinKind::Add | BinKind::Sub), l, r) => {
            // Right operand must itself be a term; left recurses.
            if let Some(mut t) = match_lin_term(r) {
                if !collect_lin_chain(l, out) {
                    return false;
                }
                t.negate = *kind == BinKind::Sub;
                out.push(t);
                true
            } else {
                false
            }
        }
        _ => match match_lin_term(e) {
            Some(t) => {
                out.push(t);
                true
            }
            None => false,
        },
    }
}

fn match_lincomb(out: Access, e: &Expr) -> Option<SpecBody> {
    let mut terms = Vec::new();
    if !collect_lin_chain(e, &mut terms) || terms.is_empty() {
        return None;
    }
    Some(SpecBody::LinComb { out, terms })
}

/// One PW store's taps — per dimension x, y, z the six loads `a, b, c, d,
/// e, f` in source order — and its `[cx, cy, cu, cd]`.
type PwStore = ([[Access; 6]; 3], [Coeff; 4]);

/// Matches `x * (y + z)` with `y`, `z` loads.
fn mul_sum(e: &Expr) -> Option<(&Expr, Access, Access)> {
    let Expr::Bin(BinKind::Mul, x, s) = e else {
        return None;
    };
    let Expr::Bin(BinKind::Add, y, z) = &**s else {
        return None;
    };
    Some((x, as_load(y)?, as_load(z)?))
}

/// Matches one PW store, left-folded as Fortran parses it:
/// `((cx*(a*(b+c) - d*(e+f)) + cy*(…)) + (cu*a)*(b+c)) - (cd*d)*(e+f)`.
fn match_pw_store(e: &Expr) -> Option<PwStore> {
    let Expr::Bin(BinKind::Sub, l, down) = e else {
        return None;
    };
    let Expr::Bin(BinKind::Add, h, up) = &**l else {
        return None;
    };
    let Expr::Bin(BinKind::Add, gx, gy) = &**h else {
        return None;
    };
    let flux = |g: &Expr| -> Option<(Coeff, [Access; 6])> {
        let Expr::Bin(BinKind::Mul, c, g) = g else {
            return None;
        };
        let Expr::Bin(BinKind::Sub, p, q) = &**g else {
            return None;
        };
        let ((a, b, c2), (d, e, f)) = (mul_sum(p)?, mul_sum(q)?);
        Some((as_coeff(c)?, [as_load(a)?, b, c2, as_load(d)?, e, f]))
    };
    // `(coeff * w) * (b + c)`: Fortran's left-to-right `tzc1 * w * (…)`.
    let edge = |g: &Expr| -> Option<(Coeff, [Access; 3])> {
        let (cw, b, c) = mul_sum(g)?;
        let Expr::Bin(BinKind::Mul, c0, w) = cw else {
            return None;
        };
        Some((as_coeff(c0)?, [as_load(w)?, b, c]))
    };
    let ((cx, x), (cy, y)) = (flux(gx)?, flux(gy)?);
    let ((cu, [a, b, c]), (cd, [d, e, f])) = (edge(up)?, edge(down)?);
    Some(([x, y, [a, b, c, d, e, f]], [cx, cy, cu, cd]))
}

/// The taps of the store advecting field `f` along dimension `d`, as
/// indices into [`SpecBody::PwAdvect`]'s loads. Along its own dimension a
/// field is advected upwind by itself, `u(i-1)*(u(i)+u(i-1))`; along the
/// others by the centre velocity, `v(j)*(u(j-1)+u(j))`.
const fn pw_taps(f: usize, d: usize) -> [usize; 6] {
    let (c, m, p) = (0, 1 + 2 * d, 2 + 2 * d);
    let (vel, fld) = (7 * d, 7 * f);
    if d == f {
        [vel + m, fld + c, fld + m, vel + p, fld + c, fld + p]
    } else {
        [vel + c, fld + m, fld + c, vel + p, fld + c, fld + p]
    }
}

/// Group three PW store matches into the whole-nest body, once, at
/// compile time. Each store is identified by the field it advects (its
/// x `e` tap), so program order does not matter. Every one of the 54 taps
/// must be the load MONC's kernel gives that role, and each field's seven
/// loads its centre and ±1 along each dimension; anything else — part of
/// the triple, one role changed — is not specialized.
fn fuse_pw(pw: &[(Access, PwStore)]) -> Option<SpecBody> {
    let [(_, (first, _)), _, _] = pw else {
        return None;
    };
    // The velocities: the `d` tap along x is u, along y v, along z w.
    let vel = [0, 1, 2].map(|d| first[d][3].view);
    let mut by_field = [None; 3];
    for (out, (taps, c)) in pw {
        let f = vel.iter().position(|&v| v == taps[0][4].view)?;
        if by_field[f].replace((*out, taps, *c)).is_some() {
            return None;
        }
    }
    let [Some(su), Some(sv), Some(sw)] = by_field else {
        return None;
    };
    let stores = [su, sv, sw];
    let mut loads = [first[0][0]; 21];
    for (f, (_, taps, _)) in stores.iter().enumerate() {
        for (d, row) in taps.iter().enumerate() {
            for (&a, i) in row.iter().zip(pw_taps(f, d)) {
                loads[i] = a;
            }
        }
    }
    let roles_ok = stores.iter().enumerate().all(|(f, (_, taps, _))| {
        (0..3).all(|d| (0..6).all(|r| taps[d][r] == loads[pw_taps(f, d)[r]]))
    });
    let stencil_ok = (0..3).all(|x| {
        (0..3).all(|d| {
            let [c, m, p] = [0, 1 + 2 * d, 2 + 2 * d].map(|pos| loads[7 * x + pos]);
            [c, m, p].iter().all(|a| a.view == vel[x])
                && p.off - c.off == c.off - m.off
                && p.off > c.off
        })
    });
    let out = stores.map(|s| s.0);
    let distinct =
        out[0].view != out[1].view && out[0].view != out[2].view && out[1].view != out[2].view;
    (roles_ok && stencil_ok && distinct).then(|| SpecBody::PwAdvect {
        out,
        loads: Box::new(loads),
        coeffs: stores.map(|s| s.2),
    })
}

fn match_store(out: Access, e: &Expr) -> Option<SpecBody> {
    if let Some(src) = as_load(e) {
        return Some(SpecBody::Copy { out, src });
    }
    // ScaledSum is the more specific shape; LinComb is the catch-all.
    match_scaled_sum(out, e).or_else(|| match_lincomb(out, e))
}

/// Try to lower a body program to native specialized loops. Returns `None`
/// when any store fails to match a template, when the program has
/// non-arithmetic instructions, when a PW-shaped store is not one of a
/// whole triple, or when a load touches a stored view (which would make
/// the per-store loops observable).
pub fn specialize_program(p: &BodyProgram) -> Option<SpecProgram> {
    let trees = extract_store_trees(p)?;
    let stored_views: Vec<u16> = trees.iter().map(|(a, _)| a.view).collect();
    let mut bodies = Vec::with_capacity(trees.len());
    let mut pw = Vec::new();
    for (out, expr) in &trees {
        match match_pw_store(expr) {
            Some(m) => pw.push((*out, m)),
            None => bodies.push(match_store(*out, expr)?),
        }
    }
    if !pw.is_empty() {
        // A PW triple is the whole nest.
        if !bodies.is_empty() {
            return None;
        }
        bodies.push(fuse_pw(&pw)?);
    }
    // Reject load/store view overlap: the runners give output views
    // empty input slices, so such a program could not run anyway.
    let loads_ok = bodies
        .iter()
        .flat_map(body_loads)
        .all(|l| !stored_views.contains(&l.view));
    loads_ok.then_some(SpecProgram { bodies })
}

fn body_loads(b: &SpecBody) -> Vec<Access> {
    match b {
        SpecBody::Copy { src, .. } => vec![*src],
        SpecBody::ScaledSum { loads, .. } => loads.clone(),
        SpecBody::LinComb { terms, .. } => terms.iter().map(|t| t.load).collect(),
        SpecBody::PwAdvect { loads, .. } => loads.to_vec(),
    }
}

// --------------------------------------------------------------------------
// Native execution
// --------------------------------------------------------------------------

/// Resolve an access to `(slice, base)` against the current cursors.
#[inline]
fn resolve<'a>(inputs: &[&'a [f64]], cursors: &[i64], a: Access) -> (&'a [f64], usize) {
    (
        inputs[a.view as usize],
        (cursors[a.view as usize] + a.off) as usize,
    )
}

/// Sum `K` unit-stride sources left-to-right with a final scale — the
/// monomorphised hot loop behind [`SpecBody::ScaledSum`]. `K` is a
/// compile-time constant so rustc fully unrolls the inner accumulation and
/// vectorises the row loop. Out of line for [`pw_nest_row`]'s reason:
/// inlined into [`run_spec_row`], how many of these loops thin LTO
/// vectorised (`divpd` or `divsd`) moved with unrelated code elsewhere in
/// the crate, and `dist_gs` with it (EXPERIMENTS.md, Figure 8).
#[inline(never)]
fn scaled_sum_row<const K: usize>(
    out: &mut [f64],
    srcs: &[(&[f64], usize)],
    scale: Scale,
    scalars: &[f64],
) {
    let w = out.len();
    let mut s: [(&[f64], usize); K] = [(&[][..], 0); K];
    s.copy_from_slice(&srcs[..K]);
    // Pre-slice each source to the row so the inner loop indexes without
    // bounds checks LLVM cannot elide.
    let rows: [&[f64]; K] = std::array::from_fn(|t| &s[t].0[s[t].1..s[t].1 + w]);
    match scale {
        Scale::None => {
            for x in 0..w {
                let mut acc = rows[0][x];
                for row in rows.iter().skip(1) {
                    acc += row[x];
                }
                out[x] = acc;
            }
        }
        Scale::MulLeft(c) => {
            let cv = c.value(scalars);
            for x in 0..w {
                let mut acc = rows[0][x];
                for row in rows.iter().skip(1) {
                    acc += row[x];
                }
                out[x] = cv * acc;
            }
        }
        Scale::MulRight(c) => {
            let cv = c.value(scalars);
            for x in 0..w {
                let mut acc = rows[0][x];
                for row in rows.iter().skip(1) {
                    acc += row[x];
                }
                out[x] = acc * cv;
            }
        }
        Scale::DivRight(c) => {
            let cv = c.value(scalars);
            for x in 0..w {
                let mut acc = rows[0][x];
                for row in rows.iter().skip(1) {
                    acc += row[x];
                }
                out[x] = acc / cv;
            }
        }
    }
}

/// [`scaled_sum_row`] unrolled by 4: four output cells per iteration, each
/// with its *own* left-folded accumulator chain. Per-cell rounding order is
/// exactly the unit-stride loop's, so results stay bit-identical; the four
/// independent chains overlap in the pipeline, which matters most for the
/// serial divide chain of `Scale::DivRight` (the Gauss–Seidel kernel).
/// Out of line like [`scaled_sum_row`].
#[inline(never)]
fn scaled_sum_row_x4<const K: usize>(
    out: &mut [f64],
    srcs: &[(&[f64], usize)],
    scale: Scale,
    scalars: &[f64],
) {
    let w = out.len();
    let mut s: [(&[f64], usize); K] = [(&[][..], 0); K];
    s.copy_from_slice(&srcs[..K]);
    let rows: [&[f64]; K] = std::array::from_fn(|t| &s[t].0[s[t].1..s[t].1 + w]);
    let sum_at = |x: usize| -> f64 {
        let mut acc = rows[0][x];
        for row in rows.iter().skip(1) {
            acc += row[x];
        }
        acc
    };
    let cv = match scale {
        Scale::None => 0.0,
        Scale::MulLeft(c) | Scale::MulRight(c) | Scale::DivRight(c) => c.value(scalars),
    };
    let finish = |acc: f64| -> f64 {
        match scale {
            Scale::None => acc,
            Scale::MulLeft(_) => cv * acc,
            Scale::MulRight(_) => acc * cv,
            Scale::DivRight(_) => acc / cv,
        }
    };
    let mut x = 0;
    while x + 4 <= w {
        let a0 = finish(sum_at(x));
        let a1 = finish(sum_at(x + 1));
        let a2 = finish(sum_at(x + 2));
        let a3 = finish(sum_at(x + 3));
        out[x] = a0;
        out[x + 1] = a1;
        out[x + 2] = a2;
        out[x + 3] = a3;
        x += 4;
    }
    while x < w {
        out[x] = finish(sum_at(x));
        x += 1;
    }
}

/// Dispatch a monomorphised arity to the straight or unrolled row loop.
#[inline]
fn scaled_sum_dispatch<const K: usize>(
    unroll4: bool,
    out: &mut [f64],
    srcs: &[(&[f64], usize)],
    scale: Scale,
    scalars: &[f64],
) {
    if unroll4 {
        scaled_sum_row_x4::<K>(out, srcs, scale, scalars);
    } else {
        scaled_sum_row::<K>(out, srcs, scale, scalars);
    }
}

/// Execute one specialized body over `w` consecutive unit-stride cells.
///
/// `cursors` address cell 0 of the row exactly as for the VM paths;
/// `outputs`/`out_view_map` follow the same slot convention. `unroll` is
/// the plan's inner-loop unroll factor (≥4 selects the unrolled
/// `ScaledSum` loop; `Copy`/`LinComb`/`PwAdvect` bodies ignore it).
#[allow(clippy::too_many_arguments)]
pub fn run_spec_row(
    body: &SpecBody,
    inputs: &[&[f64]],
    outputs: &mut [&mut [f64]],
    out_view_map: &[Option<u16>],
    cursors: &[i64],
    scalars: &[f64],
    w: usize,
    unroll: u8,
) {
    let span = |a: Access| {
        let base = (cursors[a.view as usize] + a.off) as usize;
        base..base + w
    };
    // `kernel.rs` specializes a nest only when every store view has an
    // output slot, and `fuse_pw` only distinct views: no `else` below runs.
    let slot = |a: Access| out_view_map[a.view as usize].map(usize::from);
    if let SpecBody::PwAdvect { out, loads, coeffs } = body {
        let [Some(a), Some(b), Some(c)] = out.map(slot) else {
            return;
        };
        let Ok([su, sv, sw]) = outputs.get_disjoint_mut([a, b, c]) else {
            return;
        };
        let rows = (**loads).map(|l| &inputs[l.view as usize][span(l)]);
        pw_nest_row(
            [
                &mut su[span(out[0])],
                &mut sv[span(out[1])],
                &mut sw[span(out[2])],
            ],
            rows,
            coeffs.map(|c| c.map(|c| c.value(scalars))),
        );
        return;
    }
    let [out_access] = body.outputs() else {
        return;
    };
    let Some(slot) = slot(*out_access) else {
        return;
    };
    let out = &mut outputs[slot][span(*out_access)];

    match body {
        SpecBody::Copy { src, .. } => {
            let (s, sb) = resolve(inputs, cursors, *src);
            out.copy_from_slice(&s[sb..sb + w]);
        }
        SpecBody::ScaledSum { loads, scale, .. } => {
            let srcs: Vec<(&[f64], usize)> =
                loads.iter().map(|&l| resolve(inputs, cursors, l)).collect();
            // Monomorphise the common arities (4 = Listing 1, 6 = GS).
            let u4 = unroll >= 4;
            match srcs.len() {
                2 => scaled_sum_dispatch::<2>(u4, out, &srcs, *scale, scalars),
                3 => scaled_sum_dispatch::<3>(u4, out, &srcs, *scale, scalars),
                4 => scaled_sum_dispatch::<4>(u4, out, &srcs, *scale, scalars),
                5 => scaled_sum_dispatch::<5>(u4, out, &srcs, *scale, scalars),
                6 => scaled_sum_dispatch::<6>(u4, out, &srcs, *scale, scalars),
                7 => scaled_sum_dispatch::<7>(u4, out, &srcs, *scale, scalars),
                8 => scaled_sum_dispatch::<8>(u4, out, &srcs, *scale, scalars),
                _ => {
                    // Dynamic arity: same order, plain loop.
                    let cv = |c: &Coeff| c.value(scalars);
                    for x in 0..w {
                        let mut acc = srcs[0].0[srcs[0].1 + x];
                        for (s, b) in &srcs[1..] {
                            acc += s[b + x];
                        }
                        out[x] = match scale {
                            Scale::None => acc,
                            Scale::MulLeft(c) => cv(c) * acc,
                            Scale::MulRight(c) => acc * cv(c),
                            Scale::DivRight(c) => acc / cv(c),
                        };
                    }
                }
            }
        }
        SpecBody::LinComb { terms, .. } => {
            // Resolve terms once per row: (negate, coeff, row slice).
            struct RTerm<'a> {
                negate: bool,
                coeff: Option<(f64, bool)>,
                row: &'a [f64],
            }
            let rts: Vec<RTerm> = terms
                .iter()
                .map(|t| {
                    let (s, b) = resolve(inputs, cursors, t.load);
                    RTerm {
                        negate: t.negate,
                        coeff: t.coeff.map(|(c, left)| (c.value(scalars), left)),
                        row: &s[b..b + w],
                    }
                })
                .collect();
            for (x, o) in out.iter_mut().enumerate() {
                let term_val = |t: &RTerm| -> f64 {
                    let l = t.row[x];
                    match t.coeff {
                        None => l,
                        Some((c, true)) => c * l,
                        Some((c, false)) => l * c,
                    }
                };
                let mut acc = term_val(&rts[0]);
                for t in &rts[1..] {
                    let v = term_val(t);
                    acc = if t.negate { acc - v } else { acc + v };
                }
                *o = acc;
            }
        }
        // Ran above, on its three output rows.
        SpecBody::PwAdvect { .. } => {}
    }
}

/// The fused PW row loop, every row as long as `su`: each cell loads the
/// 21 inputs once and writes all three stores. Kept out of line: inlined
/// into [`run_spec_row`], thin LTO vectorised the PW loop or left it scalar
/// (2x apart) depending on unrelated code elsewhere in the binary — see
/// EXPERIMENTS.md, "Where a distributed run goes".
#[inline(never)]
fn pw_nest_row([su, sv, sw]: [&mut [f64]; 3], rows: [&[f64]; 21], coeffs: [[f64; 4]; 3]) {
    let w = su.len();
    let (sv, sw, rows) = (&mut sv[..w], &mut sw[..w], rows.map(|r| &r[..w]));
    for x in 0..w {
        let mut v = [0.0; 21];
        for (v, r) in v.iter_mut().zip(&rows) {
            *v = r[x];
        }
        su[x] = pw_cell::<0>(&v, coeffs[0]);
        sv[x] = pw_cell::<1>(&v, coeffs[1]);
        sw[x] = pw_cell::<2>(&v, coeffs[2]);
    }
}

/// One PW store of one cell, advecting field `F`, in the source's order.
#[inline(always)]
fn pw_cell<const F: usize>(v: &[f64; 21], [cx, cy, cu, cd]: [f64; 4]) -> f64 {
    let (gx, gy) = (
        pw_flux(v, const { pw_taps(F, 0) }),
        pw_flux(v, const { pw_taps(F, 1) }),
    );
    let z = const { pw_taps(F, 2) };
    ((cx * gx + cy * gy) + (cu * v[z[0]]) * (v[z[1]] + v[z[2]]))
        - (cd * v[z[3]]) * (v[z[4]] + v[z[5]])
}

/// `a*(b+c) - d*(e+f)` over the taps `t`.
#[inline(always)]
fn pw_flux(v: &[f64; 21], t: [usize; 6]) -> f64 {
    v[t[0]] * (v[t[1]] + v[t[2]]) - v[t[3]] * (v[t[4]] + v[t[5]])
}

// --------------------------------------------------------------------------
// Superinstruction fusion (the FusedVm fallback)
// --------------------------------------------------------------------------

/// Rewrite a body program with superinstructions:
///
/// * `Mul` whose single consumer is an `Add`/`Sub` fuses into
///   [`Instr::MulAdd`] (two roundings — bit-identical to the unfused pair);
/// * a single-use `Load` feeding a binary op folds into
///   [`Instr::BinLoad`], eliminating the register-strip copy.
///
/// Op counts (`flops/loads/stores_per_cell`) are preserved exactly;
/// `debug_assert`ed below.
pub fn fuse_program(p: &BodyProgram) -> BodyProgram {
    let mut fused = p.clone();
    fuse_mul_add(&mut fused.instrs);
    fold_loads(&mut fused.instrs);
    let (f0, l0, s0) = (p.flops_per_cell, p.loads_per_cell, p.stores_per_cell);
    fused.finalize_stats();
    debug_assert_eq!(
        (
            fused.flops_per_cell,
            fused.loads_per_cell,
            fused.stores_per_cell
        ),
        (f0, l0, s0),
        "superinstruction fusion must preserve op counts"
    );
    fused
}

/// Count register uses across all instructions.
fn use_counts(instrs: &[Instr]) -> Vec<u32> {
    let mut counts = Vec::new();
    let mut bump = |r: u16| {
        let i = r as usize;
        if counts.len() <= i {
            counts.resize(i + 1, 0u32);
        }
        counts[i] += 1;
    };
    for instr in instrs {
        match *instr {
            Instr::Bin { a, b, .. } | Instr::Cmp { a, b, .. } => {
                bump(a);
                bump(b);
            }
            Instr::Un { a, .. } => bump(a),
            Instr::Select { c, a, b, .. } => {
                bump(c);
                bump(a);
                bump(b);
            }
            Instr::Store { src, .. } => bump(src),
            Instr::MulAdd { a, b, c, .. } => {
                bump(a);
                bump(b);
                bump(c);
            }
            Instr::BinLoad { a, .. } => bump(a),
            Instr::Const { .. } | Instr::Arg { .. } | Instr::Load { .. } | Instr::Coord { .. } => {}
        }
    }
    counts
}

fn fuse_mul_add(instrs: &mut Vec<Instr>) {
    let uses = use_counts(instrs);
    let single_use = |r: u16| uses.get(r as usize).copied().unwrap_or(0) == 1;
    // Map: destination register of a fusable (single-use) Mul -> (a, b).
    let mut pending: std::collections::HashMap<u16, (u16, u16)> = std::collections::HashMap::new();
    let mut consumed: std::collections::HashSet<u16> = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(instrs.len());
    for instr in instrs.drain(..) {
        match instr {
            Instr::Bin {
                dst,
                kind: BinKind::Mul,
                a,
                b,
            } if single_use(dst) => {
                pending.insert(dst, (a, b));
                out.push(Instr::Bin {
                    dst,
                    kind: BinKind::Mul,
                    a,
                    b,
                });
            }
            Instr::Bin {
                dst,
                kind: kind @ (BinKind::Add | BinKind::Sub),
                a,
                b,
            } => {
                // Prefer fusing the right operand (matches `x + c*l`
                // chains); fall back to the left.
                let fused = if let Some(&(ma, mb)) = pending.get(&b) {
                    consumed.insert(b);
                    let kind = if kind == BinKind::Add {
                        // x + (a*b): addition is commutative bitwise.
                        MaKind::CPlusMul
                    } else {
                        MaKind::CMinusMul
                    };
                    Some(Instr::MulAdd {
                        dst,
                        a: ma,
                        b: mb,
                        c: a,
                        kind,
                    })
                } else if let Some(&(ma, mb)) = pending.get(&a) {
                    consumed.insert(a);
                    let kind = if kind == BinKind::Add {
                        MaKind::CPlusMul
                    } else {
                        // (a*b) - x.
                        MaKind::MulMinusC
                    };
                    Some(Instr::MulAdd {
                        dst,
                        a: ma,
                        b: mb,
                        c: b,
                        kind,
                    })
                } else {
                    None
                };
                match fused {
                    Some(i) => out.push(i),
                    None => out.push(Instr::Bin { dst, kind, a, b }),
                }
                // A MulAdd result may itself be a fusable Mul's consumer
                // chain target, but dst here is not a Mul: nothing to add.
            }
            other => out.push(other),
        }
    }
    // Drop the Mul definitions that were fused into their consumers.
    out.retain(
        |i| !matches!(i, Instr::Bin { dst, kind: BinKind::Mul, .. } if consumed.contains(dst)),
    );
    *instrs = out;
}

fn fold_loads(instrs: &mut Vec<Instr>) {
    let uses = use_counts(instrs);
    let single_use = |r: u16| uses.get(r as usize).copied().unwrap_or(0) == 1;
    // Map: destination register of a foldable (single-use) Load -> access.
    let mut pending: std::collections::HashMap<u16, (u16, i64)> = std::collections::HashMap::new();
    let mut consumed: std::collections::HashSet<u16> = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(instrs.len());
    for instr in instrs.drain(..) {
        match instr {
            Instr::Load { dst, view, off } if single_use(dst) => {
                pending.insert(dst, (view, off));
                out.push(Instr::Load { dst, view, off });
            }
            Instr::Bin { dst, kind, a, b } => {
                let fused = if let Some(&(view, off)) = pending.get(&b) {
                    consumed.insert(b);
                    Some(Instr::BinLoad {
                        dst,
                        kind,
                        a,
                        view,
                        off,
                        load_left: false,
                    })
                } else if let Some(&(view, off)) = pending.get(&a) {
                    consumed.insert(a);
                    Some(Instr::BinLoad {
                        dst,
                        kind,
                        a: b,
                        view,
                        off,
                        load_left: true,
                    })
                } else {
                    None
                };
                match fused {
                    Some(i) => out.push(i),
                    None => out.push(Instr::Bin { dst, kind, a, b }),
                }
            }
            other => out.push(other),
        }
    }
    out.retain(|i| !matches!(i, Instr::Load { dst, .. } if consumed.contains(dst)));
    *instrs = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{BinKind, BodyProgram, Instr};

    /// Bytecode for `out = (l(-1) + l(1)) / 6.0` plus a copy store.
    fn gs_like_program() -> BodyProgram {
        let mut p = BodyProgram {
            instrs: vec![
                Instr::Const { dst: 0, val: 6.0 },
                Instr::Load {
                    dst: 1,
                    view: 0,
                    off: -1,
                },
                Instr::Load {
                    dst: 2,
                    view: 0,
                    off: 1,
                },
                Instr::Bin {
                    dst: 3,
                    kind: BinKind::Add,
                    a: 1,
                    b: 2,
                },
                Instr::Bin {
                    dst: 4,
                    kind: BinKind::Div,
                    a: 3,
                    b: 0,
                },
                Instr::Store {
                    view: 1,
                    off: 0,
                    src: 4,
                },
            ],
            num_regs: 5,
            ..Default::default()
        };
        p.finalize_stats();
        p.hoist_invariants();
        p
    }

    #[test]
    fn recognises_scaled_sum() {
        let spec = specialize_program(&gs_like_program()).expect("specializable");
        assert_eq!(spec.bodies.len(), 1);
        let SpecBody::ScaledSum { loads, scale, .. } = &spec.bodies[0] else {
            panic!("expected ScaledSum, got {:?}", spec.bodies[0]);
        };
        assert_eq!(loads.len(), 2);
        assert_eq!(*scale, Scale::DivRight(Coeff::Const(6.0)));
    }

    #[test]
    fn rejects_coord_bodies() {
        let mut p = BodyProgram {
            instrs: vec![
                Instr::Coord { dst: 0, dim: 0 },
                Instr::Store {
                    view: 0,
                    off: 0,
                    src: 0,
                },
            ],
            num_regs: 1,
            ..Default::default()
        };
        p.finalize_stats();
        assert!(specialize_program(&p).is_none());
    }

    #[test]
    fn specialized_row_matches_vm() {
        let p = gs_like_program();
        let spec = specialize_program(&p).unwrap();
        let input: Vec<f64> = (0..20).map(|i| (i as f64 * 0.7).sin()).collect();
        let w = 16usize;

        // VM (strip) execution.
        let mut vm_out = vec![0.0; 20];
        {
            let inputs: Vec<&[f64]> = vec![&input, &[]];
            let mut outs: Vec<&mut [f64]> = vec![&mut vm_out];
            let mut regs = vec![0.0; p.num_regs as usize * w];
            p.run_prelude_strip(&mut regs, w, &[]);
            p.run_strip(
                &mut regs,
                w,
                &inputs,
                &mut outs,
                &[None, Some(0)],
                &[2, 2],
                2,
                &[2],
                &[],
            );
        }
        // Native specialized execution.
        let mut spec_out = vec![0.0; 20];
        {
            let inputs: Vec<&[f64]> = vec![&input, &[]];
            let mut outs: Vec<&mut [f64]> = vec![&mut spec_out];
            for body in &spec.bodies {
                run_spec_row(
                    body,
                    &inputs,
                    &mut outs,
                    &[None, Some(0)],
                    &[2, 2],
                    &[],
                    w,
                    1,
                );
            }
        }
        assert_eq!(
            vm_out, spec_out,
            "specialized row must match the VM bitwise"
        );
    }

    #[test]
    fn fusion_preserves_op_counts_and_values() {
        // out = 0.25*l(-1) + 0.5*l(0) - 0.125*l(1) — muls fuse into MulAdd,
        // remaining loads fold into BinLoad.
        let mut p = BodyProgram {
            instrs: vec![
                Instr::Const { dst: 0, val: 0.25 },
                Instr::Const { dst: 1, val: 0.5 },
                Instr::Const { dst: 2, val: 0.125 },
                Instr::Load {
                    dst: 3,
                    view: 0,
                    off: -1,
                },
                Instr::Load {
                    dst: 4,
                    view: 0,
                    off: 0,
                },
                Instr::Load {
                    dst: 5,
                    view: 0,
                    off: 1,
                },
                Instr::Bin {
                    dst: 6,
                    kind: BinKind::Mul,
                    a: 0,
                    b: 3,
                },
                Instr::Bin {
                    dst: 7,
                    kind: BinKind::Mul,
                    a: 1,
                    b: 4,
                },
                Instr::Bin {
                    dst: 8,
                    kind: BinKind::Add,
                    a: 6,
                    b: 7,
                },
                Instr::Bin {
                    dst: 9,
                    kind: BinKind::Mul,
                    a: 2,
                    b: 5,
                },
                Instr::Bin {
                    dst: 10,
                    kind: BinKind::Sub,
                    a: 8,
                    b: 9,
                },
                Instr::Store {
                    view: 1,
                    off: 0,
                    src: 10,
                },
            ],
            num_regs: 11,
            ..Default::default()
        };
        p.finalize_stats();
        p.hoist_invariants();
        let fused = fuse_program(&p);
        assert_eq!(fused.flops_per_cell, p.flops_per_cell);
        assert_eq!(fused.loads_per_cell, p.loads_per_cell);
        assert!(
            fused
                .instrs
                .iter()
                .any(|i| matches!(i, Instr::MulAdd { .. })),
            "expected at least one MulAdd in {:?}",
            fused.instrs
        );
        assert!(
            fused.instrs.len() < p.instrs.len(),
            "fusion must shrink the stream"
        );

        let input: Vec<f64> = (0..12).map(|i| (i as f64 * 1.3).cos()).collect();
        let run = |prog: &BodyProgram| -> Vec<f64> {
            let mut out = vec![0.0; 12];
            let inputs: Vec<&[f64]> = vec![&input, &[]];
            let mut outs: Vec<&mut [f64]> = vec![&mut out];
            let w = 8usize;
            let mut regs = vec![0.0; prog.num_regs as usize * w];
            prog.run_prelude_strip(&mut regs, w, &[]);
            prog.run_strip(
                &mut regs,
                w,
                &inputs,
                &mut outs,
                &[None, Some(0)],
                &[1, 1],
                1,
                &[1],
                &[],
            );
            out
        };
        assert_eq!(
            run(&p),
            run(&fused),
            "fused VM must match generic VM bitwise"
        );
    }
}
