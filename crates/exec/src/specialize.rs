//! Kernel specialization: native fast-path loops and superinstruction
//! fusion over [`BodyProgram`] bytecode.
//!
//! The register VM in `bytecode.rs` pays one dispatch per instruction per
//! strip. That floor is shared by the "Flang only" naive tier and the
//! optimised tier, which compresses the measured speed ratio between them
//! (DESIGN.md §2). This module removes the floor from the optimised tier in
//! two steps, mirroring how a mature MLIR lowering emits *specialised* code
//! instead of interpreting generic IR:
//!
//! 1. [`specialize_program`] pattern-matches the dominant stencil body
//!    shapes — affine sums of constant-offset loads (the 7-point
//!    Gauss–Seidel update), plain copies, linear combinations, and the
//!    fused three-field Piacsek–Williams advection bodies — and compiles
//!    each store into a [`SpecBody`] executed by a direct native Rust loop
//!    over the unit-stride dimension: zero per-instruction dispatch,
//!    auto-vectorisable by rustc.
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

/// One horizontal component of a Piacsek–Williams advection store:
/// `coeff * (a*(b+c) - d*(e+f))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PwComponent {
    /// Directional coefficient (`tcx`/`tcy`).
    pub coeff: Coeff,
    /// The six loads, in source order.
    pub a: Access,
    /// See `a`.
    pub b: Access,
    /// See `a`.
    pub c: Access,
    /// See `a`.
    pub d: Access,
    /// See `a`.
    pub e: Access,
    /// See `a`.
    pub f: Access,
}

/// One vertical edge term of a Piacsek–Williams advection store:
/// `(coeff * w) * (b + c)`. MONC applies separate coefficients to the
/// up- and down-flux terms, so the vertical direction does not share the
/// factored [`PwComponent`] shape of the horizontal ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PwEdge {
    /// Vertical coefficient (`tzc1`/`tzc2`).
    pub coeff: Coeff,
    /// The advecting vertical-velocity load.
    pub w: Access,
    /// First summand of the advected pair.
    pub b: Access,
    /// Second summand of the advected pair.
    pub c: Access,
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
    /// `out[i] = ((cx*gx + cy*gy) + (c1*w1)*(s1)) - (c2*w2)*(s2)` with
    /// `g = a*(b+c) - d*(e+f)` and `s = b + c` — one field of the fused PW
    /// advection body, vertical direction in MONC's split-coefficient form.
    PwAdvect {
        /// Store destination.
        out: Access,
        /// The two horizontal components (x then y) in source order.
        flux: Box<[PwComponent; 2]>,
        /// The vertical up-flux edge (enters by addition).
        up: PwEdge,
        /// The vertical down-flux edge (enters by subtraction).
        down: PwEdge,
    },
}

/// A fully specialized nest body: every store lowered to a native loop.
///
/// Stores execute as separate loops over each unit-stride row (loop
/// fission). This is bit-exact because specialization statically rejects
/// bodies whose loads touch a stored view — within a nest, inputs and
/// outputs are disjoint buffers (the snapshot mechanism guarantees it for
/// in-place stencils), so per-cell interleaving and per-store fission
/// produce identical values.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecProgram {
    /// One entry per `Store` of the source program, in program order.
    pub stores: Vec<SpecBody>,
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

/// Matches `a*(b+c) - d*(e+f)` — one PW flux-difference group.
fn match_pw_group(e: &Expr) -> Option<(Access, Access, Access, Access, Access, Access)> {
    let Expr::Bin(BinKind::Sub, l, r) = e else {
        return None;
    };
    let mul = |m: &Expr| -> Option<(Access, Access, Access)> {
        let Expr::Bin(BinKind::Mul, x, s) = m else {
            return None;
        };
        let Expr::Bin(BinKind::Add, p, q) = &**s else {
            return None;
        };
        Some((as_load(x)?, as_load(p)?, as_load(q)?))
    };
    let (a, b, c) = mul(l)?;
    let (d, e2, f) = mul(r)?;
    Some((a, b, c, d, e2, f))
}

/// Matches `coeff * group`.
fn match_pw_component(e: &Expr) -> Option<PwComponent> {
    let Expr::Bin(BinKind::Mul, l, r) = e else {
        return None;
    };
    let coeff = as_coeff(l)?;
    let (a, b, c, d, e2, f) = match_pw_group(r)?;
    Some(PwComponent {
        coeff,
        a,
        b,
        c,
        d,
        e: e2,
        f,
    })
}

/// Matches `(coeff * w) * (b + c)` — one vertical edge term. The inner
/// `coeff * w` association comes from Fortran's left-to-right parse of
/// `tzc1 * w(i, j, k) * (... + ...)`.
fn match_pw_edge(e: &Expr) -> Option<PwEdge> {
    let Expr::Bin(BinKind::Mul, l, r) = e else {
        return None;
    };
    let Expr::Bin(BinKind::Mul, cl, wl) = &**l else {
        return None;
    };
    let coeff = as_coeff(cl)?;
    let w = as_load(wl)?;
    let Expr::Bin(BinKind::Add, b, c) = &**r else {
        return None;
    };
    Some(PwEdge {
        coeff,
        w,
        b: as_load(b)?,
        c: as_load(c)?,
    })
}

fn match_pw_advect(out: Access, e: &Expr) -> Option<SpecBody> {
    // ((cx*gx + cy*gy) + up) - down, left-folded.
    let Expr::Bin(BinKind::Sub, l, r) = e else {
        return None;
    };
    let down = match_pw_edge(r)?;
    let Expr::Bin(BinKind::Add, hl, ue) = &**l else {
        return None;
    };
    let up = match_pw_edge(ue)?;
    let Expr::Bin(BinKind::Add, fx, fy) = &**hl else {
        return None;
    };
    let fx = match_pw_component(fx)?;
    let fy = match_pw_component(fy)?;
    Some(SpecBody::PwAdvect {
        out,
        flux: Box::new([fx, fy]),
        up,
        down,
    })
}

fn match_store(out: Access, e: &Expr) -> Option<SpecBody> {
    if let Some(src) = as_load(e) {
        return Some(SpecBody::Copy { out, src });
    }
    // Most specific first: the PW shape also parses as nothing else, but
    // ScaledSum would reject it anyway; LinComb is the catch-all.
    match_pw_advect(out, e)
        .or_else(|| match_scaled_sum(out, e))
        .or_else(|| match_lincomb(out, e))
}

/// Try to lower a body program to native specialized loops. Returns `None`
/// when any store fails to match a template, when the program has
/// non-arithmetic instructions, or when a load touches a stored view
/// (which would make store fission observable).
pub fn specialize_program(p: &BodyProgram) -> Option<SpecProgram> {
    let trees = extract_store_trees(p)?;
    let stored_views: Vec<u16> = trees.iter().map(|(a, _)| a.view).collect();
    let mut stores = Vec::with_capacity(trees.len());
    for (out, expr) in &trees {
        let body = match_store(*out, expr)?;
        // Reject load/store view overlap: the runners give output views
        // empty input slices, so such a program could not run anyway.
        let loads_ok = body_loads(&body)
            .iter()
            .all(|l| !stored_views.contains(&l.view));
        if !loads_ok {
            return None;
        }
        stores.push(body);
    }
    Some(SpecProgram { stores })
}

fn body_loads(b: &SpecBody) -> Vec<Access> {
    match b {
        SpecBody::Copy { src, .. } => vec![*src],
        SpecBody::ScaledSum { loads, .. } => loads.clone(),
        SpecBody::LinComb { terms, .. } => terms.iter().map(|t| t.load).collect(),
        SpecBody::PwAdvect { flux, up, down, .. } => flux
            .iter()
            .flat_map(|c| [c.a, c.b, c.c, c.d, c.e, c.f])
            .chain([up, down].into_iter().flat_map(|e| [e.w, e.b, e.c]))
            .collect(),
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
/// vectorises the row loop. Out of line for [`pw_advect_row`]'s reason:
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

/// Execute one specialized store over `w` consecutive unit-stride cells.
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
    let out_access = match body {
        SpecBody::Copy { out, .. }
        | SpecBody::ScaledSum { out, .. }
        | SpecBody::LinComb { out, .. }
        | SpecBody::PwAdvect { out, .. } => *out,
    };
    let slot = out_view_map[out_access.view as usize]
        .expect("specialized store to a view that is not an output") as usize;
    let base = (cursors[out_access.view as usize] + out_access.off) as usize;
    let out = &mut outputs[slot][base..base + w];

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
        SpecBody::PwAdvect { flux, up, down, .. } => {
            let c0 = flux[0].coeff.value(scalars);
            let c1 = flux[1].coeff.value(scalars);
            let cu = up.coeff.value(scalars);
            let cd = down.coeff.value(scalars);
            let row = |a: Access| -> &[f64] {
                let (s, b) = resolve(inputs, cursors, a);
                &s[b..b + w]
            };
            let [g0, g1] = [&flux[0], &flux[1]]
                .map(|g| [row(g.a), row(g.b), row(g.c), row(g.d), row(g.e), row(g.f)]);
            let [eu, ed] = [up, down].map(|e| [row(e.w), row(e.b), row(e.c)]);
            pw_advect_row(out, g0, g1, eu, ed, [c0, c1, cu, cd]);
        }
    }
}

/// The PW advection row loop, every input row as long as `out`. Kept out
/// of line: inlined into [`run_spec_row`], thin LTO vectorised it or left
/// it scalar (2x apart) depending on unrelated code elsewhere in the
/// binary — see EXPERIMENTS.md, "Where a distributed run goes".
#[inline(never)]
fn pw_advect_row(
    out: &mut [f64],
    g0: [&[f64]; 6],
    g1: [&[f64]; 6],
    eu: [&[f64]; 3],
    ed: [&[f64]; 3],
    [c0, c1, cu, cd]: [f64; 4],
) {
    let w = out.len();
    let (g0, g1) = (g0.map(|r| &r[..w]), g1.map(|r| &r[..w]));
    let (eu, ed) = (eu.map(|r| &r[..w]), ed.map(|r| &r[..w]));
    for x in 0..w {
        let f0 = g0[0][x] * (g0[1][x] + g0[2][x]) - g0[3][x] * (g0[4][x] + g0[5][x]);
        let f1 = g1[0][x] * (g1[1][x] + g1[2][x]) - g1[3][x] * (g1[4][x] + g1[5][x]);
        let fu = (cu * eu[0][x]) * (eu[1][x] + eu[2][x]);
        let fd = (cd * ed[0][x]) * (ed[1][x] + ed[2][x]);
        out[x] = ((c0 * f0 + c1 * f1) + fu) - fd;
    }
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
        assert_eq!(spec.stores.len(), 1);
        let SpecBody::ScaledSum { loads, scale, .. } = &spec.stores[0] else {
            panic!("expected ScaledSum, got {:?}", spec.stores[0]);
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
            for body in &spec.stores {
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
