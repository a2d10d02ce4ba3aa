//! Kernel specialization: native fast-path loops and superinstruction
//! fusion over [`BodyProgram`] bytecode.
//!
//! The register VM in `bytecode.rs` pays one dispatch per instruction per
//! strip. The "Flang only" line runs there, on the generic VM (DESIGN.md
//! §2). This module removes that floor from the stencil flow in two steps,
//! mirroring how a mature MLIR lowering emits *specialised* code instead of
//! interpreting generic IR:
//!
//! 1. [`specialize_program`] pattern-matches the fused three-field
//!    Piacsek–Williams advection nest and compiles it into one
//!    [`SpecBody`] executed by a direct native Rust loop over the
//!    unit-stride dimension: zero per-instruction dispatch, vectorised by
//!    rustc. Linear nests — sums, copies, linear combinations such as the
//!    Gauss–Seidel update — are left to the jit's `LinChain` (`jit.rs`).
//! 2. [`fuse_program`] rewrites the bytecode into superinstructions
//!    ([`Instr::MulAdd`], [`Instr::BinLoad`]) for the fused VM and the jit
//!    stitcher, shedding one dispatch per fused pair while keeping the VM
//!    fully general.
//!
//! Both transformations are **bit-exact**: they preserve the evaluation
//! order and rounding of every floating-point operation the generic
//! program performs. `MulAdd` is two roundings (`(a*b)+c`), *not* a
//! hardware FMA; the PW row reproduces the exact association of the
//! source expression (`A*(B+C) - D*(E+F)` groups). The differential tests
//! in `tests/property.rs` force every path over random stencils and
//! compare results with `==`.

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

/// A specialized nest body: a native-loop realisation of the nest that
/// reproduces the generic program's rounding order exactly.
///
/// It is bit-exact because no store view is read: specialization rejects
/// bodies whose loads touch a stored view — within a nest, inputs and
/// outputs are disjoint buffers (the snapshot mechanism guarantees it for
/// in-place stencils) — so writing all three stores per cell produces the
/// program's values.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecBody {
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
        let SpecBody::PwAdvect { out, .. } = self;
        out
    }
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
/// subset the PW matcher understands.
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
            // Coord / Un / Cmp / Select / superinstructions: no PW store
            // holds them.
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

/// Try to lower a body program to the fused PW row. Returns `None` when
/// the program has non-arithmetic instructions, when any store is not
/// PW-shaped, when the PW stores are not one whole triple, or when a load
/// touches a stored view (which would make the per-cell writes
/// observable).
pub fn specialize_program(p: &BodyProgram) -> Option<SpecBody> {
    let trees = extract_store_trees(p)?;
    let pw = trees
        .iter()
        .map(|(out, expr)| Some((*out, match_pw_store(expr)?)))
        .collect::<Option<Vec<_>>>()?;
    let body = fuse_pw(&pw)?;
    // Reject load/store view overlap: the runner gives output views empty
    // input slices, so such a program could not run anyway.
    let SpecBody::PwAdvect { out, loads, .. } = &body;
    let loads_ok = loads.iter().all(|l| out.iter().all(|o| o.view != l.view));
    loads_ok.then_some(body)
}

// --------------------------------------------------------------------------
// Native execution
// --------------------------------------------------------------------------

/// Execute the specialized body over `w` consecutive unit-stride cells.
///
/// `cursors` address cell 0 of the row exactly as for the VM paths;
/// `outputs`/`out_view_map` follow the same slot convention.
pub fn run_spec_row(
    body: &SpecBody,
    inputs: &[&[f64]],
    outputs: &mut [&mut [f64]],
    out_view_map: &[Option<u16>],
    cursors: &[i64],
    scalars: &[f64],
    w: usize,
) {
    let span = |a: Access| {
        let base = (cursors[a.view as usize] + a.off) as usize;
        base..base + w
    };
    // `kernel.rs` specializes a nest only when every store view has an
    // output slot, and `fuse_pw` only distinct views: no `else` below runs.
    let slot = |a: Access| out_view_map[a.view as usize].map(usize::from);
    let SpecBody::PwAdvect { out, loads, coeffs } = body;
    let [Some(a), Some(b), Some(c)] = out.map(slot) else {
        return;
    };
    let Ok([su, sv, sw]) = outputs.get_disjoint_mut([a, b, c]) else {
        return;
    };
    let rows = (**loads).map(|l| &inputs[l.view as usize][span(l)]);
    pw_nest_row::run(
        [
            &mut su[span(out[0])],
            &mut sv[span(out[1])],
            &mut sw[span(out[2])],
        ],
        rows,
        coeffs.map(|c| c.map(|c| c.value(scalars))),
    );
}

crate::wide::multiversion! {
    /// The fused PW row loop, every row as long as `su`: each cell loads the
    /// 21 inputs once and writes all three stores. What pins its vector
    /// form: the body is compiled only into the two out-of-line copies,
    /// never into [`run_spec_row`], where thin LTO left it scalar or
    /// vectorised (2x apart) with unrelated code (EXPERIMENTS.md, Figure
    /// 8); `ci.sh == vector width gate ==` fails an AVX-512F copy that is
    /// not `zmm` code of its own.
    fn pw_nest_row[](outs: [&mut [f64]; 3], rows: [&[f64]; 21], coeffs: [[f64; 4]; 3]) {
        let [su, sv, sw] = outs;
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
    use crate::wide;

    /// Bytecode for `out = (l(-1) + l(1)) / 6.0`.
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

    /// Sums, copies and linear combinations are the jit's: no template.
    #[test]
    fn linear_stores_are_left_to_the_jit() {
        assert_eq!(specialize_program(&gs_like_program()), None);
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

    /// The fused PW row: both copies write the same bits to all three
    /// outputs.
    #[test]
    fn pw_row_copies_are_bit_identical() {
        let Some(host) = wide::testing::host() else {
            return;
        };
        for w in wide::testing::WIDTHS {
            let inputs: Vec<Vec<f64>> = (0..21).map(|t| wide::testing::seeded(w, t)).collect();
            let rows: [&[f64]; 21] = std::array::from_fn(|t| &inputs[t][..]);
            let c = wide::testing::seeded(12, 99);
            let coeffs: [[f64; 4]; 3] =
                std::array::from_fn(|f| std::array::from_fn(|i| c[4 * f + i]));
            let run = |avx: bool| {
                let mut outs = [vec![0.0; w], vec![0.0; w], vec![0.0; w]];
                let [su, sv, sw] = &mut outs;
                let outs_mut = [&mut su[..], &mut sv[..], &mut sw[..]];
                if avx {
                    pw_nest_row::avx512f(host, outs_mut, rows, coeffs);
                } else {
                    pw_nest_row::base(outs_mut, rows, coeffs);
                }
                outs.map(|o| wide::testing::bits(&o))
            };
            assert_eq!(run(false), run(true), "w = {w}");
        }
    }
}
