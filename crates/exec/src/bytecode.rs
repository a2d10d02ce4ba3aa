//! Flat register-machine bytecode for stencil kernel bodies.
//!
//! The kernel compiler (`crate::kernel`) turns the innermost block of a
//! lowered loop nest into one [`BodyProgram`]: straight-line instructions
//! over an `f64` register file, with every array access reduced to
//! *cursor + precomputed relative offset* — the address arithmetic that the
//! FIR interpreter re-derives per element is done once at compile time here.
//!
//! Integer index values that appear as data (`stencil.index`) are computed
//! in `f64`; all coordinates in these kernels are far below 2^53, so the
//! arithmetic is exact.

/// Binary operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// `powf`.
    Pow,
    /// `atan2`.
    Atan2,
    /// `copysign`.
    CopySign,
    /// Modulo (`%` on the f64 values; exact for small ints).
    Rem,
}

/// Unary operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnKind {
    /// Negation.
    Neg,
    /// Square root.
    Sqrt,
    /// Absolute value.
    Abs,
    /// `exp`.
    Exp,
    /// `ln`.
    Log,
    /// `sin`.
    Sin,
    /// `cos`.
    Cos,
    /// `tanh`.
    Tanh,
    /// Truncation towards zero (int casts).
    Trunc,
}

/// Accumulate variants of the fused multiply–add superinstruction.
///
/// All variants perform **two roundings** — the multiply result is rounded
/// before the accumulate, exactly like the unfused `Mul` + `Add`/`Sub`
/// pair they replace. This is *not* a hardware FMA; fusion only removes
/// dispatch, never changes bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaKind {
    /// `c + (a*b)` — also encodes `(a*b) + c` (addition is commutative
    /// bitwise for the values these kernels produce).
    CPlusMul,
    /// `c - (a*b)`.
    CMinusMul,
    /// `(a*b) - c`.
    MulMinusC,
}

#[inline]
pub(crate) fn mul_acc(kind: MaKind, a: f64, b: f64, c: f64) -> f64 {
    let m = a * b;
    match kind {
        MaKind::CPlusMul => c + m,
        MaKind::CMinusMul => c - m,
        MaKind::MulMinusC => m - c,
    }
}

/// Evaluate a binary op on two scalars (shared by `Bin` and `BinLoad`).
#[inline]
pub(crate) fn bin_eval(kind: BinKind, x: f64, y: f64) -> f64 {
    match kind {
        BinKind::Add => x + y,
        BinKind::Sub => x - y,
        BinKind::Mul => x * y,
        BinKind::Div => x / y,
        BinKind::Min => x.min(y),
        BinKind::Max => x.max(y),
        BinKind::Pow => x.powf(y),
        BinKind::Atan2 => x.atan2(y),
        BinKind::CopySign => x.copysign(y),
        BinKind::Rem => x % y,
    }
}

/// Evaluate a unary op on one scalar (shared with the jit fragments so
/// the tiers cannot diverge).
#[inline]
pub(crate) fn un_eval(kind: UnKind, x: f64) -> f64 {
    match kind {
        UnKind::Neg => -x,
        UnKind::Sqrt => x.sqrt(),
        UnKind::Abs => x.abs(),
        UnKind::Exp => x.exp(),
        UnKind::Log => x.ln(),
        UnKind::Sin => x.sin(),
        UnKind::Cos => x.cos(),
        UnKind::Tanh => x.tanh(),
        UnKind::Trunc => x.trunc(),
    }
}

/// Evaluate a comparison to 0.0/1.0 (shared with the jit fragments).
#[inline]
pub(crate) fn cmp_eval(kind: CmpKind, x: f64, y: f64) -> f64 {
    (match kind {
        CmpKind::Eq => x == y,
        CmpKind::Ne => x != y,
        CmpKind::Lt => x < y,
        CmpKind::Le => x <= y,
        CmpKind::Gt => x > y,
        CmpKind::Ge => x >= y,
    }) as u8 as f64
}

/// Comparison predicates producing 0.0 / 1.0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpKind {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

/// One bytecode instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `regs[dst] = val`.
    Const {
        /// Destination register.
        dst: u16,
        /// Immediate.
        val: f64,
    },
    /// `regs[dst] = scalar_args[arg]` — a captured scalar kernel argument.
    Arg {
        /// Destination register.
        dst: u16,
        /// Scalar argument index.
        arg: u16,
    },
    /// `regs[dst] = view_data[view][cursor[view] + off]`.
    Load {
        /// Destination register.
        dst: u16,
        /// View index.
        view: u16,
        /// Relative linear offset (precomputed from the stencil offsets).
        off: i64,
    },
    /// `regs[dst] = current global coordinate of dimension dim`.
    Coord {
        /// Destination register.
        dst: u16,
        /// Dimension.
        dim: u8,
    },
    /// Binary arithmetic.
    Bin {
        /// Destination register.
        dst: u16,
        /// Operation.
        kind: BinKind,
        /// Left operand register.
        a: u16,
        /// Right operand register.
        b: u16,
    },
    /// Unary arithmetic.
    Un {
        /// Destination register.
        dst: u16,
        /// Operation.
        kind: UnKind,
        /// Operand register.
        a: u16,
    },
    /// Comparison producing 0.0/1.0.
    Cmp {
        /// Destination register.
        dst: u16,
        /// Predicate.
        kind: CmpKind,
        /// Left operand register.
        a: u16,
        /// Right operand register.
        b: u16,
    },
    /// `regs[dst] = regs[c] != 0.0 ? regs[a] : regs[b]`.
    Select {
        /// Destination register.
        dst: u16,
        /// Condition register.
        c: u16,
        /// Value if true.
        a: u16,
        /// Value if false.
        b: u16,
    },
    /// `view_data[view][cursor[view] + off] = regs[src]`.
    Store {
        /// View index (must refer to an output view).
        view: u16,
        /// Relative linear offset.
        off: i64,
        /// Source register.
        src: u16,
    },
    /// Superinstruction: fused multiply–accumulate over registers,
    /// `regs[dst] = mul_acc(kind, regs[a], regs[b], regs[c])`. Two
    /// roundings — bit-identical to the `Mul` + `Add`/`Sub` pair it
    /// replaces. Produced by `specialize::fuse_program`, never by the body
    /// compiler.
    MulAdd {
        /// Destination register.
        dst: u16,
        /// Left multiplicand register.
        a: u16,
        /// Right multiplicand register.
        b: u16,
        /// Accumulate operand register.
        c: u16,
        /// Accumulate variant.
        kind: MaKind,
    },
    /// Superinstruction: binary op with one operand loaded directly from
    /// memory, skipping the intermediate register strip. Produced by
    /// `specialize::fuse_program`.
    BinLoad {
        /// Destination register.
        dst: u16,
        /// Operation.
        kind: BinKind,
        /// Register operand.
        a: u16,
        /// View index of the memory operand.
        view: u16,
        /// Relative linear offset of the memory operand.
        off: i64,
        /// When true the memory operand is the *left* operand of `kind`.
        load_left: bool,
    },
}

/// Elementwise binary op over register strips (SSA guarantees `dst`
/// disjoint from `a`/`b`).
#[inline]
fn binary_strip(regs: &mut [f64], w: usize, dst: u16, a: u16, b: u16, kind: BinKind) {
    let (a0, b0, d0) = (a as usize * w, b as usize * w, dst as usize * w);
    for x in 0..w {
        let va = regs[a0 + x];
        let vb = regs[b0 + x];
        regs[d0 + x] = match kind {
            BinKind::Add => va + vb,
            BinKind::Sub => va - vb,
            BinKind::Mul => va * vb,
            BinKind::Div => va / vb,
            BinKind::Min => va.min(vb),
            BinKind::Max => va.max(vb),
            BinKind::Pow => va.powf(vb),
            BinKind::Atan2 => va.atan2(vb),
            BinKind::CopySign => va.copysign(vb),
            BinKind::Rem => va % vb,
        };
    }
}

/// Elementwise unary op over register strips.
#[inline]
fn unary_strip(regs: &mut [f64], w: usize, dst: u16, a: u16, kind: UnKind) {
    let (a0, d0) = (a as usize * w, dst as usize * w);
    for x in 0..w {
        let v = regs[a0 + x];
        regs[d0 + x] = match kind {
            UnKind::Neg => -v,
            UnKind::Sqrt => v.sqrt(),
            UnKind::Abs => v.abs(),
            UnKind::Exp => v.exp(),
            UnKind::Log => v.ln(),
            UnKind::Sin => v.sin(),
            UnKind::Cos => v.cos(),
            UnKind::Tanh => v.tanh(),
            UnKind::Trunc => v.trunc(),
        };
    }
}

/// Elementwise comparison over register strips.
#[inline]
fn cmp_strip(regs: &mut [f64], w: usize, dst: u16, a: u16, b: u16, kind: CmpKind) {
    let (a0, b0, d0) = (a as usize * w, b as usize * w, dst as usize * w);
    for x in 0..w {
        let va = regs[a0 + x];
        let vb = regs[b0 + x];
        let r = match kind {
            CmpKind::Eq => va == vb,
            CmpKind::Ne => va != vb,
            CmpKind::Lt => va < vb,
            CmpKind::Le => va <= vb,
            CmpKind::Gt => va > vb,
            CmpKind::Ge => va >= vb,
        };
        regs[d0 + x] = r as u8 as f64;
    }
}

/// Elementwise fused multiply–accumulate over register strips.
#[inline]
fn mul_acc_strip(regs: &mut [f64], w: usize, dst: u16, a: u16, b: u16, c: u16, kind: MaKind) {
    let (a0, b0, c0, d0) = (
        a as usize * w,
        b as usize * w,
        c as usize * w,
        dst as usize * w,
    );
    for x in 0..w {
        regs[d0 + x] = mul_acc(kind, regs[a0 + x], regs[b0 + x], regs[c0 + x]);
    }
}

/// Execute one non-memory instruction (shared by the prelude and the
/// per-cell body so they cannot diverge).
#[inline]
pub fn exec_scalar_instr(instr: &Instr, regs: &mut [f64], coords: &[i64], scalars: &[f64]) {
    match *instr {
        Instr::Const { dst, val } => regs[dst as usize] = val,
        Instr::Arg { dst, arg } => regs[dst as usize] = scalars[arg as usize],
        Instr::Coord { dst, dim } => regs[dst as usize] = coords[dim as usize] as f64,
        Instr::Bin { dst, kind, a, b } => {
            let x = regs[a as usize];
            let y = regs[b as usize];
            regs[dst as usize] = match kind {
                BinKind::Add => x + y,
                BinKind::Sub => x - y,
                BinKind::Mul => x * y,
                BinKind::Div => x / y,
                BinKind::Min => x.min(y),
                BinKind::Max => x.max(y),
                BinKind::Pow => x.powf(y),
                BinKind::Atan2 => x.atan2(y),
                BinKind::CopySign => x.copysign(y),
                BinKind::Rem => x % y,
            };
        }
        Instr::Un { dst, kind, a } => {
            let x = regs[a as usize];
            regs[dst as usize] = match kind {
                UnKind::Neg => -x,
                UnKind::Sqrt => x.sqrt(),
                UnKind::Abs => x.abs(),
                UnKind::Exp => x.exp(),
                UnKind::Log => x.ln(),
                UnKind::Sin => x.sin(),
                UnKind::Cos => x.cos(),
                UnKind::Tanh => x.tanh(),
                UnKind::Trunc => x.trunc(),
            };
        }
        Instr::Cmp { dst, kind, a, b } => {
            let x = regs[a as usize];
            let y = regs[b as usize];
            let r = match kind {
                CmpKind::Eq => x == y,
                CmpKind::Ne => x != y,
                CmpKind::Lt => x < y,
                CmpKind::Le => x <= y,
                CmpKind::Gt => x > y,
                CmpKind::Ge => x >= y,
            };
            regs[dst as usize] = r as u8 as f64;
        }
        Instr::Select { dst, c, a, b } => {
            regs[dst as usize] = if regs[c as usize] != 0.0 {
                regs[a as usize]
            } else {
                regs[b as usize]
            };
        }
        Instr::MulAdd { dst, a, b, c, kind } => {
            regs[dst as usize] =
                mul_acc(kind, regs[a as usize], regs[b as usize], regs[c as usize]);
        }
        Instr::Load { .. } | Instr::Store { .. } | Instr::BinLoad { .. } => {
            unreachable!("memory instructions handled by the callers")
        }
    }
}

/// A compiled straight-line kernel body.
#[derive(Debug, Clone, Default)]
pub struct BodyProgram {
    /// Instructions in execution order.
    pub instrs: Vec<Instr>,
    /// Cell-invariant prefix length: the first `prelude_len` instructions
    /// (constants, scalar arguments) execute once per kernel run
    /// ([`BodyProgram::run_prelude`]), the rest once per cell.
    pub prelude_len: usize,
    /// Register file size.
    pub num_regs: u16,
    /// Floating point ops per cell (for throughput/GPU modelling).
    pub flops_per_cell: u64,
    /// Array loads per cell.
    pub loads_per_cell: u64,
    /// Array stores per cell.
    pub stores_per_cell: u64,
}

impl BodyProgram {
    /// Execute the cell-invariant prelude (constants, scalar arguments)
    /// into the register file, once per kernel run.
    pub fn run_prelude(&self, regs: &mut [f64], scalars: &[f64]) {
        for instr in &self.instrs[..self.prelude_len] {
            exec_scalar_instr(instr, regs, &[], scalars);
        }
    }

    /// The per-cell instruction slice (after the prelude).
    #[inline]
    pub fn cell_instrs(&self) -> &[Instr] {
        &self.instrs[self.prelude_len..]
    }

    /// Execute the per-cell body (prelude assumed already applied).
    #[inline]
    #[allow(clippy::too_many_arguments)] // VM entry point: the argument list *is* the machine state.
    pub fn run_cell_body(
        &self,
        regs: &mut [f64],
        inputs: &[&[f64]],
        outputs: &mut [&mut [f64]],
        out_view_map: &[Option<u16>],
        cursors: &[i64],
        coords: &[i64],
        scalars: &[f64],
    ) {
        for instr in self.cell_instrs() {
            match *instr {
                Instr::Load { dst, view, off } => {
                    let idx = (cursors[view as usize] + off) as usize;
                    regs[dst as usize] = inputs[view as usize][idx];
                }
                Instr::Store { view, off, src } => {
                    let slot = out_view_map[view as usize]
                        .expect("store to a view that is not an output")
                        as usize;
                    let idx = (cursors[view as usize] + off) as usize;
                    outputs[slot][idx] = regs[src as usize];
                }
                Instr::BinLoad {
                    dst,
                    kind,
                    a,
                    view,
                    off,
                    load_left,
                } => {
                    let idx = (cursors[view as usize] + off) as usize;
                    let m = inputs[view as usize][idx];
                    let r = regs[a as usize];
                    regs[dst as usize] = if load_left {
                        bin_eval(kind, m, r)
                    } else {
                        bin_eval(kind, r, m)
                    };
                }
                ref other => exec_scalar_instr(other, regs, coords, scalars),
            }
        }
    }

    /// Execute the per-cell body over a *strip* of `w` consecutive
    /// innermost-dimension cells at once — the vector-VM realisation of the
    /// `scf-parallel-loop-specialization` (vectorisation) step in the CPU
    /// pipeline. Each register becomes a strip of `w` lanes; elementwise
    /// loops over plain slices let LLVM vectorise them.
    ///
    /// Requires every view's innermost stride to be 1 (the caller checks).
    /// `regs` has `num_regs * w` elements; `cursors[v]` addresses the strip
    /// start; `coord0` is the global dim-0 coordinate of lane 0.
    #[allow(clippy::too_many_arguments)]
    pub fn run_strip(
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
    ) {
        let lane = |r: u16| (r as usize) * w..(r as usize) * w + w;
        for instr in self.cell_instrs() {
            match *instr {
                Instr::Load { dst, view, off } => {
                    let base = (cursors[view as usize] + off) as usize;
                    let src = &inputs[view as usize][base..base + w];
                    regs[lane(dst)].copy_from_slice(src);
                }
                Instr::Store { view, off, src } => {
                    let slot = out_view_map[view as usize]
                        .expect("store to a view that is not an output")
                        as usize;
                    let base = (cursors[view as usize] + off) as usize;
                    outputs[slot][base..base + w].copy_from_slice(&regs[lane(src)]);
                }
                Instr::Const { dst, val } => regs[lane(dst)].fill(val),
                Instr::Arg { dst, arg } => regs[lane(dst)].fill(scalars[arg as usize]),
                Instr::Coord { dst, dim } => {
                    if dim == 0 {
                        for (x, r) in regs[lane(dst)].iter_mut().enumerate() {
                            *r = (coord0 + x as i64) as f64;
                        }
                    } else {
                        regs[lane(dst)].fill(coords[dim as usize] as f64);
                    }
                }
                Instr::Bin { dst, kind, a, b } => {
                    binary_strip(regs, w, dst, a, b, kind);
                }
                Instr::Un { dst, kind, a } => {
                    unary_strip(regs, w, dst, a, kind);
                }
                Instr::Cmp { dst, kind, a, b } => {
                    cmp_strip(regs, w, dst, a, b, kind);
                }
                Instr::Select { dst, c, a, b } => {
                    for x in 0..w {
                        let cv = regs[c as usize * w + x];
                        regs[dst as usize * w + x] = if cv != 0.0 {
                            regs[a as usize * w + x]
                        } else {
                            regs[b as usize * w + x]
                        };
                    }
                }
                Instr::MulAdd { dst, a, b, c, kind } => {
                    mul_acc_strip(regs, w, dst, a, b, c, kind);
                }
                Instr::BinLoad {
                    dst,
                    kind,
                    a,
                    view,
                    off,
                    load_left,
                } => {
                    let base = (cursors[view as usize] + off) as usize;
                    let mem = &inputs[view as usize][base..base + w];
                    let (a0, d0) = (a as usize * w, dst as usize * w);
                    for x in 0..w {
                        let m = mem[x];
                        let r = regs[a0 + x];
                        regs[d0 + x] = if load_left {
                            bin_eval(kind, m, r)
                        } else {
                            bin_eval(kind, r, m)
                        };
                    }
                }
            }
        }
    }

    /// Fill strip lanes of the prelude registers (constants / scalar args),
    /// once per kernel run in strip mode.
    pub fn run_prelude_strip(&self, regs: &mut [f64], w: usize, scalars: &[f64]) {
        for instr in &self.instrs[..self.prelude_len] {
            match *instr {
                Instr::Const { dst, val } => {
                    regs[dst as usize * w..dst as usize * w + w].fill(val);
                }
                Instr::Arg { dst, arg } => {
                    regs[dst as usize * w..dst as usize * w + w].fill(scalars[arg as usize]);
                }
                _ => unreachable!("prelude holds only Const/Arg"),
            }
        }
    }

    /// Hoist the cell-invariant prefix: stable-partition `Const`/`Arg`
    /// instructions to the front and record the prelude length. Register
    /// assignments are unaffected (registers persist across the split).
    pub fn hoist_invariants(&mut self) {
        let (prelude, body): (Vec<Instr>, Vec<Instr>) = self
            .instrs
            .drain(..)
            .partition(|i| matches!(i, Instr::Const { .. } | Instr::Arg { .. }));
        self.prelude_len = prelude.len();
        self.instrs = prelude;
        self.instrs.extend(body);
    }

    /// Recompute the per-cell statistics from the instruction stream.
    ///
    /// Flops follow the paper's GFLOP/s convention: the **algorithmic**
    /// operation count of the source statements. CSE may have merged a
    /// subexpression shared by several stores into one instruction, so each
    /// instruction is weighted by how many times the store chains consume
    /// it (its use multiplicity under full re-expansion — the stream is
    /// SSA, every register written exactly once, so one reverse pass
    /// suffices). Loads and stores stay plain stream counts: bytes measure
    /// what the machine actually moves, and a CSE'd load is read once.
    ///
    /// Superinstructions count the same as the ops they fuse: `MulAdd` is
    /// two flops, `BinLoad` one flop and one load — so fusion never skews
    /// accounting (it only ever fuses single-use values).
    pub fn finalize_stats(&mut self) {
        let mut mult = vec![0u64; self.num_regs as usize];
        let mut flops = 0u64;
        for i in self.instrs.iter().rev() {
            match *i {
                Instr::Store { src, .. } => mult[src as usize] += 1,
                Instr::Bin { dst, a, b, .. } | Instr::Cmp { dst, a, b, .. } => {
                    let m = mult[dst as usize];
                    flops += m;
                    mult[a as usize] += m;
                    mult[b as usize] += m;
                }
                Instr::Un { dst, a, .. } => {
                    let m = mult[dst as usize];
                    flops += m;
                    mult[a as usize] += m;
                }
                Instr::Select { dst, c, a, b } => {
                    let m = mult[dst as usize];
                    mult[c as usize] += m;
                    mult[a as usize] += m;
                    mult[b as usize] += m;
                }
                Instr::MulAdd { dst, a, b, c, .. } => {
                    let m = mult[dst as usize];
                    flops += 2 * m;
                    mult[a as usize] += m;
                    mult[b as usize] += m;
                    mult[c as usize] += m;
                }
                Instr::BinLoad { dst, a, .. } => {
                    let m = mult[dst as usize];
                    flops += m;
                    mult[a as usize] += m;
                }
                Instr::Const { .. }
                | Instr::Arg { .. }
                | Instr::Coord { .. }
                | Instr::Load { .. } => {}
            }
        }
        self.flops_per_cell = flops;
        self.loads_per_cell = self
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Load { .. } | Instr::BinLoad { .. }))
            .count() as u64;
        self.stores_per_cell = self
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Store { .. }))
            .count() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run a tiny program: out[c] = 0.5 * (in[c-1] + in[c+1]).
    #[test]
    fn one_dim_average() {
        let mut p = BodyProgram {
            instrs: vec![
                Instr::Const { dst: 0, val: 0.5 },
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
                    kind: BinKind::Mul,
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
        assert_eq!(p.flops_per_cell, 2);
        assert_eq!(p.loads_per_cell, 2);
        assert_eq!(p.stores_per_cell, 1);

        let input = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        let mut output = vec![0.0; 5];
        let mut regs = vec![0.0; 5];
        p.hoist_invariants();
        assert_eq!(p.prelude_len, 1);
        p.run_prelude(&mut regs, &[]);
        for c in 1..4i64 {
            let inputs: Vec<&[f64]> = vec![&input, &[]];
            let mut outs: Vec<&mut [f64]> = vec![&mut output];
            p.run_cell_body(
                &mut regs,
                &inputs,
                &mut outs,
                &[None, Some(0)],
                &[c, c],
                &[c],
                &[],
            );
        }
        assert_eq!(output, vec![0.0, 1.0, 2.0, 3.0, 0.0]);
    }

    #[test]
    fn coord_and_scalar_args() {
        let mut p = BodyProgram {
            instrs: vec![
                Instr::Coord { dst: 0, dim: 0 },
                Instr::Arg { dst: 1, arg: 0 },
                Instr::Bin {
                    dst: 2,
                    kind: BinKind::Mul,
                    a: 0,
                    b: 1,
                },
                Instr::Store {
                    view: 0,
                    off: 0,
                    src: 2,
                },
            ],
            num_regs: 3,
            ..Default::default()
        };
        p.finalize_stats();
        let mut output = vec![0.0; 4];
        let mut regs = vec![0.0; 3];
        p.hoist_invariants();
        p.run_prelude(&mut regs, &[2.0]);
        for c in 0..4i64 {
            let inputs: Vec<&[f64]> = vec![&[]];
            let mut outs: Vec<&mut [f64]> = vec![&mut output];
            p.run_cell_body(
                &mut regs,
                &inputs,
                &mut outs,
                &[Some(0)],
                &[c],
                &[c],
                &[2.0],
            );
        }
        assert_eq!(output, vec![0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn select_and_cmp() {
        let mut p = BodyProgram {
            instrs: vec![
                Instr::Const { dst: 0, val: 3.0 },
                Instr::Const { dst: 1, val: 5.0 },
                Instr::Cmp {
                    dst: 2,
                    kind: CmpKind::Lt,
                    a: 0,
                    b: 1,
                },
                Instr::Select {
                    dst: 3,
                    c: 2,
                    a: 0,
                    b: 1,
                },
                Instr::Store {
                    view: 0,
                    off: 0,
                    src: 3,
                },
            ],
            num_regs: 4,
            ..Default::default()
        };
        p.hoist_invariants();
        let mut output = vec![0.0];
        let mut regs = vec![0.0; 4];
        let inputs: Vec<&[f64]> = vec![&[]];
        let mut outs: Vec<&mut [f64]> = vec![&mut output];
        p.run_prelude(&mut regs, &[]);
        p.run_cell_body(&mut regs, &inputs, &mut outs, &[Some(0)], &[0], &[0], &[]);
        assert_eq!(output[0], 3.0);
    }

    #[test]
    fn unary_math() {
        let mut p = BodyProgram {
            instrs: vec![
                Instr::Const { dst: 0, val: 16.0 },
                Instr::Un {
                    dst: 1,
                    kind: UnKind::Sqrt,
                    a: 0,
                },
                Instr::Store {
                    view: 0,
                    off: 0,
                    src: 1,
                },
            ],
            num_regs: 2,
            ..Default::default()
        };
        p.hoist_invariants();
        let mut output = vec![0.0];
        let mut regs = vec![0.0; 2];
        let inputs: Vec<&[f64]> = vec![&[]];
        let mut outs: Vec<&mut [f64]> = vec![&mut output];
        p.run_prelude(&mut regs, &[]);
        p.run_cell_body(&mut regs, &inputs, &mut outs, &[Some(0)], &[0], &[0], &[]);
        assert_eq!(output[0], 4.0);
    }
}
