//! # fsc-exec — execution engines for the compiled IR
//!
//! This crate plays the role of "LLVM backends + hardware" in the
//! reproduction. Two tiers exist deliberately, because the paper's central
//! measurement (Figures 2–4) is the gap between them:
//!
//! * [`interp`] — a straightforward op-by-op **FIR interpreter**. This is
//!   the *Flang-only* execution tier: every array access recomputes its full
//!   address, every op dispatches dynamically, nothing is fused or hoisted —
//!   a faithful stand-in for the unoptimised code Flang emitted at the time
//!   of the paper (which lowered FIR straight to LLVM-IR without the
//!   mid-level loop optimisations).
//! * [`kernel`] + [`bytecode`] — the **stencil tier**: lowered
//!   `scf`/`memref` loop nests are compiled once into flat register-machine
//!   bytecode with pre-computed strides and relative offsets, then executed
//!   over contiguous runs of the innermost (unit-stride) dimension —
//!   serially, as contiguous slabs fanned out over `threads` workers for
//!   the `omp` dialect (the calling thread is worker 0,
//!   [`fsc_ir::par::fan_out`]), or through the GPU performance model.
//!
//! Shared memory model: [`value::Memory`] owns flat `f64` buffers with
//! **column-major** linearisation (dimension 0 fastest), matching Fortran
//! array layout.

pub mod budget;
pub mod bytecode;
pub mod distexec;
pub mod interp;
pub mod jit;
pub mod kernel;
pub mod plan;
pub mod specialize;
pub mod value;

pub use budget::{MemoryBudget, MemoryEstimate};
pub use distexec::{DistMode, DistOptions, DistOutcome, DistSession, RankMetrics};
pub use interp::{Interpreter, RunStats};
pub use jit::{JitSkip, JitStats};
pub use kernel::{CompiledKernel, HaloSchedule, KernelArg, KernelStats};
pub use plan::ExecPlan;
pub use specialize::ExecPath;
pub use value::{BufId, Memory, Ref, Value};
