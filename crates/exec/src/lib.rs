//! # fsc-exec — execution engines for the compiled IR
//!
//! This crate plays the role of "LLVM backends + hardware" in the
//! reproduction. Two engines exist:
//!
//! * [`interp`] — a straightforward op-by-op **FIR interpreter**, the
//!   oracle every other way of running a program is checked against: every
//!   array access recomputes its full address, every op dispatches
//!   dynamically, nothing is fused or hoisted.
//! * [`kernel`] + [`bytecode`] — the **kernel engine**: lowered
//!   `scf`/`memref` loop nests are compiled once into flat register-machine
//!   bytecode with pre-computed strides and relative offsets, then executed
//!   over contiguous runs of the innermost (unit-stride) dimension —
//!   serially, as contiguous slabs over up to `threads` workers for the
//!   `omp` dialect, as many as the work repays (the calling thread is
//!   worker 0, [`fsc_ir::par::fan_out`]), or through the GPU model. The
//!   figures' "Flang only" line is this engine too: the unfused lift of
//!   the same loops on its generic VM ([`ExecPath::GenericVm`]).
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
pub mod wide;

pub use budget::{MemoryBudget, MemoryEstimate};
pub use distexec::{DistMode, DistOptions, DistOutcome, DistSession, RankMetrics};
pub use interp::{Interpreter, RunStats};
pub use jit::{JitSkip, JitStats};
pub use kernel::{CompiledKernel, HaloSchedule, KernelArg, KernelStats};
pub use plan::ExecPlan;
pub use specialize::ExecPath;
pub use value::{BufId, Memory, Ref, Value};
