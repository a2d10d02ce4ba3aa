//! # fsc-baselines — the comparator implementations of §4
//!
//! The paper compares its stencil flow against four hand-built references;
//! this crate provides each as an honest, independently written
//! implementation:
//!
//! * [`cray`] — the "Cray compiler" tier: hand-optimised native Rust
//!   kernels over flat slices, written so LLVM auto-vectorises the
//!   unit-stride inner loops. This models a mature vendor compiler's
//!   single-core output (§4.2 notes Cray "undertakes considerably more
//!   vectorisation" than the stencil flow).
//! * [`openmp`] — the hand-written OpenMP versions of Figures 3–4: the same
//!   native kernels work-shared over `threads` workers by k-plane (the
//!   programmer *did* modify the code, unlike the automatic stencil path).
//! * [`openacc`] — the hand-ported OpenACC GPU baseline of Figure 5:
//!   executes the native kernel for correctness and charges the V100 model
//!   under unified (managed) memory, which is how the paper's OpenACC port
//!   behaved ("numerous data access stalls" from unified memory).
//! * [`mpi`] — the hand-parallelised MPI version of Figure 6, running real
//!   message passing on the `fsc-mpisim` rank runtime with a 2-D
//!   decomposition and per-iteration halo swaps.

pub mod cray;
pub mod mpi;
pub mod openacc;
pub mod openmp;
