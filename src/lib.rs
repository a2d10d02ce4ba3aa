//! # flang-stencil — reproduction of the SC23 Flang/MLIR stencil paper
//!
//! *"Fortran performance optimisation and auto-parallelisation by
//! leveraging MLIR-based domain specific abstractions in Flang"*
//! (Brown, Jamieson, Lydike, Bauer, Grosser — SC-W 2023).
//!
//! This crate re-exports the whole workspace; see README.md for the
//! architecture and DESIGN.md for the paper-to-module map.
//!
//! ```
//! use flang_stencil::core::{CompileOptions, Compiler, Target};
//!
//! let source = flang_stencil::workloads::gauss_seidel::fortran_source(8, 2);
//! let opts = CompileOptions { target: Target::StencilCpu, ..Default::default() };
//! let run = Compiler::run(&source, &opts).unwrap();
//! assert!(run.array("u").is_some());
//! ```

pub use fsc_baselines as baselines;
pub use fsc_core as core;
pub use fsc_dialects as dialects;
pub use fsc_exec as exec;
pub use fsc_fortran as fortran;
pub use fsc_gpusim as gpusim;
pub use fsc_ir as ir;
pub use fsc_mpisim as mpisim;
pub use fsc_passes as passes;
pub use fsc_workloads as workloads;
