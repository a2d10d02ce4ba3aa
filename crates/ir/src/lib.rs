//! # fsc-ir — an arena-based SSA IR framework
//!
//! This crate is a from-scratch, pure-Rust substitute for the slice of
//! MLIR/xDSL infrastructure that the SC23 paper *"Fortran performance
//! optimisation and auto-parallelisation by leveraging MLIR-based domain
//! specific abstractions in Flang"* depends on.
//!
//! The design mirrors MLIR's recursive structure:
//!
//! * a [`Module`] owns arenas of operations, blocks, regions and values;
//! * an [`OpId`] refers to an operation with a dialect-qualified name
//!   (e.g. `fir.store`, `stencil.apply`), operands, results, attributes and
//!   nested regions;
//! * a [`RegionId`] holds an ordered list of [`BlockId`]s, each with block
//!   arguments and an ordered list of operations;
//! * [`Type`]s and [`Attribute`]s are plain value-semantic enums (we trade
//!   MLIR's uniqued contexts for simplicity — our IRs are small enough that
//!   structural equality is cheap).
//!
//! On top of this sit a [`builder::OpBuilder`] for construction, a generic
//! textual [`print`](crate::print)er and [`parse`](crate::parse)r that round-trip, a structural
//! [`verifier`], a [`pass::PassManager`], and rewrite helpers used by the
//! stencil discovery and lowering passes.
//!
//! Unlike MLIR there is no dynamic dialect loading: the dialect *semantics*
//! (op builders, verifiers, canonicalisation patterns) live in the
//! `fsc-dialects` and `fsc-passes` crates, while this crate stays agnostic
//! and treats every op generically — exactly the property that lets the
//! paper's passes mix `fir`, `stencil` and standard dialects in one module.

// Every layer above builds on this crate, on input-derived IR and text: a
// failure here is an `IrError`, or an assertion that names the invariant a
// caller broke. Keep the lint pressure on in non-test code.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod attributes;
pub mod builder;
pub mod diag;
pub mod ftoa;
pub mod hash;
pub mod hist;
pub mod json;
pub mod module;
pub mod par;
pub mod parse;
pub mod pass;
pub mod print;
pub mod rewrite;
pub mod types;
pub mod verifier;
pub mod walk;

pub use attributes::Attribute;
pub use builder::OpBuilder;
pub use diag::{Diagnostic, Severity, Span};
pub use module::{BlockId, Module, OpId, OpName, RegionId, ValueDef, ValueId};
pub use pass::{Pass, PassError, PassManager, PassResult};
pub use types::Type;

/// A located error produced anywhere in the compiler stack.
///
/// `message` is the legacy flat rendering; `diagnostics` carries the
/// structured, source-located form (possibly several per error — the
/// frontend recovers at statement boundaries and reports every problem it
/// finds). Code that only has a string keeps working via [`IrError::new`];
/// code that has structure should build with [`IrError::from_diagnostic`]
/// or [`IrError::from_diagnostics`] so downstream layers (pipeline
/// degradation reports, distributed rank errors) can surface codes and
/// spans instead of prose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Structured diagnostics backing this error (may be empty for legacy
    /// string-only errors).
    pub diagnostics: Vec<Diagnostic>,
}

impl IrError {
    /// Create a new error with the given message and no structured
    /// diagnostics.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Create an error backed by one structured diagnostic; the flat
    /// message is the diagnostic's rendering.
    pub fn from_diagnostic(diag: Diagnostic) -> Self {
        Self {
            message: diag.render(),
            diagnostics: vec![diag],
        }
    }

    /// Create an error backed by a batch of diagnostics (e.g. everything
    /// parser recovery collected for one file). Panics never: an empty
    /// batch degrades to a generic message.
    pub fn from_diagnostics(diags: Vec<Diagnostic>) -> Self {
        let message = if diags.is_empty() {
            "unknown error".to_string()
        } else {
            diag::render_all(&diags)
        };
        Self {
            message,
            diagnostics: diags,
        }
    }

    /// The first error-severity diagnostic, if any — the "primary" cause.
    pub fn primary(&self) -> Option<&Diagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
            .or(self.diagnostics.first())
    }
}

impl From<Diagnostic> for IrError {
    fn from(diag: Diagnostic) -> Self {
        Self::from_diagnostic(diag)
    }
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for IrError {}

/// Convenience alias used across the IR crates.
pub type Result<T> = std::result::Result<T, IrError>;
