//! Structured, source-located diagnostics shared by every compiler layer.
//!
//! One [`Diagnostic`] describes one thing that went wrong (or is worth
//! saying) about some input: a severity, a *stable* error code from the
//! registry below, a human message, an optional source [`Span`], and
//! follow-up notes. The frontend accumulates them (parser error recovery
//! reports many per file), the pass pipeline attaches them to rollback
//! reports, and the MPI substrate threads them through rank failures so a
//! distributed run surfaces the originating compiler error instead of a
//! bare panic string.
//!
//! Error codes are append-only: tests (and the golden diagnostics suite
//! under `tests/diagnostics/`) key on them, so a code's meaning never
//! changes; new failure modes get new codes.

use std::fmt;

/// A location in source text (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl Span {
    /// New span at `line:col` (both 1-based).
    pub fn new(line: u32, col: u32) -> Self {
        Self { line, col }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Compilation cannot produce a correct result.
    Error,
    /// Suspicious but not fatal.
    Warning,
    /// Attached context (also used for degradation attestations).
    Note,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        })
    }
}

/// A single structured diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Stable code from the registry (e.g. `E0101`).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Source location, when one is known.
    pub span: Option<Span>,
    /// Follow-up notes (rendered indented under the main line).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A new error diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            severity: Severity::Error,
            code,
            message: message.into(),
            span: None,
            notes: Vec::new(),
        }
    }

    /// A new warning diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            severity: Severity::Warning,
            ..Self::error(code, message)
        }
    }

    /// A new note diagnostic.
    pub fn note_diag(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            severity: Severity::Note,
            ..Self::error(code, message)
        }
    }

    /// Attach a source location.
    pub fn at(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Attach a source location from 1-based line/column.
    pub fn at_line_col(self, line: u32, col: u32) -> Self {
        self.at(Span::new(line, col))
    }

    /// Append a follow-up note.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Render in the stable single-header format used by the golden suite:
    ///
    /// ```text
    /// error[E0101] line 3:14: expected ')' in argument list
    ///   note: argument lists are comma separated
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        match self.span {
            Some(s) => {
                out.push_str(&format!(
                    "{}[{}] line {}: {}",
                    self.severity, self.code, s, self.message
                ));
            }
            None => {
                out.push_str(&format!(
                    "{}[{}]: {}",
                    self.severity, self.code, self.message
                ));
            }
        }
        for n in &self.notes {
            out.push_str("\n  note: ");
            out.push_str(n);
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Render a batch of diagnostics, one per line block, in input order.
pub fn render_all(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(Diagnostic::render)
        .collect::<Vec<_>>()
        .join("\n")
}

/// The stable error-code registry.
///
/// Grouped by compiler layer; codes are append-only (see module docs).
pub mod codes {
    /// Lexer: unexpected character.
    pub const LEX_UNEXPECTED_CHAR: &str = "E0001";
    /// Lexer: malformed numeric or logical literal.
    pub const LEX_BAD_LITERAL: &str = "E0002";
    /// Parser: unexpected token.
    pub const PARSE_UNEXPECTED_TOKEN: &str = "E0101";
    /// Parser: a specific token/keyword was required.
    pub const PARSE_EXPECTED: &str = "E0102";
    /// Parser: unit/block not closed (`end` missing).
    pub const PARSE_UNTERMINATED: &str = "E0103";
    /// Parser: no program units in the file.
    pub const PARSE_EMPTY_SOURCE: &str = "E0104";
    /// Parser: malformed declaration.
    pub const PARSE_BAD_DECL: &str = "E0105";
    /// Parser: an expression nests deeper than the frontend's bound.
    pub const PARSE_EXPR_TOO_DEEP: &str = "E0106";
    /// Sema: name used but not declared.
    pub const SEMA_UNDECLARED: &str = "E0201";
    /// Sema: name declared twice.
    pub const SEMA_DUPLICATE: &str = "E0202";
    /// Sema: array rank mismatch.
    pub const SEMA_RANK_MISMATCH: &str = "E0203";
    /// Sema: type misuse (logical arithmetic, non-integer do variable, ...).
    pub const SEMA_TYPE: &str = "E0204";
    /// Sema: constant expression cannot be folded.
    pub const SEMA_CONST_FOLD: &str = "E0205";
    /// Sema: allocate/deallocate misuse.
    pub const SEMA_ALLOC: &str = "E0206";
    /// Sema: intrinsic called with the wrong number of arguments.
    pub const SEMA_INTRINSIC_ARITY: &str = "E0207";
    /// Sema: call target does not exist.
    pub const SEMA_UNKNOWN_CALL: &str = "E0208";
    /// Textual IR parser: syntax error.
    pub const IRPARSE_SYNTAX: &str = "E0301";
    /// Textual IR parser: use of an undefined SSA value.
    pub const IRPARSE_UNDEFINED_VALUE: &str = "E0302";
    /// Textual IR parser: operand/result count disagrees with signature.
    pub const IRPARSE_SIGNATURE: &str = "E0303";
    /// Textual IR parser: malformed or unknown type.
    pub const IRPARSE_TYPE: &str = "E0304";
    /// Textual IR parser: nesting exceeds the parser's depth bound.
    pub const IRPARSE_TOO_DEEP: &str = "E0305";
    /// Verifier: structural SSA violation.
    pub const VERIFY_STRUCTURAL: &str = "E0401";
    /// Verifier: dialect invariant violation.
    pub const VERIFY_DIALECT: &str = "E0402";
    /// Pass returned an error.
    pub const PASS_FAILED: &str = "E0501";
    /// Pass panicked (caught by the hardened pipeline).
    pub const PASS_PANICKED: &str = "E0502";
    /// Verifier rejected the module a pass produced.
    pub const PASS_BROKE_IR: &str = "E0503";
    /// Frontend lowering error.
    pub const LOWER: &str = "E0601";
    /// Kernel compilation error.
    pub const KERNEL: &str = "E0602";
    /// Runtime execution error.
    pub const EXEC: &str = "E0701";
    /// Pass option rejected (out-of-range or malformed value).
    pub const PASS_BAD_OPTION: &str = "E0504";
    /// Plan cache unreadable (missing/corrupt/unsupported version) —
    /// execution falls back to default plans.
    pub const PLAN_CACHE: &str = "E0702";
    /// Autotune calibration failed or was skipped — default plan kept.
    pub const AUTOTUNE: &str = "E0703";
    /// Jit stitching skipped this nest; it runs on the fused VM tier
    /// (warning — degradation, not failure).
    pub const JIT_FALLBACK: &str = "E0705";
    /// Process grid does not divide the interior extent of a decomposed
    /// dimension.
    pub const DMP_DECOMPOSITION: &str = "E0505";
    /// Process grid is oversubscribed: more ranks than interior cells on a
    /// halo-carrying decomposed dimension, so most ranks would idle while
    /// the rest cannot hold a full halo. (A single rank is always legal —
    /// it trivially owns the whole, possibly empty, domain.)
    pub const DMP_OVERSUBSCRIBED: &str = "E0506";
    /// Compile server at capacity: the request was rejected by admission
    /// control instead of being queued (retry with backoff).
    pub const SERVER_BUSY: &str = "E0801";
    /// Compile server received a malformed or unsupported request.
    pub const SERVER_PROTOCOL: &str = "E0802";
    /// Compile server deadline exceeded: the request's compile/run budget
    /// ran out before a result was produced. The singleflight slot is
    /// reclaimed so waiting requests are promoted, never wedged.
    pub const SERVER_DEADLINE: &str = "E0803";
    /// Compile server worker crashed (panicked outside any catch_unwind)
    /// while holding the request; the supervisor answered the client and
    /// respawned the worker.
    pub const SERVER_WORKER_CRASH: &str = "E0804";
    /// Memory budget exhausted: a buffer allocation would exceed the
    /// request's byte ledger (or the host refused the reservation), so the
    /// request fails with a coded error instead of aborting the process.
    pub const MEM_BUDGET: &str = "E0805";
    /// Compile server rejected a request at admission: its static memory
    /// estimate could not be reserved against the server-wide budget, even
    /// after memory-pressure degradation and a bounded parking wait.
    pub const SERVER_MEM_REJECT: &str = "E0806";
    /// Extent arithmetic overflowed while computing a buffer or view size
    /// (element counts near `usize::MAX`); the computation is rejected with
    /// a coded error instead of wrapping silently.
    pub const EXTENT_OVERFLOW: &str = "E0807";

    /// One-line description of a code, for docs and `--explain`-style
    /// output. Returns `None` for unknown codes.
    pub fn describe(code: &str) -> Option<&'static str> {
        Some(match code {
            "E0001" => "unexpected character in source",
            "E0002" => "malformed literal",
            "E0101" => "unexpected token",
            "E0102" => "expected a specific token or keyword",
            "E0103" => "unterminated construct (missing end)",
            "E0104" => "no program units in source",
            "E0105" => "malformed declaration",
            "E0106" => "expression nests deeper than the frontend's bound",
            "E0201" => "name used but not declared",
            "E0202" => "name declared twice",
            "E0203" => "array rank mismatch",
            "E0204" => "type misuse",
            "E0205" => "constant expression cannot be folded",
            "E0206" => "allocate/deallocate misuse",
            "E0207" => "intrinsic arity mismatch",
            "E0208" => "call to unknown subroutine",
            "E0301" => "textual IR syntax error",
            "E0302" => "use of undefined SSA value in textual IR",
            "E0303" => "textual IR signature mismatch",
            "E0304" => "malformed or unknown type in textual IR",
            "E0305" => "textual IR nesting exceeds depth bound",
            "E0401" => "structural SSA verification failure",
            "E0402" => "dialect invariant verification failure",
            "E0501" => "pass returned an error",
            "E0502" => "pass panicked",
            "E0503" => "pass produced IR the verifier rejects",
            "E0504" => "pass option rejected",
            "E0505" => "process grid does not divide a decomposed extent",
            "E0506" => "more ranks than cells on a halo-carrying dimension",
            "E0601" => "frontend lowering error",
            "E0602" => "kernel compilation error",
            "E0701" => "runtime execution error",
            "E0702" => "plan cache unreadable; default plans used",
            "E0703" => "autotune calibration failed; default plan kept",
            "E0705" => "jit stitching skipped; nest runs on the fused VM",
            "E0801" => "compile server at capacity; request rejected",
            "E0802" => "malformed or unsupported server request",
            "E0803" => "compile server deadline exceeded; slot reclaimed",
            "E0804" => "compile server worker crashed; worker respawned",
            "E0805" => "allocation denied: memory budget exhausted",
            "E0806" => "compile server rejected request: memory reservation unavailable",
            "E0807" => "extent arithmetic overflow in size computation",
            _ => return None,
        })
    }

    /// Every registered code, for exhaustiveness tests.
    pub const ALL: &[&str] = &[
        "E0001", "E0002", "E0101", "E0102", "E0103", "E0104", "E0105", "E0106", "E0201", "E0202",
        "E0203", "E0204", "E0205", "E0206", "E0207", "E0208", "E0301", "E0302", "E0303", "E0304",
        "E0305", "E0401", "E0402", "E0501", "E0502", "E0503", "E0504", "E0505", "E0506", "E0601",
        "E0602", "E0701", "E0702", "E0703", "E0705", "E0801", "E0802", "E0803", "E0804", "E0805",
        "E0806", "E0807",
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_with_span_and_notes() {
        let d = Diagnostic::error(codes::PARSE_EXPECTED, "expected ')'")
            .at_line_col(3, 14)
            .note("argument lists are comma separated");
        assert_eq!(
            d.render(),
            "error[E0102] line 3:14: expected ')'\n  note: argument lists are comma separated"
        );
    }

    #[test]
    fn render_without_span() {
        let d = Diagnostic::warning(codes::PASS_FAILED, "pass skipped");
        assert_eq!(d.render(), "warning[E0501]: pass skipped");
    }

    #[test]
    fn every_code_is_described_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for &c in codes::ALL {
            assert!(codes::describe(c).is_some(), "{c} lacks a description");
            assert!(seen.insert(c), "{c} listed twice");
        }
        assert!(codes::describe("E9999").is_none());
    }

    #[test]
    fn readme_registry_covers_every_code() {
        // The README's error-code table is the human-facing registry;
        // adding a code without documenting it there fails here.
        let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
        for &c in codes::ALL {
            assert!(
                readme.contains(&format!("`{c}`")),
                "{c} is registered but missing from the README error-code table"
            );
        }
    }

    #[test]
    fn render_all_joins_in_order() {
        let a = Diagnostic::error(codes::SEMA_UNDECLARED, "a");
        let b = Diagnostic::error(codes::SEMA_DUPLICATE, "b");
        let s = render_all(&[a, b]);
        assert!(s.starts_with("error[E0201]"));
        assert!(s.contains("\nerror[E0202]"));
    }
}
