//! Structured failures of the MPI-sim substrate.
//!
//! Every blocking wait in the runtime carries a deadline, and every way a
//! distributed run can go wrong surfaces as one of these variants instead
//! of a hang or an anonymous panic: the test suite (and CI) always gets a
//! diagnosis naming the rank, the peer, and the pending tag.

use fsc_ir::diag::{codes, Diagnostic};
use fsc_ir::IrError;
use std::fmt;

/// One rank's blocked operation, as seen by the deadlock watchdog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedRank {
    /// The blocked rank.
    pub rank: usize,
    /// Human-readable description of the pending operation, including the
    /// peer and tag (e.g. `recv(src=1, tag=7)` or `barrier`).
    pub op: String,
    /// How long the rank has been blocked, in milliseconds.
    pub blocked_ms: u64,
}

impl fmt::Display for BlockedRank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} blocked in {} for {}ms",
            self.rank, self.op, self.blocked_ms
        )
    }
}

/// A structured failure of a distributed run.
#[derive(Debug, Clone, PartialEq)]
pub enum MpiSimError {
    /// A blocking wait exceeded its deadline without the communicator being
    /// fully deadlocked (e.g. a peer is slow or never sends).
    Timeout {
        /// The rank whose wait expired.
        rank: usize,
        /// The operation that timed out (peer + tag included).
        op: String,
        /// How long the rank waited, in milliseconds.
        waited_ms: u64,
    },
    /// Every live rank is blocked and no message has been delivered for the
    /// watchdog's grace period: a true deadlock, with the complete table of
    /// stuck ranks and their pending operations.
    Deadlock {
        /// All blocked ranks at detection time.
        blocked: Vec<BlockedRank>,
    },
    /// A rank's body panicked; the panic was caught and the barrier
    /// poisoned so the surviving ranks error out instead of hanging.
    RankPanicked {
        /// The rank that panicked.
        rank: usize,
        /// The panic message.
        message: String,
    },
    /// The communicator was poisoned by another rank's failure; this rank
    /// aborted its blocking wait as a consequence.
    Poisoned {
        /// The rank whose failure poisoned the communicator.
        by_rank: usize,
        /// Why the communicator was poisoned.
        reason: String,
    },
    /// The resilient protocol retransmitted a message up to its retry bound
    /// without ever seeing an acknowledgement.
    RetriesExhausted {
        /// The sending rank.
        rank: usize,
        /// The destination rank.
        dest: usize,
        /// The user tag of the unacknowledged message.
        tag: i64,
        /// Send attempts made (first transmission + retries).
        attempts: u32,
    },
    /// A rank's body hit a compiler error (an [`IrError`] escaping a kernel
    /// compile or interpretation step). The diagnostics are carried through
    /// structurally so the driving layer can render coded errors naming the
    /// failing rank instead of a flattened panic string.
    CompileFailure {
        /// The rank on which the compiler error surfaced.
        rank: usize,
        /// The structured diagnostics of the underlying compile error.
        diagnostics: Vec<Diagnostic>,
    },
    /// A configuration error (bad fault plan, crash without a checkpoint,
    /// invalid partition arguments).
    InvalidConfig(String),
}

impl fmt::Display for MpiSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Timeout {
                rank,
                op,
                waited_ms,
            } => write!(f, "rank {rank}: {op} timed out after {waited_ms}ms"),
            Self::Deadlock { blocked } => {
                write!(f, "deadlock across {} rank(s): ", blocked.len())?;
                for (i, b) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{b}")?;
                }
                Ok(())
            }
            Self::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            Self::Poisoned { by_rank, reason } => {
                write!(f, "communicator poisoned by rank {by_rank}: {reason}")
            }
            Self::RetriesExhausted {
                rank,
                dest,
                tag,
                attempts,
            } => write!(
                f,
                "rank {rank}: message to rank {dest} (tag {tag}) unacknowledged after {attempts} attempts"
            ),
            Self::CompileFailure { rank, diagnostics } => {
                write!(f, "rank {rank}: compiler error")?;
                for d in diagnostics {
                    write!(f, "\n  {}", d.render())?;
                }
                Ok(())
            }
            Self::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for MpiSimError {}

impl MpiSimError {
    /// Severity used to pick the root cause when several ranks fail at
    /// once: cascading poison errors rank below the failure that caused
    /// them.
    pub(crate) fn root_cause_priority(&self) -> u8 {
        match self {
            Self::CompileFailure { .. } => 0,
            Self::RankPanicked { .. } => 1,
            Self::Deadlock { .. } => 2,
            Self::RetriesExhausted { .. } => 3,
            Self::Timeout { .. } => 4,
            Self::InvalidConfig(_) => 5,
            Self::Poisoned { .. } => 6,
        }
    }

    /// Wrap a compiler error that surfaced on `rank`, preserving its
    /// structured diagnostics (or synthesising an `E0701` one when the
    /// error was string-only).
    pub fn compile_failure(rank: usize, err: IrError) -> Self {
        let diagnostics = if err.diagnostics.is_empty() {
            vec![Diagnostic::error(codes::EXEC, err.message)]
        } else {
            err.diagnostics
        };
        Self::CompileFailure { rank, diagnostics }
    }

    /// A broken invariant of the substrate itself on `rank`, coded `E0701`.
    pub(crate) fn internal(rank: usize, what: &str) -> Self {
        Self::compile_failure(rank, IrError::new(format!("mpisim internal error: {what}")))
    }

    /// Recover the structured compile error, if that is what this is: the
    /// inverse of [`MpiSimError::compile_failure`], used by the driving
    /// layer to re-raise rank failures as coded diagnostics.
    pub fn into_compile_error(self) -> Result<IrError, Self> {
        match self {
            Self::CompileFailure { rank, diagnostics } => {
                let diagnostics = diagnostics
                    .into_iter()
                    .map(|d| d.note(format!("surfaced on rank {rank} of a distributed run")))
                    .collect();
                Ok(IrError::from_diagnostics(diagnostics))
            }
            other => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlock_display_names_ranks_and_tags() {
        let e = MpiSimError::Deadlock {
            blocked: vec![
                BlockedRank {
                    rank: 0,
                    op: "recv(src=1, tag=99)".into(),
                    blocked_ms: 210,
                },
                BlockedRank {
                    rank: 1,
                    op: "recv(src=0, tag=98)".into(),
                    blocked_ms: 209,
                },
            ],
        };
        let s = e.to_string();
        assert!(s.contains("rank 0"), "{s}");
        assert!(s.contains("tag=99"), "{s}");
        assert!(s.contains("rank 1"), "{s}");
        assert!(s.contains("tag=98"), "{s}");
    }

    #[test]
    fn poison_ranks_below_origin_failures() {
        let panic = MpiSimError::RankPanicked {
            rank: 2,
            message: "boom".into(),
        };
        let poison = MpiSimError::Poisoned {
            by_rank: 2,
            reason: "rank 2 panicked".into(),
        };
        assert!(panic.root_cause_priority() < poison.root_cause_priority());
    }
}
