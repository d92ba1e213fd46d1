//! Structured engine errors and anytime-answer completeness.
//!
//! The robustness layer never lets a sick server or an exhausted budget
//! abort a query: engines degrade to an *anytime answer* — the current
//! top-k heap — and report how complete it is. [`Completeness`] carries
//! the max-score certificate (the same bound `threshold.rs` exploits):
//! no answer missing from a truncated result can score above
//! `score_bound`.

use whirlpool_pattern::QNodeId;

/// The underlying cause of an [`EngineError::InvalidFaultSpec`]: the
/// malformed `--fault` specification itself, kept as its own
/// [`std::error::Error`] type so the chain survives
/// [`source`](std::error::Error::source)-walking error reporters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError {
    /// The specification text that failed to parse.
    pub spec: String,
}

impl FaultSpecError {
    /// Wraps the offending spec text.
    pub fn new(spec: impl Into<String>) -> Self {
        FaultSpecError { spec: spec.into() }
    }
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "malformed spec {:?} (expected server=<id>:<delay|fail|panic>@<n>, \
             delay n at most {} µs)",
            self.spec,
            crate::fault::MAX_INJECTED_DELAY.as_micros()
        )
    }
}

impl std::error::Error for FaultSpecError {}

/// An error raised inside an engine, router, or fault-injected server.
///
/// Engines never surface these to the caller as hard failures: a failed
/// server degrades its matches (see the crate docs on leaf-deletion
/// scoring) and the error is folded into the run's [`Completeness`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A server returned an injected (or real) failure after processing
    /// `after_ops` operations; its remaining work is degraded.
    ServerFailed {
        /// The query node whose server failed.
        server: QNodeId,
        /// Operations the server completed before failing.
        after_ops: u64,
    },
    /// A server thread panicked (poisoned mid-extension) and was
    /// isolated via `catch_unwind`.
    ServerPanicked {
        /// The query node whose server panicked.
        server: QNodeId,
    },
    /// A `--fault` specification could not be parsed. The offending
    /// spec is carried as the error's
    /// [`source`](std::error::Error::source).
    InvalidFaultSpec(FaultSpecError),
    /// A routing decision was requested for a match with no live
    /// unvisited server left.
    NoRouteAvailable,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ServerFailed { server, after_ops } => {
                write!(f, "server q{} failed after {} ops", server.0, after_ops)
            }
            EngineError::ServerPanicked { server } => {
                write!(f, "server q{} panicked", server.0)
            }
            EngineError::InvalidFaultSpec(cause) => {
                write!(f, "invalid fault spec: {cause}")
            }
            EngineError::NoRouteAvailable => {
                write!(f, "no live unvisited server to route to")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::InvalidFaultSpec(cause) => Some(cause),
            EngineError::ServerFailed { .. }
            | EngineError::ServerPanicked { .. }
            | EngineError::NoRouteAvailable => None,
        }
    }
}

/// How complete an evaluation's answer set is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Completeness {
    /// The run consumed all of its work: the answers are the true
    /// top-k (up to score ties).
    Exact,
    /// The run stopped early (deadline, op budget, or server failure)
    /// and returned the current top-k heap as an anytime answer.
    Truncated {
        /// Partial matches abandoned unprocessed (dropped from queues)
        /// plus matches completed through degradation.
        pending_matches: u64,
        /// Max-score certificate: no answer absent from the returned
        /// set — and no better score for a returned root — can exceed
        /// this bound. Computed as the maximum `max_final` over every
        /// abandoned or degraded match, joined with the best returned
        /// score.
        score_bound: f64,
    },
}

impl Completeness {
    /// Is the answer set the true top-k?
    pub fn is_exact(&self) -> bool {
        matches!(self, Completeness::Exact)
    }

    /// The certificate bound, if the run was truncated.
    pub fn score_bound(&self) -> Option<f64> {
        match self {
            Completeness::Exact => None,
            Completeness::Truncated { score_bound, .. } => Some(*score_bound),
        }
    }

    /// Short label for reports (`exact` / `truncated`).
    pub fn label(&self) -> &'static str {
        match self {
            Completeness::Exact => "exact",
            Completeness::Truncated { .. } => "truncated",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = EngineError::ServerFailed {
            server: QNodeId(2),
            after_ops: 100,
        };
        assert!(e.to_string().contains("q2"));
        assert!(e.to_string().contains("100"));
        let p = EngineError::ServerPanicked { server: QNodeId(1) };
        assert!(p.to_string().contains("panicked"));
        assert!(EngineError::InvalidFaultSpec(FaultSpecError::new("x"))
            .to_string()
            .contains("fault spec"));
    }

    #[test]
    fn source_chains_to_the_offending_spec() {
        use std::error::Error;
        let e = EngineError::InvalidFaultSpec(FaultSpecError::new("server=oops"));
        let src = e.source().expect("invalid spec has a source");
        assert!(src.to_string().contains("server=oops"));
        assert!(src.downcast_ref::<FaultSpecError>().is_some());
        // Leaf errors report no source rather than a dangling chain.
        assert!(EngineError::NoRouteAvailable.source().is_none());
        assert!(EngineError::ServerPanicked { server: QNodeId(1) }
            .source()
            .is_none());
    }

    #[test]
    fn completeness_accessors() {
        assert!(Completeness::Exact.is_exact());
        assert_eq!(Completeness::Exact.score_bound(), None);
        assert_eq!(Completeness::Exact.label(), "exact");
        let t = Completeness::Truncated {
            pending_matches: 3,
            score_bound: 1.5,
        };
        assert!(!t.is_exact());
        assert_eq!(t.score_bound(), Some(1.5));
        assert_eq!(t.label(), "truncated");
    }
}
