//! Structured engine errors and anytime-answer completeness.
//!
//! Neither a failed server operation nor an exhausted budget aborts a
//! query: either one stops the engine run, which returns an *anytime
//! answer* — the current top-k heap — and reports how complete it is.
//! [`Completeness`] carries the max-score certificate (the bound the
//! engines prune on): no answer missing from a truncated result can
//! score above `score_bound`.

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

/// An error raised by a fault-injected server, or by a fault plan that
/// does not fit its query.
///
/// Engines never surface a server failure to the caller as a hard
/// failure: it stops the run, and the run's [`Completeness`] certifies
/// what it left out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A server returned an injected failure after processing
    /// `after_ops` operations.
    ServerFailed {
        /// The query node whose server failed.
        server: QNodeId,
        /// Operations the server completed before failing.
        after_ops: u64,
    },
    /// A `--fault` specification could not be parsed. The offending
    /// spec is carried as the error's
    /// [`source`](std::error::Error::source).
    InvalidFaultSpec(FaultSpecError),
    /// A fault plan names a server the query does not have.
    FaultOutsideQuery {
        /// The server the plan names.
        server: QNodeId,
        /// The query's servers: `q1` through this one.
        servers: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ServerFailed { server, after_ops } => {
                write!(f, "server q{} failed after {} ops", server.0, after_ops)
            }
            EngineError::InvalidFaultSpec(cause) => {
                write!(f, "invalid fault spec: {cause}")
            }
            EngineError::FaultOutsideQuery { server, servers: 0 } => {
                write!(
                    f,
                    "fault names server {}, but the query has no servers",
                    server.0
                )
            }
            EngineError::FaultOutsideQuery { server, servers } => write!(
                f,
                "fault names server {}, but the query's servers are 1 to {servers}",
                server.0
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::InvalidFaultSpec(cause) => Some(cause),
            EngineError::ServerFailed { .. } | EngineError::FaultOutsideQuery { .. } => None,
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
        /// Partial matches left unprocessed (dropped from queues), plus
        /// the root candidates never seeded.
        pending_matches: u64,
        /// Max-score certificate: no answer absent from the returned
        /// set — and no better score for a returned root — can exceed
        /// this bound. Computed as the maximum `max_final` over every
        /// match left unprocessed, joined with the best returned score.
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
        let outside = EngineError::FaultOutsideQuery {
            server: QNodeId(9),
            servers: 2,
        };
        assert!(outside.to_string().contains("server 9"), "{outside}");
        assert!(outside.to_string().contains("1 to 2"), "{outside}");
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
        assert!(EngineError::ServerFailed {
            server: QNodeId(1),
            after_ops: 0
        }
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
