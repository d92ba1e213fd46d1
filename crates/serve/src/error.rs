//! The serve-side error taxonomy and request outcome classes.
//!
//! Two deliberately separate types: [`ServeError`] is what *prevents* a
//! request from producing an answer (rejection, malformed input, I/O),
//! while [`Outcome`] classifies every *admitted* request that returns
//! exactly once — the daemon's conservation law `admitted = exact +
//! degraded + timed_out + aborted` is a sum over `Outcome` plus the
//! requests that panicked, and rejections never enter it.

use std::fmt;
use std::time::Duration;
use whirlpool_core::EngineError;

/// Why admission control turned a request away.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// Every concurrency token is taken.
    Busy {
        /// Requests currently holding tokens.
        inflight: usize,
        /// Token-bucket size.
        max_inflight: usize,
    },
    /// The admission price — the scope's candidate answer roots, from
    /// the shard synopses, times one op per server and one for the
    /// root — exceeds the capacity left at the current pressure.
    TooExpensive {
        /// Predicted server operations for this query.
        estimated_ops: f64,
        /// Server operations the governor was willing to spend.
        capacity: f64,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Busy {
                inflight,
                max_inflight,
            } => write!(f, "{inflight}/{max_inflight} requests in flight"),
            RejectReason::TooExpensive {
                estimated_ops,
                capacity,
            } => write!(
                f,
                "estimated {estimated_ops:.0} server ops exceeds remaining capacity {capacity:.0}"
            ),
        }
    }
}

/// Everything that can go wrong serving one request.
#[derive(Debug)]
pub enum ServeError {
    /// Admission control refused the query (HTTP 429 + `Retry-After`).
    Rejected {
        /// The admission decision.
        reason: RejectReason,
        /// Suggested client back-off.
        retry_after: Duration,
    },
    /// The watchdog cancelled the evaluation — hard deadline overrun or
    /// client disconnect (HTTP 504; the partial answer still ships).
    TimedOut {
        /// Wall time spent before the watchdog fired.
        elapsed: Duration,
    },
    /// The request itself was malformed (HTTP 400).
    BadRequest(String),
    /// The named document is not loaded (HTTP 404).
    NotFound(String),
    /// The engine layer failed; [`source`](std::error::Error::source)
    /// chains to the underlying [`EngineError`].
    Engine(EngineError),
    /// Transport failure on the connection.
    Io(std::io::Error),
    /// An answer could not be rendered: a stored value it carries is
    /// not UTF-8 (HTTP 500).
    Render(String),
}

impl ServeError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::Rejected { .. } => 429,
            ServeError::TimedOut { .. } => 504,
            ServeError::BadRequest(_) => 400,
            ServeError::NotFound(_) => 404,
            // A malformed chaos spec, or one faulting a server the
            // query lacks, is the client's mistake, not ours.
            ServeError::Engine(
                EngineError::InvalidFaultSpec(_) | EngineError::FaultOutsideQuery { .. },
            ) => 400,
            ServeError::Engine(_) | ServeError::Io(_) | ServeError::Render(_) => 500,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected {
                reason,
                retry_after,
            } => write!(
                f,
                "rejected: {reason} (retry after {}ms)",
                retry_after.as_millis()
            ),
            ServeError::TimedOut { elapsed } => {
                write!(f, "timed out after {}ms", elapsed.as_millis())
            }
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::NotFound(doc) => write!(f, "no such document: {doc:?}"),
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Render(m) => write!(f, "cannot render the answer: {m}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            ServeError::Io(e) => Some(e),
            ServeError::Rejected { .. }
            | ServeError::TimedOut { .. }
            | ServeError::BadRequest(_)
            | ServeError::NotFound(_)
            | ServeError::Render(_) => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

/// How an *admitted* request ended. Exactly one of these is recorded
/// per admitted request, making the conservation law checkable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Ran to completion with the full answer semantics.
    Exact,
    /// Returned a certified anytime answer (a deadline, an op budget or
    /// a failed server operation stopped it) — still HTTP 200, labelled
    /// honestly.
    Degraded,
    /// The watchdog reclaimed the worker (hard timeout or disconnect).
    TimedOut,
}

impl Outcome {
    /// Stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Exact => "exact",
            Outcome::Degraded => "degraded",
            Outcome::TimedOut => "timed_out",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_match_the_taxonomy() {
        let r = ServeError::Rejected {
            reason: RejectReason::Busy {
                inflight: 4,
                max_inflight: 4,
            },
            retry_after: Duration::from_millis(200),
        };
        assert_eq!(r.status(), 429);
        assert!(r.to_string().contains("4/4"));
        assert_eq!(
            ServeError::TimedOut {
                elapsed: Duration::from_millis(750)
            }
            .status(),
            504
        );
        assert_eq!(ServeError::BadRequest("x".into()).status(), 400);
        assert_eq!(ServeError::NotFound("d".into()).status(), 404);
    }

    #[test]
    fn engine_errors_keep_their_source_chain() {
        use std::error::Error as _;
        let engine = whirlpool_core::FaultPlan::parse("not-a-spec", 0).unwrap_err();
        let err = ServeError::from(engine);
        assert_eq!(err.status(), 400, "a bad fault spec is the client's fault");
        let source = err.source().expect("engine error has a source");
        // Two hops: ServeError -> EngineError -> FaultSpecError.
        assert!(source.source().is_some());
        assert!(ServeError::BadRequest("x".into()).source().is_none());
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(Outcome::Exact.label(), "exact");
        assert_eq!(Outcome::Degraded.label(), "degraded");
        assert_eq!(Outcome::TimedOut.label(), "timed_out");
    }
}
