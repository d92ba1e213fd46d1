//! Daemon-level counters and their conservation law.
//!
//! Every request that reaches the daemon is counted exactly once on
//! the intake side (`admitted`, `rejected`, `shed`, `bad_requests`,
//! `not_found`), and every *admitted* request is classified exactly
//! once on the outcome side (`exact`, `degraded`, `timed_out`). At
//! quiescence `admitted = exact + degraded + timed_out` — the overload
//! suite asserts it after every soak. A request that panics is
//! answered 500 and counted in `panics`; if it was admitted, it
//! settles no outcome, so the law holds while `panics` is 0.

use crate::error::Outcome;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Monotone counters, shared across worker threads.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Query requests that reached routing (any verb on `/query`).
    pub received: AtomicU64,
    /// Requests past admission control (holds a concurrency token).
    pub admitted: AtomicU64,
    /// Turned away by admission control (HTTP 429).
    pub rejected: AtomicU64,
    /// Connections dropped before parsing: the accept queue was full.
    pub shed: AtomicU64,
    /// Malformed requests (HTTP 400).
    pub bad_requests: AtomicU64,
    /// Queries naming an unloaded document (HTTP 404).
    pub not_found: AtomicU64,
    /// Admitted requests that completed with exact semantics.
    pub exact: AtomicU64,
    /// Admitted requests that returned a certified anytime answer.
    pub degraded: AtomicU64,
    /// Admitted requests reclaimed by the watchdog.
    pub timed_out: AtomicU64,
    /// Requests whose handling panicked (HTTP 500); the worker lived on.
    pub panics: AtomicU64,
}

/// Plain-value copy of [`ServeMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // field-for-field mirror of ServeMetrics
pub struct ServeMetricsSnapshot {
    pub received: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub shed: u64,
    pub bad_requests: u64,
    pub not_found: u64,
    pub exact: u64,
    pub degraded: u64,
    pub timed_out: u64,
    pub panics: u64,
}

impl ServeMetrics {
    /// Records the single outcome of an admitted request.
    pub fn classify(&self, outcome: Outcome) {
        match outcome {
            Outcome::Exact => &self.exact,
            Outcome::Degraded => &self.degraded,
            Outcome::TimedOut => &self.timed_out,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// A plain-value copy of the counters.
    pub fn snapshot(&self) -> ServeMetricsSnapshot {
        ServeMetricsSnapshot {
            received: self.received.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            not_found: self.not_found.load(Ordering::Relaxed),
            exact: self.exact.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

impl ServeMetricsSnapshot {
    /// Outcomes recorded so far.
    pub fn settled(&self) -> u64 {
        self.exact + self.degraded + self.timed_out
    }

    /// The conservation law, valid at quiescence (no request mid-
    /// flight): every admitted request settled into exactly one class.
    pub fn conserved(&self) -> bool {
        self.admitted == self.settled()
    }

    /// Emits the snapshot as a JSON object (the `/metrics` body).
    pub fn to_json(&self, inflight: usize) -> String {
        format!(
            "{{\"received\": {}, \"admitted\": {}, \"rejected\": {}, \"shed\": {}, \
             \"bad_requests\": {}, \"not_found\": {}, \"exact\": {}, \"degraded\": {}, \
             \"timed_out\": {}, \"panics\": {}, \"inflight\": {inflight}}}",
            self.received,
            self.admitted,
            self.rejected,
            self.shed,
            self.bad_requests,
            self.not_found,
            self.exact,
            self.degraded,
            self.timed_out,
            self.panics,
        )
    }

    /// [`to_json`](Self::to_json) plus a `docs` field: a pre-rendered
    /// JSON array of per-document prepare costs (`index_build_ms` for
    /// parsed documents, `snapshot_attach_ms` for attached snapshots).
    pub fn to_json_with_docs(&self, inflight: usize, docs: &str) -> String {
        let base = self.to_json(inflight);
        format!("{}, \"docs\": {docs}}}", &base[..base.len() - 1])
    }
}

/// Ring buffer of the ladder decisions made for recent admitted
/// queries: which rung each ran on and the admission-time pressure
/// that picked it. `/metrics` reports the last [`CAPACITY`] samples
/// under `"history"`, oldest first — enough to see a pressure ramp
/// and the ladder's response to it without a metrics pipeline.
///
/// [`CAPACITY`]: RungHistory::CAPACITY
#[derive(Debug, Default)]
pub struct RungHistory {
    samples: Mutex<VecDeque<(&'static str, f64)>>,
}

impl RungHistory {
    /// Samples retained; older ones fall off the front.
    pub const CAPACITY: usize = 64;

    /// Records one admitted query's rung and admission-time pressure.
    pub fn record(&self, rung: &'static str, pressure: f64) {
        let mut samples = self.samples.lock().unwrap_or_else(|p| p.into_inner());
        if samples.len() == Self::CAPACITY {
            samples.pop_front();
        }
        samples.push_back((rung, pressure));
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.samples.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `/metrics` `"history"` array, oldest sample first.
    pub fn to_json(&self) -> String {
        let samples = self.samples.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = String::from("[");
        for (i, (rung, pressure)) in samples.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"rung\": \"{rung}\", \"pressure\": {pressure:.3}}}"
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_feeds_the_conservation_law() {
        let m = ServeMetrics::default();
        m.admitted.fetch_add(3, Ordering::Relaxed);
        m.classify(Outcome::Exact);
        m.classify(Outcome::Degraded);
        let partial = m.snapshot();
        assert_eq!(partial.settled(), 2);
        assert!(!partial.conserved(), "one request still in flight");
        m.classify(Outcome::TimedOut);
        let done = m.snapshot();
        assert!(done.conserved());
        assert_eq!((done.exact, done.degraded, done.timed_out), (1, 1, 1));
    }

    #[test]
    fn json_emission_carries_every_counter() {
        let m = ServeMetrics::default();
        m.received.fetch_add(7, Ordering::Relaxed);
        m.panics.fetch_add(1, Ordering::Relaxed);
        let body = m.snapshot().to_json(2);
        assert!(body.contains("\"received\": 7"));
        assert!(body.contains("\"panics\": 1"));
        assert!(body.contains("\"inflight\": 2"));
        crate::json::Json::parse(&body).expect("valid json");
    }

    #[test]
    fn docs_field_splices_into_valid_json() {
        let m = ServeMetrics::default();
        let docs = "[{\"name\": \"a\", \"backing\": \"snapshot\", \
                     \"snapshot_attach_ms\": 0.042}]";
        let body = m.snapshot().to_json_with_docs(0, docs);
        assert!(body.contains("\"docs\": ["));
        assert!(body.contains("\"snapshot_attach_ms\": 0.042"));
        crate::json::Json::parse(&body).expect("valid json");
    }

    #[test]
    fn rung_history_is_a_bounded_ring() {
        let h = RungHistory::default();
        assert!(h.is_empty());
        for i in 0..RungHistory::CAPACITY + 8 {
            h.record(if i % 2 == 0 { "full" } else { "tightened" }, 0.25);
        }
        assert_eq!(h.len(), RungHistory::CAPACITY, "older samples fall off");
        let json = h.to_json();
        assert!(json.contains("\"rung\": \"full\""));
        assert!(json.contains("\"pressure\": 0.250"));
        crate::json::Json::parse(&json).expect("valid json");
    }
}
