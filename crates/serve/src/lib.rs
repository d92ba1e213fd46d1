#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! # whirlpool-serve — the long-lived query daemon
//!
//! Turns the library engines into a service that stays up under
//! overload: a dependency-free HTTP/1.1 JSON daemon
//! (`std::net::TcpListener`, a fixed accept/worker thread pool) that
//! parses and indexes its documents once at startup and serves
//! concurrent top-k queries behind a **robustness governor**:
//!
//! * **Admission control** ([`Admission`]) — a token bucket caps
//!   concurrent evaluations, and a cost estimate read off the query
//!   scope's synopses turns away queries whose predicted work exceeds
//!   the capacity remaining at the current pressure. Rejections are
//!   HTTP 429 with `Retry-After`.
//! * **A graceful-degradation ladder** ([`Rung`]) — rising pressure
//!   shrinks the per-request deadline and adds an op budget, sliding
//!   responses from exact through certified-truncated (the engines'
//!   anytime `Completeness` certificate rides along in the JSON)
//!   instead of queueing into a timeout collapse.
//! * **A per-request watchdog** ([`Watchdog`]) — a hard deadline past
//!   the ladder's own, or a client disconnect, trips the engine's
//!   [`CancelToken`](whirlpool_core::CancelToken) so the worker is
//!   reclaimed within one kernel interrupt span.
//! * **Fault-tolerant serving** — per-request chaos via the engines'
//!   `FaultPlan` spec (a failed server operation stops the run, whose
//!   certified prefix is the reply; nothing is retried), and
//!   `/healthz` + `/metrics` endpoints whose counters obey the
//!   conservation law `admitted = exact + degraded + timed_out +
//!   aborted` (`aborted`: an admitted request that panicked).
//!
//! The documents of a [`Registry`] become the shards of one
//! [`whirlpool_core::Collection`] when the daemon starts; holding,
//! attaching, evicting and pruning them is that collection's job, not
//! the daemon's. A request names a scope — one document, or with
//! `"collection": true` all of them — and both run through one
//! pipeline and one driver ([`whirlpool_core::evaluate_scope`]).
//!
//! ## Protocol
//!
//! ```text
//! GET  /healthz            liveness + load
//! GET  /metrics            daemon counters (JSON)
//! POST /query              {"doc": "name", "query": "//item[./a and ./b]", "k": 5,
//!                           "fault": "server=2:panic@100", "fault_seed": 7}
//!                          {"collection": true, "query": "//item[./a]", "k": 5,
//!                           "fault": "server=1:fail@0"}
//! ```
//!
//! One request per connection (`Connection: close`): the protocol
//! surface stays small enough to audit, and the worker pool — not
//! connection keep-alive — is the concurrency mechanism.
//!
//! ## Quick start
//!
//! ```
//! use whirlpool_serve::{start, DocState, Registry, ServeConfig};
//! use std::io::{Read as _, Write as _};
//!
//! let doc = whirlpool_xml::parse_document(
//!     "<r><book><title>dune</title></book></r>").unwrap();
//! let mut registry = Registry::new();
//! registry.insert(DocState::new("lib", doc));
//! let handle = start(ServeConfig::default(), registry).unwrap();
//!
//! let body = r#"{"query": "//book[./title]"}"#;
//! let mut conn = std::net::TcpStream::connect(handle.addr()).unwrap();
//! write!(conn, "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
//!        body.len(), body).unwrap();
//! let mut response = String::new();
//! conn.read_to_string(&mut response).unwrap();
//! assert!(response.starts_with("HTTP/1.1 200"));
//! assert!(response.contains("\"outcome\": \"exact\""));
//! handle.shutdown();
//! ```

mod error;
mod governor;
mod http;
mod json;
mod metrics;
mod server;
mod shared;

pub use error::{Outcome, RejectReason, ServeError};
pub use governor::{Admission, FireCause, Permit, Rung, Watchdog};
pub use json::{escape, Json, JsonError};
pub use metrics::{RungHistory, ServeMetrics, ServeMetricsSnapshot};
pub use server::{serve_blocking, start, ServeConfig, ServerHandle};
pub use shared::{DocState, Prepare, Registry};

/// A fresh directory under the system temp dir for a test, named
/// `<name>-<pid>` and removed when the guard drops: at the end of a
/// test, or as a failing one unwinds.
#[cfg(test)]
pub(crate) struct TempDir(std::path::PathBuf);

#[cfg(test)]
impl TempDir {
    pub(crate) fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

#[cfg(test)]
impl std::ops::Deref for TempDir {
    type Target = std::path::Path;
    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

#[cfg(test)]
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
