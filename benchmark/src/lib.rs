//! The repository's benchmark, as a package of its own: it sees the
//! crates only through their public items and is built and run by
//! `benchmark/run.sh`. See `README.md` for the protocol.

#![warn(missing_docs)]

pub mod aa;
pub mod fixtures;
pub mod host;
pub mod protocol;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
