//! Test-only helpers shared by the repository-root integration suites
//! (each suite pulls them in with `mod common;`): the differential
//! oracle's reference and comparator.

#[path = "../oracle/harness.rs"]
pub mod oracle;
