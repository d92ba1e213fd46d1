//! Test-only helpers shared by the repository-root integration suites
//! (each suite pulls them in with `mod common;`).

pub mod naive;
