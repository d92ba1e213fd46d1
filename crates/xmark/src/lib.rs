#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Synthetic benchmark data for the Whirlpool experiments.
//!
//! The paper evaluates on documents produced by the XMark benchmark
//! generator and on three hand-made XPath queries over them. The XMark
//! tool itself is C code driven by a fixed DTD; this crate reimplements
//! the *relevant* part of that workload as a seeded synthetic generator:
//! an auction `site` with `item` elements whose substructure reproduces
//! the three properties the paper's relaxations rely on (§6.2.1):
//!
//! * **recursive nodes** (`parlist`/`listitem`) — enable *edge
//!   generalization* (a `parlist` may appear at any depth under
//!   `description`);
//! * **optional nodes** (`incategory`, `mailbox`, …) — enable *leaf
//!   deletion*;
//! * **shared nodes** (`text` appears under `mail`, `description` and
//!   `listitem`) — enable *subtree promotion*.
//!
//! [`generate`] produces documents of a requested serialized size
//! (1 Mb – 50 Mb in the paper) deterministically from a seed.
//!
//! The crate also ships the paper's running examples: the heterogeneous
//! book collection of Figure 1 ([`books`]) and the Figure 3 book with
//! known predicate scores.

pub mod bib;
pub mod books;
mod generator;
pub mod queries;
mod text;

pub use generator::{generate, GeneratorConfig};
