#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! Tree-pattern queries, relaxations, and predicate compilation.
//!
//! This crate implements the query side of the paper:
//!
//! * [`TreePattern`] — the paper's query model: "a rooted tree where
//!   nodes are labeled by element tags, leaf nodes are labeled by tags
//!   and values and edges are XPath axes (`pc` for parent-child, `ad`
//!   for ancestor-descendant). The root of the tree represents the
//!   returned node."
//! * [`parse_pattern`] — a parser for the XPath subset the paper uses
//!   (`/`, `//`, nested `[...]` predicates, `and`, `./`, `.//`,
//!   `= 'value'`).
//! * [`relax`] — the three relaxations of §2 (edge generalization, leaf
//!   deletion, subtree promotion) and the closure of their compositions,
//!   used to validate that the engine's plan-encoded relaxation matches
//!   the rewriting-based definition.
//! * [`ComposedAxis`] — the axis-composition algebra behind the paper's
//!   *component predicates* (Definition 4.1) and *conditional predicate
//!   sequences* (Algorithm 1).
//! * [`compile_servers`] — Algorithm 1: the per-server predicate sets the
//!   engine evaluates.

mod ast;
mod axis;
mod compile;
mod parse;
mod plan;
pub mod relax;

pub use ast::{AttrTest, Axis, PatternNode, QNodeId, TreePattern, ValueTest, WILDCARD};
pub use axis::ComposedAxis;
pub use compile::{compile_servers, ConditionalPredicate, Direction, ServerSpec};
pub use parse::{parse_pattern, PatternParseError};
pub use plan::{permutations, StaticPlan};
