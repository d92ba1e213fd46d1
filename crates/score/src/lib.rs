#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! Scoring for top-k XML queries.
//!
//! The paper scores an answer `n` to query `Q` as
//! `Σ_{p ∈ P_Q} idf(p, D) · tf(p, n)` (Definition 4.4), where `P_Q` are
//! Q's *component predicates* — one per non-root query node, relating
//! the returned node to it by the composed axis (Definition 4.1) — and
//! `idf`/`tf` are the XML analogs of the classic IR quantities
//! (Definitions 4.2/4.3).
//!
//! Two layers are provided:
//!
//! * [`tfidf`] — the literal definitions, computed against a document
//!   and its [`whirlpool_index::TagIndex`]. Used as the reference scorer
//!   and to derive predicate weights.
//! * [`ScoreModel`] — the incremental interface the engines consume: a
//!   binding's contribution at a server, at the *exact* or *relaxed*
//!   level, plus per-server maxima for "maximum possible final score"
//!   computations. Implementations: [`TfIdfModel`] (with the paper's
//!   *sparse*/*dense* normalizations of §6.2.2), [`FixedScores`]
//!   (explicit per-node scores — the Figure 3 example), and
//!   [`RandomScores`] (the "randomly generated sparse and dense scoring
//!   functions" of §6.2.2).
//!
//! For multi-document collections, [`CorpusStats`] aggregates the raw
//! document-frequency counts across shards and derives a single
//! *corpus-level* [`TfIdfModel`], so scores — and the global top-k
//! threshold — are comparable across shards.

mod corpus;
mod model;
mod score;
pub mod tfidf;

pub use corpus::CorpusStats;
pub use model::{FixedScores, MatchLevel, Normalization, RandomScores, ScoreModel, TfIdfModel};
pub use score::Score;
