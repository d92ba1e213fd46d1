#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! # Whirlpool — adaptive top-k query processing for XML
//!
//! A Rust implementation of *"Adaptive Processing of Top-k Queries in
//! XML"* (Marian, Amer-Yahia, Koudas, Srivastava — ICDE 2005).
//!
//! Whirlpool evaluates XPath tree-pattern queries over XML documents and
//! returns the `k` best-scoring answers, where answers may be *exact*
//! matches or *approximate* matches obtained through query relaxation
//! (edge generalization, leaf deletion, subtree promotion). Its defining
//! trait is **per-answer adaptivity**: every partial match is routed
//! through the per-query-node *servers* in its own order, chosen at
//! runtime from the current top-k threshold and per-server estimates
//! read from the scoring model's own idf counts — in contrast to
//! lock-step plans that push all matches through the same server
//! sequence.
//!
//! ## Quick start
//!
//! ```
//! use whirlpool_core::{evaluate, Algorithm, EvalOptions};
//! use whirlpool_index::TagIndex;
//! use whirlpool_pattern::parse_pattern;
//! use whirlpool_score::{Normalization, TfIdfModel};
//! use whirlpool_xml::parse_document;
//!
//! let doc = parse_document(
//!     "<library>\
//!        <book><title>dune</title><isbn>1</isbn></book>\
//!        <book><review><title>dune</title></review></book>\
//!      </library>",
//! ).unwrap();
//! let index = TagIndex::build(&doc);
//! let query = parse_pattern("//book[./title and ./isbn]").unwrap();
//! let model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);
//!
//! let result = evaluate(
//!     &doc, &index, &query, &model,
//!     &Algorithm::WhirlpoolS,
//!     &EvalOptions::top_k(2),
//! );
//! // The exact match outranks the approximate (relaxed) one.
//! assert_eq!(result.answers.len(), 2);
//! assert!(result.answers[0].score > result.answers[1].score);
//! ```
//!
//! ## Engines
//!
//! | Engine | Paper name | Character |
//! |---|---|---|
//! | [`Algorithm::LockStepNoPrune`] | LockStep-NoPrun | exhaustive baseline, exact reference |
//! | [`Algorithm::LockStep`] | LockStep | static plan + score pruning (≈ OptThres) |
//! | [`Algorithm::WhirlpoolS`] | Whirlpool-S | single-threaded, adaptive per-match routing |
//! | [`Algorithm::WhirlpoolM`] | Whirlpool-M | adaptive routing; a pool of `threads` workers (the caller included) serves the per-server queues best head first, each routing its own survivors |
//!
//! Routing strategies ([`RoutingStrategy`]) and queue policies
//! ([`QueuePolicy`]) correspond to §6.1.3/§6.1.4 of the paper; the
//! defaults (`min_alive_partial_matches`, maximum-possible-final-score
//! queues) are the configurations the paper found best.
//!
//! ## Collections
//!
//! [`Collection`] scales any of the engines past one document: many
//! documents (or subtree shards split off one large document) are
//! queried as a single corpus under a shared corpus-level idf model,
//! with the global top-k threshold seeding every per-shard run and a
//! score ceiling from each shard's own idf counts pruning whole shards
//! that cannot beat the current k-th answer. See [`evaluate_collection`]; a
//! document query is the same driver over one shard
//! ([`evaluate_scope`], [`Scope`]).

mod collection;
mod context;
mod counts;
mod engine;
mod error;
mod fault;
mod lockstep;
mod metrics;
mod partial;
mod queue;
mod router;
mod selectivity;
mod topk;
pub mod trace;
mod whirlpool_m;
mod whirlpool_s;

pub use collection::{
    collection_answers_equivalent, evaluate_collection, evaluate_scope, Collection,
    CollectionAnswer, CollectionMetrics, CollectionOptions, CollectionResult, Scope, Shard,
    ShardAccess,
};
pub use context::{ContextOptions, Located, OpOutcome, QueryContext, RelaxMode};
pub use counts::COUNT_MEMO_CAP;
pub use engine::{
    evaluate, evaluate_view, evaluate_with_context, Algorithm, EvalOptions, EvalResult,
};
pub use error::{Completeness, EngineError, FaultSpecError};
pub use fault::{
    Budget, CancelToken, EngineRun, FaultKind, FaultPlan, OpInterrupt, RunControl, INTERRUPT_LANES,
    INTERRUPT_SPAN, MAX_INJECTED_DELAY,
};
pub use metrics::{Metrics, MetricsSnapshot};
pub use partial::{Binding, PartialMatch};
pub use queue::{MatchQueue, QueuePolicy};
pub use router::RoutingStrategy;
pub use topk::{answers_equivalent, RankedAnswer, SharedTopK, TopKSet};
pub use trace::{TraceData, TraceSummary, Tracer, WorkerTrace};
