#![forbid(unsafe_code)]

//! Shared experiment harness for the paper-figure reproduction
//! (`src/bin/repro.rs`) and the integration tests. Timings of the
//! system as a whole live in the out-of-workspace `benchmark/` package.
//!
//! Four layers:
//!
//! * [`Workload`] / [`WorkloadCache`] — XMark-like documents with their
//!   indexes, generated once per size and shared across experiments.
//! * [`aggregate`] — the score-progress curve of a
//!   [`whirlpool_core::trace`] event stream (the threshold-growth
//!   experiment reads it).
//! * [`vtime`] — the discrete-event simulation of the Whirlpool-M
//!   schedule on `p` virtual processors (Figure 9).
//! * [`scoring`] — the retrieval-quality check of the tf*idf ranking
//!   that §6.2.2 defers (planted answers at known distortion levels).

pub mod aggregate;
pub mod scoring;
pub mod vtime;

use std::collections::HashMap;
use std::time::Duration;
use whirlpool_core::{
    evaluate, Algorithm, ContextOptions, EvalOptions, EvalResult, QueryContext, RelaxMode,
    RoutingStrategy,
};
use whirlpool_index::TagIndex;
use whirlpool_pattern::{QNodeId, StaticPlan, TreePattern};
use whirlpool_score::{FixedScores, Normalization, ScoreModel, TfIdfModel};
use whirlpool_xmark::{books, generate, GeneratorConfig};
use whirlpool_xml::{Document, DocumentStats};

/// A generated document with its index, cached by requested size.
pub struct Workload {
    pub doc: Document,
    pub index: TagIndex,
    pub label: String,
}

impl Workload {
    pub fn of_megabytes(mb: usize) -> Workload {
        let doc = generate(&GeneratorConfig::megabytes(mb));
        let index = TagIndex::build(&doc);
        Workload {
            doc,
            index,
            label: format!("{mb}M"),
        }
    }

    pub fn of_bytes(bytes: usize, label: impl Into<String>) -> Workload {
        let doc = generate(&GeneratorConfig {
            target_bytes: bytes,
            seed: 42,
            max_items: None,
        });
        let index = TagIndex::build(&doc);
        Workload {
            doc,
            index,
            label: label.into(),
        }
    }

    pub fn of_items(items: usize) -> Workload {
        let doc = generate(&GeneratorConfig::items(items));
        let index = TagIndex::build(&doc);
        Workload {
            doc,
            index,
            label: format!("{items}items"),
        }
    }

    pub fn stats(&self) -> DocumentStats {
        DocumentStats::compute(&self.doc)
    }

    /// Builds the default (sparse-normalized tf*idf) score model for a
    /// query over this workload.
    pub fn model(&self, query: &TreePattern) -> TfIdfModel {
        TfIdfModel::build(&self.doc, &self.index, query, Normalization::Sparse)
    }

    /// Runs one evaluation.
    pub fn run(
        &self,
        query: &TreePattern,
        model: &dyn ScoreModel,
        algorithm: &Algorithm,
        options: &EvalOptions,
    ) -> EvalResult {
        evaluate(&self.doc, &self.index, query, model, algorithm, options)
    }
}

/// A size-keyed workload cache so multi-experiment runs generate each
/// document once.
#[derive(Default)]
pub struct WorkloadCache {
    by_label: HashMap<String, Workload>,
}

impl WorkloadCache {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn megabytes(&mut self, mb: usize) -> &Workload {
        self.by_label
            .entry(format!("{mb}M"))
            .or_insert_with(|| Workload::of_megabytes(mb))
    }

    pub fn bytes(&mut self, bytes: usize, label: &str) -> &Workload {
        self.by_label
            .entry(label.to_string())
            .or_insert_with(|| Workload::of_bytes(bytes, label))
    }
}

/// Median of a slice (panics on empty input).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty());
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Options for a static-plan run (everything else at the Table 1
/// defaults, i.e. [`EvalOptions::top_k`]).
pub fn static_options(k: usize, plan: StaticPlan) -> EvalOptions {
    EvalOptions {
        routing: RoutingStrategy::Static(plan),
        ..EvalOptions::top_k(k)
    }
}

// ---------------------------------------------------------------------
// Figure 3: the §2 motivating example.
// ---------------------------------------------------------------------

/// One run of the Figure 3 example: evaluate the top-1 query
/// `/book[./title and ./location and ./price]` over book (d) under a
/// *fixed* `current_top_k` threshold with a given join order, counting
/// operations. A tuple is discarded when even its maximum possible
/// final score cannot beat the threshold.
pub struct Fig3Outcome {
    /// Partial matches processed by servers (tuples joined).
    pub server_ops: u64,
    /// Individual join-predicate comparisons.
    pub comparisons: u64,
}

/// The Figure 3 plans, in the paper's numbering (title = q1,
/// location = q2, price = q3): the text pins Plan 3 =
/// location ▷ title ▷ price, Plan 4 = location ▷ price ▷ title,
/// Plan 5 = price ▷ location ▷ title, Plan 6 = price ▷ title ▷
/// location; Plans 1/2 are the remaining title-first orders.
pub fn fig3_plans() -> Vec<(String, StaticPlan)> {
    let orders: [[u8; 3]; 6] = [
        [1, 2, 3],
        [1, 3, 2],
        [2, 1, 3],
        [2, 3, 1],
        [3, 2, 1],
        [3, 1, 2],
    ];
    orders
        .iter()
        .enumerate()
        .map(|(i, order)| {
            let plan = StaticPlan::new(order.iter().map(|&q| QNodeId(q)).collect());
            (format!("Plan {}", i + 1), plan)
        })
        .collect()
}

/// Runs the Figure 3 example for one plan and threshold.
pub fn fig3_run(plan: &StaticPlan, current_top_k: f64) -> Fig3Outcome {
    let (doc, nodes) = books::figure3_document();
    let index = TagIndex::build(&doc);
    let query = whirlpool_xmark::queries::parse(whirlpool_xmark::queries::FIG3);

    // Per-node fixed scores, exactly the paper's numbers.
    let mut entries = Vec::new();
    for (n, s) in nodes.titles.iter().zip(books::FIG3_TITLE_SCORES) {
        entries.push((QNodeId(1), *n, s));
    }
    for (n, s) in nodes.locations.iter().zip(books::FIG3_LOCATION_SCORES) {
        entries.push((QNodeId(2), *n, s));
    }
    for (n, s) in nodes.prices.iter().zip(books::FIG3_PRICE_SCORES) {
        entries.push((QNodeId(3), *n, s));
    }
    let model = FixedScores::new(query.len(), &entries);

    // Exact mode: the figure is about *joins* — every (title, location,
    // price) combination is a tuple — and exact mode is where a server
    // operation still fans out. Every match here is a child of the
    // book, so nothing dies at a predicate.
    let ctx = QueryContext::new(
        &doc,
        &index,
        &query,
        &model,
        ContextOptions {
            relax: RelaxMode::Exact,
        },
    );

    // Lock-step through the plan with a *fixed* threshold: prune a tuple
    // when its maximum possible final score cannot beat currentTopK.
    let mut frontier = ctx.make_root_matches();
    let mut exts = Vec::new();
    for &server in plan.order() {
        let mut next = Vec::new();
        for m in frontier.drain(..) {
            exts.clear();
            ctx.process_at_server(server, &m, &mut exts);
            for e in exts.drain(..) {
                if e.max_final.value() > current_top_k {
                    next.push(e);
                }
            }
        }
        frontier = next;
    }
    let snapshot = ctx.metrics.snapshot();
    Fig3Outcome {
        server_ops: snapshot.server_ops,
        comparisons: snapshot.predicate_comparisons,
    }
}

/// Convenience: a `Duration` from fractional milliseconds.
pub fn millis(ms: f64) -> Duration {
    Duration::from_secs_f64(ms / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_has_six_plans() {
        let plans = fig3_plans();
        assert_eq!(plans.len(), 6);
        // Paper's Plan 6 = price, title, location.
        assert_eq!(plans[5].1.order(), &[QNodeId(3), QNodeId(1), QNodeId(2)]);
        // Paper's Plan 4 = location, price, title.
        assert_eq!(plans[3].1.order(), &[QNodeId(2), QNodeId(3), QNodeId(1)]);
    }

    #[test]
    fn fig3_no_plan_dominates() {
        // The paper's point: the best plan changes with currentTopK.
        let plans = fig3_plans();
        let best_at = |tau: f64| -> usize {
            plans
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, p))| fig3_run(p, tau).server_ops)
                .map(|(i, _)| i)
                .unwrap()
        };
        let low = best_at(0.0);
        let high = best_at(0.75);
        assert_ne!(low, high, "the same plan wins at both ends");
    }

    #[test]
    fn fig3_pruning_monotone_in_threshold() {
        let plans = fig3_plans();
        for (_, plan) in &plans {
            let mut prev = u64::MAX;
            for tau in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
                let ops = fig3_run(plan, tau).server_ops;
                assert!(ops <= prev, "ops increased with threshold");
                prev = ops;
            }
        }
    }

    #[test]
    fn median_works() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn workload_cache_reuses_documents() {
        let mut cache = WorkloadCache::new();
        let a = cache.bytes(50_000, "tiny") as *const Workload;
        let b = cache.bytes(50_000, "tiny") as *const Workload;
        assert_eq!(a, b);
    }
}
