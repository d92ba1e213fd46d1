//! Threshold queries: "all answers scoring at least τ" — the evaluation
//! mode of the paper's predecessor (EDBT'02), contrasted with top-k in
//! §3 — run on Whirlpool-S itself: the pruning threshold is pinned at τ
//! from the start ([`EvalOptions::threshold_floor`]), `k` is large
//! enough to hold every candidate root, and the answers below τ are
//! dropped.
//!
//! ```text
//! cargo run --release -p whirlpool-examples --example threshold_search [tau]
//! ```

use whirlpool_core::{evaluate_with_context, Algorithm, ContextOptions, EvalOptions, QueryContext};
use whirlpool_index::TagIndex;
use whirlpool_score::{Normalization, TfIdfModel};
use whirlpool_xmark::{generate, queries, GeneratorConfig};

fn main() {
    let tau: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4.0);
    let doc = generate(&GeneratorConfig::items(400));
    let index = TagIndex::build(&doc);
    let query = queries::parse(queries::Q2);
    let model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);

    println!("query:     {query}");
    println!("threshold: {tau} (max possible score: 5.0 with sparse weights)\n");

    let ctx = QueryContext::new(&doc, &index, &query, &model, ContextOptions::default());
    let options = EvalOptions {
        threshold_floor: tau,
        ..EvalOptions::top_k(ctx.root_candidates().len().max(1))
    };
    let result = evaluate_with_context(&ctx, &Algorithm::WhirlpoolS, &options);
    let mut answers = result.answers;
    answers.retain(|a| a.score.value() >= tau);
    // Score descending, then document order among ties.
    answers.sort_by(|a, b| b.score.cmp(&a.score).then(a.root.cmp(&b.root)));
    let metrics = result.metrics;

    println!("answers clearing the threshold: {}", answers.len());
    for (i, a) in answers.iter().take(10).enumerate() {
        let id = doc.attribute(a.root, "id").unwrap_or("?");
        println!("  #{:<3} score {:.4}  item {id}", i + 1, a.score.value());
    }
    if answers.len() > 10 {
        println!("  … and {} more", answers.len() - 10);
    }
    println!(
        "\nwork: {} server ops, {} matches created, {} pruned (branch-and-bound against τ)",
        metrics.server_ops, metrics.partials_created, metrics.pruned
    );
}
