//! Whole-pipeline tests: generate → serialize → reparse → index →
//! evaluate, plus determinism and virtual-time consistency.

mod common;

use common::oracle::{check_topk, scored};
use whirlpool_bench::vtime::{simulate_whirlpool_m, VTimeConfig};
use whirlpool_core::{
    evaluate, Algorithm, ContextOptions, EvalOptions, FaultPlan, QueryContext, QueuePolicy,
    RoutingStrategy,
};
use whirlpool_index::TagIndex;
use whirlpool_score::{Normalization, TfIdfModel};
use whirlpool_xmark::{generate, queries, GeneratorConfig};
use whirlpool_xml::{parse_document, write_document, DocumentStats, WriteOptions};

#[test]
fn serialize_reparse_preserves_answers() {
    let doc = generate(&GeneratorConfig::items(80));
    let xml = write_document(&doc, &WriteOptions::default());
    let reparsed = parse_document(&xml).expect("generated XML parses");

    // Same structure...
    let s1 = DocumentStats::compute(&doc);
    let s2 = DocumentStats::compute(&reparsed);
    assert_eq!(s1.element_count, s2.element_count);
    assert_eq!(s1.max_depth, s2.max_depth);

    // ...and same top-k answers (NodeIds are assigned in document order,
    // so they're comparable across the round-trip).
    let query = queries::parse(queries::Q2);
    let i1 = TagIndex::build(&doc);
    let i2 = TagIndex::build(&reparsed);
    let m1 = TfIdfModel::build(&doc, &i1, &query, Normalization::Sparse);
    let m2 = TfIdfModel::build(&reparsed, &i2, &query, Normalization::Sparse);
    let options = EvalOptions::top_k(10);
    let r1 = evaluate(&doc, &i1, &query, &m1, &Algorithm::WhirlpoolS, &options);
    let r2 = evaluate(
        &reparsed,
        &i2,
        &query,
        &m2,
        &Algorithm::WhirlpoolS,
        &options,
    );
    check_topk("reparsed", &scored(&r1.answers), &scored(&r2.answers), 10);
}

#[test]
fn whirlpool_s_is_deterministic() {
    let doc = generate(&GeneratorConfig::items(60));
    let index = TagIndex::build(&doc);
    let query = queries::parse(queries::Q3);
    let model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);
    let options = EvalOptions::top_k(15);
    let first = evaluate(
        &doc,
        &index,
        &query,
        &model,
        &Algorithm::WhirlpoolS,
        &options,
    );
    for _ in 0..3 {
        let again = evaluate(
            &doc,
            &index,
            &query,
            &model,
            &Algorithm::WhirlpoolS,
            &options,
        );
        // Bit-for-bit identical: answers, order, and work counters.
        let a: Vec<_> = first.answers.iter().map(|r| (r.root, r.score)).collect();
        let b: Vec<_> = again.answers.iter().map(|r| (r.root, r.score)).collect();
        assert_eq!(a, b);
        assert_eq!(first.metrics, again.metrics);
    }
}

#[test]
fn virtual_time_simulation_matches_real_answers() {
    let doc = generate(&GeneratorConfig::items(60));
    let index = TagIndex::build(&doc);
    let query = queries::parse(queries::Q2);
    let model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);

    let real = evaluate(
        &doc,
        &index,
        &query,
        &model,
        &Algorithm::LockStepNoPrune,
        &EvalOptions::top_k(15),
    );

    for procs in [Some(1), Some(2), Some(4), None] {
        let ctx = QueryContext::new(&doc, &index, &query, &model, ContextOptions::default());
        let sim = simulate_whirlpool_m(
            &ctx,
            &RoutingStrategy::MinAlive,
            15,
            QueuePolicy::MaxFinalScore,
            &VTimeConfig {
                processors: procs,
                ..Default::default()
            },
        );
        let what = format!("procs={procs:?}");
        check_topk(&what, &scored(&sim.answers), &scored(&real.answers), 15);
        assert!(sim.makespan > 0.0);
    }
}

#[test]
fn document_sizes_scale_the_workload() {
    // More document ⇒ more candidate roots ⇒ more work for the
    // exhaustive engine, same code path as the Figure 11 experiment (at
    // reduced scale). Top-k stops at k: Whirlpool-S's operations *and*
    // its partial matches are bounded independently of the document —
    // a root the run never reaches is never seeded, and every seed that
    // is either gets processed or ends the run.
    let query = queries::parse(queries::Q1);
    let mut exhaustive = Vec::new();
    let mut adaptive = Vec::new();
    for items in [20usize, 80, 320] {
        let doc = generate(&GeneratorConfig::items(items));
        let index = TagIndex::build(&doc);
        let model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);
        let run = |algorithm| {
            evaluate(
                &doc,
                &index,
                &query,
                &model,
                &algorithm,
                &EvalOptions::top_k(15),
            )
            .metrics
        };
        let all = run(Algorithm::LockStepNoPrune);
        let topk = run(Algorithm::WhirlpoolS);
        assert!(topk.server_ops <= all.server_ops, "items={items}");
        assert!(
            topk.partials_created <= 2 * topk.server_ops + 1,
            "items={items}: {topk:?}"
        );
        exhaustive.push(all.server_ops);
        adaptive.push((topk.server_ops, topk.partials_created));
    }
    assert!(
        exhaustive[0] < exhaustive[1] && exhaustive[1] < exhaustive[2],
        "{exhaustive:?}"
    );
    // Sixteen times the document, the same order of work.
    let (ops, created) = adaptive[2];
    assert!(ops <= 2 * adaptive[0].0.max(adaptive[1].0), "{adaptive:?}");
    assert!(created <= 4 * ops, "{adaptive:?}");
    assert!(ops * 8 < exhaustive[2], "{adaptive:?} vs {exhaustive:?}");
}

#[test]
fn larger_k_means_less_pruning() {
    let doc = generate(&GeneratorConfig::items(200));
    let index = TagIndex::build(&doc);
    let query = queries::parse(queries::Q2);
    let model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);
    let mut created = Vec::new();
    for k in [3usize, 15, 75] {
        let r = evaluate(
            &doc,
            &index,
            &query,
            &model,
            &Algorithm::WhirlpoolS,
            &EvalOptions::top_k(k),
        );
        created.push(r.metrics.partials_created);
    }
    assert!(
        created[0] <= created[1] && created[1] <= created[2],
        "partial matches created should not decrease with k: {created:?}"
    );
}

#[test]
fn op_cost_injection_is_respected_end_to_end() {
    let doc = generate(&GeneratorConfig::items(20));
    let index = TagIndex::build(&doc);
    let query = queries::parse(queries::Q1);
    let model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);
    let mean = std::time::Duration::from_micros(500);
    let mut options = EvalOptions::top_k(3);
    options.fault_plan = Some(FaultPlan::seeded(0).delay_unfaulted(query.server_ids(), mean));
    let r = evaluate(
        &doc,
        &index,
        &query,
        &model,
        &Algorithm::WhirlpoolS,
        &options,
    );
    // Each operation spins a draw from [0, 2·mean]: half the mean per
    // operation is a floor no seeded stream of this length falls under.
    let ops = r.metrics.server_ops as u32;
    assert!(ops >= 8, "{ops} ops");
    let floor = mean * ops / 2;
    assert!(r.elapsed >= floor, "{:?} < {floor:?}", r.elapsed);
}
