//! The sharded collection driver is a pure orchestration change.
//!
//! The reference semantics of a collection query: build the corpus
//! model once (document-frequency counts pooled over every shard), run
//! each shard *independently* under that model, concatenate the
//! per-shard answers, and keep the global top-k. The driver's
//! optimizations — ceiling-ordered visits, threshold sharing, shard
//! pruning, shard-level workers — must all reproduce exactly that
//! result:
//!
//! * every engine, at every worker count, agrees with the concatenated
//!   single-shard reference (tie-aware: tied boundary groups may
//!   resolve differently);
//! * shard pruning on random document splits never changes the answer
//!   set (proptest);
//! * a single-shard collection reduces to the plain per-document model
//!   and engines.

use proptest::prelude::*;
use whirlpool_core::{
    collection_answers_equivalent, evaluate, evaluate_collection, evaluate_with_context, Algorithm,
    Collection, CollectionAnswer, CollectionOptions, Completeness, ContextOptions, EvalOptions,
    QueryContext,
};
use whirlpool_pattern::TreePattern;
use whirlpool_score::{Normalization, ScoreModel, TfIdfModel};
use whirlpool_xmark::{generate, queries, GeneratorConfig};

const EPS: f64 = 1e-9;
const WORKER_COUNTS: [usize; 3] = [1, 4, 8];

/// Three XMark documents of different sizes and seeds: shards with
/// genuinely different selectivities and document frequencies, so the
/// corpus model differs from every per-document model.
fn xmark_collection() -> Collection {
    let mut c = Collection::new();
    for (i, (bytes, seed)) in [(30_000usize, 11u64), (60_000, 22), (90_000, 33)]
        .iter()
        .enumerate()
    {
        let doc = generate(&GeneratorConfig {
            target_bytes: *bytes,
            seed: *seed,
            max_items: None,
        });
        c.add_document(format!("doc-{i}"), doc);
    }
    c
}

/// The concatenated reference: each shard evaluated on its own under
/// the shared corpus model (no threshold sharing, no pruning, no
/// budgets), all answers pooled, global top-k kept. Mirrors the
/// driver's `(score, shard, root)` ordering so only genuinely tied
/// boundary groups can differ.
fn concatenated_reference(
    collection: &Collection,
    pattern: &TreePattern,
    model: &dyn ScoreModel,
    algorithm: &Algorithm,
    k: usize,
) -> Vec<CollectionAnswer> {
    let mut all: Vec<CollectionAnswer> = Vec::new();
    for idx in 0..collection.len() {
        let shard = collection
            .acquire(idx)
            .expect("parsed shards are always resident");
        let ctx = QueryContext::new_view(
            shard.doc(),
            shard.index(),
            pattern,
            model,
            ContextOptions::default(),
        );
        let r = evaluate_with_context(&ctx, algorithm, &EvalOptions::top_k(k));
        assert!(
            matches!(r.completeness, Completeness::Exact),
            "reference shard run must not truncate"
        );
        all.extend(r.answers.iter().map(|a| CollectionAnswer {
            shard: idx,
            root: a.root,
            score: a.score,
        }));
    }
    all.sort_by(|a, b| {
        b.score
            .cmp(&a.score)
            .then(b.shard.cmp(&a.shard))
            .then(b.root.cmp(&a.root))
    });
    all.truncate(k);
    all
}

#[test]
fn collection_matches_concatenated_single_shard_runs() {
    let collection = xmark_collection();
    let engines = [
        Algorithm::LockStep,
        Algorithm::WhirlpoolS,
        Algorithm::WhirlpoolM { processors: None },
    ];
    for (name, pattern) in [
        ("Q1", queries::parse(queries::Q1)),
        ("Q2", queries::parse(queries::Q2)),
    ] {
        let k = 12;
        let model = collection
            .corpus_stats(&pattern)
            .model(Normalization::Sparse);
        for algorithm in &engines {
            let reference = concatenated_reference(&collection, &pattern, &model, algorithm, k);
            for workers in WORKER_COUNTS {
                let got = evaluate_collection(
                    &collection,
                    &pattern,
                    algorithm,
                    &EvalOptions::top_k(k),
                    Normalization::Sparse,
                    &CollectionOptions::default().with_threads(workers),
                );
                assert!(
                    matches!(got.completeness, Completeness::Exact),
                    "{name} {} workers={workers}: unbudgeted run truncated",
                    algorithm.name(),
                );
                assert!(
                    collection_answers_equivalent(&got.answers, &reference, EPS),
                    "{name} {} workers={workers}: collection diverged from the \
                     concatenated reference\n got {:?}\n ref {:?}",
                    algorithm.name(),
                    got.answers,
                    reference,
                );
            }
        }
    }
}

#[test]
fn single_shard_collection_reduces_to_the_per_document_run() {
    let doc = generate(&GeneratorConfig {
        target_bytes: 40_000,
        seed: 7,
        max_items: None,
    });
    let pattern = queries::parse(queries::Q2);
    let index = whirlpool_index::TagIndex::build(&doc);
    let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
    let plain = evaluate(
        &doc,
        &index,
        &pattern,
        &model,
        &Algorithm::WhirlpoolS,
        &EvalOptions::top_k(10),
    );

    let mut collection = Collection::new();
    collection.add_document("only", doc);
    let sharded = evaluate_collection(
        &collection,
        &pattern,
        &Algorithm::WhirlpoolS,
        &EvalOptions::top_k(10),
        Normalization::Sparse,
        &CollectionOptions::default(),
    );
    // With one shard the pooled document-frequency counts *are* the
    // per-document counts, so scores must agree bit-for-bit modulo
    // float noise, and so must the answer nodes.
    assert_eq!(plain.answers.len(), sharded.answers.len());
    for (p, s) in plain.answers.iter().zip(&sharded.answers) {
        assert_eq!(s.shard, 0);
        assert_eq!(p.root, s.root);
        assert!(
            (p.score.value() - s.score.value()).abs() < EPS,
            "single-shard corpus model diverged: {:?} vs {:?}",
            p,
            s
        );
    }
}

/// One fully-specified collection run for the proptest comparisons.
fn run(
    collection: &Collection,
    pattern: &TreePattern,
    k: usize,
    copts: &CollectionOptions,
) -> Vec<CollectionAnswer> {
    let r = evaluate_collection(
        collection,
        pattern,
        &Algorithm::WhirlpoolS,
        &EvalOptions::top_k(k),
        Normalization::Sparse,
        copts,
    );
    assert!(matches!(r.completeness, Completeness::Exact));
    r.answers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shard pruning and threshold sharing are answer-preserving on
    /// random splits of one document: however the corpus is sharded,
    /// every optimization combination agrees with the scan-all
    /// baseline under the same corpus model.
    #[test]
    fn random_splits_are_answer_preserving(
        items in 12usize..48,
        seed in 0u64..500,
        shards in 1usize..9,
        k in 1usize..12,
    ) {
        let doc = generate(&GeneratorConfig::items(items).with_seed(seed));
        let collection = Collection::split_document(&doc, shards);
        prop_assume!(!collection.is_empty());
        let pattern = queries::parse(queries::Q2);

        let baseline = run(&collection, &pattern, k, &CollectionOptions::scan_all());
        for (shard_pruning, share_threshold) in
            [(true, true), (true, false), (false, true)]
        {
            let copts = CollectionOptions {
                shard_pruning,
                share_threshold,
                threads: 1,
            };
            let got = run(&collection, &pattern, k, &copts);
            prop_assert!(
                collection_answers_equivalent(&got, &baseline, EPS),
                "items={items} seed={seed} shards={} k={k} pruning={shard_pruning} \
                 share={share_threshold}:\n got {got:?}\n ref {baseline:?}",
                collection.len(),
            );
        }
    }

    /// The shard-level worker pool is answer-preserving: any worker
    /// count agrees with the sequential driver on a randomly split
    /// corpus, with both optimizations live.
    #[test]
    fn random_splits_are_worker_count_invariant(
        items in 12usize..40,
        seed in 0u64..500,
        shards in 2usize..9,
        k in 1usize..10,
    ) {
        let doc = generate(&GeneratorConfig::items(items).with_seed(seed));
        let collection = Collection::split_document(&doc, shards);
        prop_assume!(!collection.is_empty());
        let pattern = queries::parse(queries::Q1);

        let sequential = run(&collection, &pattern, k, &CollectionOptions::default());
        for workers in WORKER_COUNTS {
            let got = run(
                &collection,
                &pattern,
                k,
                &CollectionOptions::default().with_threads(workers),
            );
            prop_assert!(
                collection_answers_equivalent(&got, &sequential, EPS),
                "items={items} seed={seed} shards={} k={k} workers={workers}:\n \
                 got {got:?}\n ref {sequential:?}",
                collection.len(),
            );
        }
    }
}
