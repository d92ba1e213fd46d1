//! The sharded collection driver is a pure orchestration change.
//!
//! The reference semantics of a collection query: count the corpus
//! model once (document-frequency counts pooled over every shard), score
//! each shard's answers under it, and keep the global top-k. The
//! collection's optimizations — ceiling-ordered visits, threshold sharing,
//! shard pruning — must all reproduce exactly that result; each test
//! below is a slice of the oracle's configuration table
//! (`tests/oracle/harness.rs`) in corpus scope. Other threads querying
//! the same collection at once must not change it either.

#[path = "oracle/harness.rs"]
mod oracle;

use oracle::*;
use proptest::prelude::*;
use whirlpool_core::{
    evaluate_collection, Algorithm, Collection, CollectionAnswer, CollectionOptions, Completeness,
    EvalOptions,
};
use whirlpool_pattern::TreePattern;
use whirlpool_score::Normalization;
use whirlpool_xmark::{generate, queries, GeneratorConfig};
use whirlpool_xml::{write_document, WriteOptions};

/// Threads querying one collection at once.
const WORKER_COUNTS: [usize; 3] = [1, 4, 8];

/// Every engine over three XMark shards of different sizes: shards with
/// genuinely different selectivities and document frequencies, so the
/// corpus model differs from every per-document model.
#[test]
fn collection_matches_concatenated_single_shard_runs() {
    let corpus = |engine| Row {
        engine,
        scope: Within::Corpus,
        k: K::Exactly(12),
        ..Row::default()
    };
    let case = xmark_case("xmark", &[10, 20, 30], &[queries::Q1, queries::Q2]);
    check_case(
        &case,
        &sweep(&[Engine::LockStep, Engine::S, Engine::M(2)], corpus),
    );
}

/// With one shard the pooled counts *are* the document's: the corpus
/// and the document scope both return the reference's answers.
#[test]
fn single_shard_collection_reduces_to_the_per_document_run() {
    let rows = sweep(&[Within::Document, Within::Corpus], |scope| Row {
        scope,
        k: K::Exactly(10),
        ..Row::default()
    });
    check_case(&xmark_case("xmark", &[40], &[queries::Q2]), &rows);
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
    /// each of the four on/off pairs returns the reference's top-k.
    #[test]
    fn random_splits_are_answer_preserving(
        items in 12usize..48,
        seed in 0u64..500,
        shards in 1usize..9,
        k in 1usize..12,
    ) {
        let doc = generate(&GeneratorConfig::items(items).with_seed(seed));
        let split = Collection::split_document(&doc, shards);
        let sources = (split.shards().iter())
            .map(|s| write_document(s.as_parsed().unwrap().0, &WriteOptions::default()))
            .collect();
        let label = format!("items={items} seed={seed}");
        let case = Case::new(label, sources, vec![queries::parse(queries::Q2)]);
        let (scope, k) = (Within::Corpus, K::Exactly(k));
        let rows = sweep(&COLLECTION_OPTIONS, |copts| Row { copts, scope, k, ..Row::default() });
        check_case(&case, &rows);
    }

    /// Threads sharing one collection, as the daemon's workers do,
    /// answer as one thread alone: however many query a fresh random
    /// split at once, racing to fill its shards' count memos, each gets
    /// the answers of a sequential run over the same split.
    #[test]
    fn random_splits_are_worker_count_invariant(
        items in 12usize..40,
        seed in 0u64..500,
        shards in 2usize..9,
        k in 1usize..10,
    ) {
        let doc = generate(&GeneratorConfig::items(items).with_seed(seed));
        let split = || Collection::split_document(&doc, shards);
        let collection = split();
        prop_assume!(!collection.is_empty());
        let pattern = queries::parse(queries::Q1);

        let sequential = run(&collection, &pattern, k, &CollectionOptions::default());
        for workers in WORKER_COUNTS {
            let collection = split();
            let barrier = std::sync::Barrier::new(workers);
            let runs: Vec<Vec<CollectionAnswer>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let (collection, barrier, pattern) = (&collection, &barrier, &pattern);
                        scope.spawn(move || {
                            barrier.wait();
                            run(collection, pattern, k, &CollectionOptions::default())
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for got in runs {
                prop_assert!(
                    got == sequential,
                    "items={items} seed={seed} shards={} k={k} workers={workers}:\n \
                     got {got:?}\n ref {sequential:?}",
                    collection.len(),
                );
            }
        }
    }
}
