//! Each shard counts Definition 4.2 once per predicate.
//!
//! A collection keeps every shard's idf counts by (answer tag,
//! predicate tag, composed axis, value test, attribute tests), so a
//! repeated query shape builds its model from lookups. A model built
//! from the memo must be the model a fresh count builds, bit for bit,
//! whatever queries filled the memo before it, however many threads
//! fill it at once, and after hostile traffic has filled it to its cap.

#[path = "common/temp.rs"]
mod temp;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use temp::TempDir;
use whirlpool_core::{
    evaluate_scope, Algorithm, Collection, CollectionOptions, CollectionResult, EvalOptions, Scope,
    COUNT_MEMO_CAP,
};
use whirlpool_index::TagIndex;
use whirlpool_pattern::{parse_pattern, QNodeId, TreePattern};
use whirlpool_score::{CorpusStats, Normalization, ScoreModel, TfIdfModel};
use whirlpool_xmark::{generate, queries, GeneratorConfig};
use whirlpool_xml::{Document, NodeId};

/// Query shapes whose predicates share a tag and differ in one part of
/// the key only: the composed axis (`./text`, `.//text`,
/// `./description/text`), the value test (`quantity`, `= '1'`,
/// `= '2'`) or an attribute test (`@id`, `@id = 'item3'`), after the
/// benchmark's queries.
const SHAPES: &[&str] = &[
    queries::Q1,
    queries::Q2,
    queries::Q3,
    queries::Q4,
    "//item[./quantity = '1' and ./mailbox/mail/text]",
    "//item[./text]",
    "//item[.//text]",
    "//item[./description/text]",
    "//item[.//description//text]",
    "//item[./quantity]",
    "//item[./quantity = '1']",
    "//item[./quantity = '2']",
    "//item[./incategory]",
    "//item[./incategory[@category]]",
    "//item[@id and ./name]",
    "//item[@id = 'item3' and ./name]",
    "//*[./parlist]",
];

fn xmark(items: usize, seed: u64) -> Document {
    generate(&GeneratorConfig::items(items).with_seed(seed))
}

/// Every `[exact, relaxed]` weight and satisfying fraction of `model`,
/// as bits.
fn model_bits(model: &TfIdfModel, pattern: &TreePattern) -> Vec<u64> {
    let nodes = std::iter::once(QNodeId::ROOT).chain(pattern.server_ids());
    let weights = nodes.flat_map(|q| model.weights(q));
    let fractions = (model.satisfying_fractions())
        .expect("a counted model keeps its fractions")
        .iter()
        .flatten();
    weights
        .chain(fractions.copied())
        .map(f64::to_bits)
        .collect()
}

/// Whirlpool-S's relaxed top `k` over `scope`.
fn scope_run(
    collection: &Collection,
    scope: Scope,
    pattern: &TreePattern,
    k: usize,
) -> CollectionResult {
    let (s, options, copts) = (
        &Algorithm::WhirlpoolS,
        EvalOptions::top_k(k),
        CollectionOptions::default(),
    );
    evaluate_scope(
        collection,
        scope,
        pattern,
        s,
        &options,
        Normalization::Sparse,
        &copts,
    )
}

/// `(shard, node, score bits)` of every answer, in rank order.
fn answers(result: &CollectionResult) -> Vec<(usize, NodeId, u64)> {
    (result.answers.iter())
        .map(|a| (a.shard, a.root, a.score.value().to_bits()))
        .collect()
}

/// The document `xmark(items, seed)` parsed, next to it saved as a
/// snapshot and added with its payload ([`Collection::add_snapshot`]).
fn parsed_and_attached(items: usize, seed: u64, dir: &TempDir) -> Collection {
    let doc = xmark(items, seed);
    let path = dir.join("doc.wps");
    whirlpool_store::save_snapshot(&doc, &TagIndex::build(&doc), &path).unwrap();
    let mut collection = Collection::new();
    collection.add_document("parsed", doc);
    collection.add_snapshot("attached", &path).unwrap();
    collection
}

#[test]
fn a_memo_hit_builds_the_model_a_fresh_count_builds() {
    let doc = xmark(120, 42);
    let index = TagIndex::build(&doc);
    let dir = TempDir::new("wp-memo-hit");
    let collection = parsed_and_attached(120, 42, &dir);
    // Twice through every shape: the first pass counts each shape's new
    // predicates after the earlier shapes filled the memo, the second
    // reads them all.
    for pass in 0..2 {
        for query in SHAPES {
            let pattern = parse_pattern(query).unwrap();
            let fresh = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
            for shard in 0..collection.len() {
                let scope = Scope::Shard(shard);
                let what = format!("pass {pass}, {query}, shard {shard}");
                let model = collection
                    .scope_stats(scope, &pattern)
                    .model(Normalization::Sparse);
                assert_eq!(
                    model_bits(&model, &pattern),
                    model_bits(&fresh, &pattern),
                    "{what}"
                );
                let scoped = scope_run(&collection, scope, &pattern, 15);
                assert_eq!(scoped.collection_metrics.shards_counted, 0, "{what}");
            }
        }
    }
}

#[test]
fn a_query_sharing_two_predicates_counts_only_its_new_ones() {
    let doc = xmark(80, 7);
    let index = TagIndex::build(&doc);
    let mut collection = Collection::new();
    collection.add_document("doc", xmark(80, 7));
    let first = parse_pattern("//item[./name and ./payment]").unwrap();
    let run = scope_run(&collection, Scope::Shard(0), &first, 5);
    assert_eq!(run.collection_metrics.shards_counted, 1);
    assert_eq!(collection.shards()[0].memoized_counts(), 2);

    // The two shared predicates sit at other query nodes and in another
    // order: only `./location` and `.//text` are new.
    let second = parse_pattern("//item[./location and ./payment and .//text and ./name]").unwrap();
    let run = scope_run(&collection, Scope::Shard(0), &second, 5);
    assert_eq!(run.collection_metrics.shards_counted, 1);
    assert_eq!(collection.shards()[0].memoized_counts(), 4);
    let fresh = TfIdfModel::build(&doc, &index, &second, Normalization::Sparse);
    let model = collection
        .scope_stats(Scope::Shard(0), &second)
        .model(Normalization::Sparse);
    assert_eq!(model_bits(&model, &second), model_bits(&fresh, &second));
    let again = scope_run(&collection, Scope::Shard(0), &second, 5);
    assert_eq!(again.collection_metrics.shards_counted, 0);
    assert_eq!(answers(&again), answers(&run));
}

#[test]
fn at_one_resident_a_repeated_corpus_query_attaches_only_what_it_evaluates() {
    let dir = TempDir::new("wp-memo-attach");
    let mut collection = Collection::new();
    // Three item-bearing documents and one without items, which every
    // run prunes.
    let sources = [xmark(60, 1), xmark(60, 2), xmark(60, 3)];
    let empty = whirlpool_xml::parse_document("<site><people/></site>").unwrap();
    for (i, doc) in sources.iter().chain([&empty]).enumerate() {
        let path = dir.join(format!("s{i}.wps"));
        whirlpool_store::save_snapshot(doc, &TagIndex::build(doc), &path).unwrap();
        collection.add_snapshot(format!("s{i}"), &path).unwrap();
    }
    collection.set_max_resident(1);
    let pattern = parse_pattern(queries::Q2).unwrap();
    let first = scope_run(&collection, Scope::Corpus, &pattern, 3);
    // The document without items holds no answer: it is never counted.
    assert_eq!(first.collection_metrics.shards_counted, 3);
    // Counting took time, inside the model's build; a repeat takes none.
    let count_time = first.collection_metrics.count_time;
    assert!(Duration::ZERO < count_time && count_time <= first.model_build);
    for _ in 0..3 {
        let again = scope_run(&collection, Scope::Corpus, &pattern, 3);
        let m = &again.collection_metrics;
        assert_eq!(m.shards_counted, 0, "{m:?}");
        assert_eq!(m.count_time, Duration::ZERO, "{m:?}");
        assert!(m.shards_pruned >= 1, "{m:?}");
        assert!(m.shards_attached as usize <= m.shards_visited, "{m:?}");
        assert_eq!(answers(&again), answers(&first));
    }
}

#[test]
fn a_flood_of_distinct_values_fills_every_memo_to_its_cap_and_no_further() {
    const FLOOD: usize = 1_100;
    let dir = TempDir::new("wp-memo-flood");
    let s1 = xmark(30, 12);
    let path = dir.join("s1.wps");
    whirlpool_store::save_snapshot(&s1, &TagIndex::build(&s1), &path).unwrap();
    let build = || {
        let mut collection = Collection::new();
        collection.add_document("s0", xmark(30, 11));
        collection.add_snapshot("s1", &path).unwrap();
        collection
    };
    let collection = build();
    let check = |query: &str| {
        let pattern = parse_pattern(query).unwrap();
        let flooded = scope_run(&collection, Scope::Corpus, &pattern, 10);
        let fresh = scope_run(&build(), Scope::Corpus, &pattern, 10);
        assert_eq!(answers(&flooded), answers(&fresh), "{query}");
        flooded
    };
    for n in 0..FLOOD {
        let query = format!("//item[./quantity = 'v{n}']");
        if n % 100 == 0 {
            check(&query);
        } else {
            let pattern = parse_pattern(&query).unwrap();
            scope_run(&collection, Scope::Corpus, &pattern, 10);
        }
    }
    for shard in collection.shards() {
        assert_eq!(shard.memoized_counts(), COUNT_MEMO_CAP, "{}", shard.name());
    }
    // Past the cap a new predicate is counted on every run and never
    // stored; a stored one is still read.
    for _ in 0..2 {
        let run = check("//item[./quantity = '1' and ./mailbox/mail/text]");
        assert_eq!(run.collection_metrics.shards_counted, 2);
    }
    let run = check("//item[./quantity = 'v3']");
    assert_eq!(run.collection_metrics.shards_counted, 0);
    for shard in collection.shards() {
        assert_eq!(shard.memoized_counts(), COUNT_MEMO_CAP, "{}", shard.name());
    }
}

/// Four threads released together, each building the model of every
/// pattern over `scope` while `watch` runs on the calling thread: the
/// model bits each thread built, per pattern. Round 0 walks the
/// patterns in one order on every thread, so all four miss on each
/// predicate at once; later rounds start each thread elsewhere, so
/// hits, misses and inserts interleave. `watch` sees how many threads
/// have finished.
fn four_threads_build(
    collection: &Collection,
    scope: Scope,
    patterns: &[TreePattern],
    round: usize,
    watch: impl FnOnce(&AtomicUsize),
) -> Vec<Vec<Vec<u64>>> {
    let finished = AtomicUsize::new(0);
    let barrier = std::sync::Barrier::new(5);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|t| {
                let (barrier, finished) = (&barrier, &finished);
                s.spawn(move || {
                    barrier.wait();
                    let mut models = vec![Vec::new(); patterns.len()];
                    for i in 0..patterns.len() {
                        let at = (i + t * round) % patterns.len();
                        let stats = collection.scope_stats(scope, &patterns[at]);
                        models[at] = model_bits(&stats.model(Normalization::Dense), &patterns[at]);
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    models
                })
            })
            .collect();
        barrier.wait();
        watch(&finished);
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    })
}

#[test]
fn four_threads_filling_one_memo_build_identical_models() {
    let doc = xmark(120, 5);
    let index = TagIndex::build(&doc);
    let patterns: Vec<TreePattern> = SHAPES.iter().map(|q| parse_pattern(q).unwrap()).collect();
    for round in 0..4 {
        let mut collection = Collection::new();
        collection.add_document("doc", xmark(120, 5));
        let built = four_threads_build(&collection, Scope::Shard(0), &patterns, round, |_| ());
        for (i, pattern) in patterns.iter().enumerate() {
            let fresh =
                TfIdfModel::build_view((&doc).into(), index.view(), pattern, Normalization::Dense);
            let want = model_bits(&fresh, pattern);
            for (t, models) in built.iter().enumerate() {
                assert_eq!(models[i], want, "round {round}, thread {t}, {}", SHAPES[i]);
            }
        }
    }
}

#[test]
fn the_admission_price_falls_to_zero_while_four_threads_fill_a_lazy_corpus() {
    let dir = TempDir::new("wp-memo-price");
    let docs = [xmark(120, 5), xmark(90, 6)];
    for (i, doc) in docs.iter().enumerate() {
        let path = dir.join(format!("s{i}.wps"));
        whirlpool_store::save_snapshot(doc, &TagIndex::build(doc), &path).unwrap();
    }
    let patterns: Vec<TreePattern> = SHAPES.iter().map(|q| parse_pattern(q).unwrap()).collect();
    let want: Vec<Vec<u64>> = (patterns.iter())
        .map(|pattern| {
            let mut stats = CorpusStats::new(pattern);
            for doc in &docs {
                let answer_tag = &pattern.node(pattern.root()).tag;
                stats.add_shard(doc, &TagIndex::build(doc), answer_tag);
            }
            model_bits(&stats.model(Normalization::Dense), pattern)
        })
        .collect();
    for round in 0..4 {
        let collection = Collection::open_dir(&dir).unwrap();
        collection.set_max_resident(1);
        let price = || -> u64 {
            (patterns.iter())
                .map(|p| collection.uncounted_answers(Scope::Corpus, p))
                .sum()
        };
        let unpriced = price();
        assert!(unpriced > 0);
        // The price reads the memos the workers fill: it never rises,
        // and once they are done every shard has counted every shape.
        let built = four_threads_build(&collection, Scope::Corpus, &patterns, round, |finished| {
            let mut last = unpriced;
            while finished.load(Ordering::SeqCst) < 4 {
                let now = price();
                assert!(now <= last, "round {round}: the price rose {last} -> {now}");
                last = now;
            }
            assert_eq!(price(), 0, "round {round}");
        });
        for (i, want) in want.iter().enumerate() {
            for (t, models) in built.iter().enumerate() {
                assert_eq!(&models[i], want, "round {round}, thread {t}, {}", SHAPES[i]);
            }
        }
    }
}
