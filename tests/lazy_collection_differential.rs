//! Disk-resident lazy collections are a pure representation change.
//!
//! Two properties, both over randomly generated element trees (not
//! XMark — the generator here produces arbitrary nestings of a small
//! tag alphabet, so query paths exist, exist only in the wrong
//! arrangement, or don't exist at all):
//!
//! * **Lazy == eager.** A collection opened with
//!   [`Collection::open_dir`] (attach-on-visit, path-synopsis
//!   ceilings, LRU residency) returns a tie-equivalent top-k to the
//!   scan-all run that attaches every shard — across engines, shard
//!   worker counts, and `max_resident` ∈ {1, 4, ∞}. Eviction and
//!   re-attach must never change an answer.
//!
//! * **Ceilings never under-estimate.** For every shard, the ceiling
//!   ([`Collection::shard_ceiling`]) bounds every score that shard can
//!   actually produce under the shared corpus model — relaxed ceilings
//!   bound relaxed runs, exact ceilings bound exact runs, and a `None`
//!   ceiling means a provably empty shard. This is the soundness
//!   contract that makes pruned-before-attach safe: a shard discarded
//!   on its counts alone can never have held a top-k answer. The
//!   ceiling is the root's maximum plus, per server, the exact weight
//!   where some answer satisfies the predicate exactly and the relaxed
//!   weight where one satisfies it only relaxed, over trees where a
//!   predicate's tag sits at the exact depth, deeper, or both.
//!
//! * **Levels are the counts' levels.** The engines mark a binding
//!   `MatchLevel::Exact` only where its answer satisfies the server's
//!   exact component predicate, and bind a server at all only where the
//!   relaxed one holds: what the ceiling's two counts count.

#[path = "common/temp.rs"]
mod temp;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use temp::TempDir;
use whirlpool_core::{
    collection_answers_equivalent, evaluate_collection, Algorithm, Binding, Collection,
    CollectionAnswer, CollectionOptions, Completeness, ContextOptions, EvalOptions, QueryContext,
    RelaxMode,
};
use whirlpool_index::TagIndex;
use whirlpool_pattern::{parse_pattern, QNodeId, TreePattern};
use whirlpool_score::tfidf::{self, ComponentPredicate};
use whirlpool_score::{MatchLevel, Normalization, ScoreModel, TfIdfModel};
use whirlpool_xml::{parse_document, NodeId};

const EPS: f64 = 1e-9;

/// Tags the generator draws from: a mix of the query alphabet (so
/// matches, partial matches, and arrangement mismatches all occur) and
/// noise tags.
const TAGS: [&str; 8] = [
    "book", "title", "isbn", "price", "archive", "info", "note", "shelf",
];

/// Queries whose server paths range from flat child steps to nested
/// chains — exercising the dataguide intersection at every depth.
const QUERIES: [&str; 4] = [
    "//book[./title and ./isbn]",
    "//book[.//price]",
    "//book[./info/isbn and ./title]",
    "//archive[./isbn and .//note]",
];

fn emit(rng: &mut StdRng, depth: usize, out: &mut String) {
    let tag = TAGS[rng.gen_range(0..TAGS.len())];
    out.push_str(&format!("<{tag}>"));
    if depth < 4 {
        for _ in 0..rng.gen_range(0..=3) {
            if rng.gen_bool(0.6) {
                emit(rng, depth + 1, out);
            }
        }
    }
    if rng.gen_bool(0.3) {
        out.push_str(&format!("x{}", rng.gen_range(0..9)));
    }
    out.push_str(&format!("</{tag}>"));
}

/// Queries for the ceiling and level properties: [`QUERIES`] plus a
/// value test, over [`layered_doc`]'s tags.
const CEILING_QUERIES: [&str; 5] = [
    QUERIES[0],
    QUERIES[1],
    QUERIES[2],
    QUERIES[3],
    "//book[./title = 'x' and ./price]",
];

/// Books whose `title`, `isbn` and `price` sit as children (the exact
/// depth of `./tag`), under an `<info>` (only relaxed), in both places,
/// or nowhere. Each tag's places are drawn once per document, so a
/// shard often holds a tag only deeper than the query asks: no exact
/// witness, only relaxed ones.
fn layered_doc(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    // Per tag: may it sit at the exact depth, and may it sit deeper?
    let places: Vec<(bool, bool)> = (0..3)
        .map(|_| (rng.gen_bool(0.5), rng.gen_bool(0.6)))
        .collect();
    let mut out = String::from("<lib>");
    for _ in 0..rng.gen_range(1..=5) {
        let (mut top, mut deep) = (String::new(), String::new());
        for (tag, &(exact, deeper)) in ["title", "isbn", "price"].iter().zip(&places) {
            let value = ["x", "y"][rng.gen_range(0..2)];
            let leaf = format!("<{tag}>{value}</{tag}>");
            if exact && rng.gen_bool(0.6) {
                top.push_str(&leaf);
            }
            if deeper && rng.gen_bool(0.6) {
                deep.push_str(&leaf);
            }
        }
        out.push_str(&format!("<book>{top}<info>{deep}</info></book>"));
    }
    out.push_str("</lib>");
    out
}

/// Shard `i` of a property's collection: layered and random trees in
/// turn.
fn mixed_doc(seed: u64, i: usize) -> String {
    let seed = seed.wrapping_mul(53).wrapping_add(i as u64);
    if i % 2 == 0 {
        layered_doc(seed)
    } else {
        random_doc(seed)
    }
}

/// A model with a root contribution, so a ceiling that drops the root's
/// term is seen: [`TfIdfModel`]'s root weighs 0.
struct RootBonus<'m>(&'m TfIdfModel);

impl RootBonus<'_> {
    const ROOT: f64 = 0.25;

    fn bonus(server: QNodeId) -> f64 {
        if server == QNodeId::ROOT {
            Self::ROOT
        } else {
            0.0
        }
    }
}

impl ScoreModel for RootBonus<'_> {
    fn contribution(&self, server: QNodeId, node: NodeId, level: MatchLevel) -> f64 {
        self.0.contribution(server, node, level) + Self::bonus(server)
    }

    fn max_contribution(&self, server: QNodeId) -> f64 {
        self.0.max_contribution(server) + Self::bonus(server)
    }

    fn max_relaxed_contribution(&self, server: QNodeId) -> f64 {
        self.0.max_relaxed_contribution(server) + Self::bonus(server)
    }
}

/// `pred` with its axis relaxed: the form the relaxed count counts.
fn relaxed(pred: &ComponentPredicate) -> ComponentPredicate {
    ComponentPredicate {
        axis: pred.axis.relaxed(),
        ..pred.clone()
    }
}

/// A random element tree under a fixed `<lib>` root. Same seed, same
/// document.
fn random_doc(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::from("<lib>");
    for _ in 0..rng.gen_range(1..=6) {
        emit(&mut rng, 0, &mut out);
    }
    out.push_str("</lib>");
    out
}

/// Writes each source as a snapshot shard in a fresh unique temp dir.
fn write_snapshot_dir(sources: &[String]) -> TempDir {
    let dir = TempDir::new("wp-lazy-prop");
    for (i, src) in sources.iter().enumerate() {
        let doc = parse_document(src).unwrap();
        let index = TagIndex::build(&doc);
        whirlpool_store::save_snapshot(&doc, &index, dir.join(format!("s{i:02}.wps"))).unwrap();
    }
    dir
}

fn run_lazy(
    dir: &std::path::Path,
    pattern: &TreePattern,
    algorithm: &Algorithm,
    k: usize,
    workers: usize,
    max_resident: usize,
    copts: &CollectionOptions,
) -> Vec<CollectionAnswer> {
    let collection = Collection::open_dir(dir).unwrap();
    collection.set_max_resident(max_resident);
    let options = EvalOptions {
        threads: workers,
        ..EvalOptions::top_k(k)
    };
    let r = evaluate_collection(
        &collection,
        pattern,
        algorithm,
        &options,
        Normalization::Sparse,
        copts,
    );
    assert!(
        matches!(r.completeness, Completeness::Exact),
        "unbudgeted lazy run must not truncate: {:?}",
        r.collection_metrics
    );
    r.answers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Attach-on-visit, ceiling pruning and LRU eviction are all
    /// answer-preserving: every engine (Whirlpool-M at one and at four
    /// workers per shard run) and residency cap agrees tie-aware with
    /// the scan-all run that attaches everything.
    #[test]
    fn lazy_matches_eager_across_engines_workers_and_residency(
        shards in 2usize..7,
        seed in 0u64..1000,
        k in 1usize..8,
        q in 0usize..QUERIES.len(),
    ) {
        let sources: Vec<String> = (0..shards)
            .map(|i| random_doc(seed.wrapping_mul(31).wrapping_add(i as u64)))
            .collect();
        let dir = write_snapshot_dir(&sources);
        let pattern = parse_pattern(QUERIES[q]).unwrap();

        let eager = run_lazy(
            &dir, &pattern, &Algorithm::WhirlpoolS, k, 1, 0,
            &CollectionOptions::scan_all(),
        );
        let engines = [
            Algorithm::LockStep,
            Algorithm::WhirlpoolS,
            Algorithm::WhirlpoolM { processors: None },
        ];
        for algorithm in &engines {
            let workers: &[usize] = match algorithm {
                Algorithm::WhirlpoolM { .. } => &[1, 4],
                _ => &[1],
            };
            for &workers in workers {
                for max_resident in [1usize, 4, 0] {
                    let got = run_lazy(
                        &dir, &pattern, algorithm, k, workers, max_resident,
                        &CollectionOptions::default(),
                    );
                    prop_assert!(
                        collection_answers_equivalent(&got, &eager, EPS),
                        "seed={seed} shards={shards} k={k} q={} {} workers={workers} \
                         max_resident={max_resident}:\n got {got:?}\n ref {eager:?}",
                        QUERIES[q],
                        algorithm.name(),
                    );
                }
            }
        }
    }

    /// The shard ceiling is the counts' arithmetic, and a sound upper
    /// bound on what the collection driver can actually produce: each
    /// shard's ceiling is the root's maximum plus, per server, the exact
    /// weight where the reference count finds an exact witness, else the
    /// relaxed weight where it finds a relaxed one (exact mode: `None`),
    /// else nothing; and an exhaustive scan-all run (k large enough to
    /// keep every answer, no pruning) never yields an answer above its
    /// shard's ceiling, or from a shard whose ceiling is `None`.
    #[test]
    fn count_ceilings_never_underestimate_brute_force_scores(
        shards in 1usize..6,
        seed in 0u64..1000,
        q in 0usize..CEILING_QUERIES.len(),
    ) {
        let query = CEILING_QUERIES[q];
        let mut collection = Collection::new();
        for i in 0..shards {
            collection.add_source(format!("s{i:02}"), &mixed_doc(seed, i)).unwrap();
        }
        let pattern = parse_pattern(query).unwrap();
        let answer_tag = &pattern.node(pattern.root()).tag;
        let preds = tfidf::component_predicates(&pattern);
        let model = collection
            .corpus_stats(&pattern)
            .model(Normalization::Sparse);
        let bonus = RootBonus(&model);

        for relax in [RelaxMode::Relaxed, RelaxMode::Exact] {
            for (idx, shard) in collection.shards().iter().enumerate() {
                let (doc, index) = shard.as_parsed().unwrap();
                let witnessed = |pred: &ComponentPredicate| {
                    tfidf::idf_counts(doc, index, answer_tag, pred).1 > 0
                };
                let expected = (shard.synopsis().answers(answer_tag) > 0)
                    .then(|| {
                        let mut total = bonus.max_root_contribution();
                        for pred in &preds {
                            if witnessed(pred) {
                                total += bonus.max_contribution(pred.qnode);
                            } else if relax == RelaxMode::Exact {
                                return None;
                            } else if witnessed(&relaxed(pred)) {
                                total += bonus.max_relaxed_contribution(pred.qnode);
                            }
                        }
                        Some(total)
                    })
                    .flatten();
                let got = collection.shard_ceiling(idx, &pattern, &bonus, relax);
                prop_assert_eq!(
                    got.map(|c| c.value()),
                    expected,
                    "seed={} shard={} q={} {:?}",
                    seed,
                    idx,
                    query,
                    relax
                );
            }

            // Soundness against the driver itself: every answer an
            // exhaustive scan produces stays under its shard's ceiling.
            let options = EvalOptions {
                relax,
                ..EvalOptions::top_k(1000)
            };
            let r = evaluate_collection(
                &collection,
                &pattern,
                &Algorithm::WhirlpoolS,
                &options,
                Normalization::Sparse,
                &CollectionOptions::scan_all(),
            );
            for a in &r.answers {
                let ceiling = collection.shard_ceiling(a.shard, &pattern, &model, relax);
                match ceiling {
                    None => prop_assert!(
                        false,
                        "seed={seed} q={query} {relax:?}: shard {} answered {a:?} but its \
                         ceiling was None",
                        a.shard,
                    ),
                    Some(ceil) => prop_assert!(
                        a.score.value() <= ceil.value() + EPS,
                        "seed={seed} q={query} {relax:?}: {a:?} above ceiling {ceil:?}",
                    ),
                }
            }
        }
    }

    /// The engine side of the ceilings' soundness: whatever order the
    /// servers run in, a binding is `Exact` only where the reference
    /// count finds the answer satisfying the server's exact predicate,
    /// and any binding at all only where the relaxed predicate holds —
    /// in both relax modes.
    #[test]
    fn engine_levels_are_the_counted_levels(
        seed in 0u64..1000,
        i in 0usize..2,
        q in 0usize..CEILING_QUERIES.len(),
    ) {
        let doc = parse_document(&mixed_doc(seed, i)).unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern(CEILING_QUERIES[q]).unwrap();
        let preds = tfidf::component_predicates(&pattern);
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        for relax in [RelaxMode::Relaxed, RelaxMode::Exact] {
            let ctx = QueryContext::new(&doc, &index, &pattern, &model, ContextOptions { relax });
            let mut servers: Vec<QNodeId> = pattern.server_ids().collect();
            if seed % 2 == 1 {
                servers.reverse();
            }
            let mut matches = ctx.make_root_matches();
            for &server in &servers {
                let mut next = Vec::new();
                for m in &matches {
                    ctx.process_at_server(server, m, &mut next);
                }
                matches = next;
            }
            for m in &matches {
                for pred in &preds {
                    let Binding::Matched { level, .. } = m.bindings[pred.qnode.index()] else {
                        continue;
                    };
                    let holds = |p: &ComponentPredicate| tfidf::tf(&doc, &index, p, m.root()) > 0;
                    prop_assert!(holds(&relaxed(pred)), "seed={seed} {relax:?} {pred:?}");
                    if level == MatchLevel::Exact {
                        prop_assert!(holds(pred), "seed={seed} {relax:?} {pred:?} marked exact");
                    }
                }
            }
        }
    }
}
