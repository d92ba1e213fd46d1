//! A brute-force oracle for relaxed and exact top-k.
//!
//! The oracle enumerates *every* tuple of a query over a small document
//! — the product of each server's tag/value-compatible descendants of
//! the root candidate, `Null` where a server has none — scores each
//! tuple as DESIGN.md §5 words it (Σ over servers of the score model's
//! contribution at the binding's *root-relative* level), and keeps the
//! best tuple per root. It reads the [`Document`] API and
//! [`ScoreModel::contribution`] only: no index, no `QueryContext`, no
//! plan — so it shares no code with the engines it judges, and it is
//! what proves that the relaxed kernel's one-extension-per-server
//! factorisation returns the same per-root scores as full enumeration.
//!
//! Engines are compared with a score-multiset + tie-boundary
//! comparator: the returned score vector must equal the oracle's top-k
//! score vector, every returned root must score in the oracle what the
//! engine says it scores, and every oracle root scoring strictly above
//! the k-th score must be returned. Members *at* the k-th score may be
//! any roots the oracle also scores there.

#[path = "common/temp.rs"]
mod temp;

use proptest::prelude::*;
use temp::TempDir;
use whirlpool_core::{
    evaluate, evaluate_collection, evaluate_view, Algorithm, Collection, CollectionOptions,
    EvalOptions, MetricsSnapshot, QueuePolicy, RelaxMode,
};
use whirlpool_index::TagIndex;
use whirlpool_pattern::{parse_pattern, Axis, QNodeId, TreePattern, WILDCARD};
use whirlpool_score::{
    FixedScores, MatchLevel, Normalization, RandomScores, ScoreModel, TfIdfModel,
};
use whirlpool_store::{build_snapshot_bytes, save_snapshot, Snapshot};
use whirlpool_xmark::{generate, queries, GeneratorConfig};
use whirlpool_xml::{Document, DocumentBuilder, NodeId};

const EPS: f64 = 1e-9;

/// The survey's corner cases (Hachicha & Darmont) plus ordinary twigs.
const PATTERNS: [&str; 13] = [
    // A single node: every root match is an answer the moment it exists.
    "//a",
    // Wildcard below the root, alone and inside a chain.
    "//a[./*]",
    "//a[./*/b and ./c]",
    // Wildcard at the root.
    "//*[./a and .//b]",
    // `//` over a recursive tag, and `/` under one.
    "//a[.//a]",
    "//a[./a and ./b]",
    // A value test on a repeated leaf.
    "//a[./b = 'x']",
    "//a[.//b = 'x' and ./c]",
    // A pattern node with two identical children.
    "//a[./b and ./b]",
    "//a[./b[./c and ./c]]",
    // Ordinary twigs: chains, nesting, mixed axes.
    "//a[./b/c and .//d]",
    "//b[./a[./c and .//d] and ./d]",
    "/a[./b and .//c]",
];

fn all_engines() -> Vec<(Algorithm, usize)> {
    vec![
        (Algorithm::LockStepNoPrune, 1),
        (Algorithm::LockStep, 1),
        (Algorithm::WhirlpoolS, 1),
        (Algorithm::WhirlpoolM { processors: None }, 1),
        (Algorithm::WhirlpoolM { processors: None }, 4),
    ]
}

// -- the oracle ----------------------------------------------------------

/// Does `n` satisfy query node `q`'s own tests (tag, value, attributes)?
fn node_matches(doc: &Document, pattern: &TreePattern, q: QNodeId, n: NodeId) -> bool {
    let pn = pattern.node(q);
    (pn.tag == WILDCARD || doc.tag_str(n) == pn.tag)
        && pn.value.as_ref().map_or(true, |v| v.matches(doc.text(n)))
        && pn
            .attrs
            .iter()
            .all(|a| a.matches(doc.attribute(n, &a.name)))
}

/// The candidate instantiations of the pattern root.
fn root_candidates(doc: &Document, pattern: &TreePattern) -> Vec<NodeId> {
    let root = pattern.root();
    doc.elements()
        .filter(|&n| node_matches(doc, pattern, root, n))
        .filter(|&n| match pattern.node(root).axis {
            Axis::Child => doc.depth(n) == 1,
            Axis::Descendant => true,
        })
        .collect()
}

/// Definition 4.1's component predicate `p(q0, q)` between root binding
/// `r` and candidate `n`: a chain of `d` child edges composes to "at
/// depth exactly `d` below `r`", anything with a `//` in it to "a
/// proper descendant of `r`".
fn root_relative_exact(
    doc: &Document,
    pattern: &TreePattern,
    q: QNodeId,
    r: NodeId,
    n: NodeId,
) -> bool {
    let mut all_child = true;
    let mut edges = 0;
    let mut cur = q;
    while let Some(parent) = pattern.node(cur).parent {
        all_child &= pattern.node(cur).axis == Axis::Child;
        edges += 1;
        cur = parent;
    }
    doc.is_ancestor(r, n) && (!all_child || doc.depth(n) == doc.depth(r) + edges)
}

/// Does the literal pattern edge into `q` hold between the bindings?
fn edge_holds(
    doc: &Document,
    pattern: &TreePattern,
    q: QNodeId,
    parent: NodeId,
    n: NodeId,
) -> bool {
    match pattern.node(q).axis {
        Axis::Child => doc.is_parent(parent, n),
        Axis::Descendant => doc.is_ancestor(parent, n),
    }
}

/// The best tuple score per root, by enumerating every tuple. Relaxed
/// roots always have one (the all-null tuple at worst); exact roots
/// without a valid embedding are absent.
fn oracle(
    doc: &Document,
    pattern: &TreePattern,
    model: &dyn ScoreModel,
    relax: RelaxMode,
) -> Vec<(NodeId, f64)> {
    let servers: Vec<QNodeId> = pattern.server_ids().collect();
    let mut out = Vec::new();
    for r in root_candidates(doc, pattern) {
        // Each server's universe: the tag/value-compatible proper
        // descendants of the root binding, or the null.
        let universes: Vec<Vec<Option<NodeId>>> = servers
            .iter()
            .map(|&q| {
                let found: Vec<Option<NodeId>> = doc
                    .elements()
                    .filter(|&n| doc.is_ancestor(r, n) && node_matches(doc, pattern, q, n))
                    .map(Some)
                    .collect();
                if found.is_empty() {
                    vec![None]
                } else {
                    found
                }
            })
            .collect();
        let tuples: usize = universes.iter().map(Vec::len).product();
        assert!(tuples <= 5_000_000, "fixture too large to enumerate");

        let mut best: Option<f64> = None;
        let mut odometer = vec![0usize; servers.len()];
        'tuples: loop {
            let binding = |q: QNodeId| -> Option<NodeId> {
                if q == pattern.root() {
                    Some(r)
                } else {
                    universes[q.index() - 1][odometer[q.index() - 1]]
                }
            };
            let score = match relax {
                RelaxMode::Relaxed => Some(
                    servers
                        .iter()
                        .map(|&q| match binding(q) {
                            None => 0.0,
                            Some(n) => {
                                let level = if root_relative_exact(doc, pattern, q, r, n) {
                                    MatchLevel::Exact
                                } else {
                                    MatchLevel::Relaxed
                                };
                                model.contribution(q, n, level)
                            }
                        })
                        .sum::<f64>(),
                ),
                RelaxMode::Exact => servers
                    .iter()
                    .map(|&q| {
                        let n = binding(q)?;
                        let parent = binding(pattern.node(q).parent.expect("server has a parent"))?;
                        edge_holds(doc, pattern, q, parent, n)
                            .then(|| model.contribution(q, n, MatchLevel::Exact))
                    })
                    .sum::<Option<f64>>(),
            };
            if let Some(s) = score {
                let s = s + model.contribution(QNodeId::ROOT, r, MatchLevel::Exact);
                best = Some(best.map_or(s, |b: f64| b.max(s)));
            }
            // Next tuple.
            for i in 0..odometer.len() {
                odometer[i] += 1;
                if odometer[i] < universes[i].len() {
                    continue 'tuples;
                }
                odometer[i] = 0;
            }
            break;
        }
        if let Some(s) = best {
            out.push((r, s));
        }
    }
    out
}

/// The score-multiset + tie-boundary comparator over `(key, score)`
/// lists; `K` is a root, or a `(shard, root)` pair.
fn check_topk<K: PartialEq + std::fmt::Debug + Copy>(
    what: &str,
    got: &[(K, f64)],
    truth: &[(K, f64)],
    k: usize,
) {
    let mut sorted: Vec<f64> = truth.iter().map(|&(_, s)| s).collect();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    sorted.truncate(k);
    assert_eq!(got.len(), sorted.len(), "{what}: answer count, got {got:?}");
    for (i, (&(key, s), &want)) in got.iter().zip(&sorted).enumerate() {
        assert!(
            (s - want).abs() <= EPS,
            "{what}: rank {i} scores {s}, oracle {want}; got {got:?} truth {truth:?}"
        );
        let own = truth.iter().find(|(t, _)| *t == key);
        assert!(
            own.is_some_and(|&(_, t)| (t - s).abs() <= EPS),
            "{what}: {key:?} returned at {s}, oracle says {own:?}"
        );
        assert!(
            !got[..i].iter().any(|(g, _)| *g == key),
            "{what}: {key:?} returned twice"
        );
    }
    if let Some(&kth) = sorted.last() {
        for &(key, s) in truth {
            assert!(
                s <= kth + EPS || got.iter().any(|(g, _)| *g == key),
                "{what}: {key:?} scores {s} above the k-th {kth} but is missing from {got:?}"
            );
        }
    }
}

/// What relaxed mode may create — one match per seeded root plus one
/// per server operation — and what lazy seeding adds to that: a root is
/// seeded or counted unseeded, never both, and when every root starts
/// at the same score (`uniform_roots`: an idf model) a seed exists only
/// to be processed, to end the run, or — single-node patterns — to be
/// an answer, so the matches track the operations, not the document.
/// Whirlpool-M seeds a batch of 32 per worker ahead of that.
fn check_relaxed_counters(
    what: &str,
    m: &MetricsSnapshot,
    engine: (&Algorithm, usize),
    roots: u64,
    uniform_roots: bool,
    answers: u64,
) {
    assert_eq!(
        roots,
        (m.partials_created - m.server_ops) + m.roots_unseeded,
        "{what}: {roots} roots, {m:?}"
    );
    let ahead = match engine {
        (Algorithm::LockStepNoPrune | Algorithm::LockStep, _) => {
            assert_eq!(m.roots_unseeded, 0, "{what}: lock-step seeds every root");
            return;
        }
        _ if !uniform_roots => return,
        (Algorithm::WhirlpoolS, _) => 1,
        (Algorithm::WhirlpoolM { .. }, threads) => 32 * threads as u64,
    };
    assert!(
        m.partials_created <= 2 * m.server_ops + answers + ahead,
        "{what}: {} matches for {} ops and {answers} answers",
        m.partials_created,
        m.server_ops
    );
}

/// Every engine × k ∈ {1, 2, |roots| − 1, |roots|, |roots| + 2} (the
/// last three never fill the top-k set before every root is seeded) ×
/// relax mode × backing (the parsed document, and its snapshot) against
/// the oracle.
fn assert_engines_match_oracle(
    doc: &Document,
    pattern: &TreePattern,
    model: &dyn ScoreModel,
    uniform_roots: bool,
    label: &str,
) {
    let index = TagIndex::build(doc);
    let snapshot = Snapshot::from_bytes(&build_snapshot_bytes(doc, &index)).unwrap();
    let backings = [
        ("owned", doc.into(), index.view()),
        ("mapped", snapshot.doc_view(), snapshot.index_view()),
    ];
    for relax in [RelaxMode::Relaxed, RelaxMode::Exact] {
        let truth = oracle(doc, pattern, model, relax);
        let roots = root_candidates(doc, pattern).len();
        let mut ks = vec![
            1,
            2,
            roots.saturating_sub(1).max(1),
            roots.max(1),
            roots + 2,
        ];
        ks.sort_unstable();
        ks.dedup();
        for k in ks {
            for (algorithm, threads) in all_engines() {
                for &(backing, doc_view, index_view) in &backings {
                    let mut options = EvalOptions::top_k(k);
                    options.relax = relax;
                    options.threads = threads;
                    let result =
                        evaluate_view(doc_view, index_view, pattern, model, &algorithm, &options);
                    assert!(result.completeness.is_exact());
                    let got: Vec<(NodeId, f64)> = result
                        .answers
                        .iter()
                        .map(|a| (a.root, a.score.value()))
                        .collect();
                    let what = format!(
                        "{label} {pattern} {relax:?} k={k} {}@{threads} {backing}",
                        algorithm.name()
                    );
                    check_topk(&what, &got, &truth, k);
                    let m = &result.metrics;
                    assert!(m.roots_unseeded <= roots as u64, "{what}: {m:?}");
                    if relax == RelaxMode::Relaxed {
                        // Only a single-node pattern's seeds are answers
                        // without an operation.
                        let unprocessed_answers = if pattern.len() == 1 { got.len() } else { 0 };
                        check_relaxed_counters(
                            &what,
                            m,
                            (&algorithm, threads),
                            roots as u64,
                            uniform_roots,
                            unprocessed_answers as u64,
                        );
                    }
                }
            }
        }
    }
}

// -- random small trees ---------------------------------------------------

const TAGS: [&str; 4] = ["a", "b", "c", "d"];
const TEXTS: [&str; 2] = ["x", "y"];

#[derive(Debug, Clone)]
struct RandomTree {
    tag: usize,
    text: Option<usize>,
    children: Vec<RandomTree>,
}

impl RandomTree {
    fn size(&self) -> usize {
        1 + self.children.iter().map(RandomTree::size).sum::<usize>()
    }
}

fn tree_strategy() -> impl Strategy<Value = RandomTree> {
    let leaf =
        (0usize..TAGS.len(), prop::option::of(0usize..TEXTS.len())).prop_map(|(tag, text)| {
            RandomTree {
                tag,
                text,
                children: vec![],
            }
        });
    leaf.prop_recursive(4, 24, 3, |inner| {
        (0usize..TAGS.len(), prop::collection::vec(inner, 0..4)).prop_map(|(tag, children)| {
            RandomTree {
                tag,
                text: None,
                children,
            }
        })
    })
}

/// Builds the tree under a fixed `<a>` document element (so `/a[...]`
/// has a candidate), dropping subtrees past the 40-node budget.
fn build_doc(tree: &RandomTree) -> Document {
    fn rec(t: &RandomTree, b: &mut DocumentBuilder, budget: &mut usize) {
        if *budget == 0 {
            return;
        }
        *budget -= 1;
        b.open(TAGS[t.tag]);
        if let Some(text) = t.text {
            b.text(TEXTS[text]);
        }
        for c in &t.children {
            rec(c, b, budget);
        }
        b.close();
    }
    let mut b = DocumentBuilder::new();
    let mut budget = 39;
    b.open("a");
    rec(tree, &mut b, &mut budget);
    b.close();
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The four engines return the brute-force enumeration's per-root
    /// scores, in both relax modes, under idf weights (where a server's
    /// candidates tie) and under per-node random scores (where they do
    /// not, so picking the dominant candidate is doing real work).
    #[test]
    fn engines_match_the_enumeration(tree in tree_strategy(), seed in 0u64..1_000) {
        let doc = build_doc(&tree);
        prop_assume!(tree.size() >= 3);
        let index = TagIndex::build(&doc);
        for q in PATTERNS {
            let pattern = parse_pattern(q).unwrap();
            for norm in [Normalization::Sparse, Normalization::None] {
                let model = TfIdfModel::build(&doc, &index, &pattern, norm);
                assert_engines_match_oracle(&doc, &pattern, &model, true, &format!("{norm:?}"));
            }
            for model in [
                RandomScores::sparse(seed, pattern.len()),
                RandomScores::dense(seed, pattern.len()),
            ] {
                assert_engines_match_oracle(&doc, &pattern, &model, false, "random");
            }
        }
    }

    /// A two-shard collection returns the enumeration's corpus-wide
    /// top-k under the corpus model, pruned or scanned: parsed shards,
    /// and the same shards as lazy snapshots with one resident at a time,
    /// each under its own collection's model.
    #[test]
    fn two_shard_collection_matches_the_enumeration(
        left in tree_strategy(),
        right in tree_strategy(),
    ) {
        let docs = [build_doc(&left), build_doc(&right)];
        let mut parsed = Collection::new();
        parsed.add_document("s0", build_doc(&left));
        parsed.add_document("s1", build_doc(&right));
        let dir = write_snapshot_dir(&docs);
        let lazy = Collection::open_dir(&dir).unwrap();
        lazy.set_max_resident(1);
        for (backing, collection) in [("parsed", &parsed), ("lazy", &lazy)] {
            for q in PATTERNS {
                let pattern = parse_pattern(q).unwrap();
                let model = collection.corpus_stats(&pattern).model(Normalization::Sparse);
                for relax in [RelaxMode::Relaxed, RelaxMode::Exact] {
                    let truth: Vec<((usize, NodeId), f64)> = docs
                        .iter()
                        .enumerate()
                        .flat_map(|(shard, doc)| {
                            oracle(doc, &pattern, &model, relax)
                                .into_iter()
                                .map(move |(root, s)| ((shard, root), s))
                        })
                        .collect();
                    for k in [1, 2, truth.len().max(1)] {
                        for copts in [CollectionOptions::default(), CollectionOptions::scan_all()] {
                            let mut options = EvalOptions::top_k(k);
                            options.relax = relax;
                            let result = evaluate_collection(
                                collection,
                                &pattern,
                                &Algorithm::WhirlpoolS,
                                &options,
                                Normalization::Sparse,
                                &copts,
                            );
                            let got: Vec<((usize, NodeId), f64)> = result
                                .answers
                                .iter()
                                .map(|a| ((a.shard, a.root), a.score.value()))
                                .collect();
                            let what = format!("{backing} {pattern} {relax:?} k={k} {copts:?}");
                            check_topk(&what, &got, &truth, k);
                        }
                    }
                }
            }
        }
    }
}

/// Writes each document as a snapshot shard `s{i}.wps` in a fresh
/// temp dir.
fn write_snapshot_dir(docs: &[Document]) -> TempDir {
    let dir = TempDir::new("wp-oracle");
    for (i, doc) in docs.iter().enumerate() {
        save_snapshot(doc, &TagIndex::build(doc), dir.join(format!("s{i}.wps"))).unwrap();
    }
    dir
}

#[test]
fn handcrafted_corner_cases_match_the_enumeration() {
    let docs = [
        // Recursive tags, three deep, with a sibling.
        "<a><a><a><b>x</b></a><b>y</b></a><b>x</b><c/></a>",
        // Repeated leaves with different values at different depths.
        "<a><b>x</b><b>y</b><c><b>x</b><b>x</b></c><d><c><b>y</b></c></d></a>",
        // Identical children present once, twice, never.
        "<r><a><b><c/></b></a><a><b><c/><c/></b><b/></a><a><d/></a></r>",
        // Nothing matches below the root.
        "<a/>",
    ];
    for src in docs {
        let doc = whirlpool_xml::parse_document(src).unwrap();
        let index = TagIndex::build(&doc);
        for q in PATTERNS {
            let pattern = parse_pattern(q).unwrap();
            let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
            assert_engines_match_oracle(&doc, &pattern, &model, true, src);
            let random = RandomScores::sparse(7, pattern.len());
            assert_engines_match_oracle(&doc, &pattern, &random, false, src);
        }
    }
}

/// What lazy seeding could get wrong on roots that are not all alike:
/// candidates filtered by an attribute test or by the `/tag` axis (the
/// seed source walks a filtered list, not the tag's postings), and a
/// per-node model whose root scores *rise* in document order — the
/// source must rank by the model's maximum, not by the first root's
/// score, or it is dropped before the best root exists.
#[test]
fn filtered_and_unequal_roots_match_the_enumeration() {
    let src = "<a id='1'><b/><a id='2'><b/><c/></a><a><b/><c/></a><a id='2'/>\
               <d><a id='3'><c/><b>x</b></a></d></a>";
    let doc = whirlpool_xml::parse_document(src).unwrap();
    let index = TagIndex::build(&doc);
    for q in [
        "//a[@id and ./b]",
        "//a[@id = '2' and ./b and ./c]",
        "//a[@id = '2']",
        "/a[@id and .//c]",
        "/a",
        "//*[@id and ./b]",
    ] {
        let pattern = parse_pattern(q).unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        assert_engines_match_oracle(&doc, &pattern, &model, true, src);
        let random = RandomScores::dense(3, pattern.len());
        assert_engines_match_oracle(&doc, &pattern, &random, false, src);
    }

    let pattern = parse_pattern("//a[./b]").unwrap();
    let roots = root_candidates(&doc, &pattern);
    let b = QNodeId(1);
    let mut entries: Vec<(QNodeId, NodeId, f64)> = roots
        .iter()
        .zip(1..)
        .map(|(&r, i)| (QNodeId::ROOT, r, i as f64))
        .collect();
    entries.extend(
        doc.elements()
            .filter(|&n| doc.tag_str(n) == "b")
            .map(|n| (b, n, 0.5)),
    );
    let rising = FixedScores::new(pattern.len(), &entries);
    assert_engines_match_oracle(&doc, &pattern, &rising, false, "rising root scores");
}

/// `examples/threshold_search.rs` as a test: with the floor pinned at τ
/// and `k` = every candidate root, each engine returns every answer
/// scoring at least τ (what it returns below τ is the caller's to drop).
#[test]
fn a_threshold_floor_returns_every_answer_at_or_above_it() {
    let src = "<r><a><b/><c/><d/></a><a><b/><c/></a><a><x><b/></x><d/></a><a><b/></a><a/>\
               <a><c/><d/></a><a><b/><c/><d/></a></r>";
    let doc = whirlpool_xml::parse_document(src).unwrap();
    let index = TagIndex::build(&doc);
    let pattern = parse_pattern("//a[./b and ./c and ./d]").unwrap();
    let models: [(&str, Box<dyn ScoreModel>); 2] = [
        (
            "tf*idf",
            Box::new(TfIdfModel::build(
                &doc,
                &index,
                &pattern,
                Normalization::Sparse,
            )),
        ),
        ("random", Box::new(RandomScores::sparse(11, pattern.len()))),
    ];
    for (label, model) in &models {
        for relax in [RelaxMode::Relaxed, RelaxMode::Exact] {
            let truth = oracle(&doc, &pattern, model.as_ref(), relax);
            let mut taus: Vec<f64> = truth.iter().map(|&(_, s)| s).collect();
            taus.extend([0.0, 1e9]);
            for tau in taus {
                let mut want: Vec<(NodeId, f64)> =
                    truth.iter().copied().filter(|&(_, s)| s >= tau).collect();
                want.sort_by_key(|x| x.0);
                for (algorithm, threads) in all_engines() {
                    let mut options = EvalOptions::top_k(root_candidates(&doc, &pattern).len());
                    options.relax = relax;
                    options.threads = threads;
                    options.threshold_floor = tau;
                    let result =
                        evaluate(&doc, &index, &pattern, model.as_ref(), &algorithm, &options);
                    assert!(result.completeness.is_exact());
                    let mut got: Vec<(NodeId, f64)> = result
                        .answers
                        .iter()
                        .map(|a| (a.root, a.score.value()))
                        .filter(|&(_, s)| s >= tau)
                        .collect();
                    got.sort_by_key(|x| x.0);
                    let what =
                        format!("{label} {relax:?} tau={tau} {}@{threads}", algorithm.name());
                    assert_eq!(got.len(), want.len(), "{what}: {got:?} vs {want:?}");
                    for (g, w) in got.iter().zip(&want) {
                        assert!(
                            g.0 == w.0 && (g.1 - w.1).abs() <= EPS,
                            "{what}: {got:?} vs {want:?}"
                        );
                    }
                }
            }
        }
    }
}

/// The queue orders that are defined over seeds that all exist — the
/// seed source is drained before anything is popped — still return the
/// enumeration's top-k, in both adaptive engines.
#[test]
fn other_queue_policies_match_the_enumeration() {
    let doc = generate(&GeneratorConfig::items(12));
    let index = TagIndex::build(&doc);
    let pattern = parse_pattern("//item[./name and ./mailbox/mail and ./incategory]").unwrap();
    let models: [(&str, Box<dyn ScoreModel>); 2] = [
        (
            "tf*idf",
            Box::new(TfIdfModel::build(
                &doc,
                &index,
                &pattern,
                Normalization::Sparse,
            )),
        ),
        ("random", Box::new(RandomScores::sparse(5, pattern.len()))),
    ];
    let roots = root_candidates(&doc, &pattern).len();
    for (label, model) in &models {
        for relax in [RelaxMode::Relaxed, RelaxMode::Exact] {
            let truth = oracle(&doc, &pattern, model.as_ref(), relax);
            for queue in [
                QueuePolicy::Fifo,
                QueuePolicy::CurrentScore,
                QueuePolicy::MaxNextScore,
                QueuePolicy::MaxFinalScore,
            ] {
                for k in [1, 3, roots] {
                    for (algorithm, threads) in all_engines().into_iter().skip(2) {
                        let mut options = EvalOptions::top_k(k);
                        options.relax = relax;
                        options.threads = threads;
                        options.queue = queue;
                        let result =
                            evaluate(&doc, &index, &pattern, model.as_ref(), &algorithm, &options);
                        let got: Vec<(NodeId, f64)> = result
                            .answers
                            .iter()
                            .map(|a| (a.root, a.score.value()))
                            .collect();
                        let what = format!(
                            "{label} {relax:?} {queue:?} k={k} {}@{threads}",
                            algorithm.name()
                        );
                        check_topk(&what, &got, &truth, k);
                        if relax == RelaxMode::Relaxed {
                            let m = &result.metrics;
                            assert_eq!(
                                roots as u64,
                                (m.partials_created - m.server_ops) + m.roots_unseeded,
                                "{what}: {m:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

// -- pinned behaviours ------------------------------------------------------

/// Q2 over a 400-item XMark document: the run's counters and the
/// number of root candidates.
fn xmark_q2(k: usize, algorithm: &Algorithm) -> (MetricsSnapshot, u64) {
    xmark_q2_at(k, algorithm, 1)
}

fn xmark_q2_at(k: usize, algorithm: &Algorithm, threads: usize) -> (MetricsSnapshot, u64) {
    let doc = generate(&GeneratorConfig::items(400));
    let index = TagIndex::build(&doc);
    let pattern = parse_pattern(queries::Q2).unwrap();
    let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
    let mut options = EvalOptions::top_k(k);
    options.threads = threads;
    let result = evaluate(&doc, &index, &pattern, &model, algorithm, &options);
    (result.metrics, root_candidates(&doc, &pattern).len() as u64)
}

/// The paper's Figure 10: work grows with k, and at the Table 1 default
/// k = 15 top-k does at most a quarter of compute-everything's work.
#[test]
fn whirlpool_s_work_grows_with_k() {
    let ops: Vec<u64> = [1, 15, 75]
        .iter()
        .map(|&k| xmark_q2(k, &Algorithm::WhirlpoolS).0.server_ops)
        .collect();
    assert!(
        ops[0] < ops[1] && ops[1] < ops[2],
        "server ops at k = 1/15/75: {ops:?}"
    );
    let noprune = xmark_q2(15, &Algorithm::LockStepNoPrune).0.server_ops;
    assert!(
        4 * ops[1] <= noprune,
        "Whirlpool-S {} ops at k = 15 against LockStep-NoPrun's {noprune}",
        ops[1]
    );
}

/// Whirlpool-M at one worker — the calling thread, so the counters are
/// deterministic — schedules like Whirlpool-S at batch granularity:
/// its work grows with k too, stays within one 32-match batch per
/// server of Whirlpool-S's, and only roots it reaches are ever routed.
#[test]
fn whirlpool_m_at_one_worker_tracks_whirlpool_s() {
    let m = Algorithm::WhirlpoolM { processors: None };
    let servers = parse_pattern(queries::Q2).unwrap().server_ids().count() as u64;
    let slack = 32 * servers;
    let mut fewer_ops = 0;
    for k in [1, 15, 75] {
        let (a, _) = xmark_q2(k, &m);
        let (b, _) = xmark_q2(k, &m);
        assert_eq!(
            (a.server_ops, a.routing_decisions, a.pruned),
            (b.server_ops, b.routing_decisions, b.pruned),
            "k={k}: two runs differ"
        );
        let (s, _) = xmark_q2(k, &Algorithm::WhirlpoolS);
        assert!(
            a.server_ops <= 2 * s.server_ops + slack,
            "k={k}: {} ops against Whirlpool-S's {}",
            a.server_ops,
            s.server_ops
        );
        assert!(
            a.routing_decisions <= a.server_ops + slack,
            "k={k}: {} routing decisions for {} ops",
            a.routing_decisions,
            a.server_ops
        );
        assert!(a.server_ops > fewer_ops, "k={k}: {} ops", a.server_ops);
        fewer_ops = a.server_ops;
    }
}

/// Relaxed mode creates one match per *seeded* root plus one per server
/// operation, in every engine — and the adaptive engines seed a root
/// only to process it (or to end the run on it), so on a 400-item
/// document their matches follow their operations.
#[test]
fn relaxed_mode_never_fans_out() {
    for (algorithm, threads) in all_engines() {
        let (m, roots) = xmark_q2_at(15, &algorithm, threads);
        check_relaxed_counters(algorithm.name(), &m, (&algorithm, threads), roots, true, 0);
        if !matches!(algorithm, Algorithm::LockStepNoPrune | Algorithm::LockStep) {
            assert!(m.roots_unseeded > roots / 2, "{}: {m:?}", algorithm.name());
        }
    }
}

/// A 2 000-deep chain of one tag used to cost ~2 M partial matches
/// (each `a` fanned out over every `a` below it).
#[test]
fn deep_chain_stays_linear() {
    let depth = 2_000;
    let src = "<a>".repeat(depth) + &"</a>".repeat(depth);
    let doc = whirlpool_xml::parse_document(&src).unwrap();
    let index = TagIndex::build(&doc);
    let pattern = parse_pattern("//a[./a]").unwrap();
    let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
    let result = evaluate(
        &doc,
        &index,
        &pattern,
        &model,
        &Algorithm::WhirlpoolS,
        &EvalOptions::top_k(1),
    );
    assert_eq!(result.answers.len(), 1);
    assert!(
        result.metrics.partials_created < 20_000,
        "{} partial matches",
        result.metrics.partials_created
    );
}
