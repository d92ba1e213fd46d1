//! The differential oracle: one generator, one brute-force reference,
//! one configuration table and one comparator for every engine ×
//! backing × optimisation combination the project keeps.
//!
//! * **Inputs** ([`Case`]): a corpus of shards and the patterns to run
//!   over it. [`random_case`] draws one to six small layered trees over a
//!   four-tag, three-text alphabet and one pattern with `/` and `//`
//!   edges, `*`, `=`, `contains`, `@attr` tests and nested predicates
//!   (the tree-pattern features of Hachicha & Darmont's survey). XMark
//!   shards and hand-written corner cases are inputs of the same shape.
//! * **Reference** ([`reference`]): every tuple of the pattern's
//!   servers over a document — each server's tag/value/attribute-
//!   compatible descendants of the root candidate, or null — scored as
//!   DESIGN.md §5 words it, best tuple per root. It reads the
//!   [`Document`] API and [`ScoreModel::contribution`] only, so it
//!   shares no code with the engines it judges.
//! * **Model** ([`counted_model`]): the tf*idf weights the reference
//!   scores under, counted here from the `Document` API by
//!   Definition 4.2 (per answer: does some descendant satisfy the
//!   predicate exactly, or relaxed), per shard or pooled over a corpus.
//!   Never read from the collection's count memo or `TfIdfModel`, so a
//!   bad memo key or a bad count fails the oracle.
//! * **Table** ([`Row`], [`pairwise`]): engine × routing × queue ×
//!   model × backing × scope × memo × collection options × mode × k,
//!   covered pairwise per seed. Every run must come back exact.
//! * **Comparator** ([`check_topk`]): the returned scores are the
//!   reference's top-k scores, each returned answer scores what the
//!   reference says, and every answer above the k-th score is returned.
//!   Members *at* the k-th score may be any answers the reference also
//!   scores there.

#![allow(dead_code)] // each suite including this file uses a part of it

#[path = "../common/temp.rs"]
mod temp;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
pub use temp::TempDir;
use whirlpool_core::{
    evaluate_scope, evaluate_view, Algorithm, Collection, CollectionOptions, Completeness,
    EvalOptions, MetricsSnapshot, QueuePolicy, RelaxMode, RoutingStrategy, Scope, Shard,
};
use whirlpool_index::TagIndex;
use whirlpool_pattern::{
    parse_pattern, AttrTest, Axis, QNodeId, StaticPlan, TreePattern, ValueTest, WILDCARD,
};
use whirlpool_score::{MatchLevel, Normalization, RandomScores, ScoreModel};
use whirlpool_store::{build_snapshot_bytes, save_snapshot, Snapshot};
use whirlpool_xmark::{generate, GeneratorConfig};
use whirlpool_xml::{parse_document, write_document, Document, NodeId, WriteOptions};

pub const EPS: f64 = 1e-9;

// -- inputs -------------------------------------------------------------

const TAGS: [&str; 4] = ["a", "b", "c", "d"];
const TEXTS: [&str; 3] = ["x", "y", "xy"];

/// One oracle input: a corpus of shards (XML sources, parsed once more
/// for the reference) and the patterns every row runs over it.
pub struct Case {
    pub label: String,
    /// Seeds the random score models.
    pub seed: u64,
    pub sources: Vec<String>,
    pub docs: Vec<Document>,
    pub patterns: Vec<TreePattern>,
}

impl Case {
    pub fn new(label: impl Into<String>, sources: Vec<String>, patterns: Vec<TreePattern>) -> Case {
        let docs = sources.iter().map(|s| parse_document(s).unwrap()).collect();
        Case {
            label: label.into(),
            seed: 7,
            sources,
            docs,
            patterns,
        }
    }

    /// A case of literal shards and XPath patterns.
    pub fn parse(label: &str, sources: &[&str], patterns: &[&str]) -> Case {
        let sources = sources.iter().map(|s| s.to_string()).collect();
        let patterns = patterns.iter().map(|q| parse_pattern(q).unwrap()).collect();
        Case::new(label, sources, patterns)
    }
}

/// One to six random shards and one random pattern, all drawn from
/// `seed`. Patterns whose tuples a root could not enumerate quickly are
/// drawn again.
pub fn random_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let shards = rng.gen_range(1..=6);
    let sources: Vec<String> = (0..shards).map(|_| random_shard(&mut rng)).collect();
    let docs: Vec<Document> = sources.iter().map(|s| parse_document(s).unwrap()).collect();
    let pattern = loop {
        let p = random_pattern(&mut rng);
        if docs.iter().all(|d| max_tuples(d, &p) <= 2_000) {
            break p;
        }
    };
    Case {
        label: format!("seed {seed}"),
        seed,
        sources,
        docs,
        patterns: vec![pattern],
    }
}

/// A layered random tree under an `<a>` document element. Tags recur
/// at every depth, but each shard forbids some (parent, child) tag
/// pairs, drawn once per shard: in one shard `b` sits under `a`, in
/// another only deeper, so a predicate has exact witnesses in some
/// shards and only relaxed ones in others. Leaves carry a text,
/// elements sometimes an `id`.
fn random_shard(rng: &mut StdRng) -> String {
    struct Layers {
        forbidden: [[bool; 4]; 4],
    }
    fn element(
        rng: &mut StdRng,
        layers: &Layers,
        parent: usize,
        depth: usize,
        budget: &mut usize,
        out: &mut String,
    ) {
        *budget -= 1;
        let allowed: Vec<usize> = (0..TAGS.len())
            .filter(|&t| !layers.forbidden[parent][t])
            .collect();
        let tag = allowed[rng.gen_range(0..allowed.len())];
        out.push_str(&format!("<{}{}>", TAGS[tag], id_attr(rng)));
        if depth < 4 && rng.gen_bool(0.6) {
            for _ in 0..rng.gen_range(1..=3) {
                if *budget > 0 {
                    element(rng, layers, tag, depth + 1, budget, out);
                }
            }
        } else if rng.gen_bool(0.6) {
            out.push_str(TEXTS[rng.gen_range(0..TEXTS.len())]);
        }
        out.push_str(&format!("</{}>", TAGS[tag]));
    }
    fn id_attr(rng: &mut StdRng) -> String {
        if rng.gen_bool(0.25) {
            format!(" id='{}'", rng.gen_range(1..=2))
        } else {
            String::new()
        }
    }
    let mut layers = Layers {
        forbidden: [[false; 4]; 4],
    };
    for row in &mut layers.forbidden {
        let open = rng.gen_range(0..TAGS.len());
        for (t, cell) in row.iter_mut().enumerate() {
            *cell = t != open && rng.gen_bool(0.4);
        }
    }
    let mut out = format!("<a{}>", id_attr(rng));
    let mut budget = rng.gen_range(4..=22);
    while budget > 0 {
        element(rng, &layers, 0, 1, &mut budget, &mut out);
    }
    out.push_str("</a>");
    out
}

/// A random pattern of up to four servers, each under a random earlier
/// node (so predicates nest), with random tags (`*` included), axes,
/// value tests and `@id` tests.
fn random_pattern(rng: &mut StdRng) -> TreePattern {
    fn tag(rng: &mut StdRng) -> &'static str {
        if rng.gen_bool(0.15) {
            WILDCARD
        } else {
            TAGS[rng.gen_range(0..TAGS.len())]
        }
    }
    fn attr(rng: &mut StdRng, p: &mut TreePattern, q: QNodeId) {
        if rng.gen_bool(0.2) {
            let value = rng.gen_bool(0.5).then(|| "1".to_string());
            p.add_attr_test(
                q,
                AttrTest {
                    name: "id".into(),
                    value,
                },
            );
        }
    }
    let axis = |rng: &mut StdRng, descendant: f64| {
        if rng.gen_bool(descendant) {
            Axis::Descendant
        } else {
            Axis::Child
        }
    };
    // The document element is an `a`: half the roots answer to it.
    let root_axis = axis(rng, 0.9);
    let root_tag = if rng.gen_bool(0.5) { "a" } else { tag(rng) };
    let mut p = TreePattern::new(root_tag, root_axis);
    attr(rng, &mut p, QNodeId::ROOT);
    // One pattern in ten is the root alone.
    let servers = if rng.gen_bool(0.1) {
        0
    } else {
        rng.gen_range(1..=4)
    };
    for _ in 0..servers {
        let parent = QNodeId(rng.gen_range(0..p.len()) as u8);
        let edge = axis(rng, 0.5);
        let tag = tag(rng);
        let value = match rng.gen_range(0..8) {
            0 => Some(ValueTest::Eq("x".into())),
            1 => Some(ValueTest::Contains("x".into())),
            _ => None,
        };
        let q = p.add_node(parent, edge, tag, value);
        attr(rng, &mut p, q);
    }
    p
}

/// The most tuples [`reference`] enumerates for one root of `doc`.
fn max_tuples(doc: &Document, pattern: &TreePattern) -> usize {
    (root_candidates(doc, pattern).into_iter())
        .map(|r| universes(doc, pattern, r).iter().map(Vec::len).product())
        .max()
        .unwrap_or(0)
}

/// XMark documents of `items` each (seeds 1, 2, …), one per shard.
pub fn xmark_case(label: &str, items: &[usize], patterns: &[&str]) -> Case {
    let sources = (items.iter().zip(1..))
        .map(|(&n, seed)| {
            let doc = generate(&GeneratorConfig::items(n).with_seed(seed));
            write_document(&doc, &WriteOptions::default())
        })
        .collect();
    let patterns = patterns.iter().map(|q| parse_pattern(q).unwrap()).collect();
    Case::new(label, sources, patterns)
}

/// `hot` `<a>` elements each with two `b` children and (two in three)
/// a `c`, then three `<d><a><c/></a></d>`: nearly every match lands on
/// the `b` server, so idle Whirlpool-M workers live off stealing.
pub fn hot_server_source(hot: usize) -> String {
    let mut out = String::from("<r>");
    for i in 0..hot {
        out.push_str(if i % 3 != 0 {
            "<a><b/><b/><c/></a>"
        } else {
            "<a><b/><b/></a>"
        });
    }
    out.push_str(&"<d><a><c/></a></d>".repeat(3));
    out.push_str("</r>");
    out
}

pub const HOT_SERVER_QUERY: &str = "//a[./b and ./c]";

/// The survey's corner cases plus ordinary twigs.
pub const CORNER_PATTERNS: [&str; 13] = [
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

/// Recursive tags, repeated leaves with values at several depths,
/// identical children present once, twice or never, and a document
/// where nothing matches below the root: the corpus the corner patterns
/// run over.
pub fn corner_case() -> Case {
    Case::parse(
        "corners",
        &[
            "<a><a><a><b>x</b></a><b>y</b></a><b>x</b><c/></a>",
            "<a><b>x</b><b>y</b><c><b>x</b><b>x</b></c><d><c><b>y</b></c></d></a>",
            "<r><a><b><c/></b></a><a><b><c/><c/></b><b/></a><a><d/></a></r>",
            "<a/>",
        ],
        &CORNER_PATTERNS,
    )
}

// -- the reference ------------------------------------------------------

/// Does `n` satisfy query node `q`'s own tests (tag, value, attributes)?
pub fn node_matches(doc: &Document, pattern: &TreePattern, q: QNodeId, n: NodeId) -> bool {
    let pn = pattern.node(q);
    (pn.tag == WILDCARD || doc.tag_str(n) == pn.tag)
        && pn.value.as_ref().map_or(true, |v| v.matches(doc.text(n)))
        && pn
            .attrs
            .iter()
            .all(|a| a.matches(doc.attribute(n, &a.name)))
}

/// The candidate instantiations of the pattern root.
pub fn root_candidates(doc: &Document, pattern: &TreePattern) -> Vec<NodeId> {
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
pub fn root_relative_exact(
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
pub fn edge_holds(
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

/// Each server's universe under root binding `r`: its compatible proper
/// descendants of `r`, or the null.
fn universes(doc: &Document, pattern: &TreePattern, r: NodeId) -> Vec<Vec<Option<NodeId>>> {
    (pattern.server_ids())
        .map(|q| {
            let found: Vec<Option<NodeId>> = (doc.descendants_or_self(r).skip(1))
                .filter(|&n| node_matches(doc, pattern, q, n))
                .map(Some)
                .collect();
            if found.is_empty() {
                vec![None]
            } else {
                found
            }
        })
        .collect()
}

/// The best tuple score per root, by enumerating every tuple. Relaxed
/// roots always have one (the all-null tuple at worst); exact roots
/// without a valid embedding are absent.
pub fn reference(
    doc: &Document,
    pattern: &TreePattern,
    model: &dyn ScoreModel,
    relax: RelaxMode,
) -> Vec<(NodeId, f64)> {
    let servers: Vec<QNodeId> = pattern.server_ids().collect();
    let mut out = Vec::new();
    for r in root_candidates(doc, pattern) {
        let universes = universes(doc, pattern, r);
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

/// The roots with an exact embedding of `pattern`, in document order:
/// [`reference`]'s exact mode, scores aside.
pub fn exact_roots(doc: &Document, pattern: &TreePattern) -> Vec<NodeId> {
    let unscored = Counted(vec![[0.0, 0.0]; pattern.len()]);
    let found = reference(doc, pattern, &unscored, RelaxMode::Exact);
    found.into_iter().map(|(root, _)| root).collect()
}

/// tf*idf weights counted by Definition 4.2 from the `Document` API:
/// `[exact, relaxed]` per query node, the root's zero.
pub struct Counted(Vec<[f64; 2]>);

/// The tf*idf model of the pooled `docs` (one for a document scope):
/// the answer population is every element carrying the root's tag
/// (every element for `*`), and a predicate's exact (relaxed) count is
/// the answers with a proper descendant passing its node's tests at its
/// composed (descendant) axis. `idf = ln(population / max(count, 1))`,
/// 0 over an empty population; relaxed never above exact.
pub fn counted_model(docs: &[&Document], pattern: &TreePattern, norm: Normalization) -> Counted {
    let root_tag = &pattern.node(pattern.root()).tag;
    let answers: Vec<(&Document, NodeId)> = (docs.iter())
        .flat_map(|&d| d.elements().map(move |n| (d, n)))
        .filter(|&(d, n)| root_tag == WILDCARD || d.tag_str(n) == root_tag)
        .collect();
    let population = answers.len() as f64;
    let idf = |count: usize| {
        if answers.is_empty() {
            0.0
        } else {
            (population / count.max(1) as f64).ln()
        }
    };
    let mut weights = vec![[0.0, 0.0]; pattern.len()];
    for q in pattern.server_ids() {
        let satisfied = |exact: bool| {
            (answers.iter())
                .filter(|&&(d, r)| {
                    d.descendants_or_self(r).skip(1).any(|n| {
                        node_matches(d, pattern, q, n)
                            && (!exact || root_relative_exact(d, pattern, q, r, n))
                    })
                })
                .count()
        };
        let (e, r) = (idf(satisfied(true)), idf(satisfied(false)));
        weights[q.index()] = [e.max(0.0), r.min(e).max(0.0)];
    }
    if norm == Normalization::Sparse {
        for w in weights.iter_mut().filter(|w| w[0] > 0.0) {
            *w = [1.0, w[1] / w[0]];
        }
    }
    assert!(
        norm != Normalization::Dense,
        "the table scores sparse or unnormalised"
    );
    Counted(weights)
}

impl ScoreModel for Counted {
    fn contribution(&self, server: QNodeId, _node: NodeId, level: MatchLevel) -> f64 {
        self.0[server.index()][usize::from(level == MatchLevel::Relaxed)]
    }

    fn max_contribution(&self, server: QNodeId) -> f64 {
        self.0[server.index()][0]
    }

    fn max_relaxed_contribution(&self, server: QNodeId) -> f64 {
        self.0[server.index()][1]
    }
}

// -- the comparator -----------------------------------------------------

/// The score-multiset + tie-boundary comparator over `(key, score)`
/// lists; `K` is a root, or a `(shard, root)` pair.
pub fn check_topk<K: PartialEq + std::fmt::Debug + Copy>(
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

/// Checks the anytime certificate of a truncated run against the exact
/// top-k: every returned answer scores within the bound, and every
/// exact answer *missing* from the truncated prefix could not have
/// beaten it.
pub fn check_certificate(
    what: &str,
    truncated: &[(NodeId, f64)],
    completeness: &Completeness,
    exact: &[(NodeId, f64)],
) {
    let Some(bound) = completeness.score_bound() else {
        panic!("{what}: expected a truncated result, got {completeness:?}");
    };
    for a in truncated {
        assert!(
            a.1 <= bound + EPS,
            "{what}: returned {a:?} above the bound {bound}"
        );
    }
    for e in exact {
        let present = truncated.iter().any(|a| a.0 == e.0);
        assert!(
            present || e.1 <= bound + EPS,
            "{what}: missing answer {e:?} exceeds the bound {bound}"
        );
    }
}

/// An engine's ranked answers as `(root, score)` pairs.
pub fn scored(answers: &[whirlpool_core::RankedAnswer]) -> Vec<(NodeId, f64)> {
    answers.iter().map(|a| (a.root, a.score.value())).collect()
}

/// What relaxed mode may create — one match per seeded root plus one
/// per server operation — and what lazy seeding adds to that: a root is
/// seeded or counted unseeded, never both, and when every root starts
/// at the same score (`uniform_roots`: an idf model) a seed exists only
/// to be processed, to end the run, or — single-node patterns — to be
/// an answer, so the matches track the operations, not the document.
/// Whirlpool-M seeds a batch of 32 per worker ahead of that.
pub fn check_relaxed_counters(
    what: &str,
    m: &MetricsSnapshot,
    engine: Engine,
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
        Engine::NoPrun | Engine::LockStep => {
            assert_eq!(m.roots_unseeded, 0, "{what}: lock-step seeds every root");
            return;
        }
        _ if !uniform_roots => return,
        Engine::S => 1,
        Engine::M(threads) => 32 * threads as u64,
    };
    assert!(
        m.partials_created <= 2 * m.server_ops + answers + ahead,
        "{what}: {} matches for {} ops and {answers} answers",
        m.partials_created,
        m.server_ops
    );
}

// -- the configuration table --------------------------------------------

/// The paper's engines; `M(n)` is Whirlpool-M on `n` worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    S,
    LockStep,
    NoPrun,
    M(usize),
}

pub const ENGINES: [Engine; 7] = [
    Engine::S,
    Engine::LockStep,
    Engine::NoPrun,
    Engine::M(1),
    Engine::M(2),
    Engine::M(4),
    Engine::M(8),
];

impl Engine {
    pub fn algorithm(self) -> (Algorithm, usize) {
        match self {
            Engine::S => (Algorithm::WhirlpoolS, 1),
            Engine::LockStep => (Algorithm::LockStep, 1),
            Engine::NoPrun => (Algorithm::LockStepNoPrune, 1),
            Engine::M(threads) => (Algorithm::WhirlpoolM { processors: None }, threads),
        }
    }
}

pub const QUEUES: [QueuePolicy; 4] = [
    QueuePolicy::MaxFinalScore,
    QueuePolicy::Fifo,
    QueuePolicy::CurrentScore,
    QueuePolicy::MaxNextScore,
];

/// Routing strategy `i` of the table for `pattern`; 3 is the static
/// plan in server-id order.
pub fn routing(i: usize, pattern: &TreePattern) -> RoutingStrategy {
    match i {
        0 => RoutingStrategy::MinAlive,
        1 => RoutingStrategy::MaxScore,
        2 => RoutingStrategy::MinScore,
        _ => RoutingStrategy::Static(StaticPlan::in_id_order(pattern.server_ids().count())),
    }
}

/// tf*idf models, counted by the collection over the run's scope; or
/// per-node random scores, run on one document's views.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    IdfSparse,
    IdfNone,
    RandomSparse,
    RandomDense,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backing {
    /// Parsed documents.
    Owned,
    /// Snapshots: attached files in a collection, `Snapshot::from_bytes`
    /// for a random model's run.
    Mapped,
    /// Peeked snapshot files, attached on visit, at most this many
    /// resident at a time (`0`: unlimited), least recently used evicted.
    Lazy(usize),
}

pub const BACKINGS: [Backing; 5] = [
    Backing::Owned,
    Backing::Mapped,
    Backing::Lazy(1),
    Backing::Lazy(2),
    Backing::Lazy(0),
];

/// The collection driver's two optimisations, each on or off: the
/// default first, `CollectionOptions::scan_all()` last.
pub const COLLECTION_OPTIONS: [CollectionOptions; 4] = [
    CollectionOptions {
        shard_pruning: true,
        share_threshold: true,
    },
    CollectionOptions {
        shard_pruning: true,
        share_threshold: false,
    },
    CollectionOptions {
        shard_pruning: false,
        share_threshold: true,
    },
    CollectionOptions {
        shard_pruning: false,
        share_threshold: false,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Within {
    /// `Scope::Shard` of one shard.
    Document,
    /// `Scope::Corpus` over every shard.
    Corpus,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum K {
    One,
    Two,
    /// The scope's root candidates.
    Roots,
    /// Two past them.
    Beyond,
    Exactly(usize),
}

impl K {
    fn of(self, roots: usize) -> usize {
        match self {
            K::One => 1,
            K::Two => 2,
            K::Roots => roots.max(1),
            K::Beyond => roots + 2,
            K::Exactly(k) => k,
        }
    }
}

/// One configuration of the table.
#[derive(Debug, Clone)]
pub struct Row {
    pub engine: Engine,
    /// Index into [`routing`].
    pub routing: usize,
    pub queue: QueuePolicy,
    pub model: Model,
    pub backing: Backing,
    pub scope: Within,
    /// Whether a shape sharing predicates ([`sibling`]) ran first on the
    /// same collection.
    pub warm: bool,
    /// One of [`COLLECTION_OPTIONS`].
    pub copts: CollectionOptions,
    pub relax: RelaxMode,
    pub k: K,
}

impl Default for Row {
    fn default() -> Row {
        Row {
            engine: Engine::S,
            routing: 0,
            queue: QueuePolicy::MaxFinalScore,
            model: Model::IdfSparse,
            backing: Backing::Owned,
            scope: Within::Document,
            warm: false,
            copts: CollectionOptions::default(),
            relax: RelaxMode::Relaxed,
            k: K::Roots,
        }
    }
}

/// Values per dimension, in [`Row::from_values`]' order.
const SIZES: [usize; 10] = [7, 4, 4, 4, 5, 2, 2, 4, 2, 4];

impl Row {
    fn from_values(v: &[usize; 10]) -> Row {
        Row {
            engine: ENGINES[v[0]],
            routing: v[1],
            queue: QUEUES[v[2]],
            model: [
                Model::IdfSparse,
                Model::IdfNone,
                Model::RandomSparse,
                Model::RandomDense,
            ][v[3]],
            backing: BACKINGS[v[4]],
            scope: [Within::Document, Within::Corpus][v[5]],
            warm: v[6] == 1,
            copts: COLLECTION_OPTIONS[v[7]].clone(),
            relax: [RelaxMode::Relaxed, RelaxMode::Exact][v[8]],
            k: [K::One, K::Two, K::Roots, K::Beyond][v[9]],
        }
    }
}

/// Can value `a` of dimension `i` share a row with value `b` of `j`? A
/// random model runs on one document's views: no collection, so no
/// corpus scope, warm memo or collection options but the default.
fn compatible(i: usize, a: usize, j: usize, b: usize) -> bool {
    let clash =
        |i: usize, a: usize, j: usize, b: usize| i == 3 && a >= 2 && (5..=7).contains(&j) && b != 0;
    !clash(i, a, j, b) && !clash(j, b, i, a)
}

/// A covering array for the table: every compatible pair of values of
/// two dimensions shares at least one row. Greedy: each row starts from
/// the least uncovered pair and fills the other dimensions, in an order
/// drawn from `seed`, with the value covering the most new pairs (ties
/// drawn from `seed` too).
pub fn pairwise(seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut uncovered = BTreeSet::new();
    for (i, &values_i) in SIZES.iter().enumerate() {
        for (j, &values_j) in SIZES.iter().enumerate().skip(i + 1) {
            for a in 0..values_i {
                for b in 0..values_j {
                    if compatible(i, a, j, b) {
                        uncovered.insert((i, a, j, b));
                    }
                }
            }
        }
    }
    let mut rows = Vec::new();
    while let Some(&(i, a, j, b)) = uncovered.iter().next() {
        let mut v = [usize::MAX; 10];
        (v[i], v[j]) = (a, b);
        let mut order: Vec<usize> = (0..SIZES.len()).filter(|&d| d != i && d != j).collect();
        for at in (1..order.len()).rev() {
            order.swap(at, rng.gen_range(0..=at));
        }
        for d in order {
            let set: Vec<usize> = (0..SIZES.len()).filter(|&e| v[e] != usize::MAX).collect();
            let pair = |d: usize, x: usize, e: usize| {
                if d < e {
                    (d, x, e, v[e])
                } else {
                    (e, v[e], d, x)
                }
            };
            v[d] = (0..SIZES[d])
                .filter(|&x| set.iter().all(|&e| compatible(d, x, e, v[e])))
                .max_by_key(|&x| {
                    let gain = set.iter().filter(|&&e| uncovered.contains(&pair(d, x, e)));
                    (gain.count(), rng.gen_range(0..1u32 << 16))
                })
                .expect("every dimension has a value compatible with any other");
        }
        for i in 0..SIZES.len() {
            for j in i + 1..SIZES.len() {
                uncovered.remove(&(i, v[i], j, v[j]));
            }
        }
        rows.push(Row::from_values(&v));
    }
    rows
}

/// A shape sharing some of `pattern`'s predicates exactly and differing
/// from the others in one part of the count key — the value test, the
/// edge's axis or an attribute test — picked by `salt`: run first, it
/// leaves a warm memo the pattern must read around.
pub fn sibling(pattern: &TreePattern, salt: usize) -> TreePattern {
    let root = pattern.node(QNodeId::ROOT);
    let mut out = TreePattern::new(root.tag.clone(), root.axis);
    for a in &root.attrs {
        out.add_attr_test(QNodeId::ROOT, a.clone());
    }
    for q in pattern.server_ids() {
        let n = pattern.node(q);
        let (mut axis, mut value, mut attrs) = (n.axis, n.value.clone(), n.attrs.clone());
        let i = q.index() + salt;
        if i % 2 == 1 {
            match i / 2 % 3 {
                0 => value = value.xor(Some(ValueTest::Eq("x".into()))),
                1 => {
                    axis = match axis {
                        Axis::Child => Axis::Descendant,
                        Axis::Descendant => Axis::Child,
                    }
                }
                _ if attrs.is_empty() => attrs.push(AttrTest {
                    name: "id".into(),
                    value: None,
                }),
                _ => attrs.clear(),
            }
        }
        let id = out.add_node(
            n.parent.expect("server has a parent"),
            axis,
            n.tag.clone(),
            value,
        );
        for a in attrs {
            out.add_attr_test(id, a);
        }
    }
    out
}

// -- running the table ---------------------------------------------------

/// `((shard, root), score)` per answer.
pub type Answers = Vec<((usize, NodeId), f64)>;

/// A pattern, a model, a shard (`None`: the corpus) and exact mode.
type TruthKey = (usize, Model, Option<usize>, bool);

/// What every row of one case shares: the parsed shards' indexes and
/// snapshots (for a random model's runs), the snapshot files (for the
/// collections), and the reference's answers per model, scope and mode.
pub struct Fixture<'c> {
    pub case: &'c Case,
    indexes: Vec<TagIndex>,
    snapshots: Vec<Snapshot>,
    dir: TempDir,
    truths: RefCell<HashMap<TruthKey, Answers>>,
}

impl<'c> Fixture<'c> {
    pub fn new(case: &'c Case) -> Fixture<'c> {
        let dir = TempDir::new("wp-oracle");
        let indexes: Vec<TagIndex> = case.docs.iter().map(TagIndex::build).collect();
        let snapshots = (case.docs.iter().zip(&indexes).enumerate())
            .map(|(i, (doc, index))| {
                save_snapshot(doc, index, dir.join(format!("s{i}.wps"))).unwrap();
                Snapshot::from_bytes(&build_snapshot_bytes(doc, index)).unwrap()
            })
            .collect();
        Fixture {
            case,
            indexes,
            snapshots,
            dir,
            truths: RefCell::default(),
        }
    }

    /// A fresh collection of the case's shards (a cold memo).
    pub fn collection(&self, backing: Backing) -> Collection {
        let mut collection = Collection::new();
        for (i, src) in self.case.sources.iter().enumerate() {
            let (name, path) = (format!("s{i}"), self.dir.join(format!("s{i}.wps")));
            collection.push(match backing {
                Backing::Owned => {
                    let doc = parse_document(src).unwrap();
                    let index = TagIndex::build(&doc);
                    Shard::parsed(name, doc, index)
                }
                Backing::Mapped => Shard::attached(name, path).unwrap(),
                Backing::Lazy(_) => Shard::peeked(name, path).unwrap(),
            });
        }
        if let Backing::Lazy(resident) = backing {
            collection.set_max_resident(resident);
        }
        collection
    }

    fn random_model(&self, model: Model, pattern: &TreePattern) -> RandomScores {
        match model {
            Model::RandomSparse => RandomScores::sparse(self.case.seed, pattern.len()),
            _ => RandomScores::dense(self.case.seed, pattern.len()),
        }
    }

    /// The reference's answers over `shards` (`None`: the corpus) under
    /// `model` — for tf*idf, the model [`counted_model`] counts over
    /// those shards.
    pub fn truth(&self, p: usize, model: Model, shard: Option<usize>, relax: RelaxMode) -> Answers {
        let key = (p, model, shard, relax == RelaxMode::Exact);
        if let Some(truth) = self.truths.borrow().get(&key) {
            return truth.clone();
        }
        let pattern = &self.case.patterns[p];
        let shards: Vec<usize> =
            shard.map_or_else(|| (0..self.case.docs.len()).collect(), |s| vec![s]);
        let docs: Vec<&Document> = shards.iter().map(|&i| &self.case.docs[i]).collect();
        let model: Box<dyn ScoreModel> = match model {
            Model::IdfSparse => Box::new(counted_model(&docs, pattern, Normalization::Sparse)),
            Model::IdfNone => Box::new(counted_model(&docs, pattern, Normalization::None)),
            random => Box::new(self.random_model(random, pattern)),
        };
        let truth: Answers = (shards.iter().zip(docs))
            .flat_map(|(&i, doc)| {
                let answers = reference(doc, pattern, model.as_ref(), relax);
                answers.into_iter().map(move |(root, s)| ((i, root), s))
            })
            .collect();
        self.truths.borrow_mut().insert(key, truth.clone());
        truth
    }

    /// Runs `row` for pattern `p` — `at` picks the document scope's
    /// shard and the warm-up's sibling — and checks it against the
    /// reference.
    pub fn check(&self, p: usize, row: &Row, at: usize) {
        let pattern = &self.case.patterns[p];
        let shard = at % self.case.docs.len();
        let scoped = (row.scope == Within::Document).then_some(shard);
        let roots: usize = (0..self.case.docs.len())
            .filter(|&i| scoped.map_or(true, |s| s == i))
            .map(|i| root_candidates(&self.case.docs[i], pattern).len())
            .sum();
        let k = row.k.of(roots);
        let (algorithm, threads) = row.engine.algorithm();
        let options = EvalOptions {
            relax: row.relax,
            threads,
            routing: routing(row.routing, pattern),
            queue: row.queue,
            ..EvalOptions::top_k(k)
        };
        let what = format!("{} {pattern} {row:?} shard={shard} k={k}", self.case.label);
        let norm = match row.model {
            Model::IdfSparse => Some(Normalization::Sparse),
            Model::IdfNone => Some(Normalization::None),
            _ => None,
        };
        let (got, completeness, metrics) = if let Some(norm) = norm {
            let collection = self.collection(row.backing);
            if row.warm {
                let warm_up = sibling(pattern, at);
                let options = EvalOptions::top_k(1);
                let (s, c) = (&Algorithm::WhirlpoolS, &CollectionOptions::default());
                evaluate_scope(&collection, Scope::Corpus, &warm_up, s, &options, norm, c);
            }
            let scope = scoped.map_or(Scope::Corpus, Scope::Shard);
            let (a, copts) = (&algorithm, &row.copts);
            let r = evaluate_scope(&collection, scope, pattern, a, &options, norm, copts);
            let got: Vec<_> = (r.answers.iter())
                .map(|a| ((a.shard, a.root), a.score.value()))
                .collect();
            let ran_one = scoped.is_some() && r.collection_metrics.shards_visited == 1;
            (got, r.completeness, ran_one.then_some(r.metrics))
        } else {
            assert_eq!(
                row.scope,
                Within::Document,
                "{what}: a random model scores one shard"
            );
            let model = self.random_model(row.model, pattern);
            let lazy;
            let access;
            let (doc, index) = match row.backing {
                Backing::Owned => ((&self.case.docs[shard]).into(), self.indexes[shard].view()),
                Backing::Mapped => {
                    let snapshot = &self.snapshots[shard];
                    (snapshot.doc_view(), snapshot.index_view())
                }
                Backing::Lazy(resident) => {
                    lazy = self.collection(Backing::Lazy(resident));
                    access = lazy.acquire(shard).unwrap();
                    (access.doc(), access.index())
                }
            };
            let r = evaluate_view(doc, index, pattern, &model, &algorithm, &options);
            let got: Vec<_> = (r.answers.iter())
                .map(|a| ((shard, a.root), a.score.value()))
                .collect();
            (got, r.completeness, Some(r.metrics))
        };
        assert!(completeness.is_exact(), "{what}: {completeness:?}");
        check_topk(&what, &got, &self.truth(p, row.model, scoped, row.relax), k);
        if let (RelaxMode::Relaxed, Some(m)) = (row.relax, metrics) {
            assert!(m.roots_unseeded <= roots as u64, "{what}: {m:?}");
            // Only a single-node pattern's seeds are answers without an
            // operation.
            let unprocessed = if pattern.len() == 1 { got.len() } else { 0 } as u64;
            // Other queue orders drain the seed source before popping.
            let uniform = norm.is_some() && row.queue == QueuePolicy::MaxFinalScore;
            let roots = roots as u64;
            check_relaxed_counters(&what, &m, row.engine, roots, uniform, unprocessed);
        }
    }

    /// Every row for every pattern of the case.
    pub fn check_rows(&self, rows: &[Row]) {
        for p in 0..self.case.patterns.len() {
            for (at, row) in rows.iter().enumerate() {
                self.check(p, row, at);
            }
        }
    }
}

/// [`Fixture::check_rows`] over a fresh fixture of `case`.
pub fn check_case(case: &Case, rows: &[Row]) {
    Fixture::new(case).check_rows(rows);
}

/// Rows varying one thing over the default row: `f` applied to it once
/// per value of `values`.
pub fn sweep<T: Clone>(values: &[T], f: impl Fn(T) -> Row) -> Vec<Row> {
    values.iter().cloned().map(f).collect()
}

/// The product of `rows` with both relax modes.
pub fn both_modes(rows: Vec<Row>) -> Vec<Row> {
    (rows.into_iter())
        .flat_map(|row| {
            [RelaxMode::Relaxed, RelaxMode::Exact].map(|relax| Row {
                relax,
                ..row.clone()
            })
        })
        .collect()
}
