//! Differential testing of the engines' *exact* mode against the naive
//! recursive tree-pattern evaluator, over both the XMark generator and
//! property-generated random documents/queries.

mod common;

use common::naive;
use proptest::prelude::*;
use whirlpool_core::{evaluate, Algorithm, EvalOptions, RelaxMode};
use whirlpool_index::TagIndex;
use whirlpool_pattern::{parse_pattern, Axis, TreePattern};
use whirlpool_score::{Normalization, TfIdfModel};
use whirlpool_xmark::{generate, queries, GeneratorConfig};
use whirlpool_xml::{parse_document, Document, DocumentBuilder, NodeId};

/// Exact-mode engine roots must equal the naive evaluator's roots.
fn assert_exact_agrees(doc: &Document, query: &TreePattern) {
    let index = TagIndex::build(doc);
    let model = TfIdfModel::build(doc, &index, query, Normalization::Sparse);
    let mut options = EvalOptions::top_k(1_000_000);
    options.relax = RelaxMode::Exact;

    let mut expected: Vec<NodeId> = naive::exact_match_roots(doc, query);
    expected.sort_unstable();

    for alg in [
        Algorithm::LockStepNoPrune,
        Algorithm::WhirlpoolS,
        Algorithm::WhirlpoolM { processors: None },
    ] {
        let result = evaluate(doc, &index, query, &model, &alg, &options);
        let mut got: Vec<NodeId> = result.answers.iter().map(|a| a.root).collect();
        got.sort_unstable();
        assert_eq!(got, expected, "alg={} query={query}", alg.name());
    }
}

#[test]
fn xmark_exact_roots_match_naive() {
    let doc = generate(&GeneratorConfig::items(60));
    for (_, query) in queries::benchmark_queries() {
        assert_exact_agrees(&doc, &query);
    }
}

#[test]
fn handcrafted_edge_cases() {
    let cases = [
        // Same tag at several depths.
        ("<a><a><a/></a></a>", "//a[./a]"),
        ("<a><a><a/></a></a>", "//a[.//a]"),
        // Sibling multiplicity.
        ("<r><i><x/><x/><y/></i><i><x/></i></r>", "//i[./x and ./y]"),
        // Values.
        (
            "<r><b><t>q</t></b><b><t>z</t></b><b><u><t>q</t></u></b></r>",
            "//b[./t = 'q']",
        ),
        (
            "<r><b><t>q</t></b><b><t>z</t></b><b><u><t>q</t></u></b></r>",
            "//b[.//t = 'q']",
        ),
        // Deep chains with pc composition.
        (
            "<r><i><m><n><o/></n></m></i><i><m><o/></m></i></r>",
            "//i[./m/n/o]",
        ),
        // Nested predicates.
        (
            "<r><i><t><b/><k/></t></i><i><t><b/></t></i></r>",
            "//i[./t[./b and ./k]]",
        ),
        // Root axis.
        ("<b><t/></b>", "/b[./t]"),
        ("<r><b><t/></b></r>", "/b[./t]"),
    ];
    for (src, q) in cases {
        let doc = parse_document(src).unwrap();
        let query = parse_pattern(q).unwrap();
        assert_exact_agrees(&doc, &query);
    }
}

// ---------------------------------------------------------------------
// Property-based: random documents × random queries over a tiny tag
// alphabet, so collisions (and hence interesting matches) are frequent.
// ---------------------------------------------------------------------

const TAGS: [&str; 4] = ["a", "b", "c", "d"];

#[derive(Debug, Clone)]
struct RandomTree {
    tag: usize,
    children: Vec<RandomTree>,
}

fn tree_strategy() -> impl Strategy<Value = RandomTree> {
    let leaf = (0usize..TAGS.len()).prop_map(|tag| RandomTree {
        tag,
        children: vec![],
    });
    leaf.prop_recursive(4, 24, 3, |inner| {
        (0usize..TAGS.len(), prop::collection::vec(inner, 0..4))
            .prop_map(|(tag, children)| RandomTree { tag, children })
    })
}

#[derive(Debug, Clone)]
struct RandomQuery {
    tag: usize,
    axis: bool, // true = descendant
    children: Vec<RandomQuery>,
}

fn query_strategy() -> impl Strategy<Value = RandomQuery> {
    let leaf = (0usize..TAGS.len(), any::<bool>()).prop_map(|(tag, axis)| RandomQuery {
        tag,
        axis,
        children: vec![],
    });
    leaf.prop_recursive(3, 8, 2, |inner| {
        (
            0usize..TAGS.len(),
            any::<bool>(),
            prop::collection::vec(inner, 0..3),
        )
            .prop_map(|(tag, axis, children)| RandomQuery {
                tag,
                axis,
                children,
            })
    })
}

fn build_doc(tree: &RandomTree) -> Document {
    fn rec(t: &RandomTree, b: &mut DocumentBuilder) {
        b.open(TAGS[t.tag]);
        for c in &t.children {
            rec(c, b);
        }
        b.close();
    }
    let mut b = DocumentBuilder::new();
    rec(tree, &mut b);
    b.finish()
}

fn build_query(q: &RandomQuery) -> TreePattern {
    fn rec(q: &RandomQuery, parent: whirlpool_pattern::QNodeId, p: &mut TreePattern) {
        let axis = if q.axis {
            Axis::Descendant
        } else {
            Axis::Child
        };
        let id = p.add_node(parent, axis, TAGS[q.tag], None);
        for c in &q.children {
            rec(c, id, p);
        }
    }
    let mut p = TreePattern::new(TAGS[q.tag], Axis::Descendant);
    let root = p.root();
    for c in &q.children {
        rec(c, root, &mut p);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_docs_and_queries_agree_with_naive(
        tree in tree_strategy(),
        query in query_strategy(),
    ) {
        let doc = build_doc(&tree);
        let pattern = build_query(&query);
        let index = TagIndex::build(&doc);
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let mut options = EvalOptions::top_k(1_000_000);
        options.relax = RelaxMode::Exact;

        let mut expected: Vec<NodeId> = naive::exact_match_roots(&doc, &pattern);
        expected.sort_unstable();

        let result = evaluate(&doc, &index, &pattern, &model, &Algorithm::WhirlpoolS, &options);
        let mut got: Vec<NodeId> = result.answers.iter().map(|a| a.root).collect();
        got.sort_unstable();
        prop_assert_eq!(got, expected, "query={}", pattern);
    }

    /// In relaxed mode every root candidate survives (outer-join
    /// semantics), and exact-match roots are among the answers.
    #[test]
    fn relaxed_mode_is_complete(
        tree in tree_strategy(),
        query in query_strategy(),
    ) {
        let doc = build_doc(&tree);
        let pattern = build_query(&query);
        let index = TagIndex::build(&doc);
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let options = EvalOptions::top_k(1_000_000);

        let result = evaluate(&doc, &index, &pattern, &model, &Algorithm::WhirlpoolS, &options);
        let answer_roots: std::collections::HashSet<NodeId> =
            result.answers.iter().map(|a| a.root).collect();

        // Every node with the root tag is an approximate answer.
        let root_tag = &pattern.node(pattern.root()).tag;
        for n in doc.elements() {
            if doc.tag_str(n) == root_tag {
                prop_assert!(answer_roots.contains(&n), "missing root candidate {n:?}");
            }
        }
        // Exact matches are answers too (subset check).
        for r in naive::exact_match_roots(&doc, &pattern) {
            prop_assert!(answer_roots.contains(&r));
        }
    }
}

// The oracle's own checks.

#[test]
fn finds_exact_embeddings() {
    let doc = parse_document(
        "<shelf>\
         <book><title>x</title><isbn>1</isbn></book>\
         <book><title>x</title></book>\
         <book><nested><title>x</title></nested><isbn>2</isbn></book>\
         </shelf>",
    )
    .unwrap();
    let q = parse_pattern("//book[./title and ./isbn]").unwrap();
    let roots = naive::exact_match_roots(&doc, &q);
    assert_eq!(roots.len(), 1);
    let q_relaxed = parse_pattern("//book[.//title and ./isbn]").unwrap();
    assert_eq!(naive::exact_match_roots(&doc, &q_relaxed).len(), 2);
}

#[test]
fn respects_value_tests_and_depth() {
    let doc = parse_document(
        "<r><book><title>wodehouse</title></book><book><title>other</title></book></r>",
    )
    .unwrap();
    let q = parse_pattern("//book[./title = 'wodehouse']").unwrap();
    assert_eq!(naive::exact_match_roots(&doc, &q).len(), 1);
    // `/book` wants a top-level book; these are under <r>.
    let q2 = parse_pattern("/book[./title = 'wodehouse']").unwrap();
    assert!(naive::exact_match_roots(&doc, &q2).is_empty());
}

#[test]
fn nested_predicates() {
    let doc = parse_document(
        "<r>\
         <item><mail><text><bold/><keyword/></text></mail></item>\
         <item><mail><text><bold/></text></mail></item>\
         </r>",
    )
    .unwrap();
    let q = parse_pattern("//item[./mail/text[./bold and ./keyword]]").unwrap();
    assert_eq!(naive::exact_match_roots(&doc, &q).len(), 1);
}
