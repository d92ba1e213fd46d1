//! `tfidf::idf_counts_sweep` — every predicate of a query counted in one
//! document-order pass — against the literal per-answer counts of
//! `tfidf::idf_counts_view` (an answer satisfies a predicate when its tf
//! is non-zero), and the weights the models build from the sweep against
//! weights built from those reference counts, bit for bit.

use proptest::prelude::*;
use whirlpool_index::{DocView, TagIndex};
use whirlpool_pattern::{parse_pattern, AttrTest, Axis, QNodeId, TreePattern, ValueTest, WILDCARD};
use whirlpool_score::tfidf::{self, ComponentPredicate};
use whirlpool_score::{CorpusStats, Normalization, TfIdfModel};
use whirlpool_xml::{parse_document, Document};

/// Element names: `a`–`d` occur in documents, `z` never does.
const TAGS: [&str; 6] = ["a", "b", "c", "d", WILDCARD, "z"];
const TEXTS: [&str; 3] = ["x", "xy", "y"];

/// A document element: tag index (`a`–`d`), optional text, optional
/// `k` attribute value, children.
#[derive(Debug, Clone)]
struct El {
    tag: usize,
    text: Option<usize>,
    attr: Option<usize>,
    children: Vec<El>,
}

fn element() -> impl Strategy<Value = El> {
    let leaf = (
        0usize..4,
        prop::option::of(0usize..3),
        prop::option::of(0usize..3),
    )
        .prop_map(|(tag, text, attr)| El {
            tag,
            text,
            attr,
            children: Vec::new(),
        });
    leaf.prop_recursive(6, 64, 4, |inner| {
        (
            0usize..4,
            prop::option::of(0usize..3),
            prop::option::of(0usize..3),
            prop::collection::vec(inner, 0..5),
        )
            .prop_map(|(tag, text, attr, children)| El {
                tag,
                text,
                attr,
                children,
            })
    })
}

fn write_el(el: &El, out: &mut String) {
    out.push('<');
    out.push_str(TAGS[el.tag]);
    if let Some(v) = el.attr {
        out.push_str(&format!(" k=\"{}\"", TEXTS[v]));
    }
    out.push('>');
    if let Some(t) = el.text {
        out.push_str(TEXTS[t]);
    }
    for child in &el.children {
        write_el(child, out);
    }
    out.push_str("</");
    out.push_str(TAGS[el.tag]);
    out.push('>');
}

/// A pattern step below its parent: child axis?, tag index (wildcard
/// and absent included), value test (none, `= x`, `contains x`,
/// `= y`), attribute test (none, `@k`, `@k = 'x'`, `@q`; documents
/// carry `k` and never `q`), children.
#[derive(Debug, Clone)]
struct Step {
    child: bool,
    tag: usize,
    value: usize,
    attr: usize,
    children: Vec<Step>,
}

fn step() -> impl Strategy<Value = Step> {
    let leaf =
        (any::<bool>(), 0usize..6, 0usize..4, 0usize..4).prop_map(|(child, tag, value, attr)| {
            Step {
                child,
                tag,
                value,
                attr,
                children: Vec::new(),
            }
        });
    leaf.prop_recursive(2, 8, 3, |inner| {
        (
            any::<bool>(),
            0usize..6,
            0usize..4,
            0usize..4,
            prop::collection::vec(inner, 0..3),
        )
            .prop_map(|(child, tag, value, attr, children)| Step {
                child,
                tag,
                value,
                attr,
                children,
            })
    })
}

fn attr_test(attr: usize) -> Option<AttrTest> {
    let (name, value) = match attr {
        1 => ("k", None),
        2 => ("k", Some("x")),
        3 => ("q", None),
        _ => return None,
    };
    Some(AttrTest {
        name: name.to_string(),
        value: value.map(str::to_string),
    })
}

fn add_steps(pattern: &mut TreePattern, parent: QNodeId, steps: &[Step]) {
    for s in steps {
        let axis = if s.child {
            Axis::Child
        } else {
            Axis::Descendant
        };
        let value = match s.value {
            1 => Some(ValueTest::Eq("x".into())),
            2 => Some(ValueTest::Contains("x".into())),
            3 => Some(ValueTest::Eq("y".into())),
            _ => None,
        };
        let node = pattern.add_node(parent, axis, TAGS[s.tag], value);
        if let Some(test) = attr_test(s.attr) {
            pattern.add_attr_test(node, test);
        }
        add_steps(pattern, node, &s.children);
    }
}

/// The answer tag: `a`–`d`, wildcard or absent.
fn pattern(answer: usize, root_attr: usize, steps: &[Step]) -> TreePattern {
    let mut pattern = TreePattern::new(TAGS[answer], Axis::Descendant);
    if let Some(test) = attr_test(root_attr) {
        pattern.add_attr_test(QNodeId::ROOT, test);
    }
    add_steps(&mut pattern, QNodeId::ROOT, steps);
    pattern
}

/// The literal counts: the population straight off the document, and
/// per predicate the per-answer counts of it and of its relaxed form.
fn reference_counts(
    doc: &Document,
    index: &TagIndex,
    answer_tag: &str,
    preds: &[ComponentPredicate],
) -> (u64, Vec<[u64; 2]>) {
    let view = DocView::from(doc);
    let population = view
        .elements()
        .filter(|&n| answer_tag == WILDCARD || view.tag_str(n) == answer_tag)
        .count() as u64;
    let counts = preds
        .iter()
        .map(|pred| {
            let relaxed = ComponentPredicate {
                axis: pred.axis.relaxed(),
                ..pred.clone()
            };
            let (pop, exact) = tfidf::idf_counts(doc, index, answer_tag, pred);
            let (pop_relaxed, relaxed) = tfidf::idf_counts(doc, index, answer_tag, &relaxed);
            assert_eq!((pop, pop_relaxed), (population, population));
            [exact, relaxed]
        })
        .collect();
    (population, counts)
}

fn sweep(
    doc: &Document,
    index: &TagIndex,
    answer_tag: &str,
    preds: &[ComponentPredicate],
) -> (u64, Vec<[u64; 2]>) {
    tfidf::idf_counts_sweep(doc.into(), index.view(), answer_tag, preds)
}

/// `[exact, relaxed]` weights per query node from counts, as
/// Definition 4.2 and the models' clamps define them.
fn reference_weights(
    len: usize,
    preds: &[ComponentPredicate],
    population: u64,
    counts: &[[u64; 2]],
) -> Vec<[u64; 2]> {
    let mut weights = vec![[0.0f64.to_bits(); 2]; len];
    for (pred, &[exact, relaxed]) in preds.iter().zip(counts) {
        let e = tfidf::idf_from_counts(population, exact);
        let r = tfidf::idf_from_counts(population, relaxed);
        weights[pred.qnode.index()] = [e.max(0.0).to_bits(), r.min(e).max(0.0).to_bits()];
    }
    weights
}

fn model_bits(model: &TfIdfModel, pattern: &TreePattern) -> Vec<[u64; 2]> {
    pattern
        .node_ids()
        .map(|q| model.weights(q).map(f64::to_bits))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random documents (nested same-tag elements, leaves with no
    /// candidates, texts, attributes) and random patterns (wildcard and
    /// absent tags, `=` and `contains`, attribute tests, single nodes):
    /// the sweep's counts are the literal ones.
    #[test]
    fn sweep_counts_equal_the_per_answer_counts(
        root in element(),
        answer in 0usize..6,
        root_attr in 0usize..4,
        steps in prop::collection::vec(step(), 0..4),
    ) {
        let mut xml = String::new();
        write_el(&root, &mut xml);
        let doc = parse_document(&xml).unwrap();
        let index = TagIndex::build(&doc);
        let pattern = pattern(answer, root_attr, &steps);
        let preds = tfidf::component_predicates(&pattern);
        let answer_tag = TAGS[answer];
        let expected = reference_counts(&doc, &index, answer_tag, &preds);
        prop_assert_eq!(sweep(&doc, &index, answer_tag, &preds), expected.clone(), "{}", xml);

        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::None);
        let (population, counts) = expected;
        prop_assert_eq!(
            model_bits(&model, &pattern),
            reference_weights(pattern.len(), &preds, population, &counts)
        );
    }
}

#[test]
fn nested_same_tag_answers_count_their_own_candidates() {
    // Every `a` but the last is inside the previous one's subtree, so
    // each cursor range starts inside the previous range.
    let doc = parse_document(
        "<r><a><b>x</b><a><b/><a><c/><b>x</b></a><b>x</b></a></a><a/><a><d><b/></d></a></r>",
    )
    .unwrap();
    let index = TagIndex::build(&doc);
    for query in [
        "//a[./b]",
        "//a[./b = 'x']",
        "//a[.//b and ./*]",
        "//*[./b]",
    ] {
        let pattern = parse_pattern(query).unwrap();
        let preds = tfidf::component_predicates(&pattern);
        let answer_tag = &pattern.node(pattern.root()).tag;
        assert_eq!(
            sweep(&doc, &index, answer_tag, &preds),
            reference_counts(&doc, &index, answer_tag, &preds),
            "{query}"
        );
    }
    let pattern = parse_pattern("//a[./b]").unwrap();
    let preds = tfidf::component_predicates(&pattern);
    // Five `a`s; the first three have a child `b`, four hold one below.
    assert_eq!(sweep(&doc, &index, "a", &preds), (5, vec![[3, 4]]));
}

/// The benchmark's five queries: the paper's Q1–Q3, Q4 (attributes and
/// a wildcard) and a value-selective Q5.
const QUERIES: [&str; 5] = [
    whirlpool_xmark::queries::Q1,
    whirlpool_xmark::queries::Q2,
    whirlpool_xmark::queries::Q3,
    whirlpool_xmark::queries::Q4,
    "//item[./quantity = '1' and ./mailbox/mail/text]",
];

#[test]
fn xmark_model_weights_equal_reference_weights_bit_for_bit() {
    let doc = whirlpool_xmark::generate(&whirlpool_xmark::GeneratorConfig::megabytes(1));
    let index = TagIndex::build(&doc);
    for query in QUERIES {
        let pattern = parse_pattern(query).unwrap();
        let preds = tfidf::component_predicates(&pattern);
        let (population, counts) = reference_counts(&doc, &index, "item", &preds);
        assert!(population > 0, "{query}");
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::None);
        assert_eq!(
            model_bits(&model, &pattern),
            reference_weights(pattern.len(), &preds, population, &counts),
            "{query}"
        );
    }
}

#[test]
fn corpus_weights_over_three_shards_equal_reference_weights_bit_for_bit() {
    let shards: Vec<(Document, TagIndex)> = (1..=3)
        .map(|seed| {
            let config = whirlpool_xmark::GeneratorConfig::items(120).with_seed(seed);
            let xml = whirlpool_xml::write_document(
                &whirlpool_xmark::generate(&config),
                &whirlpool_xml::WriteOptions::default(),
            );
            let doc = parse_document(&xml).unwrap();
            let index = TagIndex::build(&doc);
            (doc, index)
        })
        .collect();
    for query in QUERIES {
        let pattern = parse_pattern(query).unwrap();
        let preds = tfidf::component_predicates(&pattern);
        let mut stats = CorpusStats::new(&pattern);
        let mut population = 0;
        let mut counts = vec![[0u64; 2]; preds.len()];
        for (doc, index) in &shards {
            stats.add_shard(doc, index, "item");
            let (pop, shard_counts) = reference_counts(doc, index, "item", &preds);
            population += pop;
            for (total, shard) in counts.iter_mut().zip(shard_counts) {
                total[0] += shard[0];
                total[1] += shard[1];
            }
        }
        assert_eq!(stats.population(), population, "{query}");
        assert_eq!(
            model_bits(&stats.model(Normalization::None), &pattern),
            reference_weights(pattern.len(), &preds, population, &counts),
            "{query}"
        );
    }
}

/// Sweep and reference agree on every query, on one document.
fn assert_sweep_matches_reference(xml: &str, queries: &[&str]) {
    let doc = parse_document(xml).unwrap();
    let index = TagIndex::build(&doc);
    for query in queries {
        let pattern = parse_pattern(query).unwrap();
        let preds = tfidf::component_predicates(&pattern);
        let answer_tag = &pattern.node(pattern.root()).tag;
        assert_eq!(
            sweep(&doc, &index, answer_tag, &preds),
            reference_counts(&doc, &index, answer_tag, &preds),
            "{query} on {xml}"
        );
    }
}

#[test]
fn a_witness_under_the_innermost_answer_satisfies_an_outer_one() {
    // Two chains of three nested `a`s. The `b` under the innermost `a` is
    // the child-chain witness of an outer `a` only, and the relaxed
    // witness of all of them.
    let xml = "<r><a><a><c><a><b>y</b></a></c><b/></a></a><a><x><a><a><b k=\"x\">y</b></a></a></x></a></r>";
    assert_sweep_matches_reference(
        xml,
        &[
            "//a[./a/c/a/b]",
            "//a[./c/a/b = 'y']",
            "//a[./*/a/b]",
            "//a[./x/a/a/b]",
            "//a[./a/b and .//b = 'y']",
            "//a[.//b]",
        ],
    );
    let doc = parse_document(xml).unwrap();
    let index = TagIndex::build(&doc);
    let preds = tfidf::component_predicates(&parse_pattern("//a[./x/a/a/b]").unwrap());
    // Six `a`s, each holding a `b` below; the two outermost hold one
    // four child steps down, each through two nested `a`s.
    assert_eq!(sweep(&doc, &index, "a", &preds[3..]), (6, vec![[2, 6]]));
}

#[test]
fn a_predicate_on_the_answer_tag_counts_nested_answers() {
    // A chain of four `a`s, then a lone `a` with an `a` grandchild.
    let xml = "<r><a><a><a><a/></a></a></a><a><b><a/></b></a></r>";
    assert_sweep_matches_reference(
        xml,
        &[
            "//a[.//a]",
            "//a[./a]",
            "//a[./a/a]",
            "//a[./*/a]",
            "//a[./a//a]",
        ],
    );
    let doc = parse_document(xml).unwrap();
    let index = TagIndex::build(&doc);
    let preds = tfidf::component_predicates(&parse_pattern("//a[.//a]").unwrap());
    assert_eq!(sweep(&doc, &index, "a", &preds), (6, vec![[4, 4]]));
    // The second predicate is `a` two child steps down, whatever the
    // step between: the chain's first two and the lone `a` hold it.
    let preds = tfidf::component_predicates(&parse_pattern("//a[./a/a]").unwrap());
    assert_eq!(sweep(&doc, &index, "a", &preds[1..]), (6, vec![[3, 4]]));
}

#[test]
fn a_candidate_at_an_answers_subtree_end_is_outside_it() {
    // Each `b` sits at the id one past an `a`'s subtree: right after it
    // as a sibling, and after a nested pair closing together.
    let xml = "<r><a/><b/><a><c/></a><b>y</b><a><a><c/></a></a><b/><c><a/></c><b/></r>";
    assert_sweep_matches_reference(
        xml,
        &[
            "//a[.//b]",
            "//a[./b]",
            "//a[./*/b]",
            "//a[.//* = 'y']",
            "//*[./b]",
        ],
    );
    let doc = parse_document(xml).unwrap();
    let index = TagIndex::build(&doc);
    let preds = tfidf::component_predicates(&parse_pattern("//a[.//b]").unwrap());
    assert_eq!(sweep(&doc, &index, "a", &preds), (5, vec![[0, 0]]));
}

#[test]
fn a_wildcard_child_chain_applies_its_value_and_attribute_tests() {
    // `./*/*[@k = 'x'] = 'y'`: two child steps down, both tests. Only
    // the first `a` has a grandchild passing both; the second has the
    // tests' witness one level too deep, the third at the right depth
    // with the wrong value, the fourth with the wrong attribute.
    let xml = "<r>\
               <a><c><d k=\"x\">y</d></c></a>\
               <a><c><d><d k=\"x\">y</d></d></c></a>\
               <a><c><d k=\"x\">x</d></c></a>\
               <a><c><d k=\"y\">y</d></c></a>\
               </r>";
    let doc = parse_document(xml).unwrap();
    let index = TagIndex::build(&doc);
    let mut pattern = TreePattern::new("a", Axis::Descendant);
    let star = pattern.add_node(QNodeId::ROOT, Axis::Child, WILDCARD, None);
    let leaf = pattern.add_node(star, Axis::Child, WILDCARD, Some(ValueTest::Eq("y".into())));
    pattern.add_attr_test(
        leaf,
        AttrTest {
            name: "k".to_string(),
            value: Some("x".to_string()),
        },
    );
    let preds = tfidf::component_predicates(&pattern);
    let expected = reference_counts(&doc, &index, "a", &preds);
    assert_eq!(sweep(&doc, &index, "a", &preds), expected);
    assert_eq!(expected, (4, vec![[4, 4], [1, 2]]));
}

#[test]
fn flat_answers_count_alike() {
    // No `a` lies inside another, so the sweep walks answers and
    // postings side by side. `b`s sit in the gaps between answers, at
    // an answer's subtree end, at several depths, with and without the
    // value and attribute the tests ask for.
    let xml = "<r><b>y</b>\
               <a><b>y</b><c><b k=\"x\">y</b></c></a><b>y</b>\
               <c><b/></c>\
               <a><c><b>x</b></c></a>\
               <a><b k=\"x\">x</b><c><b k=\"x\">y</b></c></a>\
               <a/><b/></r>";
    assert_sweep_matches_reference(
        xml,
        &[
            "//a[./b]",
            "//a[.//b]",
            "//a[./c/b]",
            "//a[./b = 'y']",
            "//a[./*/b = 'y']",
            "//a[.//b = 'x' and ./c/b[@k = 'x']]",
        ],
    );
    let doc = parse_document(xml).unwrap();
    let index = TagIndex::build(&doc);
    let count = |query: &str| {
        let preds = tfidf::component_predicates(&parse_pattern(query).unwrap());
        sweep(&doc, &index, "a", &preds[preds.len() - 1..])
    };
    // Four `a`s: two hold a child `b`, three hold one below.
    assert_eq!(count("//a[./b]"), (4, vec![[2, 3]]));
    // `./c/b = 'y'`: the first and the third; `.//b = 'y'`: the same.
    assert_eq!(count("//a[./c/b = 'y']"), (4, vec![[2, 2]]));
    // `./c/b[@k = 'x']`: the first and the third, the only ones with
    // such a `b` anywhere below.
    assert_eq!(count("//a[./c/b[@k = 'x']]"), (4, vec![[2, 2]]));
}
