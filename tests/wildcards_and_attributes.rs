//! Tests for the query-language extensions: wildcard node tests (`*`)
//! and attribute predicates (`@name`, `@name = 'value'`).

mod common;

use common::oracle::{check_topk, exact_roots, scored};
use whirlpool_core::{evaluate, Algorithm, EvalOptions, RelaxMode};
use whirlpool_index::TagIndex;
use whirlpool_pattern::{parse_pattern, relax};
use whirlpool_score::{Normalization, TfIdfModel};
use whirlpool_xml::{parse_document, Document, NodeId};

const SRC: &str = "<site>\
    <item id=\"i1\"><incategory category=\"cat7\"/><name>alpha</name></item>\
    <item id=\"i2\"><incategory category=\"cat9\"/><name>beta</name></item>\
    <item id=\"i3\"><name>gamma</name></item>\
    <item><wrapper><incategory category=\"cat7\"/></wrapper><name>delta</name></item>\
    </site>";

/// The roots Whirlpool-S returns in exact mode, sorted.
fn engine_roots(doc: &Document, query: &str) -> Vec<NodeId> {
    let pattern = parse_pattern(query).unwrap();
    let index = TagIndex::build(doc);
    let model = TfIdfModel::build(doc, &index, &pattern, Normalization::Sparse);
    let mut options = EvalOptions::top_k(1000);
    options.relax = RelaxMode::Exact;
    let result = evaluate(
        doc,
        &index,
        &pattern,
        &model,
        &Algorithm::WhirlpoolS,
        &options,
    );
    let mut roots: Vec<NodeId> = result.answers.iter().map(|a| a.root).collect();
    roots.sort_unstable();
    roots
}

#[test]
fn attribute_presence_and_equality() {
    let doc = parse_document(SRC).unwrap();

    // Presence: items with any incategory child carrying @category.
    let with_attr = engine_roots(&doc, "//item[./incategory[@category]]");
    assert_eq!(with_attr.len(), 2, "items i1, i2");

    // Equality: only the cat7 item (the nested one needs relaxation).
    let cat7 = engine_roots(&doc, "//item[./incategory[@category = 'cat7']]");
    assert_eq!(cat7.len(), 1);

    // Attribute test on the root node itself.
    let by_id = engine_roots(&doc, "//item[@id = 'i2']");
    assert_eq!(by_id.len(), 1);
    let by_any_id = engine_roots(&doc, "//item[@id]");
    assert_eq!(by_any_id.len(), 3, "the fourth item has no id");
}

#[test]
fn attribute_tests_agree_with_naive() {
    let doc = parse_document(SRC).unwrap();
    for query in [
        "//item[./incategory[@category = 'cat7']]",
        "//item[@id and ./name]",
        "//item[./incategory[@category]]",
        "//item[.//incategory[@category = 'cat7']]",
    ] {
        let pattern = parse_pattern(query).unwrap();
        let mut expected = exact_roots(&doc, &pattern);
        expected.sort_unstable();
        assert_eq!(engine_roots(&doc, query), expected, "{query}");
    }
}

#[test]
fn wildcard_node_tests() {
    let doc = parse_document(
        "<r>\
         <item><a><x/></a></item>\
         <item><b><x/></b></item>\
         <item><x/></item>\
         <item><c/></item>\
         </r>",
    )
    .unwrap();
    // x reachable through exactly one intermediate element of any tag.
    let two_step = engine_roots(&doc, "//item[./*/x]");
    assert_eq!(two_step.len(), 2);
    // Any child at all.
    let any_child = engine_roots(&doc, "//item[./*]");
    assert_eq!(any_child.len(), 4);
    // Wildcard agrees with naive.
    for query in ["//item[./*/x]", "//item[./*]", "//item[.//*]"] {
        let pattern = parse_pattern(query).unwrap();
        let mut expected = exact_roots(&doc, &pattern);
        expected.sort_unstable();
        assert_eq!(engine_roots(&doc, query), expected, "{query}");
    }
}

#[test]
fn relaxed_mode_scores_attribute_matches_higher() {
    let doc = parse_document(SRC).unwrap();
    let pattern = parse_pattern("//item[./incategory[@category = 'cat7']]").unwrap();
    let index = TagIndex::build(&doc);
    let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::None);
    let result = evaluate(
        &doc,
        &index,
        &pattern,
        &model,
        &Algorithm::WhirlpoolS,
        &EvalOptions::top_k(10),
    );
    assert_eq!(result.answers.len(), 4, "all items are approximate answers");
    // The exact cat7 item outranks the nested cat7 item, which outranks
    // the attribute-less ones.
    let top = result.answers[0].root;
    assert_eq!(doc.attribute(top, "id"), Some("i1"));
    assert!(result.answers[0].score > result.answers[1].score);
    assert!(
        result.answers[1].score.value() > 0.0,
        "nested cat7 still scores"
    );
    assert_eq!(result.answers[3].score.value(), 0.0);
}

#[test]
fn engines_agree_with_extensions() {
    let doc = parse_document(SRC).unwrap();
    for query in [
        "//item[./incategory[@category = 'cat7'] and ./name]",
        "//item[./*[@category]]",
        "//item[@id and ./*]",
    ] {
        let pattern = parse_pattern(query).unwrap();
        let index = TagIndex::build(&doc);
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let options = EvalOptions::top_k(4);
        let reference = evaluate(
            &doc,
            &index,
            &pattern,
            &model,
            &Algorithm::LockStepNoPrune,
            &options,
        );
        for alg in [
            Algorithm::LockStep,
            Algorithm::WhirlpoolS,
            Algorithm::WhirlpoolM { processors: None },
        ] {
            let got = evaluate(&doc, &index, &pattern, &model, &alg, &options);
            let what = format!("{query} alg={}", alg.name());
            check_topk(&what, &scored(&got.answers), &scored(&reference.answers), 4);
        }
    }
}

#[test]
fn relaxations_preserve_attribute_tests() {
    let query = parse_pattern("//item[./incategory[@category = 'cat7']]").unwrap();
    for relaxed in relax::enumerate(&query, 100) {
        // Any relaxed query that still mentions incategory keeps its
        // attribute test.
        for id in relaxed.node_ids() {
            if relaxed.node(id).tag == "incategory" {
                assert_eq!(relaxed.node(id).attrs.len(), 1, "{relaxed}");
            }
        }
    }
}

#[test]
fn display_roundtrips_extensions() {
    for src in [
        "//item[@id = 'i1' and ./name]",
        "//item[./incategory[@category]]",
        "//item[./*[./x]]",
        "//*[./name]",
    ] {
        let q = parse_pattern(src).unwrap();
        let printed = q.to_string();
        let reparsed =
            parse_pattern(&printed).unwrap_or_else(|e| panic!("cannot reparse {printed:?}: {e}"));
        assert_eq!(q.canonical_form(), reparsed.canonical_form(), "{src}");
    }
}

#[test]
fn wildcard_root_query() {
    let doc = parse_document("<r><a><k/></a><b><k/></b><c/></r>").unwrap();
    let roots = engine_roots(&doc, "//*[./k]");
    assert_eq!(roots.len(), 2);
    let pattern = parse_pattern("//*[./k]").unwrap();
    let mut expected = exact_roots(&doc, &pattern);
    expected.sort_unstable();
    assert_eq!(roots, expected);
}

#[test]
fn parser_rejects_wildcard_attribute_names() {
    assert!(parse_pattern("//item[@* = 'x']").is_err());
}

#[test]
fn q4_on_generated_data_agrees_with_naive() {
    let doc = whirlpool_xmark::generate(&whirlpool_xmark::GeneratorConfig::items(80));
    let query = whirlpool_xmark::queries::Q4;
    let pattern = parse_pattern(query).unwrap();
    let mut expected = exact_roots(&doc, &pattern);
    expected.sort_unstable();
    assert!(!expected.is_empty(), "Q4 should match generated items");
    assert_eq!(engine_roots(&doc, query), expected);

    // And all engines agree on the relaxed top-k.
    let index = TagIndex::build(&doc);
    let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
    let options = EvalOptions::top_k(15);
    let reference = evaluate(
        &doc,
        &index,
        &pattern,
        &model,
        &Algorithm::LockStepNoPrune,
        &options,
    );
    for alg in [
        Algorithm::WhirlpoolS,
        Algorithm::WhirlpoolM { processors: None },
    ] {
        let got = evaluate(&doc, &index, &pattern, &model, &alg, &options);
        check_topk(
            alg.name(),
            &scored(&got.answers),
            &scored(&reference.answers),
            15,
        );
    }
}
