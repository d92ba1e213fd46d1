//! The plan-encoded relaxation must agree with the rewriting-based
//! definition: an approximate answer of query Q is an exact answer of
//! some relaxed query Q′ of Q — and vice versa.

mod common;

use common::oracle::exact_roots;
use std::collections::HashSet;
use whirlpool_core::{evaluate, Algorithm, EvalOptions};
use whirlpool_index::TagIndex;
use whirlpool_pattern::parse_pattern;
use whirlpool_pattern::relax;
use whirlpool_score::{Normalization, TfIdfModel};
use whirlpool_xmark::{books, generate, queries, GeneratorConfig};
use whirlpool_xml::{Document, NodeId};

/// Roots of exact matches of any query in the relaxation closure.
fn closure_roots(doc: &Document, query: &whirlpool_pattern::TreePattern) -> HashSet<NodeId> {
    let mut roots = HashSet::new();
    for relaxed in relax::enumerate(query, 50_000) {
        for r in exact_roots(doc, &relaxed) {
            roots.insert(r);
        }
    }
    roots
}

/// Engine answers with a positive score, given unnormalized weights.
fn engine_positive_roots(
    doc: &Document,
    query: &whirlpool_pattern::TreePattern,
) -> (HashSet<NodeId>, HashSet<NodeId>) {
    let index = TagIndex::build(doc);
    let model = TfIdfModel::build(doc, &index, query, Normalization::None);
    let options = EvalOptions::top_k(1_000_000);
    let result = evaluate(doc, &index, query, &model, &Algorithm::WhirlpoolS, &options);
    let all: HashSet<NodeId> = result.answers.iter().map(|a| a.root).collect();
    let positive: HashSet<NodeId> = result
        .answers
        .iter()
        .filter(|a| a.score.value() > 0.0)
        .map(|a| a.root)
        .collect();
    (all, positive)
}

#[test]
fn books_example_matches_figure_2() {
    // §2: query 2(a) matches book (a) only; 2(c) additionally matches
    // book (b); 2(d) matches all three. The engine's relaxed evaluation
    // must therefore return all three books, with book (a) first.
    let doc = books::heterogeneous_collection();
    let query = queries::parse(queries::FIG2A);

    let exact = exact_roots(&doc, &query);
    assert_eq!(exact.len(), 1, "book (a) is the only exact match");

    let fig2c =
        parse_pattern("/book[.//title = 'wodehouse' and .//publisher/name = 'psmith']").unwrap();
    assert_eq!(exact_roots(&doc, &fig2c).len(), 2, "books (a) and (b)");

    let fig2d = parse_pattern("/book[.//title = 'wodehouse']").unwrap();
    assert_eq!(exact_roots(&doc, &fig2d).len(), 3, "all three books");

    let (all, _) = engine_positive_roots(&doc, &query);
    assert_eq!(all.len(), 3, "relaxed evaluation admits all three books");
}

#[test]
fn engine_covers_the_relaxation_closure() {
    // Every exact answer to every relaxed query must appear among the
    // engine's (relaxed-mode) answers.
    let doc = generate(&GeneratorConfig::items(30));
    for (name, query) in queries::benchmark_queries() {
        // Q3's closure is huge; cap the enumeration for it.
        if name == "Q3" {
            continue;
        }
        let closure = closure_roots(&doc, &query);
        let (all, _) = engine_positive_roots(&doc, &query);
        for r in &closure {
            assert!(
                all.contains(r),
                "{name}: closure root {r:?} missing from engine answers"
            );
        }
    }
}

#[test]
fn exact_matches_score_highest() {
    // An exact match satisfies every component predicate at the exact
    // level, so no approximate answer can outscore it.
    let doc = generate(&GeneratorConfig::items(60));
    for (name, query) in queries::benchmark_queries() {
        let index = TagIndex::build(&doc);
        let model = TfIdfModel::build(&doc, &index, &query, Normalization::None);
        let options = EvalOptions::top_k(1_000_000);
        let result = evaluate(
            &doc,
            &index,
            &query,
            &model,
            &Algorithm::WhirlpoolS,
            &options,
        );
        let exact: HashSet<NodeId> = exact_roots(&doc, &query).into_iter().collect();
        if exact.is_empty() {
            continue;
        }
        let best_exact = result
            .answers
            .iter()
            .filter(|a| exact.contains(&a.root))
            .map(|a| a.score)
            .max()
            .expect("exact matches are answers");
        let best_any = result.answers.first().map(|a| a.score).unwrap();
        assert!(
            best_exact >= best_any,
            "{name}: an approximate answer outscored every exact match"
        );
    }
}

#[test]
fn relaxation_never_loses_exact_answers() {
    // "These relaxations ... still guarantee that exact matches to the
    // original query continue to be matches to the relaxed query."
    let doc = generate(&GeneratorConfig::items(25));
    let query = queries::parse(queries::Q1);
    let original: HashSet<NodeId> = exact_roots(&doc, &query).into_iter().collect();
    for relaxed in relax::enumerate(&query, 10_000) {
        let relaxed_roots: HashSet<NodeId> = exact_roots(&doc, &relaxed).into_iter().collect();
        for r in &original {
            assert!(
                relaxed_roots.contains(r),
                "exact match {r:?} lost by relaxed query {relaxed}"
            );
        }
    }
}
