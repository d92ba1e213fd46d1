//! The engines' *exact* mode against the enumeration reference, and
//! relaxed mode's outer-join completeness, over XMark, hand-written edge
//! cases and random inputs; then the reference's own checks. Each engine
//! test is a slice of the oracle's configuration table
//! (`tests/oracle/harness.rs`).

#[path = "oracle/harness.rs"]
mod oracle;

use oracle::*;
use proptest::prelude::*;
use whirlpool_core::RelaxMode;
use whirlpool_pattern::parse_pattern;
use whirlpool_xmark::queries;
use whirlpool_xml::parse_document;

/// Every engine in exact mode, k past every root: the returned roots
/// are exactly the roots with an embedding.
fn exact_rows() -> Vec<Row> {
    let exact = |engine| Row {
        engine,
        relax: RelaxMode::Exact,
        k: K::Beyond,
        ..Row::default()
    };
    sweep(&[Engine::NoPrun, Engine::S, Engine::M(2)], exact)
}

#[test]
fn xmark_exact_roots_match_naive() {
    let patterns = [queries::Q1, queries::Q2, queries::Q3];
    check_case(
        &xmark_case("xmark", &[20, 20, 20], &patterns),
        &exact_rows(),
    );
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
        check_case(&Case::parse(q, &[src], &[q]), &both_modes(exact_rows()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_docs_and_queries_agree_with_naive(seed in any::<u64>()) {
        check_case(&random_case(seed), &exact_rows());
    }

    /// In relaxed mode every root candidate is an answer (outer-join
    /// semantics): k past every root returns each one.
    #[test]
    fn relaxed_mode_is_complete(seed in any::<u64>()) {
        let rows = sweep(&[Engine::S, Engine::M(2)], |engine| Row {
            engine,
            k: K::Beyond,
            ..Row::default()
        });
        let case = random_case(seed);
        let fixture = Fixture::new(&case);
        fixture.check_rows(&rows);
        for (i, doc) in case.docs.iter().enumerate() {
            let truth = fixture.truth(0, Model::IdfSparse, Some(i), RelaxMode::Relaxed);
            prop_assert_eq!(truth.len(), root_candidates(doc, &case.patterns[0]).len());
        }
    }
}

// The reference's own checks.

/// `pattern`'s exact roots in `src`, by the reference.
fn exact_roots_in(src: &str, pattern: &str) -> usize {
    exact_roots(
        &parse_document(src).unwrap(),
        &parse_pattern(pattern).unwrap(),
    )
    .len()
}

#[test]
fn finds_exact_embeddings() {
    let shelf = "<shelf><book><title>x</title><isbn>1</isbn></book><book><title>x</title></book>\
                 <book><nested><title>x</title></nested><isbn>2</isbn></book></shelf>";
    assert_eq!(exact_roots_in(shelf, "//book[./title and ./isbn]"), 1);
    assert_eq!(exact_roots_in(shelf, "//book[.//title and ./isbn]"), 2);
}

#[test]
fn respects_value_tests_and_depth() {
    let src = "<r><book><title>wodehouse</title></book><book><title>other</title></book></r>";
    assert_eq!(exact_roots_in(src, "//book[./title = 'wodehouse']"), 1);
    // `/book` wants a top-level book; these are under <r>.
    assert_eq!(exact_roots_in(src, "/book[./title = 'wodehouse']"), 0);
}

#[test]
fn nested_predicates() {
    let src = "<r><item><mail><text><bold/><keyword/></text></mail></item>\
               <item><mail><text><bold/></text></mail></item></r>";
    assert_eq!(
        exact_roots_in(src, "//item[./mail/text[./bold and ./keyword]]"),
        1
    );
}
