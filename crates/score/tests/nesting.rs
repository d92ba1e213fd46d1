//! The model's idf count is linear in how deeply the answers nest: a
//! chain of `n` nested answers costs about `n`, not `n²`.

use std::time::{Duration, Instant};
use whirlpool_index::TagIndex;
use whirlpool_pattern::parse_pattern;
use whirlpool_score::{Normalization, TfIdfModel};
use whirlpool_xml::parse_document;

/// A chain of `n` nested `a`s; each `a`'s `b` child follows the `a`
/// nested in it, so every `a` holds all the `b`s below it and only the
/// last of them is its child.
fn chain(n: usize) -> String {
    let mut xml = String::with_capacity(n * 15 + 7);
    xml.push_str("<r>");
    xml.push_str(&"<a>".repeat(n));
    xml.push_str(&"<b>y</b></a>".repeat(n));
    xml.push_str("</r>");
    xml
}

/// The fastest of `runs` model builds of `//a[./b = 'y']` over the
/// chain of `n`.
fn best_build(n: usize, runs: usize) -> Duration {
    let doc = parse_document(&chain(n)).unwrap();
    let index = TagIndex::build(&doc);
    let pattern = parse_pattern("//a[./b = 'y']").unwrap();
    (0..runs)
        .map(|_| {
            let start = Instant::now();
            let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::None);
            let took = start.elapsed();
            // Every `a` has its own `b` child: the predicate holds for
            // all of them, so its idf is 0.
            assert_eq!(model.weights(pattern.node_ids().nth(1).unwrap()), [0.0; 2]);
            took
        })
        .min()
        .unwrap()
}

#[test]
fn model_build_is_linear_in_answer_nesting() {
    let small = best_build(1_000, 15);
    let large = best_build(4_000, 15);
    // Four times the nesting: about four times the work when linear,
    // sixteen when quadratic.
    assert!(
        large < small * 8,
        "n = 1000: {small:?}, n = 4000: {large:?} (×{:.1})",
        large.as_secs_f64() / small.as_secs_f64()
    );
}
