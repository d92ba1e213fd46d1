//! A document query is a one-shard scope of the collection driver, and
//! every scope counts Definition 4.2 the same way, however its shards
//! were added.
//!
//! * One XMark document sits in a three-shard collection three times:
//!   parsed, attached and peeked. Each of its document scopes must
//!   return what the one-document path returns on that document —
//!   `evaluate_view` under `TfIdfModel::build_view` — rank for rank,
//!   with the same score bits and the same engine work.
//! * A corpus of XMark files opened peeked (`open_dir` over their
//!   `.wps`) and the same files parsed must return the same answers,
//!   score bits included: one corpus model.

#[path = "common/temp.rs"]
mod temp;

use temp::TempDir;
use whirlpool_core::{
    evaluate_collection, evaluate_scope, evaluate_view, Algorithm, Collection, CollectionOptions,
    Completeness, EvalOptions, RelaxMode, Scope, Shard,
};
use whirlpool_index::TagIndex;
use whirlpool_pattern::parse_pattern;
use whirlpool_score::{Normalization, TfIdfModel};
use whirlpool_xmark::{generate, queries, GeneratorConfig};
use whirlpool_xml::{parse_document, write_document, NodeId, WriteOptions};

/// The benchmark's value-selective query.
const Q5: &str = "//item[./quantity = '1' and ./mailbox/mail/text]";

#[test]
fn a_document_scope_is_the_one_document_path() {
    let config = GeneratorConfig::items(120);
    let doc = generate(&config);
    let index = TagIndex::build(&doc);
    let dir = TempDir::new("wp-scope-eq");
    let path = dir.join("doc.wps");
    whirlpool_store::save_snapshot(&doc, &index, &path).unwrap();

    let mut collection = Collection::new();
    let copy = generate(&config);
    let copy_index = TagIndex::build(&copy);
    collection.push(Shard::parsed("parsed", copy, copy_index));
    collection.add_snapshot("attached", &path).unwrap();
    collection.push(Shard::peeked("peeked", &path).unwrap());
    assert!(!collection.shards()[2].is_resident());

    for query in [queries::Q1, queries::Q2, queries::Q3, queries::Q4, Q5] {
        let pattern = parse_pattern(query).unwrap();
        let (view, norm) = ((&doc).into(), Normalization::Sparse);
        let model = TfIdfModel::build_view(view, index.view(), &pattern, norm);
        for relax in [RelaxMode::Relaxed, RelaxMode::Exact] {
            for k in [1, 15, 75] {
                let mut options = EvalOptions::top_k(k);
                options.relax = relax;
                for algorithm in [Algorithm::WhirlpoolS, Algorithm::LockStep] {
                    let what = format!("{query} {relax:?} k={k} {algorithm:?}");
                    let one =
                        evaluate_view(view, index.view(), &pattern, &model, &algorithm, &options);
                    let expected: Vec<(NodeId, u64)> = (one.answers.iter())
                        .map(|a| (a.root, a.score.value().to_bits()))
                        .collect();
                    for shard in 0..collection.len() {
                        let (scope, copts) = (Scope::Shard(shard), CollectionOptions::default());
                        let scoped = evaluate_scope(
                            &collection,
                            scope,
                            &pattern,
                            &algorithm,
                            &options,
                            norm,
                            &copts,
                        );
                        let name = collection.shards()[shard].name();
                        assert!(scoped.answers.iter().all(|a| a.shard == shard), "{what}");
                        let got: Vec<(NodeId, u64)> = (scoped.answers.iter())
                            .map(|a| (a.root, a.score.value().to_bits()))
                            .collect();
                        assert_eq!(got, expected, "{what}, {name} scope");
                        assert!(
                            matches!(scoped.completeness, Completeness::Exact),
                            "{what}, {name} scope"
                        );
                        let cm = scoped.collection_metrics;
                        assert_eq!(cm.shards_total, 1, "{what}, {name} scope");
                        if cm.shards_visited == 1 {
                            assert_eq!(
                                scoped.metrics.server_ops, one.metrics.server_ops,
                                "{what}, {name} scope"
                            );
                        } else {
                            assert!(expected.is_empty(), "{what}: pruned with answers");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn a_peeked_corpus_scores_like_a_parsed_one() {
    let dir = TempDir::new("wp-scope-corpus");
    let mut parsed = Collection::new();
    let shards = [(40, 3), (90, 5), (60, 8), (120, 13)];
    for (i, (items, seed)) in shards.into_iter().enumerate() {
        let doc = generate(&GeneratorConfig::items(items).with_seed(seed));
        let xml = write_document(&doc, &WriteOptions::default());
        let reparsed = parse_document(&xml).unwrap();
        let path = dir.join(format!("c{i}.wps"));
        whirlpool_store::save_snapshot(&reparsed, &TagIndex::build(&reparsed), &path).unwrap();
        parsed.add_source(format!("c{i}"), &xml).unwrap();
    }
    let peeked = Collection::open_dir(&dir).unwrap();
    peeked.set_max_resident(2);
    assert!(peeked.shards().iter().all(|s| !s.is_resident()));

    for query in [queries::Q1, queries::Q2, queries::Q3, queries::Q4, Q5] {
        let pattern = parse_pattern(query).unwrap();
        for relax in [RelaxMode::Relaxed, RelaxMode::Exact] {
            for k in [1, 15, 75] {
                let what = format!("{query} {relax:?} k={k}");
                let mut options = EvalOptions::top_k(k);
                options.relax = relax;
                let (s, copts) = (&Algorithm::WhirlpoolS, CollectionOptions::default());
                let run = |c: &Collection| {
                    let r = evaluate_collection(
                        c,
                        &pattern,
                        s,
                        &options,
                        Normalization::Sparse,
                        &copts,
                    );
                    assert!(matches!(r.completeness, Completeness::Exact), "{what}");
                    let answers: Vec<(usize, NodeId, u64)> = (r.answers.iter())
                        .map(|a| (a.shard, a.root, a.score.value().to_bits()))
                        .collect();
                    (answers, r.metrics.server_ops)
                };
                let (want, ops) = run(&parsed);
                assert_eq!(run(&peeked), (want, ops), "{what}");
            }
        }
    }
}
