//! A snapshot is a pure representation change.
//!
//! Attaching a snapshot must be observationally equivalent to
//! parsing + indexing the same document: the score model, every
//! engine's top-k (tie-aware), and the collection driver's global
//! top-k all agree whichever backing the views read from. Only the
//! prepare cost may differ.

use proptest::prelude::*;
use std::path::PathBuf;
use whirlpool_core::{
    answers_equivalent, collection_answers_equivalent, evaluate_collection, evaluate_view,
    Algorithm, Collection, CollectionOptions, EvalOptions,
};
use whirlpool_index::TagIndex;
use whirlpool_score::{Normalization, TfIdfModel};
use whirlpool_store::Snapshot;
use whirlpool_xmark::{generate, queries, GeneratorConfig};
use whirlpool_xml::Document;

const EPS: f64 = 1e-9;

fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::LockStepNoPrune,
        Algorithm::LockStep,
        Algorithm::WhirlpoolS,
        Algorithm::WhirlpoolM { processors: None },
        Algorithm::WhirlpoolM {
            processors: Some(2),
        },
    ]
}

/// Saves the snapshot of `doc` under a unique temp name.
fn save_snapshot(doc: &Document, index: &TagIndex, tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("wp-snap-diff-{}-{tag}.wps", std::process::id()));
    whirlpool_store::save_snapshot(doc, index, &path).expect("save snapshot");
    path
}

/// Round-trips `doc` through the snapshot format: save, attach, and
/// hand back the attached snapshot. Linux keeps the mapping valid after
/// the unlink, so the file is removed immediately.
fn snapshot_of(doc: &Document, index: &TagIndex, tag: &str) -> Snapshot {
    let path = save_snapshot(doc, index, tag);
    let snapshot = Snapshot::attach(&path).expect("attach snapshot");
    let _ = std::fs::remove_file(&path);
    snapshot
}

#[test]
fn every_engine_agrees_across_backings_on_xmark() {
    let doc = generate(&GeneratorConfig::items(120));
    let index = TagIndex::build(&doc);
    let snapshot = snapshot_of(&doc, &index, "engines");

    for (name, query) in queries::benchmark_queries() {
        // Each backing builds its *own* model: idf counts read off the
        // mapped arrays must equal those read off the owned index.
        let parsed_model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);
        let snap_model = TfIdfModel::build_view(
            snapshot.doc_view(),
            snapshot.index_view(),
            &query,
            Normalization::Sparse,
        );
        for k in [1, 5, 15] {
            let options = EvalOptions::top_k(k);
            for alg in algorithms() {
                let parsed_run = evaluate_view(
                    (&doc).into(),
                    index.view(),
                    &query,
                    &parsed_model,
                    &alg,
                    &options,
                );
                let snap_run = evaluate_view(
                    snapshot.doc_view(),
                    snapshot.index_view(),
                    &query,
                    &snap_model,
                    &alg,
                    &options,
                );
                assert!(
                    answers_equivalent(&snap_run.answers, &parsed_run.answers, EPS),
                    "{name} k={k} alg={}: snapshot backing diverged\n snap {:?}\n parse {:?}",
                    alg.name(),
                    snap_run.answers,
                    parsed_run.answers
                );
            }
        }
    }
}

#[test]
fn collection_of_snapshots_matches_collection_of_documents() {
    let mut parsed = Collection::new();
    let mut attached = Collection::new();
    for (i, (bytes, seed)) in [(30_000usize, 11u64), (60_000, 22), (90_000, 33)]
        .iter()
        .enumerate()
    {
        let doc = generate(&GeneratorConfig {
            target_bytes: *bytes,
            seed: *seed,
            max_items: None,
        });
        let index = TagIndex::build(&doc);
        let path = save_snapshot(&doc, &index, &format!("coll-{i}"));
        attached
            .add_snapshot(format!("doc-{i}"), &path)
            .expect("attach snapshot");
        // No residency cap: the shard stays mapped, so the file can go.
        let _ = std::fs::remove_file(&path);
        parsed.add_document(format!("doc-{i}"), doc);
    }

    for (name, pattern) in [
        ("Q1", queries::parse(queries::Q1)),
        ("Q2", queries::parse(queries::Q2)),
    ] {
        for copts in [CollectionOptions::default(), CollectionOptions::scan_all()] {
            let reference = evaluate_collection(
                &parsed,
                &pattern,
                &Algorithm::WhirlpoolS,
                &EvalOptions::top_k(12),
                Normalization::Sparse,
                &copts,
            );
            let got = evaluate_collection(
                &attached,
                &pattern,
                &Algorithm::WhirlpoolS,
                &EvalOptions::top_k(12),
                Normalization::Sparse,
                &copts,
            );
            assert!(
                collection_answers_equivalent(&got.answers, &reference.answers, EPS),
                "{name} {copts:?}: snapshot shards diverged\n snap {:?}\n parse {:?}",
                got.answers,
                reference.answers
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random workloads: whatever the document size, query, k, and
    /// engine, the snapshot backing returns the same top-k as the
    /// parse-built one.
    #[test]
    fn random_workloads_are_backing_invariant(
        items in 10usize..80,
        k in 1usize..12,
        seed in 0u64..1_000_000,
        query_idx in 0usize..3,
    ) {
        let doc = generate(&GeneratorConfig::items(items).with_seed(seed));
        let index = TagIndex::build(&doc);
        let snapshot = snapshot_of(&doc, &index, &format!("prop-{items}-{seed}-{k}"));
        let (name, query) = queries::benchmark_queries().swap_remove(query_idx);
        let parsed_model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);
        let snap_model = TfIdfModel::build_view(
            snapshot.doc_view(),
            snapshot.index_view(),
            &query,
            Normalization::Sparse,
        );
        let options = EvalOptions::top_k(k);
        for alg in algorithms() {
            let parsed_run =
                evaluate_view((&doc).into(), index.view(), &query, &parsed_model, &alg, &options);
            let snap_run = evaluate_view(
                snapshot.doc_view(),
                snapshot.index_view(),
                &query,
                &snap_model,
                &alg,
                &options,
            );
            prop_assert!(
                answers_equivalent(&snap_run.answers, &parsed_run.answers, EPS),
                "{name} items={items} k={k} seed={seed} alg={}:\n snap {:?}\n parse {:?}",
                alg.name(),
                snap_run.answers,
                parsed_run.answers
            );
        }
    }
}
