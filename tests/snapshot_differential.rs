//! A snapshot is a pure representation change.
//!
//! Reading a document through a snapshot — mapped from bytes, attached
//! from a file, or peeked and attached on visit — must be observationally
//! equivalent to parsing + indexing it: the counted model, every
//! engine's top-k and a collection's global top-k all equal
//! the oracle's (`tests/oracle/harness.rs`) whichever backing the views
//! read from. Only the prepare cost may differ.

#[path = "oracle/harness.rs"]
mod oracle;

use oracle::*;
use proptest::prelude::*;
use whirlpool_xmark::queries;

#[test]
fn every_engine_agrees_across_backings_on_xmark() {
    let mut rows = Vec::new();
    for backing in BACKINGS {
        rows.extend(sweep(&ENGINES, |engine| Row {
            engine,
            backing,
            k: K::Exactly(5),
            ..Row::default()
        }));
    }
    let patterns = [queries::Q1, queries::Q2, queries::Q3];
    check_case(&xmark_case("xmark", &[20, 20, 20], &patterns), &rows);
}

#[test]
fn collection_of_snapshots_matches_collection_of_documents() {
    let mut rows = Vec::new();
    for backing in BACKINGS {
        for copts in COLLECTION_OPTIONS {
            let k = K::Exactly(12);
            rows.push(Row {
                backing,
                copts,
                k,
                scope: Within::Corpus,
                ..Row::default()
            });
        }
    }
    check_case(
        &xmark_case("xmark", &[10, 20, 30], &[queries::Q1, queries::Q2]),
        &rows,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random workloads: whatever the document, pattern, model and k,
    /// every backing returns the reference's top-k.
    #[test]
    fn random_workloads_are_backing_invariant(seed in any::<u64>(), k in 1usize..12) {
        let mut rows = Vec::new();
        for backing in BACKINGS {
            for model in [Model::IdfSparse, Model::RandomSparse] {
                rows.push(Row { backing, model, k: K::Exactly(k), ..Row::default() });
            }
        }
        check_case(&random_case(seed), &both_modes(rows));
    }
}
