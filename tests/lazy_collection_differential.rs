//! Disk-resident lazy collections are a pure representation change.
//!
//! Two properties, both over randomly generated element trees (not
//! XMark — the generator here produces arbitrary nestings of a small
//! tag alphabet, so query paths exist, exist only in the wrong
//! arrangement, or don't exist at all):
//!
//! * **Lazy == eager.** A collection opened with
//!   [`Collection::open_dir`] (attach-on-visit, path-synopsis
//!   ceilings, LRU residency) returns a tie-equivalent top-k to the
//!   scan-all run that attaches every shard — across engines, shard
//!   worker counts, and `max_resident` ∈ {1, 4, ∞}. Eviction and
//!   re-attach must never change an answer.
//!
//! * **Ceilings never under-estimate.** For every shard, the
//!   path-aware ceiling ([`shard_ceiling_with_paths`]) bounds every
//!   score that shard can actually produce under the shared corpus
//!   model — relaxed ceilings bound relaxed runs, exact ceilings
//!   bound exact runs, and a `None` ceiling means a provably empty
//!   shard. This is the soundness contract that makes
//!   pruned-before-attach safe: a shard discarded on synopsis evidence
//!   alone can never have held a top-k answer.
//!
//! And one fixed case: **a trusted re-attach is a verified one.** One
//! query sequence answers alike, with the same attach and eviction
//! counts, whether every visit verifies its file in full (inside the
//! trust margin) or trusts the record of an earlier verification.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use whirlpool_core::{
    collection_answers_equivalent, evaluate_collection, shard_ceiling, Algorithm, Collection,
    CollectionAnswer, CollectionOptions, Completeness, EvalOptions, RelaxMode,
};
use whirlpool_index::TagIndex;
use whirlpool_pattern::{parse_pattern, TreePattern};
use whirlpool_score::Normalization;
use whirlpool_xml::parse_document;

const EPS: f64 = 1e-9;

/// Tags the generator draws from: a mix of the query alphabet (so
/// matches, partial matches, and arrangement mismatches all occur) and
/// noise tags.
const TAGS: [&str; 8] = [
    "book", "title", "isbn", "price", "archive", "info", "note", "shelf",
];

/// Queries whose server paths range from flat child steps to nested
/// chains — exercising the dataguide intersection at every depth.
const QUERIES: [&str; 4] = [
    "//book[./title and ./isbn]",
    "//book[.//price]",
    "//book[./info/isbn and ./title]",
    "//archive[./isbn and .//note]",
];

fn emit(rng: &mut StdRng, depth: usize, out: &mut String) {
    let tag = TAGS[rng.gen_range(0..TAGS.len())];
    out.push_str(&format!("<{tag}>"));
    if depth < 4 {
        for _ in 0..rng.gen_range(0..=3) {
            if rng.gen_bool(0.6) {
                emit(rng, depth + 1, out);
            }
        }
    }
    if rng.gen_bool(0.3) {
        out.push_str(&format!("x{}", rng.gen_range(0..9)));
    }
    out.push_str(&format!("</{tag}>"));
}

/// A random element tree under a fixed `<lib>` root. Same seed, same
/// document.
fn random_doc(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::from("<lib>");
    for _ in 0..rng.gen_range(1..=6) {
        emit(&mut rng, 0, &mut out);
    }
    out.push_str("</lib>");
    out
}

/// Writes each source as a snapshot shard in a fresh unique temp dir.
fn write_snapshot_dir(sources: &[String]) -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("wp-lazy-prop-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (i, src) in sources.iter().enumerate() {
        let doc = parse_document(src).unwrap();
        let index = TagIndex::build(&doc);
        whirlpool_store::save_snapshot(&doc, &index, dir.join(format!("s{i:02}.wps"))).unwrap();
    }
    dir
}

fn run_lazy(
    dir: &std::path::Path,
    pattern: &TreePattern,
    algorithm: &Algorithm,
    k: usize,
    workers: usize,
    max_resident: usize,
    copts: &CollectionOptions,
) -> Vec<CollectionAnswer> {
    let collection = Collection::open_dir(dir).unwrap();
    collection.set_max_resident(max_resident);
    let r = evaluate_collection(
        &collection,
        pattern,
        algorithm,
        &EvalOptions::top_k(k),
        Normalization::Sparse,
        &copts.clone().with_threads(workers),
    );
    assert!(
        matches!(r.completeness, Completeness::Exact),
        "unbudgeted lazy run must not truncate: {:?}",
        r.collection_metrics
    );
    r.answers
}

/// Per query of a sequence: the answers with their scores, and the
/// run's lazy attaches and evictions.
type Pass = Vec<(Vec<CollectionAnswer>, u64, u64)>;

/// Runs `sequence` once over `collection`; also returns the pass's full
/// verifications.
fn run_sequence(collection: &Collection, sequence: &[(TreePattern, usize)]) -> (Pass, u64) {
    let verified = collection.verify_count();
    let pass = sequence
        .iter()
        .map(|(pattern, k)| {
            let r = evaluate_collection(
                collection,
                pattern,
                &Algorithm::WhirlpoolS,
                &EvalOptions::top_k(*k),
                Normalization::Sparse,
                &CollectionOptions::default(),
            );
            assert!(matches!(r.completeness, Completeness::Exact));
            let m = r.collection_metrics;
            (r.answers, m.shards_attached, m.shard_evictions)
        })
        .collect();
    (pass, collection.verify_count() - verified)
}

/// A lazy collection over `dir` that keeps one shard attached.
fn one_resident(dir: &std::path::Path) -> Collection {
    let collection = Collection::open_dir(dir).unwrap();
    collection.set_max_resident(1);
    collection
}

/// Sleeps until a file that last changed before this call is older
/// than the trust margin that applies to it.
#[cfg(unix)]
fn sleep_past_the_margin(path: &std::path::Path) {
    use std::os::unix::fs::MetadataExt;
    let whole_seconds = std::fs::metadata(path).unwrap().ctime_nsec() == 0;
    let margin = if whole_seconds {
        whirlpool_store::WHOLE_SECOND_TRUST_MARGIN
    } else {
        whirlpool_store::TRUST_MARGIN
    };
    std::thread::sleep(margin + Duration::from_millis(20));
}

/// Each collection runs the sequence twice: a cold pass from nothing
/// resident, then a warm pass that re-attaches what the cold one
/// evicted. Inside the margin every attach verifies its file; outside
/// it the cold pass verifies each visited file once and the warm pass
/// trusts every re-attach. Both passes must match between the two, and
/// the cold pass must match a fresh collection's.
#[test]
#[cfg(unix)]
fn trusted_and_verified_re_attaches_answer_alike() {
    let sources: Vec<String> = (0..6).map(|i| random_doc(4_242 + i)).collect();
    let sequence: Vec<(TreePattern, usize)> = QUERIES
        .iter()
        .zip([2, 5, 1, 8])
        .map(|(q, k)| (parse_pattern(q).unwrap(), k))
        .collect();
    let written = Instant::now();
    let dir = write_snapshot_dir(&sources);

    let verifying = one_resident(&dir);
    let (cold_verified, _) = run_sequence(&verifying, &sequence);
    let (warm_verified, _) = run_sequence(&verifying, &sequence);
    // Half the margin leaves room for the file clock's coarse ticks.
    if written.elapsed() < whirlpool_store::TRUST_MARGIN / 2 {
        assert_eq!(verifying.verify_count(), verifying.attach_count());
    }

    sleep_past_the_margin(&dir.join("s00.wps"));
    let trusting = one_resident(&dir);
    let (cold_trusted, cold_checks) = run_sequence(&trusting, &sequence);
    let (warm_trusted, warm_checks) = run_sequence(&trusting, &sequence);
    let warm_attaches: u64 = warm_trusted.iter().map(|q| q.1).sum();
    assert!(warm_attaches > 0, "the warm pass must re-attach");
    assert!(cold_checks > 0);
    assert_eq!(warm_checks, 0, "every warm re-attach trusts its record");

    assert_eq!(cold_trusted, cold_verified);
    assert_eq!(warm_trusted, warm_verified);
    let (fresh, _) = run_sequence(&one_resident(&dir), &sequence);
    assert_eq!(fresh, cold_verified);
    for (warm, cold) in warm_trusted.iter().zip(&fresh) {
        assert_eq!(warm.0, cold.0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Attach-on-visit, ceiling pruning, LRU eviction, and cross-shard
    /// workers are all answer-preserving: every engine, worker count,
    /// and residency cap agrees tie-aware with the scan-all run that
    /// attaches everything.
    #[test]
    fn lazy_matches_eager_across_engines_workers_and_residency(
        shards in 2usize..7,
        seed in 0u64..1000,
        k in 1usize..8,
        q in 0usize..QUERIES.len(),
    ) {
        let sources: Vec<String> = (0..shards)
            .map(|i| random_doc(seed.wrapping_mul(31).wrapping_add(i as u64)))
            .collect();
        let dir = write_snapshot_dir(&sources);
        let pattern = parse_pattern(QUERIES[q]).unwrap();

        let eager = run_lazy(
            &dir, &pattern, &Algorithm::WhirlpoolS, k, 1, 0,
            &CollectionOptions::scan_all(),
        );
        let engines = [
            Algorithm::LockStep,
            Algorithm::WhirlpoolS,
            Algorithm::WhirlpoolM { processors: None },
        ];
        for algorithm in &engines {
            for workers in [1usize, 4] {
                for max_resident in [1usize, 4, 0] {
                    let got = run_lazy(
                        &dir, &pattern, algorithm, k, workers, max_resident,
                        &CollectionOptions::default(),
                    );
                    prop_assert!(
                        collection_answers_equivalent(&got, &eager, EPS),
                        "seed={seed} shards={shards} k={k} q={} {} workers={workers} \
                         max_resident={max_resident}:\n got {got:?}\n ref {eager:?}",
                        QUERIES[q],
                        algorithm.name(),
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The path-aware shard ceiling is a sound upper bound on what the
    /// collection driver can actually produce: an exhaustive scan-all
    /// run (k large enough to keep every answer, no pruning) never
    /// yields an answer whose score exceeds its shard's ceiling, and a
    /// `None` ceiling certifies that its shard contributes nothing —
    /// in both relax modes. The dataguide refinement is also monotone:
    /// intersecting query paths can only lower the tag-count bound,
    /// never raise it.
    #[test]
    fn path_ceilings_never_underestimate_brute_force_scores(
        shards in 1usize..6,
        seed in 0u64..1000,
        q in 0usize..QUERIES.len(),
    ) {
        let mut collection = Collection::new();
        for i in 0..shards {
            let src = random_doc(seed.wrapping_mul(53).wrapping_add(i as u64));
            collection.add_source(format!("s{i:02}"), &src).unwrap();
        }
        let pattern = parse_pattern(QUERIES[q]).unwrap();
        let model = collection
            .corpus_stats(&pattern)
            .model(Normalization::Sparse);

        for relax in [RelaxMode::Relaxed, RelaxMode::Exact] {
            // Refinement monotonicity, per shard: the path-aware bound
            // never exceeds the tag-count-only bound.
            for (idx, shard) in collection.shards().iter().enumerate() {
                let with_paths = collection.shard_ceiling(idx, &pattern, &model, relax);
                let tag_only = shard_ceiling(shard.synopsis(), &pattern, &model, relax);
                match (with_paths, tag_only) {
                    (Some(p), Some(t)) => prop_assert!(
                        p.value() <= t.value() + EPS,
                        "seed={seed} shard={idx} q={} {relax:?}: path ceiling {p:?} above \
                         tag ceiling {t:?}",
                        QUERIES[q],
                    ),
                    (Some(p), None) => prop_assert!(
                        false,
                        "seed={seed} shard={idx} q={} {relax:?}: paths resurrected a \
                         tag-empty shard ({p:?})",
                        QUERIES[q],
                    ),
                    (None, _) => {}
                }
            }

            // Soundness against the driver itself: every answer an
            // exhaustive scan produces stays under its shard's ceiling.
            let options = EvalOptions {
                relax,
                ..EvalOptions::top_k(1000)
            };
            let r = evaluate_collection(
                &collection,
                &pattern,
                &Algorithm::WhirlpoolS,
                &options,
                Normalization::Sparse,
                &CollectionOptions::scan_all(),
            );
            for a in &r.answers {
                let ceiling = collection.shard_ceiling(a.shard, &pattern, &model, relax);
                match ceiling {
                    None => prop_assert!(
                        false,
                        "seed={seed} q={} {relax:?}: shard {} answered {a:?} but its \
                         ceiling was None",
                        QUERIES[q],
                        a.shard,
                    ),
                    Some(ceil) => prop_assert!(
                        a.score.value() <= ceil.value() + EPS,
                        "seed={seed} q={} {relax:?}: {a:?} above ceiling {ceil:?}",
                        QUERIES[q],
                    ),
                }
            }
        }
    }
}
