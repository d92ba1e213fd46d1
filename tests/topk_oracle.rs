//! The brute-force oracle's fixed inputs, and the work it cannot see.
//!
//! The enumeration reference, the configuration table and the
//! comparator live in `tests/oracle/harness.rs` (the random inputs in
//! `tests/oracle/main.rs`). Here the survey's corner patterns run over
//! random shards and over hand-written ones, filtered and unequal roots
//! and every queue policy run through the same table, a threshold floor
//! keeps what it must, and XMark Q2 pins how the engines' work grows
//! with k.

#[path = "oracle/harness.rs"]
mod oracle;

use oracle::*;
use proptest::prelude::*;
use whirlpool_core::{evaluate, Algorithm, EvalOptions, MetricsSnapshot, RelaxMode};
use whirlpool_index::TagIndex;
use whirlpool_pattern::{parse_pattern, QNodeId};
use whirlpool_score::{FixedScores, Normalization, RandomScores, ScoreModel, TfIdfModel};
use whirlpool_xmark::{generate, queries, GeneratorConfig};
use whirlpool_xml::NodeId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The corner patterns over random shards, covered pairwise.
    #[test]
    fn engines_match_the_enumeration(seed in any::<u64>()) {
        let case = Case::new("corners", random_case(seed).sources, corner_case().patterns);
        check_case(&case, &pairwise(seed));
    }
}

/// A corpus query over random shards, every backing and every
/// collection option at least once, in both modes at k = 1, 2 and
/// every root.
#[test]
fn two_shard_collection_matches_the_enumeration() {
    let mut rows = Vec::new();
    for (backing, copts) in BACKINGS.into_iter().zip(COLLECTION_OPTIONS.iter().cycle()) {
        for k in [K::One, K::Two, K::Roots] {
            rows.push(Row {
                backing,
                copts: copts.clone(),
                k,
                scope: Within::Corpus,
                ..Row::default()
            });
        }
    }
    let case = Case::new("corpus", random_case(11).sources, corner_case().patterns);
    check_case(&case, &both_modes(rows));
}

#[test]
fn handcrafted_corner_cases_match_the_enumeration() {
    check_case(&corner_case(), &pairwise(0));
}

/// What lazy seeding could get wrong on roots that are not all alike:
/// candidates filtered by an attribute test or by the `/tag` axis (the
/// seed source walks a filtered list, not the tag's postings), and a
/// per-node model whose root scores *rise* in document order — the
/// source must rank by the model's maximum, not by the first root's
/// score, or it is dropped before the best root exists.
#[test]
fn filtered_and_unequal_roots_match_the_enumeration() {
    let src = "<a id='1'><b/><a id='2'><b/><c/></a><a><b/><c/></a><a id='2'/>\
               <d><a id='3'><c/><b>x</b></a></d></a>";
    let patterns = [
        "//a[@id and ./b]",
        "//a[@id = '2' and ./b and ./c]",
        "//a[@id = '2']",
        "/a[@id and .//c]",
        "/a",
        "//*[@id and ./b]",
    ];
    let case = Case::parse("filtered roots", &[src], &patterns);
    check_case(&case, &pairwise(1));

    let doc = &case.docs[0];
    let index = TagIndex::build(doc);
    let pattern = parse_pattern("//a[./b]").unwrap();
    let roots = root_candidates(doc, &pattern);
    let mut entries: Vec<(QNodeId, NodeId, f64)> = (roots.iter().zip(1..))
        .map(|(&r, i)| (QNodeId::ROOT, r, i as f64))
        .collect();
    let bs = doc.elements().filter(|&n| doc.tag_str(n) == "b");
    entries.extend(bs.map(|n| (QNodeId(1), n, 0.5)));
    let rising = FixedScores::new(pattern.len(), &entries);
    for relax in [RelaxMode::Relaxed, RelaxMode::Exact] {
        let truth = reference(doc, &pattern, &rising, relax);
        for engine in ENGINES {
            let (algorithm, threads) = engine.algorithm();
            for k in [1, 2, roots.len()] {
                let options = EvalOptions {
                    relax,
                    threads,
                    ..EvalOptions::top_k(k)
                };
                let r = evaluate(doc, &index, &pattern, &rising, &algorithm, &options);
                let what = format!("rising root scores {relax:?} {engine:?} k={k}");
                check_topk(&what, &scored(&r.answers), &truth, k);
            }
        }
    }
}

/// `examples/threshold_search.rs` as a test: with the floor pinned at τ
/// and `k` = every candidate root, each engine returns every answer
/// scoring at least τ (what it returns below τ is the caller's to drop).
#[test]
fn a_threshold_floor_returns_every_answer_at_or_above_it() {
    let src = "<r><a><b/><c/><d/></a><a><b/><c/></a><a><x><b/></x><d/></a><a><b/></a><a/>\
               <a><c/><d/></a><a><b/><c/><d/></a></r>";
    let doc = whirlpool_xml::parse_document(src).unwrap();
    let index = TagIndex::build(&doc);
    let pattern = parse_pattern("//a[./b and ./c and ./d]").unwrap();
    let idf = counted_model(&[&doc], &pattern, Normalization::Sparse);
    let random = RandomScores::sparse(11, pattern.len());
    for (label, model) in [("tf*idf", &idf as &dyn ScoreModel), ("random", &random)] {
        for relax in [RelaxMode::Relaxed, RelaxMode::Exact] {
            let truth = reference(&doc, &pattern, model, relax);
            let mut taus: Vec<f64> = truth.iter().map(|&(_, s)| s).collect();
            taus.extend([0.0, 1e9]);
            for tau in taus {
                let want: Vec<(NodeId, f64)> =
                    truth.iter().copied().filter(|&(_, s)| s >= tau).collect();
                for engine in ENGINES {
                    let (algorithm, threads) = engine.algorithm();
                    let options = EvalOptions {
                        relax,
                        threads,
                        threshold_floor: tau,
                        ..EvalOptions::top_k(root_candidates(&doc, &pattern).len())
                    };
                    let result = evaluate(&doc, &index, &pattern, model, &algorithm, &options);
                    assert!(result.completeness.is_exact());
                    let mut got = scored(&result.answers);
                    got.retain(|&(_, s)| s >= tau);
                    let what = format!("{label} {relax:?} tau={tau} {engine:?}");
                    check_topk(&what, &got, &want, want.len());
                }
            }
        }
    }
}

/// The queue orders that are defined over seeds that all exist — the
/// seed source is drained before anything is popped — still return the
/// enumeration's top-k, in both adaptive engines.
#[test]
fn other_queue_policies_match_the_enumeration() {
    let pattern = "//item[./name and ./mailbox/mail and ./incategory]";
    let mut rows = Vec::new();
    for queue in QUEUES {
        for engine in [Engine::S, Engine::M(1), Engine::M(4)] {
            for model in [Model::IdfSparse, Model::RandomSparse] {
                for k in [K::One, K::Exactly(3), K::Roots] {
                    rows.push(Row {
                        queue,
                        engine,
                        model,
                        k,
                        ..Row::default()
                    });
                }
            }
        }
    }
    check_case(
        &xmark_case("xmark 12", &[12], &[pattern]),
        &both_modes(rows),
    );
}

// -- pinned behaviours ------------------------------------------------------

/// Q2 over a 400-item XMark document: the run's counters and the
/// number of root candidates.
fn xmark_q2(k: usize, engine: Engine) -> (MetricsSnapshot, u64) {
    let doc = generate(&GeneratorConfig::items(400));
    let index = TagIndex::build(&doc);
    let pattern = parse_pattern(queries::Q2).unwrap();
    let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
    let (algorithm, threads) = engine.algorithm();
    let options = EvalOptions {
        threads,
        ..EvalOptions::top_k(k)
    };
    let result = evaluate(&doc, &index, &pattern, &model, &algorithm, &options);
    (result.metrics, root_candidates(&doc, &pattern).len() as u64)
}

/// The paper's Figure 10: work grows with k, and at the Table 1 default
/// k = 15 top-k does at most a quarter of compute-everything's work.
#[test]
fn whirlpool_s_work_grows_with_k() {
    let ops: Vec<u64> = [1, 15, 75]
        .map(|k| xmark_q2(k, Engine::S).0.server_ops)
        .to_vec();
    assert!(
        ops[0] < ops[1] && ops[1] < ops[2],
        "server ops at k = 1/15/75: {ops:?}"
    );
    let noprune = xmark_q2(15, Engine::NoPrun).0.server_ops;
    assert!(
        4 * ops[1] <= noprune,
        "Whirlpool-S {} ops at k = 15 against LockStep-NoPrun's {noprune}",
        ops[1]
    );
}

/// Whirlpool-M at one worker — the calling thread, so the counters are
/// deterministic — schedules like Whirlpool-S at batch granularity:
/// its work grows with k too, stays within one 32-match batch per
/// server of Whirlpool-S's, and only roots it reaches are ever routed.
#[test]
fn whirlpool_m_at_one_worker_tracks_whirlpool_s() {
    let servers = parse_pattern(queries::Q2).unwrap().server_ids().count() as u64;
    let slack = 32 * servers;
    let mut fewer_ops = 0;
    for k in [1, 15, 75] {
        let (a, _) = xmark_q2(k, Engine::M(1));
        let (b, _) = xmark_q2(k, Engine::M(1));
        assert_eq!(
            (a.server_ops, a.routing_decisions, a.pruned),
            (b.server_ops, b.routing_decisions, b.pruned),
            "k={k}: two runs differ"
        );
        let (s, _) = xmark_q2(k, Engine::S);
        assert!(
            a.server_ops <= 2 * s.server_ops + slack,
            "k={k}: {} ops against Whirlpool-S's {}",
            a.server_ops,
            s.server_ops
        );
        assert!(
            a.routing_decisions <= a.server_ops + slack,
            "k={k}: {} routing decisions for {} ops",
            a.routing_decisions,
            a.server_ops
        );
        assert!(a.server_ops > fewer_ops, "k={k}: {} ops", a.server_ops);
        fewer_ops = a.server_ops;
    }
}

/// Relaxed mode creates one match per *seeded* root plus one per server
/// operation, in every engine — and the adaptive engines seed a root
/// only to process it (or to end the run on it), so on a 400-item
/// document their matches follow their operations. Most roots stay
/// unseeded, up to the seeds an engine may hold ahead of its
/// operations: Whirlpool-M's workers each materialise a batch of 32,
/// however the threads interleave.
#[test]
fn relaxed_mode_never_fans_out() {
    for engine in ENGINES {
        let (m, roots) = xmark_q2(15, engine);
        check_relaxed_counters(&format!("{engine:?}"), &m, engine, roots, true, 0);
        if let Some(ahead) = seeds_ahead(engine) {
            assert!(m.roots_unseeded + ahead > roots / 2, "{engine:?}: {m:?}");
        }
    }
}

/// A 2 000-deep chain of one tag used to cost ~2 M partial matches
/// (each `a` fanned out over every `a` below it).
#[test]
fn deep_chain_stays_linear() {
    let depth = 2_000;
    let src = "<a>".repeat(depth) + &"</a>".repeat(depth);
    let doc = whirlpool_xml::parse_document(&src).unwrap();
    let index = TagIndex::build(&doc);
    let pattern = parse_pattern("//a[./a]").unwrap();
    let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
    let (s, options) = (&Algorithm::WhirlpoolS, EvalOptions::top_k(1));
    let result = evaluate(&doc, &index, &pattern, &model, s, &options);
    assert_eq!(result.answers.len(), 1);
    assert!(
        result.metrics.partials_created < 20_000,
        "{} partial matches",
        result.metrics.partials_created
    );
}
