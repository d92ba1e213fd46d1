//! Lazy collections and the count ceilings that let them skip shards.
//!
//! * **Lazy == the reference.** Peeked shards (attach on visit, ceiling
//!   pruning, LRU eviction at one, two or unlimited resident) return the
//!   oracle's top-k (`tests/oracle/harness.rs`) across engines and
//!   worker counts.
//! * **Ceilings never under-estimate.** A shard's ceiling
//!   ([`Collection::shard_ceiling`]) is the root's maximum plus, per
//!   server, the exact weight where some answer satisfies the predicate
//!   exactly, else the relaxed weight where one satisfies it relaxed
//!   (exact mode: `None`), and bounds every score the shard produces:
//!   what makes pruning before attach safe. The oracle's layered shards
//!   put a predicate's tag at its exact depth in some shards and only
//!   deeper in others.
//! * **Levels are the counts' levels.** An engine binds a server only
//!   where the relaxed predicate holds, and marks it `Exact` only where
//!   the exact one does: what the ceiling's two counts count.

#[path = "oracle/harness.rs"]
mod oracle;

use oracle::*;
use proptest::prelude::*;
use whirlpool_core::{
    evaluate_collection, Algorithm, Binding, Collection, CollectionOptions, ContextOptions,
    EvalOptions, QueryContext, RelaxMode,
};
use whirlpool_index::TagIndex;
use whirlpool_pattern::QNodeId;
use whirlpool_score::tfidf::{self, ComponentPredicate};
use whirlpool_score::{MatchLevel, Normalization, ScoreModel, TfIdfModel};
use whirlpool_xml::NodeId;

/// A model with a root contribution, so a ceiling that drops the root's
/// term is seen: [`TfIdfModel`]'s root weighs 0.
struct RootBonus<'m>(&'m TfIdfModel);

/// What [`RootBonus`] adds at `server`: 0.25 at the root.
fn bonus(server: QNodeId) -> f64 {
    0.25 * f64::from(u8::from(server == QNodeId::ROOT))
}

impl ScoreModel for RootBonus<'_> {
    fn contribution(&self, server: QNodeId, node: NodeId, level: MatchLevel) -> f64 {
        self.0.contribution(server, node, level) + bonus(server)
    }

    fn max_contribution(&self, server: QNodeId) -> f64 {
        self.0.max_contribution(server) + bonus(server)
    }

    fn max_relaxed_contribution(&self, server: QNodeId) -> f64 {
        self.0.max_relaxed_contribution(server) + bonus(server)
    }
}

/// `pred` with its axis relaxed: the form the relaxed count counts.
fn relaxed(pred: &ComponentPredicate) -> ComponentPredicate {
    ComponentPredicate {
        axis: pred.axis.relaxed(),
        ..pred.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Attach-on-visit, ceiling pruning and LRU eviction are all
    /// answer-preserving: every engine (Whirlpool-M at one and at four
    /// workers per shard run) returns the reference's top-k over one to
    /// six peeked shards, at one, two or unlimited resident.
    #[test]
    fn lazy_matches_eager_across_engines_workers_and_residency(
        seed in any::<u64>(),
        k in 1usize..8,
    ) {
        let (scope, k) = (Within::Corpus, K::Exactly(k));
        let mut rows = Vec::new();
        for backing in [1, 2, 0].map(Backing::Lazy) {
            for engine in [Engine::LockStep, Engine::S, Engine::M(1), Engine::M(4)] {
                rows.push(Row { engine, backing, scope, k, ..Row::default() });
            }
        }
        check_case(&random_case(seed), &rows);
    }

    /// The shard ceiling is the counts' arithmetic, and a sound upper
    /// bound on what the collection driver can actually produce: each
    /// shard's ceiling is the root's maximum plus, per server, the exact
    /// weight where the reference count finds an exact witness, else the
    /// relaxed weight where it finds a relaxed one (exact mode: `None`),
    /// else nothing; and an exhaustive scan-all run (k large enough to
    /// keep every answer, no pruning) never yields an answer above its
    /// shard's ceiling, or from a shard whose ceiling is `None`.
    #[test]
    fn count_ceilings_never_underestimate_brute_force_scores(seed in any::<u64>()) {
        let case = random_case(seed);
        let mut collection = Collection::new();
        for (i, src) in case.sources.iter().enumerate() {
            collection.add_source(format!("s{i:02}"), src).unwrap();
        }
        let pattern = case.patterns[0].clone();
        let query = pattern.to_string();
        let answer_tag = &pattern.node(pattern.root()).tag;
        let preds = tfidf::component_predicates(&pattern);
        let model = collection.corpus_stats(&pattern).model(Normalization::Sparse);
        let bonus = RootBonus(&model);

        for relax in [RelaxMode::Relaxed, RelaxMode::Exact] {
            for (idx, shard) in collection.shards().iter().enumerate() {
                let (doc, index) = shard.as_parsed().unwrap();
                let witnessed = |pred: &ComponentPredicate| {
                    tfidf::idf_counts(doc, index, answer_tag, pred).1 > 0
                };
                let expected = (shard.synopsis().answers(answer_tag) > 0)
                    .then(|| {
                        let mut total = bonus.max_root_contribution();
                        for pred in &preds {
                            if witnessed(pred) {
                                total += bonus.max_contribution(pred.qnode);
                            } else if relax == RelaxMode::Exact {
                                return None;
                            } else if witnessed(&relaxed(pred)) {
                                total += bonus.max_relaxed_contribution(pred.qnode);
                            }
                        }
                        Some(total)
                    })
                    .flatten();
                let got = collection.shard_ceiling(idx, &pattern, &bonus, relax);
                let what = format!("seed={seed} shard={idx} q={query} {relax:?}");
                prop_assert_eq!(got.map(|c| c.value()), expected, "{}", what);
            }

            // Soundness against the driver itself: every answer an
            // exhaustive scan produces stays under its shard's ceiling.
            let (s, scan_all) = (&Algorithm::WhirlpoolS, CollectionOptions::scan_all());
            let options = EvalOptions { relax, ..EvalOptions::top_k(1000) };
            let norm = Normalization::Sparse;
            let r = evaluate_collection(&collection, &pattern, s, &options, norm, &scan_all);
            for a in &r.answers {
                let ceiling = collection.shard_ceiling(a.shard, &pattern, &model, relax);
                let what = format!("seed={seed} q={query} {relax:?}: {a:?} above {ceiling:?}");
                prop_assert!(ceiling.is_some_and(|c| a.score.value() <= c.value() + EPS), "{what}");
            }
        }
    }

    /// The engine side of the ceilings' soundness: whatever order the
    /// servers run in, a binding is `Exact` only where the reference
    /// count finds the answer satisfying the server's exact predicate,
    /// and any binding at all only where the relaxed predicate holds —
    /// in both relax modes.
    #[test]
    fn engine_levels_are_the_counted_levels(seed in any::<u64>(), i in 0usize..6) {
        let case = random_case(seed);
        let doc = &case.docs[i % case.docs.len()];
        let index = TagIndex::build(doc);
        let pattern = case.patterns[0].clone();
        let preds = tfidf::component_predicates(&pattern);
        let model = TfIdfModel::build(doc, &index, &pattern, Normalization::Sparse);
        for relax in [RelaxMode::Relaxed, RelaxMode::Exact] {
            let ctx = QueryContext::new(doc, &index, &pattern, &model, ContextOptions { relax });
            let mut servers: Vec<QNodeId> = pattern.server_ids().collect();
            if seed % 2 == 1 {
                servers.reverse();
            }
            let mut matches = ctx.make_root_matches();
            for &server in &servers {
                let mut next = Vec::new();
                for m in &matches {
                    ctx.process_at_server(server, m, &mut next);
                }
                matches = next;
            }
            for m in &matches {
                for pred in &preds {
                    let Binding::Matched { level, .. } = m.bindings[pred.qnode.index()] else {
                        continue;
                    };
                    let holds = |p: &ComponentPredicate| tfidf::tf(doc, &index, p, m.root()) > 0;
                    prop_assert!(holds(&relaxed(pred)), "seed={seed} {relax:?} {pred:?}");
                    if level == MatchLevel::Exact {
                        prop_assert!(holds(pred), "seed={seed} {relax:?} {pred:?} marked exact");
                    }
                }
            }
        }
    }
}
