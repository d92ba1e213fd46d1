//! Property-based system tests: on random documents × random queries,
//! the adaptive engines must agree with the exhaustive baseline, the
//! virtual-time scheduler must agree across processor counts, and
//! Whirlpool-S must never do more work than LockStep under the same
//! static plan (the minimal-probing property the paper imports from
//! MPro/Upper).

use proptest::prelude::*;
use whirlpool_bench::vtime::{simulate_whirlpool_m, VTimeConfig, VTimeResult};
use whirlpool_core::{
    answers_equivalent, evaluate, Algorithm, ContextOptions, EvalOptions, FaultPlan, QueryContext,
    QueuePolicy, RoutingStrategy,
};
use whirlpool_index::TagIndex;
use whirlpool_pattern::{Axis, StaticPlan, TreePattern};
use whirlpool_score::{Normalization, TfIdfModel};
use whirlpool_xml::{Document, DocumentBuilder};

const TAGS: [&str; 4] = ["a", "b", "c", "d"];

#[derive(Debug, Clone)]
struct RandTree {
    tag: usize,
    children: Vec<RandTree>,
}

fn tree_strategy() -> impl Strategy<Value = RandTree> {
    let leaf = (0usize..TAGS.len()).prop_map(|tag| RandTree {
        tag,
        children: vec![],
    });
    leaf.prop_recursive(4, 40, 4, |inner| {
        (0usize..TAGS.len(), prop::collection::vec(inner, 0..4))
            .prop_map(|(tag, children)| RandTree { tag, children })
    })
}

#[derive(Debug, Clone)]
struct RandQuery {
    tag: usize,
    axis: bool,
    children: Vec<RandQuery>,
}

fn query_strategy() -> impl Strategy<Value = RandQuery> {
    let leaf = (0usize..TAGS.len(), any::<bool>()).prop_map(|(tag, axis)| RandQuery {
        tag,
        axis,
        children: vec![],
    });
    leaf.prop_recursive(2, 6, 2, |inner| {
        (
            0usize..TAGS.len(),
            any::<bool>(),
            prop::collection::vec(inner, 0..3),
        )
            .prop_map(|(tag, axis, children)| RandQuery {
                tag,
                axis,
                children,
            })
    })
}

fn build_doc(trees: &[RandTree]) -> Document {
    fn rec(t: &RandTree, b: &mut DocumentBuilder) {
        b.open(TAGS[t.tag]);
        for c in &t.children {
            rec(c, b);
        }
        b.close();
    }
    let mut b = DocumentBuilder::new();
    for t in trees {
        rec(t, &mut b);
    }
    b.finish()
}

fn build_query(q: &RandQuery) -> TreePattern {
    fn rec(q: &RandQuery, parent: whirlpool_pattern::QNodeId, p: &mut TreePattern) {
        let axis = if q.axis {
            Axis::Descendant
        } else {
            Axis::Child
        };
        let id = p.add_node(parent, axis, TAGS[q.tag], None);
        for c in &q.children {
            rec(c, id, p);
        }
    }
    let mut p = TreePattern::new(TAGS[q.tag], Axis::Descendant);
    for c in &q.children {
        rec(c, p.root(), &mut p);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Relaxed mode: every engine/routing combination returns a top-k
    /// set equivalent to the exhaustive baseline.
    #[test]
    fn engines_agree_on_random_workloads(
        trees in prop::collection::vec(tree_strategy(), 1..4),
        q in query_strategy(),
        k in 1usize..6,
    ) {
        let doc = build_doc(&trees);
        let pattern = build_query(&q);
        let index = TagIndex::build(&doc);
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let options = EvalOptions::top_k(k);
        let reference =
            evaluate(&doc, &index, &pattern, &model, &Algorithm::LockStepNoPrune, &options);
        for alg in [
            Algorithm::LockStep,
            Algorithm::WhirlpoolS,
            Algorithm::WhirlpoolM { processors: None },
        ] {
            let got = evaluate(&doc, &index, &pattern, &model, &alg, &options);
            prop_assert!(
                answers_equivalent(&got.answers, &reference.answers, 1e-9),
                "alg={} query={} k={k}\n got {:?}\n ref {:?}",
                alg.name(), pattern, got.answers, reference.answers
            );
        }
        for routing in [RoutingStrategy::MaxScore, RoutingStrategy::MinScore] {
            let mut options = EvalOptions::top_k(k);
            options.routing = routing;
            let got = evaluate(&doc, &index, &pattern, &model, &Algorithm::WhirlpoolS, &options);
            prop_assert!(
                answers_equivalent(&got.answers, &reference.answers, 1e-9),
                "routing={} query={pattern} k={k}", options.routing.name()
            );
        }
    }

    /// The virtual-time scheduler returns the same answers at every
    /// processor count. Its makespan does not always shrink with more
    /// processors: at 2 the top-k threshold can rise in a different
    /// order than at 1, routing then diverges, and the run may do more
    /// server ops (and take longer) than the serial one. What holds is
    /// that unbounded processors never take longer than 2, and that 2
    /// never take longer than 1 when both schedules do the same work.
    #[test]
    fn vtime_consistent_across_processors(
        trees in prop::collection::vec(tree_strategy(), 1..3),
        q in query_strategy(),
    ) {
        let doc = build_doc(&trees);
        let pattern = build_query(&q);
        let index = TagIndex::build(&doc);
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);

        let mut runs: Vec<VTimeResult> = Vec::new();
        for procs in [Some(1), Some(2), None] {
            let ctx = QueryContext::new(&doc, &index, &pattern, &model, ContextOptions::default());
            let sim = simulate_whirlpool_m(
                &ctx,
                &RoutingStrategy::MinAlive,
                3,
                QueuePolicy::MaxFinalScore,
                &VTimeConfig { processors: procs, ..Default::default() },
            );
            if let Some(first) = runs.first() {
                prop_assert!(
                    answers_equivalent(&sim.answers, &first.answers, 1e-9),
                    "procs={procs:?} query={pattern}"
                );
            }
            runs.push(sim);
        }
        let [one, two, unbounded] = &runs[..] else { unreachable!() };
        prop_assert!(
            unbounded.makespan <= two.makespan,
            "makespan at ∞ processors {} > at 2 {} for query={pattern}",
            unbounded.makespan, two.makespan
        );
        if two.metrics.server_ops == one.metrics.server_ops {
            prop_assert!(
                two.makespan <= one.makespan,
                "makespan at 2 processors {} > at 1 {} with equal ops for query={pattern}",
                two.makespan, one.makespan
            );
        }
    }

    /// Minimal probing: under the same static plan, Whirlpool-S (which
    /// processes the globally most-promising match next) never performs
    /// more server operations than LockStep (which drains whole stages).
    #[test]
    fn whirlpool_s_never_outworks_lockstep_static(
        trees in prop::collection::vec(tree_strategy(), 1..4),
        q in query_strategy(),
        k in 1usize..4,
    ) {
        let doc = build_doc(&trees);
        let pattern = build_query(&q);
        let index = TagIndex::build(&doc);
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let plan = StaticPlan::in_id_order(pattern.server_ids().count());

        let mut options = EvalOptions::top_k(k);
        options.routing = RoutingStrategy::Static(plan);

        let lockstep =
            evaluate(&doc, &index, &pattern, &model, &Algorithm::LockStep, &options);
        let ws = evaluate(&doc, &index, &pattern, &model, &Algorithm::WhirlpoolS, &options);
        prop_assert!(
            ws.metrics.server_ops <= lockstep.metrics.server_ops,
            "W-S {} ops > LockStep {} ops for query={pattern} k={k}",
            ws.metrics.server_ops,
            lockstep.metrics.server_ops
        );
    }
}

/// Deterministic-input stress matrix for the threaded engine: every
/// combination of processor cap, pool size, queue policy and injected
/// op cost must terminate and return the reference answers.
#[test]
fn whirlpool_m_stress_matrix() {
    let doc = build_doc(&[RandTree {
        tag: 0,
        children: (0..12)
            .map(|i| RandTree {
                tag: 1 + (i % 3),
                children: (0..(i % 4))
                    .map(|j| RandTree {
                        tag: 1 + (j % 3),
                        children: vec![],
                    })
                    .collect(),
            })
            .collect(),
    }]);
    let pattern = build_query(&RandQuery {
        tag: 1,
        axis: true,
        children: vec![
            RandQuery {
                tag: 2,
                axis: false,
                children: vec![],
            },
            RandQuery {
                tag: 3,
                axis: true,
                children: vec![],
            },
        ],
    });
    let index = TagIndex::build(&doc);
    let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
    let reference = evaluate(
        &doc,
        &index,
        &pattern,
        &model,
        &Algorithm::LockStepNoPrune,
        &EvalOptions::top_k(5),
    );

    for processors in [None, Some(1), Some(3)] {
        for threads in [1usize, 3] {
            for queue in [QueuePolicy::MaxFinalScore, QueuePolicy::Fifo] {
                // A 50 µs mean delay per operation shifts the
                // interleaving without changing what is computed.
                for op_cost in [None, Some(std::time::Duration::from_micros(50))] {
                    let fault_plan = op_cost.map(|mean| {
                        FaultPlan::seeded(0).delay_unfaulted(pattern.server_ids(), mean)
                    });
                    let got = evaluate(
                        &doc,
                        &index,
                        &pattern,
                        &model,
                        &Algorithm::WhirlpoolM { processors },
                        &EvalOptions {
                            threads,
                            queue,
                            fault_plan,
                            ..EvalOptions::top_k(5)
                        },
                    );
                    assert!(
                        answers_equivalent(&got.answers, &reference.answers, 1e-9),
                        "procs={processors:?} threads={threads} \
                         queue={queue:?} cost={op_cost:?}"
                    );
                }
            }
        }
    }
}

/// Regression: a server worker must apply its batch's net in-flight
/// delta *before* pushing survivors to the router. With the opposite
/// order, a sibling worker could drain and retire the survivors (its
/// own −1s landing first) and drive the count transiently negative —
/// or through zero, terminating the run early. This workload (found
/// by `engines_agree_on_random_workloads`) reliably tripped the
/// negative-count assertion within a few hundred runs.
#[test]
fn batched_settle_never_undercounts_in_flight() {
    fn t(tag: usize, children: Vec<RandTree>) -> RandTree {
        RandTree { tag, children }
    }
    let trees = vec![
        t(
            2,
            vec![
                t(3, vec![]),
                t(1, vec![t(3, vec![]), t(3, vec![]), t(3, vec![])]),
                t(
                    0,
                    vec![
                        t(1, vec![t(0, vec![]), t(3, vec![]), t(2, vec![])]),
                        t(
                            0,
                            vec![
                                t(0, vec![t(2, vec![])]),
                                t(0, vec![t(1, vec![]), t(1, vec![])]),
                                t(3, vec![]),
                            ],
                        ),
                        t(
                            1,
                            vec![
                                t(0, vec![t(2, vec![])]),
                                t(0, vec![t(0, vec![])]),
                                t(3, vec![t(3, vec![])]),
                            ],
                        ),
                    ],
                ),
            ],
        ),
        t(3, vec![]),
    ];
    let q = RandQuery {
        tag: 0,
        axis: false,
        children: vec![
            RandQuery {
                tag: 3,
                axis: true,
                children: vec![],
            },
            RandQuery {
                tag: 0,
                axis: true,
                children: vec![],
            },
        ],
    };
    let k = 4;
    let doc = build_doc(&trees);
    let pattern = build_query(&q);
    let index = TagIndex::build(&doc);
    let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
    let options = EvalOptions::top_k(k);
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
        for iter in 0..300 {
            let got = evaluate(&doc, &index, &pattern, &model, &alg, &options);
            assert!(
                answers_equivalent(&got.answers, &reference.answers, 1e-9),
                "iter={iter} alg={} k={k}\n got {:?}\n ref {:?}",
                alg.name(),
                got.answers,
                reference.answers
            );
        }
    }
}
