//! Equivalence of the contention-free Whirlpool-M concurrency layer.
//!
//! The atomic threshold snapshot, sharded match pools, and batched
//! server queues are pure performance machinery: they must be
//! invisible in the answer set. This suite pins that claim where it is
//! most at risk — under real thread interleavings:
//!
//! * Whirlpool-M at 1, 2, 3, 4, and 8 worker threads returns a
//!   top-k set equivalent to single-threaded Whirlpool-S, in both
//!   relaxed and exact modes, on random documents × random queries.
//! * Under deterministic panic injection (a server poisons itself
//!   mid-run) every thread count still terminates — no hang in
//!   termination detection — and the truncated result carries a valid
//!   anytime certificate against the exact answers.
//! * On *skewed-routing* documents — one hot server receives nearly
//!   every match, so idle workers live off batch stealing — the
//!   worker-pool scheduler still agrees with Whirlpool-S at every pool
//!   size and in both relax modes.
//! * A panic that no fault plan injected (a panicking score model) is
//!   caught by the engine's one guard, with or without a fault plan,
//!   wherever it lands: at every call the model makes, every engine —
//!   Whirlpool-S, both LockSteps, Whirlpool-M at one and two workers —
//!   returns, truncated exactly when the panic fired, with a certified
//!   prefix.
//!
//! CI runs this file at several `PROPTEST_SEED`s with the thread counts
//! above, so the snapshot/sharding/batching protocols see many distinct
//! schedules per change.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use whirlpool_core::{
    answers_equivalent, evaluate, Algorithm, Completeness, EvalOptions, FaultKind, FaultPlan,
    RankedAnswer, RelaxMode,
};
use whirlpool_index::TagIndex;
use whirlpool_pattern::{Axis, QNodeId, TreePattern};
use whirlpool_score::{MatchLevel, Normalization, ScoreModel, TfIdfModel};
use whirlpool_xml::{Document, DocumentBuilder, NodeId};

const TAGS: [&str; 4] = ["a", "b", "c", "d"];
/// 3 does not divide most server counts: home queues are uneven.
const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];
const EPS: f64 = 1e-9;

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
    fn rec(q: &RandQuery, parent: QNodeId, p: &mut TreePattern) {
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

/// Anytime certificate check (same contract as `anytime_faults.rs`):
/// every returned answer is within the bound, and every exact answer
/// missing from the prefix could not have beaten it.
fn assert_certificate_valid(
    truncated: &[RankedAnswer],
    completeness: &Completeness,
    exact: &[RankedAnswer],
    context: &str,
) {
    let Some(bound) = completeness.score_bound() else {
        panic!("{context}: expected a truncated result, got {completeness:?}");
    };
    for a in truncated {
        assert!(
            a.score.value() <= bound + EPS,
            "{context}: returned answer {a:?} above the bound {bound}"
        );
    }
    for e in exact {
        let present = truncated.iter().any(|a| a.root == e.root);
        assert!(
            present || e.score.value() <= bound + EPS,
            "{context}: missing answer {e:?} exceeds the bound {bound}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Thread-count sweep, fault-free: Whirlpool-M with the snapshot
    /// threshold, sharded pools, and batched queues agrees with
    /// Whirlpool-S at every worker multiplicity, in both relax modes.
    #[test]
    fn whirlpool_m_matches_whirlpool_s_at_every_thread_count(
        trees in prop::collection::vec(tree_strategy(), 1..4),
        q in query_strategy(),
        k in 1usize..8,
        exact_mode in any::<bool>(),
    ) {
        let doc = build_doc(&trees);
        let pattern = build_query(&q);
        let index = TagIndex::build(&doc);
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let relax = if exact_mode { RelaxMode::Exact } else { RelaxMode::Relaxed };
        let mut options = EvalOptions::top_k(k);
        options.relax = relax;
        let reference =
            evaluate(&doc, &index, &pattern, &model, &Algorithm::WhirlpoolS, &options);
        for threads in THREAD_COUNTS {
            let mut options = EvalOptions::top_k(k);
            options.relax = relax;
            options.threads = threads;
            let got = evaluate(
                &doc, &index, &pattern, &model,
                &Algorithm::WhirlpoolM { processors: None },
                &options,
            );
            prop_assert!(
                answers_equivalent(&got.answers, &reference.answers, EPS),
                "threads={threads} relax={relax:?} query={pattern} k={k}\n got {:?}\n ref {:?}",
                got.answers, reference.answers
            );
        }
    }

    /// Thread-count sweep under deterministic panic injection: a server
    /// that poisons itself mid-run stops the run at every worker
    /// multiplicity — the run terminates and the truncated prefix is
    /// certified against the exact answers.
    #[test]
    fn panic_faults_stay_isolated_at_every_thread_count(
        trees in prop::collection::vec(tree_strategy(), 1..4),
        q in query_strategy(),
        seed in 0u64..1000,
        server_pick in 0usize..8,
        after_ops in 0u64..20,
        k in 1usize..6,
    ) {
        let doc = build_doc(&trees);
        let pattern = build_query(&q);
        let servers = pattern.server_ids().count();
        prop_assume!(servers > 0);
        let server = QNodeId(1 + (server_pick % servers) as u8);
        let index = TagIndex::build(&doc);
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let exact =
            evaluate(&doc, &index, &pattern, &model, &Algorithm::WhirlpoolS,
                     &EvalOptions::top_k(k)).answers;
        for threads in THREAD_COUNTS {
            let mut options = EvalOptions::top_k(k);
            options.threads = threads;
            options.fault_plan = Some(
                FaultPlan::seeded(seed).with(server, FaultKind::Panic { after_ops }),
            );
            let r = evaluate(
                &doc, &index, &pattern, &model,
                &Algorithm::WhirlpoolM { processors: None },
                &options,
            );
            match r.completeness {
                Completeness::Exact => {
                    // The fault never fired (the query drained first).
                    prop_assert!(r.metrics.servers_failed == 0);
                    prop_assert!(
                        answers_equivalent(&r.answers, &exact, EPS),
                        "threads={threads}: exact-complete run disagrees"
                    );
                }
                Completeness::Truncated { .. } => {
                    prop_assert!(r.metrics.servers_failed >= 1);
                    assert_certificate_valid(
                        &r.answers,
                        &r.completeness,
                        &exact,
                        &format!("threads={threads} server={server:?} after={after_ops}"),
                    );
                }
            }
        }
    }
}

/// A document where almost every routed match lands on the same server:
/// `hot` elements each carry two `b` children and one `c`, so the `b`
/// server's queue dwarfs the others and workers whose home queues run
/// dry must steal from it to stay busy.
fn build_hot_server_doc(hot: usize) -> Document {
    let mut b = DocumentBuilder::new();
    for i in 0..hot {
        b.open("a");
        b.open("b");
        b.close();
        b.open("b");
        b.close();
        if i % 3 != 0 {
            b.open("c");
            b.close();
        }
        b.close();
    }
    // A few structurally different trees so routing has real choices.
    for _ in 0..3 {
        b.open("d");
        b.open("a");
        b.open("c");
        b.close();
        b.close();
        b.close();
    }
    b.finish()
}

fn hot_server_query() -> TreePattern {
    let mut p = TreePattern::new("a", Axis::Descendant);
    p.add_node(p.root(), Axis::Child, "b", None);
    p.add_node(p.root(), Axis::Child, "c", None);
    p
}

/// Skewed routing: one hot server, workers forced onto the steal path.
/// The answer set must match Whirlpool-S at every pool size, in both
/// relax modes, across repeated runs (each run is a fresh schedule).
#[test]
fn skewed_hot_server_routing_agrees_at_every_worker_count() {
    let doc = build_hot_server_doc(60);
    let pattern = hot_server_query();
    let index = TagIndex::build(&doc);
    let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
    for relax in [RelaxMode::Relaxed, RelaxMode::Exact] {
        let mut options = EvalOptions::top_k(10);
        options.relax = relax;
        let reference = evaluate(
            &doc,
            &index,
            &pattern,
            &model,
            &Algorithm::WhirlpoolS,
            &options,
        );
        for threads in THREAD_COUNTS {
            for rep in 0..3 {
                let mut options = EvalOptions::top_k(10);
                options.relax = relax;
                options.threads = threads;
                let got = evaluate(
                    &doc,
                    &index,
                    &pattern,
                    &model,
                    &Algorithm::WhirlpoolM { processors: None },
                    &options,
                );
                assert!(
                    answers_equivalent(&got.answers, &reference.answers, EPS),
                    "threads={threads} relax={relax:?} rep={rep}\n got {:?}\n ref {:?}",
                    got.answers,
                    reference.answers
                );
            }
        }
    }
}

/// A score model that panics after a fixed number of contribution
/// calls: a panic no fault plan injected, reaching the engines wherever
/// they call the model (seeding included).
struct PanickingModel<'m> {
    inner: &'m TfIdfModel,
    calls: AtomicU64,
    panic_after: u64,
}

impl ScoreModel for PanickingModel<'_> {
    fn contribution(&self, server: QNodeId, node: NodeId, level: MatchLevel) -> f64 {
        if self.calls.fetch_add(1, Ordering::Relaxed) >= self.panic_after {
            panic!("injected score-model panic (no fault plan)");
        }
        self.inner.contribution(server, node, level)
    }

    fn max_contribution(&self, server: QNodeId) -> f64 {
        self.inner.max_contribution(server)
    }

    fn max_relaxed_contribution(&self, server: QNodeId) -> f64 {
        self.inner.max_relaxed_contribution(server)
    }
}

/// Certified termination when the score model panics, at every call it
/// makes in a fault-free run: for each engine (Whirlpool-M at one and
/// two workers, mid-steal included on the hot-server workload), with no
/// fault plan and with a zero-delay one, the run must return, be
/// truncated exactly when the panic fired, and carry a certificate
/// valid against the panic-free exact answers.
#[test]
fn worker_panic_outside_fault_layer_terminates_with_certificate() {
    let doc = build_hot_server_doc(40);
    let pattern = hot_server_query();
    let index = TagIndex::build(&doc);
    let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
    let exact = evaluate(
        &doc,
        &index,
        &pattern,
        &model,
        &Algorithm::WhirlpoolS,
        &EvalOptions::top_k(8),
    )
    .answers;
    let engines = [
        (Algorithm::WhirlpoolS, 1),
        (Algorithm::LockStep, 1),
        (Algorithm::LockStepNoPrune, 1),
        (Algorithm::WhirlpoolM { processors: None }, 1),
        (Algorithm::WhirlpoolM { processors: None }, 2),
    ];
    let zero_delay = FaultPlan::seeded(0).delay_unfaulted(pattern.server_ids(), Duration::ZERO);
    for (algorithm, threads) in engines {
        for plan in [None, Some(zero_delay.clone())] {
            let mut options = EvalOptions::top_k(8);
            options.threads = threads;
            options.fault_plan = plan;
            let run = |panic_after: u64| {
                let panicking = PanickingModel {
                    inner: &model,
                    calls: AtomicU64::new(0),
                    panic_after,
                };
                let r = evaluate(&doc, &index, &pattern, &panicking, &algorithm, &options);
                (r, panicking.calls.load(Ordering::Relaxed))
            };
            let what = format!(
                "{}@{threads} plan={}",
                algorithm.name(),
                options.fault_plan.is_some()
            );
            // Calibrate: every contribution call of one fault-free run.
            let (clean, total) = run(u64::MAX);
            assert!(clean.completeness.is_exact(), "{what}");
            assert!(total > 20, "{what}: workload too small: {total} calls");
            for panic_after in 0..total {
                let (r, calls) = run(panic_after);
                let fired = calls > panic_after;
                let context = format!("{what} panic_after={panic_after}");
                assert_eq!(r.completeness.is_exact(), !fired, "{context}");
                if fired {
                    assert_eq!(r.metrics.servers_failed, 1, "{context}");
                    assert_certificate_valid(&r.answers, &r.completeness, &exact, &context);
                }
            }
        }
    }
}
