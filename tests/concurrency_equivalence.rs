//! Whirlpool-M's concurrency layer — the atomic threshold snapshot,
//! sharded match pools, batched server queues — is invisible in the
//! answers: at 1, 2, 3, 4 and 8 workers it returns the oracle's top-k
//! (`tests/oracle/harness.rs`) on random inputs and on a hot-server
//! document where idle workers live off stealing. A server that panics
//! mid-run (a fault plan), or a score model that panics at any call
//! (no plan), stops the run at every worker count and engine, with a
//! valid truncation certificate. CI runs this file and the oracle at
//! several `PROPTEST_SEED`s, so the protocols see many schedules.

#[path = "oracle/harness.rs"]
mod oracle;

use oracle::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use whirlpool_core::{
    evaluate, Algorithm, Completeness, EvalOptions, FaultKind, FaultPlan, RelaxMode,
};
use whirlpool_index::TagIndex;
use whirlpool_pattern::{parse_pattern, QNodeId};
use whirlpool_score::{MatchLevel, Normalization, ScoreModel};
use whirlpool_xml::{parse_document, NodeId};

/// 3 does not divide most server counts: home queues are uneven.
const WORKERS: [Engine; 5] = [
    Engine::M(1),
    Engine::M(2),
    Engine::M(3),
    Engine::M(4),
    Engine::M(8),
];

/// The reference's top `k`, best first.
fn top(truth: Vec<(NodeId, f64)>, k: usize) -> Vec<(NodeId, f64)> {
    let mut truth = truth;
    truth.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    truth.truncate(k);
    truth
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Thread-count sweep, fault-free: Whirlpool-M with the snapshot
    /// threshold, sharded pools, and batched queues returns the
    /// reference's top-k at every worker multiplicity, in both modes.
    #[test]
    fn whirlpool_m_matches_whirlpool_s_at_every_thread_count(
        seed in any::<u64>(),
        k in 1usize..8,
    ) {
        let rows = sweep(&WORKERS, |engine| Row { engine, k: K::Exactly(k), ..Row::default() });
        check_case(&random_case(seed), &both_modes(rows));
    }

    /// Thread-count sweep under deterministic panic injection: a server
    /// that poisons itself mid-run stops the run at every worker
    /// multiplicity — the run terminates and the truncated prefix is
    /// certified against the reference's answers.
    #[test]
    fn panic_faults_stay_isolated_at_every_thread_count(
        seed in any::<u64>(),
        server_pick in 0usize..8,
        after_ops in 0u64..20,
        k in 1usize..6,
    ) {
        let case = random_case(seed);
        let (doc, pattern) = (&case.docs[0], &case.patterns[0]);
        let servers = pattern.server_ids().count();
        prop_assume!(servers > 0);
        let server = QNodeId(1 + (server_pick % servers) as u8);
        let index = TagIndex::build(doc);
        let model = counted_model(&[doc], pattern, Normalization::Sparse);
        let truth = reference(doc, pattern, &model, RelaxMode::Relaxed);
        let exact = top(truth.clone(), k);
        for engine in WORKERS {
            let (algorithm, threads) = engine.algorithm();
            let panic = FaultKind::Panic { after_ops };
            let fault_plan = Some(FaultPlan::seeded(seed).with(server, panic));
            let options = EvalOptions { threads, fault_plan, ..EvalOptions::top_k(k) };
            let r = evaluate(doc, &index, pattern, &model, &algorithm, &options);
            let context = format!("{engine:?} server={server:?} after={after_ops}");
            prop_assert!(r.metrics.balanced(), "{}: {:?}", context, r.metrics);
            match r.completeness {
                Completeness::Exact => {
                    // The fault never fired (the query drained first).
                    prop_assert!(r.metrics.servers_failed == 0);
                    check_topk(&context, &scored(&r.answers), &truth, k);
                }
                Completeness::Truncated { .. } => {
                    prop_assert!(r.metrics.servers_failed >= 1);
                    check_certificate(&context, &scored(&r.answers), &r.completeness, &exact);
                }
            }
        }
    }
}

/// Skewed routing: one hot server, workers forced onto the steal path.
/// The answers are the reference's at every pool size, in both relax
/// modes, across repeated runs (each run is a fresh schedule).
#[test]
fn skewed_hot_server_routing_agrees_at_every_worker_count() {
    let case = Case::parse("hot server", &[&hot_server_source(60)], &[HOT_SERVER_QUERY]);
    let rows = sweep(&WORKERS, |engine| Row {
        engine,
        k: K::Exactly(10),
        ..Row::default()
    });
    let fixture = Fixture::new(&case);
    for _ in 0..3 {
        fixture.check_rows(&both_modes(rows.clone()));
    }
}

/// A score model that panics after a fixed number of contribution
/// calls: a panic no fault plan injected, reaching the engines wherever
/// they call the model (seeding included).
struct PanickingModel<'m> {
    inner: &'m dyn ScoreModel,
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
/// valid against the reference's answers.
#[test]
fn worker_panic_outside_fault_layer_terminates_with_certificate() {
    let doc = parse_document(&hot_server_source(40)).unwrap();
    let pattern = parse_pattern(HOT_SERVER_QUERY).unwrap();
    let index = TagIndex::build(&doc);
    let model = counted_model(&[&doc], &pattern, Normalization::Sparse);
    let exact = top(reference(&doc, &pattern, &model, RelaxMode::Relaxed), 8);
    let engines = [
        Engine::S,
        Engine::LockStep,
        Engine::NoPrun,
        Engine::M(1),
        Engine::M(2),
    ];
    let zero_delay = FaultPlan::seeded(0).delay_unfaulted(pattern.server_ids(), Duration::ZERO);
    for engine in engines {
        let (algorithm, threads): (Algorithm, usize) = engine.algorithm();
        for plan in [None, Some(zero_delay.clone())] {
            let options = EvalOptions {
                threads,
                fault_plan: plan,
                ..EvalOptions::top_k(8)
            };
            let run = |panic_after: u64| {
                let panicking = PanickingModel {
                    inner: &model,
                    calls: AtomicU64::new(0),
                    panic_after,
                };
                let r = evaluate(&doc, &index, &pattern, &panicking, &algorithm, &options);
                (r, panicking.calls.load(Ordering::Relaxed))
            };
            let what = format!("{engine:?} plan={}", options.fault_plan.is_some());
            // Calibrate: every contribution call of one fault-free run.
            let (clean, total) = run(u64::MAX);
            assert!(clean.completeness.is_exact(), "{what}");
            assert!(total > 20, "{what}: workload too small: {total} calls");
            for panic_after in 0..total {
                let (r, calls) = run(panic_after);
                let fired = calls > panic_after;
                let context = format!("{what} panic_after={panic_after}");
                // A panic mid-operation leaves its match in hand: it is
                // abandoned, not also consumed.
                assert!(r.metrics.balanced(), "{context}: {:?}", r.metrics);
                assert_eq!(r.completeness.is_exact(), !fired, "{context}");
                if fired {
                    assert_eq!(r.metrics.servers_failed, 1, "{context}");
                    let answers = scored(&r.answers);
                    check_certificate(&context, &answers, &r.completeness, &exact);
                }
            }
        }
    }
}
