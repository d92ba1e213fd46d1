//! Anytime evaluation and fault tolerance, end to end.
//!
//! Two families of guarantees:
//!
//! * **Budgets** (deadline / `max_server_ops`): a run cut short returns
//!   the current top-k tagged `Truncated` with a *score bound* — a
//!   certificate that no answer missing from the prefix could score
//!   above it. With no budget the result is byte-identical to the
//!   pre-existing exact behavior.
//! * **Faults**: a server operation that fails or panics stops the run
//!   the way a spent budget does. The run returns without aborting or
//!   hanging, and the same score-bound certificate covers everything it
//!   left unprocessed.
//!
//! Note on "monotonicity": the literal property "a smaller budget's
//! answers are a prefix of a larger budget's" is *false* — per-root
//! scores improve as more matches complete, so rankings shift. The true
//! monotone quantities, asserted here for the deterministic sequential
//! engines, are (1) the per-root score of any root present in both
//! runs, and (2) the k-th score once the set is full.

mod common;

use common::oracle::{check_certificate, scored};
use proptest::prelude::*;
use std::time::Duration;
use whirlpool_core::{
    evaluate, Algorithm, Completeness, EvalOptions, FaultKind, FaultPlan, RankedAnswer, RelaxMode,
};
use whirlpool_index::TagIndex;
use whirlpool_pattern::QNodeId;
use whirlpool_score::{Normalization, TfIdfModel};
use whirlpool_xmark::{generate, queries, GeneratorConfig};

const EPS: f64 = 1e-9;

struct Fixture {
    doc: whirlpool_xml::Document,
    index: TagIndex,
    query: whirlpool_pattern::TreePattern,
}

impl Fixture {
    fn new(items: usize) -> Self {
        let doc = generate(&GeneratorConfig::items(items));
        let index = TagIndex::build(&doc);
        let query = queries::parse(queries::Q2);
        Fixture { doc, index, query }
    }

    fn eval(&self, algorithm: &Algorithm, options: &EvalOptions) -> whirlpool_core::EvalResult {
        let model = TfIdfModel::build(&self.doc, &self.index, &self.query, Normalization::Sparse);
        evaluate(
            &self.doc,
            &self.index,
            &self.query,
            &model,
            algorithm,
            options,
        )
    }
}

fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::LockStepNoPrune,
        Algorithm::LockStep,
        Algorithm::WhirlpoolS,
        Algorithm::WhirlpoolM { processors: None },
    ]
}

/// [`check_certificate`] over ranked answers.
fn assert_certificate_valid(
    truncated: &[RankedAnswer],
    completeness: &Completeness,
    exact: &[RankedAnswer],
    context: &str,
) {
    check_certificate(context, &scored(truncated), completeness, &scored(exact));
}

// ---------------------------------------------------------------------
// Budgets.

#[test]
fn no_budget_means_exact_for_every_engine() {
    let fx = Fixture::new(40);
    for alg in algorithms() {
        let r = fx.eval(&alg, &EvalOptions::top_k(5));
        assert!(r.completeness.is_exact(), "{}", alg.name());
        assert_eq!(r.metrics.deadline_hits, 0, "{}", alg.name());
        // The idle anytime layer is invisible: none of its counters move.
        assert_eq!(r.metrics.servers_failed, 0, "{}", alg.name());
    }
}

#[test]
fn zero_op_budget_returns_certified_prefix() {
    let fx = Fixture::new(40);
    let exact = fx
        .eval(&Algorithm::WhirlpoolS, &EvalOptions::top_k(5))
        .answers;
    for alg in algorithms() {
        let mut options = EvalOptions::top_k(5);
        options.max_server_ops = Some(0);
        let r = fx.eval(&alg, &options);
        assert!(
            !r.completeness.is_exact(),
            "{}: a zero budget cannot complete this query",
            alg.name()
        );
        assert!(r.metrics.deadline_hits >= 1, "{}", alg.name());
        assert_certificate_valid(&r.answers, &r.completeness, &exact, alg.name());
    }
}

/// A budget that expires while most roots are still unseeded: the
/// roots the seed source never produced are pending like any abandoned
/// match, under the one bound none of them could exceed, so the
/// certificate covers every answer the prefix is missing.
#[test]
fn one_op_budget_certifies_the_unseeded_roots() {
    let fx = Fixture::new(100);
    let roots = fx
        .doc
        .elements()
        .filter(|&n| fx.doc.tag_str(n) == "item")
        .count() as u64;
    let every = fx
        .eval(&Algorithm::WhirlpoolS, &EvalOptions::top_k(roots as usize))
        .answers;
    assert_eq!(every.len() as u64, roots);
    for (alg, threads) in [
        (Algorithm::WhirlpoolS, 1),
        (Algorithm::WhirlpoolM { processors: None }, 1),
        (Algorithm::WhirlpoolM { processors: None }, 2),
    ] {
        let what = format!("{}@{threads}", alg.name());
        let mut options = EvalOptions::top_k(5);
        options.max_server_ops = Some(1);
        options.threads = threads;
        let r = fx.eval(&alg, &options);
        let Completeness::Truncated {
            pending_matches, ..
        } = r.completeness
        else {
            panic!("{what}: one operation cannot complete this query");
        };
        let m = &r.metrics;
        assert!(
            m.roots_unseeded > 0 && m.roots_unseeded < roots,
            "{what}: {m:?}"
        );
        // Relaxed mode: one match per seeded root, one per operation.
        let seeded = m.partials_created - m.server_ops;
        assert_eq!(seeded + m.roots_unseeded, roots, "{what}: {m:?}");
        assert!(
            pending_matches >= roots - seeded,
            "{what}: {pending_matches} pending for {} unseeded roots",
            roots - seeded
        );
        assert_eq!(m.deadline_hits, 1, "{what}");
        assert_certificate_valid(&r.answers, &r.completeness, &every, &what);
    }
}

#[test]
fn generous_op_budget_is_exact_and_identical() {
    let fx = Fixture::new(40);
    let reference = fx.eval(&Algorithm::WhirlpoolS, &EvalOptions::top_k(5));
    let mut options = EvalOptions::top_k(5);
    options.max_server_ops = Some(u64::MAX);
    let r = fx.eval(&Algorithm::WhirlpoolS, &options);
    assert!(r.completeness.is_exact());
    assert_eq!(r.metrics.deadline_hits, 0);
    let got: Vec<_> = r.answers.iter().map(|a| (a.root, a.score)).collect();
    let want: Vec<_> = reference
        .answers
        .iter()
        .map(|a| (a.root, a.score))
        .collect();
    assert_eq!(got, want, "a non-binding budget changed the answers");
}

#[test]
fn tight_deadline_still_returns() {
    let fx = Fixture::new(60);
    for alg in algorithms() {
        let mut options = EvalOptions::top_k(5);
        options.deadline = Some(Duration::ZERO);
        let r = fx.eval(&alg, &options);
        // An already-expired deadline: the run must return promptly and
        // label itself honestly (seed-only answers may still surface).
        assert!(
            !r.completeness.is_exact() || r.answers.is_empty(),
            "{}",
            alg.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Budget monotonicity for the deterministic sequential engines:
    /// growing the op budget never worsens the k-th score (once full)
    /// or any root's score, and every prefix carries a valid
    /// certificate against the exact answer.
    #[test]
    fn op_budgets_improve_monotonically(
        items in 15usize..50,
        k in 1usize..8,
        small in 0u64..60,
        extra in 1u64..200,
        lockstep in any::<bool>(),
    ) {
        let fx = Fixture::new(items);
        let alg = if lockstep { Algorithm::LockStep } else { Algorithm::WhirlpoolS };
        let exact = fx.eval(&alg, &EvalOptions::top_k(k));
        prop_assert!(exact.completeness.is_exact());

        let run = |ops: u64| {
            let mut options = EvalOptions::top_k(k);
            options.max_server_ops = Some(ops);
            fx.eval(&alg, &options)
        };
        let r1 = run(small);
        let r2 = run(small + extra);

        for r in [&r1, &r2] {
            if let Completeness::Truncated { .. } = r.completeness {
                assert_certificate_valid(&r.answers, &r.completeness, &exact.answers, alg.name());
            }
        }
        // Per-root: a root surviving into both prefixes never loses score.
        for a1 in &r1.answers {
            if let Some(a2) = r2.answers.iter().find(|a| a.root == a1.root) {
                prop_assert!(
                    a2.score.value() + EPS >= a1.score.value(),
                    "root {:?} got worse with a larger budget: {} -> {}",
                    a1.root, a1.score.value(), a2.score.value()
                );
            }
        }
        // k-th score: once the small-budget set is full, the bigger
        // budget's k-th entry is at least as good.
        if r1.answers.len() == k {
            prop_assert!(r2.answers.len() == k);
            let kth1 = r1.answers[k - 1].score.value();
            let kth2 = r2.answers[k - 1].score.value();
            prop_assert!(kth2 + EPS >= kth1, "k-th score regressed: {kth1} -> {kth2}");
        }
    }
}

// ---------------------------------------------------------------------
// Cancellation.

#[test]
fn mid_run_cancel_reclaims_the_worker_promptly() {
    let fx = Fixture::new(40);
    let exact = fx
        .eval(&Algorithm::WhirlpoolS, &EvalOptions::top_k(5))
        .answers;
    for alg in [
        Algorithm::WhirlpoolS,
        Algorithm::WhirlpoolM {
            processors: Some(2),
        },
    ] {
        let token = whirlpool_core::CancelToken::new();
        let mut options = EvalOptions::top_k(5);
        // Slow every server op down (2 ms on average) so the run is
        // mid-flight when the token trips; without the cancel this
        // query would take seconds.
        options.fault_plan = Some(
            FaultPlan::seeded(0).delay_unfaulted(fx.query.server_ids(), Duration::from_millis(2)),
        );
        options.cancel = Some(token.clone());

        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _ = tx.send(fx.eval(&alg, &options));
            });
            std::thread::sleep(Duration::from_millis(20));
            token.cancel();
            // Promptness is the property under test: a cancelled run
            // must hand its worker back within a drain batch, not after
            // finishing the query.
            let r = rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("{}: cancelled run did not return", alg.name()));
            assert!(
                !r.completeness.is_exact(),
                "{}: a mid-run cancel cannot claim exactness",
                alg.name()
            );
            assert_eq!(r.metrics.cancellations, 1, "{}", alg.name());
            assert_eq!(r.metrics.deadline_hits, 0, "{}", alg.name());
            assert_certificate_valid(&r.answers, &r.completeness, &exact, alg.name());
        });
    }
}

// ---------------------------------------------------------------------
// Faults.

#[test]
fn panic_fault_is_isolated_in_whirlpool_m() {
    let fx = Fixture::new(30);
    let exact = fx
        .eval(&Algorithm::WhirlpoolS, &EvalOptions::top_k(5))
        .answers;
    let mut options = EvalOptions::top_k(5);
    options.fault_plan =
        Some(FaultPlan::seeded(7).with(QNodeId(2), FaultKind::Panic { after_ops: 3 }));
    let r = fx.eval(&Algorithm::WhirlpoolM { processors: None }, &options);
    // The run returned at all: the panic neither aborted the process
    // nor hung termination detection.
    assert_eq!(r.metrics.servers_failed, 1, "exactly one server failed");
    assert!(
        !r.completeness.is_exact(),
        "a stopped run cannot claim exactness"
    );
    assert_certificate_valid(&r.answers, &r.completeness, &exact, "whirlpool-m panic");
}

/// A failed or a panicking server operation stops every engine, in
/// both modes, the way a spent budget does: the run is truncated, the
/// one failure is counted, and the certificate covers what it left
/// out. A sequential engine stops where the fault fires, so it runs
/// fewer operations than without the fault.
#[test]
fn a_failed_server_operation_stops_every_engine() {
    let fx = Fixture::new(30);
    for relax in [RelaxMode::Relaxed, RelaxMode::Exact] {
        let mut options = EvalOptions::top_k(5);
        options.relax = relax;
        let exact = fx.eval(&Algorithm::WhirlpoolS, &options).answers;
        for alg in algorithms() {
            let clean = fx.eval(&alg, &options).metrics.server_ops;
            for kind in [
                FaultKind::Fail { after_ops: 0 },
                FaultKind::Panic { after_ops: 0 },
            ] {
                let what = format!("{} {relax:?} {kind:?}", alg.name());
                let mut faulted = options.clone();
                faulted.fault_plan = Some(FaultPlan::seeded(1).with(QNodeId(1), kind));
                let r = fx.eval(&alg, &faulted);
                assert!(!r.completeness.is_exact(), "{what}");
                assert_eq!(r.metrics.servers_failed, 1, "{what}");
                assert_certificate_valid(&r.answers, &r.completeness, &exact, &what);
                if !matches!(alg, Algorithm::WhirlpoolM { .. }) {
                    assert!(
                        r.metrics.server_ops < clean,
                        "{what}: {} ops, {clean} without the fault",
                        r.metrics.server_ops
                    );
                }
            }
        }
    }
}

std::thread_local! {
    /// Calls of the panic hook on this thread.
    static HOOK_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// An injected panic stops the run without running the panic hook, so
/// it neither prints nor captures a backtrace. The hook installed here
/// counts its calls per thread and chains to the one it replaces, so
/// the other tests of this binary still report their panics.
#[test]
fn an_injected_panic_runs_no_panic_hook() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        HOOK_CALLS.with(|calls| calls.set(calls.get() + 1));
        previous(info);
    }));
    let fx = Fixture::new(30);
    let mut options = EvalOptions::top_k(5);
    options.fault_plan = Some(FaultPlan::parse("server=2:panic@0", 1).unwrap());
    for alg in [Algorithm::WhirlpoolS, Algorithm::LockStep] {
        let r = fx.eval(&alg, &options);
        let what = alg.name();
        assert!(
            matches!(r.completeness, Completeness::Truncated { .. }),
            "{what}: {:?}",
            r.completeness
        );
        assert_eq!(r.metrics.servers_failed, 1, "{what}");
    }
    assert_eq!(HOOK_CALLS.with(|calls| calls.get()), 0);
}

#[test]
fn delay_fault_changes_timing_but_not_answers() {
    let fx = Fixture::new(25);
    let reference = fx.eval(&Algorithm::WhirlpoolS, &EvalOptions::top_k(5));
    let mut options = EvalOptions::top_k(5);
    options.fault_plan = Some(FaultPlan::seeded(3).with(
        QNodeId(1),
        FaultKind::Delay {
            mean: Duration::from_micros(50),
        },
    ));
    let r = fx.eval(&Algorithm::WhirlpoolS, &options);
    assert!(r.completeness.is_exact(), "a slow server is not a dead one");
    assert_eq!(r.metrics.servers_failed, 0);
    let got: Vec<_> = r.answers.iter().map(|a| (a.root, a.score)).collect();
    let want: Vec<_> = reference
        .answers
        .iter()
        .map(|a| (a.root, a.score))
        .collect();
    assert_eq!(got, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Whirlpool-M under an arbitrary single-server fault always
    /// terminates with a certified result: no hang, no abort, at most
    /// one dead server, answers within the bound.
    #[test]
    fn whirlpool_m_survives_any_single_server_fault(
        seed in 0u64..1000,
        server in 1u8..4,
        panics in any::<bool>(),
        after_ops in 0u64..30,
        k in 1usize..8,
    ) {
        let fx = Fixture::new(25);
        let exact = fx.eval(&Algorithm::WhirlpoolS, &EvalOptions::top_k(k)).answers;
        let kind = if panics {
            FaultKind::Panic { after_ops }
        } else {
            FaultKind::Fail { after_ops }
        };
        let mut options = EvalOptions::top_k(k);
        options.fault_plan = Some(FaultPlan::seeded(seed).with(QNodeId(server), kind));
        let r = fx.eval(&Algorithm::WhirlpoolM { processors: None }, &options);
        prop_assert!(r.metrics.servers_failed <= 1);
        match r.completeness {
            Completeness::Exact => {
                // The faulted server died after the query had already
                // drained — only possible if the fault never fired.
                prop_assert!(r.metrics.servers_failed == 0);
            }
            Completeness::Truncated { .. } => {
                assert_certificate_valid(&r.answers, &r.completeness, &exact, "fault prop");
            }
        }
    }
}
