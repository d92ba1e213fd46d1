//! Property-based system tests: on random documents × random patterns,
//! the adaptive engines return the reference's top-k
//! (`tests/oracle/harness.rs`), the virtual-time scheduler agrees with
//! it at every processor count, and Whirlpool-S never does more work
//! than LockStep under the same static plan (the minimal-probing
//! property the paper imports from MPro/Upper).

#[path = "oracle/harness.rs"]
mod oracle;

use oracle::*;
use proptest::prelude::*;
use whirlpool_bench::vtime::{simulate_whirlpool_m, VTimeConfig, VTimeResult};
use whirlpool_core::{
    evaluate, Algorithm, ContextOptions, EvalOptions, FaultPlan, QueryContext, QueuePolicy,
    RelaxMode, RoutingStrategy,
};
use whirlpool_index::TagIndex;
use whirlpool_pattern::{parse_pattern, StaticPlan};
use whirlpool_score::Normalization;
use whirlpool_xml::parse_document;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Relaxed mode: every engine, and Whirlpool-S under every routing
    /// strategy, returns the reference's top-k.
    #[test]
    fn engines_agree_on_random_workloads(seed in any::<u64>(), k in 1usize..6) {
        let k = K::Exactly(k);
        let engines = sweep(&ENGINES, |engine| Row { engine, k, ..Row::default() });
        let routings = sweep(&[1, 2, 3], |routing| Row { routing, k, ..Row::default() });
        check_case(&random_case(seed), &[engines, routings].concat());
    }

    /// The virtual-time scheduler returns the reference's answers at
    /// every processor count. Its makespan does not always shrink with
    /// more processors: at 2 the top-k threshold can rise in a different
    /// order than at 1, routing then diverges, and the run may do more
    /// server ops (and take longer) than the serial one. What holds is
    /// that unbounded processors never take longer than 2, and that 2
    /// never take longer than 1 when both schedules do the same work.
    #[test]
    fn vtime_consistent_across_processors(seed in any::<u64>()) {
        let case = random_case(seed);
        let (doc, pattern) = (&case.docs[0], &case.patterns[0]);
        let index = TagIndex::build(doc);
        let model = counted_model(&[doc], pattern, Normalization::Sparse);
        let truth = reference(doc, pattern, &model, RelaxMode::Relaxed);

        let mut runs: Vec<VTimeResult> = Vec::new();
        for procs in [Some(1), Some(2), None] {
            let ctx = QueryContext::new(doc, &index, pattern, &model, ContextOptions::default());
            let sim = simulate_whirlpool_m(
                &ctx,
                &RoutingStrategy::MinAlive,
                3,
                QueuePolicy::MaxFinalScore,
                &VTimeConfig { processors: procs, ..Default::default() },
            );
            check_topk(&format!("procs={procs:?} {pattern}"), &scored(&sim.answers), &truth, 3);
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
    fn whirlpool_s_never_outworks_lockstep_static(seed in any::<u64>(), k in 1usize..4) {
        let case = random_case(seed);
        let (doc, pattern) = (&case.docs[0], &case.patterns[0]);
        let index = TagIndex::build(doc);
        let model = counted_model(&[doc], pattern, Normalization::Sparse);
        let plan = StaticPlan::in_id_order(pattern.server_ids().count());
        let routing = RoutingStrategy::Static(plan);
        let options = EvalOptions { routing, ..EvalOptions::top_k(k) };

        let lockstep = evaluate(doc, &index, pattern, &model, &Algorithm::LockStep, &options);
        let ws = evaluate(doc, &index, pattern, &model, &Algorithm::WhirlpoolS, &options);
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
/// op cost must terminate and return the reference's answers.
#[test]
fn whirlpool_m_stress_matrix() {
    let mut src = String::from("<a>");
    for i in 0..12 {
        let tag = ["b", "c", "d"][i % 3];
        let children: String = (0..i % 4)
            .map(|j| format!("<{0}/>", ["b", "c", "d"][j % 3]))
            .collect();
        src.push_str(&format!("<{tag}>{children}</{tag}>"));
    }
    src.push_str("</a>");
    let doc = parse_document(&src).unwrap();
    let pattern = parse_pattern("//b[./c and .//d]").unwrap();
    let index = TagIndex::build(&doc);
    let model = counted_model(&[&doc], &pattern, Normalization::Sparse);
    let truth = reference(&doc, &pattern, &model, RelaxMode::Relaxed);

    for processors in [None, Some(1), Some(3)] {
        for threads in [1usize, 3] {
            for queue in [QueuePolicy::MaxFinalScore, QueuePolicy::Fifo] {
                // A 50 µs mean delay per operation shifts the
                // interleaving without changing what is computed.
                for op_cost in [None, Some(std::time::Duration::from_micros(50))] {
                    let fault_plan = op_cost.map(|mean| {
                        FaultPlan::seeded(0).delay_unfaulted(pattern.server_ids(), mean)
                    });
                    let options = EvalOptions {
                        threads,
                        queue,
                        fault_plan,
                        ..EvalOptions::top_k(5)
                    };
                    let algorithm = Algorithm::WhirlpoolM { processors };
                    let got = evaluate(&doc, &index, &pattern, &model, &algorithm, &options);
                    let what = format!(
                        "procs={processors:?} threads={threads} queue={queue:?} cost={op_cost:?}"
                    );
                    check_topk(&what, &scored(&got.answers), &truth, 5);
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
    let doc = parse_document(
        "<c><d/><b><d/><d/><d/></b><a><b><a/><d/><c/></b>\
         <a><a><c/></a><a><b/><b/></a><d/></a>\
         <b><a><c/></a><a><a/></a><d><d/></d></b></a></c><d/>",
    )
    .unwrap();
    let pattern = parse_pattern("//a[.//d and .//a]").unwrap();
    let k = 4;
    let index = TagIndex::build(&doc);
    let model = counted_model(&[&doc], &pattern, Normalization::Sparse);
    let truth = reference(&doc, &pattern, &model, RelaxMode::Relaxed);
    let m = Algorithm::WhirlpoolM { processors: None };
    for algorithm in [Algorithm::LockStep, Algorithm::WhirlpoolS, m] {
        for iter in 0..300 {
            let got = evaluate(
                &doc,
                &index,
                &pattern,
                &model,
                &algorithm,
                &EvalOptions::top_k(k),
            );
            let what = format!("iter={iter} {}", algorithm.name());
            check_topk(&what, &scored(&got.answers), &truth, k);
        }
    }
}
