//! Event-stream invariants of the observability layer, across engines.
//!
//! A trace is only trustworthy if it is *complete*: every span closes,
//! every server operation and routing decision the engine counted is
//! on the timeline, and the threshold never falls. This suite pins
//! those invariants for a fixed query and document seed under all four
//! engines — fault-free, under an operation budget, and with an
//! injected server failure — next to the counters' conservation law,
//! and checks that turning tracing on does not perturb the answer set
//! (the engine-equivalence invariant from DESIGN.md §7).

use whirlpool_core::{
    evaluate, Algorithm, EvalOptions, EvalResult, FaultKind, FaultPlan, RelaxMode,
};
use whirlpool_index::TagIndex;
use whirlpool_pattern::QNodeId;
use whirlpool_score::{Normalization, TfIdfModel};
use whirlpool_xmark::{generate, queries, GeneratorConfig};

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

    fn eval(&self, algorithm: &Algorithm, options: &EvalOptions) -> EvalResult {
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

fn traced_options(k: usize) -> EvalOptions {
    EvalOptions {
        trace: true,
        ..EvalOptions::top_k(k)
    }
}

fn answer_key(r: &EvalResult) -> Vec<(usize, u64)> {
    r.answers
        .iter()
        .map(|a| (a.root.index(), a.score.value().to_bits()))
        .collect()
}

/// What a run's trace must show, however the run ended (complete,
/// truncated by a budget, or stopped by a failed operation): every
/// span closes, one `ServerOp` event per counted server operation, one
/// `Routed` event per counted routing decision, and a threshold that
/// never falls. The counts themselves, and their conservation law,
/// are the engine counters'.
fn assert_timeline(result: &EvalResult, engine: &str) {
    let trace = result.trace.as_ref().expect("trace requested");
    let m = &result.metrics;
    assert!(m.balanced(), "{engine}: {m:?}");
    let summary = trace.summary();
    assert!(
        summary.unmatched_spans.is_empty(),
        "{engine}: unclosed spans {:?}",
        summary.unmatched_spans
    );
    let ops: u64 = summary.per_server.iter().map(|(_, st)| st.ops).sum();
    assert_eq!(ops, m.server_ops, "{engine}: ServerOp events vs server_ops");
    assert_eq!(
        trace.explains().count() as u64,
        m.routing_decisions,
        "{engine}: Routed events vs routing_decisions"
    );
    // Threshold samples never regress: the k-th best score only grows.
    for w in summary.thresholds.windows(2) {
        assert!(
            w[1].1 >= w[0].1 - 1e-9,
            "{engine}: threshold regressed {} -> {}",
            w[0].1,
            w[1].1
        );
    }
}

#[test]
fn fault_free_traces_are_balanced_and_match_metrics() {
    let fx = Fixture::new(150);
    for algorithm in algorithms() {
        let result = fx.eval(&algorithm, &traced_options(10));
        let trace = result.trace.as_ref().expect("trace requested");
        assert!(
            !trace.events.is_empty(),
            "{}: empty trace",
            algorithm.name()
        );
        assert_timeline(&result, algorithm.name());
        assert_eq!(
            result.metrics.abandoned,
            0,
            "{}: fault-free run abandoned matches",
            algorithm.name()
        );
        let adaptive = !algorithm.name().starts_with("LockStep");
        assert_eq!(
            result.metrics.roots_unseeded > 0,
            adaptive,
            "{}",
            algorithm.name()
        );
    }

    // Whirlpool-M's pooled workers record into per-worker buffers: the
    // merged timeline must survive stealing, in both relax modes.
    for relax in [RelaxMode::Relaxed, RelaxMode::Exact] {
        for threads in [4, 8] {
            let options = EvalOptions {
                relax,
                threads,
                ..traced_options(10)
            };
            let result = fx.eval(&Algorithm::WhirlpoolM { processors: None }, &options);
            assert_timeline(&result, &format!("Whirlpool-M {relax:?} threads={threads}"));
        }
    }
}

#[test]
fn tracing_does_not_perturb_answers() {
    let fx = Fixture::new(150);
    for algorithm in algorithms() {
        let plain = fx.eval(&algorithm, &EvalOptions::top_k(10));
        let traced = fx.eval(&algorithm, &traced_options(10));
        assert_eq!(
            answer_key(&plain),
            answer_key(&traced),
            "{}: tracing changed the answers",
            algorithm.name()
        );
        assert!(plain.trace.is_none());
        assert!(traced.trace.is_some());
    }
}

#[test]
fn budgeted_runs_stay_balanced() {
    let fx = Fixture::new(150);
    for algorithm in algorithms() {
        // A tight operation budget forces the abandon path: matches
        // still in flight at expiry are abandoned, and the trace still
        // holds exactly the operations that ran.
        let options = EvalOptions {
            max_server_ops: Some(40),
            ..traced_options(10)
        };
        let result = fx.eval(&algorithm, &options);
        assert_timeline(&result, algorithm.name());
        assert!(
            result.metrics.server_ops <= 40 + 4,
            "{}: budget overshot",
            algorithm.name()
        );
    }
}

#[test]
fn faulted_runs_stay_balanced() {
    let fx = Fixture::new(150);
    for algorithm in algorithms() {
        // Fail one mid-plan server early: the failure stops the run,
        // and the failed operation is neither counted nor traced.
        let options = EvalOptions {
            fault_plan: Some(
                FaultPlan::seeded(7).with(QNodeId(2), FaultKind::Fail { after_ops: 5 }),
            ),
            ..traced_options(10)
        };
        let result = fx.eval(&algorithm, &options);
        assert_eq!(result.metrics.servers_failed, 1, "{}", algorithm.name());
        assert_timeline(&result, algorithm.name());
    }
}

#[test]
fn chrome_trace_output_is_well_formed() {
    let fx = Fixture::new(60);
    for algorithm in algorithms() {
        let result = fx.eval(&algorithm, &traced_options(5));
        let trace = result.trace.as_ref().expect("trace requested");
        let mut buf = Vec::new();
        trace.write_chrome_trace(&mut buf).unwrap();
        let text = String::from_utf8(buf).expect("trace output is UTF-8");
        let name = algorithm.name();

        assert!(text.starts_with("{\n"), "{name}");
        assert!(text.contains("\"traceEvents\": ["), "{name}");
        assert!(text.trim_end().ends_with('}'), "{name}");
        // One JSON record per event plus one thread_name metadata
        // record per worker, each carrying exactly one "ph" marker.
        assert_eq!(
            text.matches("\"ph\": \"").count(),
            trace.events.len() + trace.workers.len(),
            "{name}: record count"
        );
        // A timeline: no per-match record, one complete ("X") record
        // per counted server operation.
        assert!(!text.contains("\"cat\": \"match\""), "{name}");
        assert_eq!(
            text.matches("\"ph\": \"X\"").count() as u64,
            result.metrics.server_ops,
            "{name}: op records"
        );
        // Every engine emits metadata, spans and complete ops. Instants
        // ("i") are routing decisions, which only the adaptive engines
        // take; counter tracks ("C") come from threshold/queue
        // samples, which LockStep-NoPrun has none of by design.
        for ph in ["\"M\"", "\"B\"", "\"E\"", "\"X\""] {
            assert!(
                text.contains(&format!("\"ph\": {ph}")),
                "{name}: missing ph {ph}"
            );
        }
        assert_eq!(
            text.contains("\"ph\": \"i\""),
            result.metrics.routing_decisions > 0,
            "{name}"
        );
        let has_samples = trace.events.iter().any(|e| {
            matches!(
                e.kind,
                whirlpool_core::trace::TraceEventKind::ThresholdSample { .. }
                    | whirlpool_core::trace::TraceEventKind::QueueDepth { .. }
            )
        });
        assert_eq!(text.contains("\"ph\": \"C\""), has_samples, "{name}");
        // No NaN/Infinity can leak into the JSON.
        assert!(!text.contains("NaN") && !text.contains("inf"), "{name}");
    }
}
