//! The top-level evaluation API.

use crate::context::{ContextOptions, QueryContext, RelaxMode};
use crate::error::Completeness;
use crate::fault::{Budget, FaultPlan, RunControl};
use crate::lockstep::{run_lockstep_anytime, run_lockstep_noprune_anytime};
use crate::metrics::MetricsSnapshot;
use crate::queue::QueuePolicy;
use crate::router::RoutingStrategy;
use crate::topk::RankedAnswer;
use crate::whirlpool_m::{run_whirlpool_m_anytime, WhirlpoolMConfig};
use crate::whirlpool_s::run_whirlpool_s_anytime;
use std::time::{Duration, Instant};
use whirlpool_index::TagIndex;
use whirlpool_pattern::{StaticPlan, TreePattern};
use whirlpool_score::ScoreModel;
use whirlpool_xml::Document;

/// Which engine evaluates the query.
#[derive(Debug, Clone)]
pub enum Algorithm {
    /// LockStep without pruning — the exhaustive baseline.
    LockStepNoPrune,
    /// LockStep with score-based pruning.
    LockStep,
    /// Single-threaded adaptive Whirlpool.
    WhirlpoolS,
    /// Multi-threaded adaptive Whirlpool, optionally capped to a number
    /// of concurrently executing server operations.
    WhirlpoolM {
        /// Concurrent-operation cap (`None`: unbounded), honoured as a
        /// cap on the worker pool: the run gets
        /// `min(EvalOptions::threads, processors)` workers.
        processors: Option<usize>,
    },
}

impl Algorithm {
    /// The engine's name as the paper spells it.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::LockStepNoPrune => "LockStep-NoPrun",
            Algorithm::LockStep => "LockStep",
            Algorithm::WhirlpoolS => "Whirlpool-S",
            Algorithm::WhirlpoolM { .. } => "Whirlpool-M",
        }
    }
}

/// Evaluation options (paper Table 1 column, roughly).
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Number of answers to return.
    pub k: usize,
    /// Exact-only or relaxed (approximate) matching.
    pub relax: RelaxMode,
    /// Routing strategy for the adaptive engines; also supplies the
    /// static plan for the LockStep engines (which require
    /// [`RoutingStrategy::Static`] — other strategies fall back to the
    /// query-node-order plan).
    pub routing: RoutingStrategy,
    /// Queue prioritization.
    pub queue: QueuePolicy,
    /// Wall-clock budget: when it expires the engine stops consuming
    /// work and returns the current top-k as an anytime answer tagged
    /// [`Completeness::Truncated`]. `None`: run to completion.
    pub deadline: Option<Duration>,
    /// Server-operation budget, checked at queue-pop granularity like
    /// `deadline`. Deterministic, unlike wall-clock deadlines.
    pub max_server_ops: Option<u64>,
    /// Injected faults for robustness testing. A `fail` or `panic`
    /// fault stops the run at the faulted operation, as any failed or
    /// panicking operation does, and the run returns a certified
    /// [`Completeness::Truncated`] prefix. `None`: no fault fires; the
    /// run is guarded the same way.
    pub fault_plan: Option<FaultPlan>,
    /// Cooperative cancellation: the holder keeps a clone of the token
    /// and trips it to make the run drain to a certified
    /// [`Completeness::Truncated`] anytime answer. Checked wherever the
    /// budget is (queue pops, plus every
    /// [`INTERRUPT_SPAN`](crate::INTERRUPT_SPAN) candidates inside the
    /// columnar kernels), so cancelled runs return their worker
    /// threads promptly. `None`: no cancellation site is compiled into
    /// the hot path.
    pub cancel: Option<crate::fault::CancelToken>,
    /// Record a structured event trace of the run (see
    /// [`trace`](crate::trace)) and return it on
    /// [`EvalResult::trace`]. Off by default; when off, every emit
    /// site in the engines is one inlined branch.
    pub trace: bool,
    /// Threads a Whirlpool-M run uses, the calling thread included,
    /// independent of query size: each worker takes its batches from
    /// whichever queue has the best head and routes its own survivors.
    /// `1` runs everything on the caller; larger values implement the
    /// paper's §7 "maximal parallelism" future-work proposal. Ignored
    /// by the other engines.
    pub threads: usize,
    /// Lower bound seeded into the run's top-k pruning threshold.
    /// `0.0` (the default) is inert. The collection driver sets this to
    /// the current *global* k-th score before evaluating a shard, so
    /// the shard prunes against every shard already evaluated; sound
    /// because the global threshold only rises, so anything pruned
    /// against the floor scores strictly below the final k-th answer.
    pub threshold_floor: f64,
}

impl EvalOptions {
    /// The default configuration for a top-`k` query: relaxed matching,
    /// `min_alive_partial_matches` routing, max-final-score queues.
    pub fn top_k(k: usize) -> Self {
        EvalOptions {
            k,
            relax: RelaxMode::Relaxed,
            routing: RoutingStrategy::MinAlive,
            queue: QueuePolicy::MaxFinalScore,
            deadline: None,
            max_server_ops: None,
            fault_plan: None,
            cancel: None,
            trace: false,
            threads: 1,
            threshold_floor: 0.0,
        }
    }
}

/// The outcome of one evaluation.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Top-k answers, best first.
    pub answers: Vec<RankedAnswer>,
    /// Is `answers` the true top-k, or an anytime prefix cut short by a
    /// budget or a server failure? Truncated results carry a score
    /// bound certifying what any missing answer could have scored.
    pub completeness: Completeness,
    /// Work counters.
    pub metrics: MetricsSnapshot,
    /// Wall-clock time of the evaluation proper (excludes index and
    /// model construction).
    pub elapsed: Duration,
    /// The structured event trace, when [`EvalOptions::trace`] was set.
    pub trace: Option<crate::trace::TraceData>,
}

/// Evaluates `pattern` over `doc` with the chosen engine.
///
/// # Example
///
/// ```
/// use whirlpool_core::{evaluate, Algorithm, EvalOptions};
/// use whirlpool_index::TagIndex;
/// use whirlpool_pattern::parse_pattern;
/// use whirlpool_score::{Normalization, TfIdfModel};
/// use whirlpool_xml::parse_document;
///
/// let doc = parse_document(
///     "<shelf><book><title>a</title><isbn>1</isbn></book>\
///      <book><title>b</title></book></shelf>",
/// ).unwrap();
/// let index = TagIndex::build(&doc);
/// let query = parse_pattern("//book[./title and ./isbn]").unwrap();
/// let model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);
/// let result = evaluate(
///     &doc, &index, &query, &model,
///     &Algorithm::WhirlpoolS, &EvalOptions::top_k(1),
/// );
/// assert_eq!(result.answers.len(), 1);
/// ```
pub fn evaluate(
    doc: &Document,
    index: &TagIndex,
    pattern: &TreePattern,
    model: &dyn ScoreModel,
    algorithm: &Algorithm,
    options: &EvalOptions,
) -> EvalResult {
    evaluate_view(doc.into(), index.view(), pattern, model, algorithm, options)
}

/// [`evaluate`] over borrowed views — the entry point for
/// snapshot-attached corpora, where no owned [`Document`] or
/// [`TagIndex`] exists. Identical engines and kernels run over either
/// backing.
pub fn evaluate_view(
    doc: whirlpool_index::DocView<'_>,
    index: whirlpool_index::TagIndexView<'_>,
    pattern: &TreePattern,
    model: &dyn ScoreModel,
    algorithm: &Algorithm,
    options: &EvalOptions,
) -> EvalResult {
    let ctx = QueryContext::new_view(
        doc,
        index,
        pattern,
        model,
        ContextOptions {
            relax: options.relax,
        },
    );
    evaluate_with_context(&ctx, algorithm, options)
}

/// Evaluates against a pre-built context (lets callers reuse its
/// resolved servers and root candidates across runs and read the
/// metric counters).
pub fn evaluate_with_context(
    ctx: &QueryContext<'_>,
    algorithm: &Algorithm,
    options: &EvalOptions,
) -> EvalResult {
    let static_plan = match &options.routing {
        RoutingStrategy::Static(plan) => plan.clone(),
        _ => StaticPlan::in_id_order(ctx.pattern.server_ids().count()),
    };

    // The budget's clock starts here, with the evaluation proper.
    let mut control = RunControl::new(
        Budget::new(options.deadline, options.max_server_ops).with_cancel(options.cancel.clone()),
        options.fault_plan.as_ref(),
        ctx.pattern.len(),
    );
    if options.threshold_floor > 0.0 {
        control =
            control.with_threshold_floor(whirlpool_score::Score::new(options.threshold_floor));
    }
    let tracer = options.trace.then(crate::trace::Tracer::new);
    if let Some(t) = &tracer {
        control = control.with_tracer(t.clone());
    }

    let start = Instant::now();
    let run = match algorithm {
        Algorithm::LockStepNoPrune => {
            run_lockstep_noprune_anytime(ctx, &static_plan, options.k, &control)
        }
        Algorithm::LockStep => {
            run_lockstep_anytime(ctx, &static_plan, options.k, options.queue, &control)
        }
        Algorithm::WhirlpoolS => {
            run_whirlpool_s_anytime(ctx, &options.routing, options.k, options.queue, &control)
        }
        Algorithm::WhirlpoolM { processors } => run_whirlpool_m_anytime(
            ctx,
            &options.routing,
            options.k,
            &WhirlpoolMConfig {
                queue_policy: options.queue,
                // A p-worker pool runs at most p operations at once.
                threads: options.threads.min(processors.unwrap_or(usize::MAX)).max(1),
            },
            &control,
        ),
    };
    let elapsed = start.elapsed();

    let result = EvalResult {
        answers: run.answers,
        completeness: run.completeness,
        metrics: ctx.metrics.snapshot(),
        elapsed,
        trace: tracer.map(|t| t.finish()),
    };
    // Every match the run admitted reached one terminal, however the
    // run stopped.
    debug_assert!(result.metrics.balanced(), "{:?}", result.metrics);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use whirlpool_pattern::parse_pattern;
    use whirlpool_score::{Normalization, TfIdfModel};
    use whirlpool_xml::parse_document;

    #[test]
    fn all_algorithms_agree_on_a_small_corpus() {
        let doc = parse_document(
            "<shelf>\
             <book><title>a</title><isbn>1</isbn><price>3</price></book>\
             <book><title>b</title><isbn>2</isbn></book>\
             <book><x><title>c</title></x></book>\
             <book/>\
             </shelf>",
        )
        .unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern("//book[./title and ./isbn and ./price]").unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let options = EvalOptions::top_k(3);

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
            Algorithm::WhirlpoolM {
                processors: Some(2),
            },
        ] {
            let got = evaluate(&doc, &index, &pattern, &model, &alg, &options);
            let gs: Vec<_> = got.answers.iter().map(|r| (r.root, r.score)).collect();
            let rs: Vec<_> = reference
                .answers
                .iter()
                .map(|r| (r.root, r.score))
                .collect();
            assert_eq!(gs, rs, "algorithm {}", alg.name());
        }
    }

    #[test]
    fn metrics_and_elapsed_are_reported() {
        // A title only some books have: a predicate every root satisfies
        // has idf 0, and a match that cannot gain score is never run.
        let doc = parse_document("<r><book><title>x</title></book><book/></r>").unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern("//book[./title]").unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let result = evaluate(
            &doc,
            &index,
            &pattern,
            &model,
            &Algorithm::WhirlpoolS,
            &EvalOptions::top_k(1),
        );
        assert_eq!(result.answers.len(), 1);
        assert!(result.metrics.server_ops >= 1);
        assert!(result.metrics.partials_created >= 2);
    }

    /// Figure 8's per-operation cost is a `Delay` on every server: each
    /// operation spins a seeded draw from `[0, 2·mean]`, so a run pays
    /// about `mean` per operation.
    #[test]
    fn op_cost_injection_slows_execution() {
        let doc =
            parse_document(&format!("<r>{}<book/></r>", "<book><t/></book>".repeat(40))).unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern("//book[./t]").unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let mut options = EvalOptions::top_k(41);
        let fast = evaluate(
            &doc,
            &index,
            &pattern,
            &model,
            &Algorithm::WhirlpoolS,
            &options,
        );
        let mean = Duration::from_micros(500);
        options.fault_plan = Some(FaultPlan::seeded(7).delay_unfaulted(pattern.server_ids(), mean));
        let slow = evaluate(
            &doc,
            &index,
            &pattern,
            &model,
            &Algorithm::WhirlpoolS,
            &options,
        );
        assert!(slow.elapsed > fast.elapsed);
        let ops = slow.metrics.server_ops as u32;
        assert!(ops >= 40, "{ops} ops");
        assert!(
            slow.elapsed >= mean * ops / 2,
            "{:?} for {ops} ops",
            slow.elapsed
        );
    }

    /// A threshold query ("all answers scoring at least τ", the
    /// EDBT'02 mode the paper contrasts with top-k in §3) is
    /// Whirlpool-S with the floor pinned at τ, `k` = every candidate
    /// root, and the answers below τ dropped.
    #[test]
    fn threshold_floor_answers_threshold_queries() {
        let doc = parse_document(
            "<shelf>\
             <book><title>t</title><isbn>1</isbn><price>9</price></book>\
             <book><title>t</title><isbn>2</isbn></book>\
             <book><title>t</title></book>\
             <book><x><title>t</title></x></book>\
             <book><name/></book>\
             </shelf>",
        )
        .unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern("//book[./title and ./isbn and ./price]").unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);

        let clearing = |answers: &[RankedAnswer], tau: f64| {
            let mut kept: Vec<_> = answers
                .iter()
                .filter(|a| a.score.value() >= tau)
                .map(|a| (a.root, a.score))
                .collect();
            kept.sort();
            kept
        };
        for relax in [RelaxMode::Relaxed, RelaxMode::Exact] {
            let mut options = EvalOptions::top_k(1_000);
            options.relax = relax;
            let reference = evaluate(
                &doc,
                &index,
                &pattern,
                &model,
                &Algorithm::LockStepNoPrune,
                &options,
            );
            if relax == RelaxMode::Exact {
                // Only the one fully-exact book survives.
                assert_eq!(reference.answers.len(), 1);
            }

            let mut ops = Vec::new();
            for tau in [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 100.0] {
                let ctx =
                    QueryContext::new(&doc, &index, &pattern, &model, ContextOptions { relax });
                let mut options = EvalOptions::top_k(ctx.root_candidates().len().max(1));
                options.relax = relax;
                options.threshold_floor = tau;
                let got = evaluate_with_context(&ctx, &Algorithm::WhirlpoolS, &options);
                assert_eq!(
                    clearing(&got.answers, tau),
                    clearing(&reference.answers, tau),
                    "{relax:?} tau={tau}"
                );
                ops.push(got.metrics.server_ops);
            }
            // Branch-and-bound against τ: a high threshold does less
            // work than none (in exact mode no more: every surviving
            // binding scores its maximum, so only the join prunes), an
            // unreachable one none at all.
            assert!(ops[5] <= ops[0], "{relax:?}: {ops:?}");
            if relax == RelaxMode::Relaxed {
                assert!(ops[5] < ops[0], "{relax:?}: {ops:?}");
            }
            assert_eq!(ops[8], 0, "{relax:?}: {ops:?}");
        }
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::LockStepNoPrune.name(), "LockStep-NoPrun");
        assert_eq!(
            Algorithm::WhirlpoolM { processors: None }.name(),
            "Whirlpool-M"
        );
    }

    #[test]
    fn pre_cancelled_token_yields_a_certified_truncation() {
        let doc = parse_document(
            "<shelf>\
             <book><title>a</title><isbn>1</isbn></book>\
             <book><title>b</title><isbn>2</isbn></book>\
             </shelf>",
        )
        .unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern("//book[./title and ./isbn]").unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);

        let token = crate::fault::CancelToken::new();
        token.cancel();
        let mut options = EvalOptions::top_k(2);
        options.cancel = Some(token);

        for alg in [
            Algorithm::LockStepNoPrune,
            Algorithm::LockStep,
            Algorithm::WhirlpoolS,
            Algorithm::WhirlpoolM {
                processors: Some(2),
            },
        ] {
            let result = evaluate(&doc, &index, &pattern, &model, &alg, &options);
            match result.completeness {
                // The budget is consulted before the seed source is:
                // both roots are accounted, whether or not they exist.
                Completeness::Truncated {
                    pending_matches, ..
                } => assert_eq!(pending_matches, 2, "algorithm {}", alg.name()),
                Completeness::Exact => {
                    panic!("{} ignored a pre-cancelled token", alg.name())
                }
            }
            assert_eq!(result.metrics.cancellations, 1, "algorithm {}", alg.name());
            assert_eq!(result.metrics.deadline_hits, 0, "algorithm {}", alg.name());
        }
    }

    #[test]
    fn untripped_token_changes_nothing() {
        let doc = parse_document(
            "<shelf>\
             <book><title>a</title><isbn>1</isbn><price>3</price></book>\
             <book><title>b</title><isbn>2</isbn></book>\
             <book><x><title>c</title></x></book>\
             </shelf>",
        )
        .unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern("//book[./title and ./isbn and ./price]").unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);

        let plain = EvalOptions::top_k(3);
        let mut tokened = EvalOptions::top_k(3);
        tokened.cancel = Some(crate::fault::CancelToken::new());

        let a = evaluate(
            &doc,
            &index,
            &pattern,
            &model,
            &Algorithm::WhirlpoolS,
            &plain,
        );
        let b = evaluate(
            &doc,
            &index,
            &pattern,
            &model,
            &Algorithm::WhirlpoolS,
            &tokened,
        );
        assert_eq!(a.completeness, Completeness::Exact);
        assert_eq!(b.completeness, Completeness::Exact);
        let key = |r: &EvalResult| {
            r.answers
                .iter()
                .map(|a| (a.root, a.score))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
        assert_eq!(a.metrics.server_ops, b.metrics.server_ops);
        assert_eq!(
            a.metrics.predicate_comparisons,
            b.metrics.predicate_comparisons
        );
        assert_eq!(a.metrics.kernel_lanes, b.metrics.kernel_lanes);
        assert_eq!(b.metrics.cancellations, 0);
    }
}
