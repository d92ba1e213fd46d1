//! The LockStep baselines.
//!
//! "LockStep considers one server at a time and processes all partial
//! matches sequentially through a server before proceeding to the next
//! server" (§6.1.2) — every match follows the same static plan, and all
//! matches advance in lock step (≈ the OptThres algorithm of the
//! EDBT'02 relaxation paper). Two variants:
//!
//! * [`run_lockstep_anytime`] — keeps a top-k set during execution and
//!   discards partial matches that cannot reach the current k-th score;
//! * [`run_lockstep_noprune_anytime`] — performs *all* partial-match
//!   operations and sorts at the end. Its partial-match count is the
//!   "maximum possible number of partial matches" denominator of
//!   Table 2.

use crate::context::{Located, QueryContext, RelaxMode};
use crate::fault::{guarded, process_located, EngineRun, RunControl, Truncation};
use crate::partial::PartialMatch;
use crate::queue::QueuePolicy;
use crate::topk::TopKSet;
use whirlpool_pattern::StaticPlan;

/// Every root match, made under the run's guard. A failure stops the
/// run before anything was joined: each root is pending under the
/// ceiling none of them can exceed.
fn seed_guarded(ctx: &QueryContext<'_>, trunc: &Truncation) -> Vec<PartialMatch> {
    guarded(&ctx.metrics, trunc, || Ok(ctx.make_root_matches())).unwrap_or_else(|| {
        trunc.account_many(ctx.root_candidates().len() as u64, ctx.seed_ceiling().0);
        Vec::new()
    })
}

/// LockStep with pruning under a [`RunControl`].
///
/// Within each stage, matches are processed best-first under
/// `queue_policy` (the paper settled on maximum possible final score for
/// LockStep's queues too), which accelerates top-k threshold growth.
/// Seeding and every server operation run under the run's guard; a
/// spent budget or a failed operation stops the run and returns the
/// current top-k as a truncated prefix.
pub(crate) fn run_lockstep_anytime(
    ctx: &QueryContext<'_>,
    plan: &StaticPlan,
    k: usize,
    queue_policy: QueuePolicy,
    control: &RunControl,
) -> EngineRun {
    let offer_partial = ctx.relax == RelaxMode::Relaxed;
    let full = ctx.full_mask();
    let trunc = Truncation::new();
    let mut topk = TopKSet::with_floor(k, control.threshold_floor());
    let mut tr = control.trace_worker("lockstep");
    tr.span_begin("seed");
    let mut frontier = seed_guarded(ctx, &trunc);
    for m in &frontier {
        tr.spawned(m);
        // Single-node patterns: the root match is already an answer
        // and no stage will ever consume it.
        let complete = m.is_complete(full);
        if offer_partial || complete {
            topk.offer_match(m);
        }
        if complete {
            tr.completed(m);
        }
    }
    tr.span_end("seed");

    let mut locs: Vec<Located> = Vec::new();
    'stages: for &server in plan.order() {
        if tr.enabled() {
            tr.span_begin(&format!("stage q{}", server.0));
        }
        // Best-first within the stage: MatchQueue's order (policy key,
        // then progress, then seq).
        let mut keyed: Vec<(crate::queue::Rank, PartialMatch)> = frontier
            .drain(..)
            .map(|m| (queue_policy.rank(ctx, &m, Some(server)), m))
            .collect();
        keyed.sort_by_key(|(rank, _)| std::cmp::Reverse(*rank));

        // Resolve every stage member's candidate range in one batched
        // sweep (document order inside `locate_batch_at_server`), then
        // evaluate in the best-first order chosen above. Location is a
        // pure function of the match root, so hoisting it out of the
        // priority loop cannot change any answer or counter.
        let roots: Vec<_> = keyed.iter().map(|(_, m)| m.root()).collect();
        ctx.locate_batch_at_server(server, &roots, &mut locs);

        let mut next = Vec::new();
        let mut exts = Vec::new();
        let mut stage = keyed.into_iter().map(|(_, m)| m).zip(locs.iter().copied());
        while let Some((m, loc)) = stage.next() {
            let spent = control.exhausted(&ctx.metrics);
            if spent && trunc.stop() {
                control.count_stop(&ctx.metrics);
            }
            if !spent && topk.should_prune(&m) {
                ctx.metrics.add_pruned();
                tr.pruned(&m, topk.threshold());
                continue;
            }
            exts.clear();
            let t0 = tr.op_start();
            let op = || process_located(ctx, control, &trunc, server, &m, loc, &mut exts);
            if spent || guarded(&ctx.metrics, &trunc, op).is_none() {
                // Drain: account everything still pending, then stop.
                for m in std::iter::once(m)
                    .chain(stage.map(|(m, _)| m))
                    .chain(next.drain(..))
                {
                    trunc.account(m.max_final);
                    tr.abandoned(&m);
                }
                if tr.enabled() {
                    tr.span_end(&format!("stage q{}", server.0));
                }
                break 'stages;
            }
            tr.server_op(server, m.seq, exts.len(), t0);
            for e in exts.drain(..) {
                tr.spawned(&e);
                let complete = e.is_complete(full);
                if offer_partial || complete {
                    topk.offer_match(&e);
                }
                if complete {
                    // Offered: its score is in the set or beaten.
                    tr.completed(&e);
                    continue;
                }
                if topk.should_prune(&e) {
                    ctx.metrics.add_pruned();
                    tr.pruned(&e, topk.threshold());
                    continue;
                }
                next.push(e);
            }
            if tr.enabled() {
                tr.threshold(topk.threshold());
            }
        }
        frontier = next;
        if tr.enabled() {
            tr.span_end(&format!("stage q{}", server.0));
            tr.queue_depth(crate::trace::QueueId::Router, frontier.len());
        }
    }

    let answers = topk.ranked();
    let completeness = trunc.finish(&answers);
    EngineRun {
        answers,
        completeness,
    }
}

/// LockStep without pruning: every partial match goes through every
/// server; results are ranked at the end.
///
/// Matches with different roots never interact when nothing is pruned,
/// so this runs root-by-root to keep the peak frontier proportional to
/// one root's match count rather than the whole document's. A complete
/// match is offered as its last operation produces it.
///
/// Under a [`RunControl`], the budget is checked before every server
/// operation, and seeding and every operation run under the run's
/// guard: a spent budget or a failed operation stops the run, with the
/// root matches not yet started accounted.
pub(crate) fn run_lockstep_noprune_anytime(
    ctx: &QueryContext<'_>,
    plan: &StaticPlan,
    k: usize,
    control: &RunControl,
) -> EngineRun {
    let full = ctx.full_mask();
    let trunc = Truncation::new();
    // NoPrune never consults the threshold, so the floor is inert here;
    // it is wired through anyway so every engine treats RunControl
    // uniformly.
    let mut topk = TopKSet::with_floor(k, control.threshold_floor());
    let mut tr = control.trace_worker("lockstep-noprune");
    let mut frontier: Vec<PartialMatch> = Vec::new();
    let mut next = Vec::new();
    let mut exts = Vec::new();
    tr.span_begin("seed");
    let root_matches = seed_guarded(ctx, &trunc);
    for m in &root_matches {
        tr.spawned(m);
    }
    tr.span_end("seed");
    tr.span_begin("evaluate");
    let mut locs: Vec<Located> = Vec::new();
    let mut roots = root_matches.into_iter();
    'roots: while let Some(root_match) = roots.next() {
        frontier.clear();
        frontier.push(root_match);
        for &server in plan.order() {
            next.clear();
            // All matches in this stage share one root (the engine runs
            // root-by-root), so the batched locate collapses to a single
            // range resolution reused across the whole stage.
            let stage_roots: Vec<_> = frontier.iter().map(|m| m.root()).collect();
            ctx.locate_batch_at_server(server, &stage_roots, &mut locs);
            let mut stage = std::mem::take(&mut frontier)
                .into_iter()
                .zip(locs.iter().copied());
            while let Some((m, loc)) = stage.next() {
                let spent = control.exhausted(&ctx.metrics);
                if spent && trunc.stop() {
                    control.count_stop(&ctx.metrics);
                }
                exts.clear();
                let t0 = tr.op_start();
                let op = || process_located(ctx, control, &trunc, server, &m, loc, &mut exts);
                if spent || guarded(&ctx.metrics, &trunc, op).is_none() {
                    for m in std::iter::once(m)
                        .chain(stage.map(|(m, _)| m))
                        .chain(next.drain(..))
                        .chain(roots)
                    {
                        trunc.account(m.max_final);
                        tr.abandoned(&m);
                    }
                    break 'roots;
                }
                tr.server_op(server, m.seq, exts.len(), t0);
                for e in exts.drain(..) {
                    tr.spawned(&e);
                    if e.is_complete(full) {
                        topk.offer_match(&e);
                        tr.completed(&e);
                    } else {
                        next.push(e);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        // A pattern without servers: the root match is the answer.
        for m in frontier.drain(..) {
            debug_assert!(m.is_complete(full));
            topk.offer_match(&m);
            tr.completed(&m);
        }
    }
    tr.span_end("evaluate");
    let answers = topk.ranked();
    let completeness = trunc.finish(&answers);
    EngineRun {
        answers,
        completeness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextOptions;
    use crate::topk::RankedAnswer;
    use whirlpool_index::TagIndex;
    use whirlpool_pattern::parse_pattern;
    use whirlpool_score::{Normalization, TfIdfModel};
    use whirlpool_xml::parse_document;

    const SRC: &str = "<shelf>\
        <book><title>t</title><isbn>1</isbn><price>9</price></book>\
        <book><title>t</title><isbn>2</isbn></book>\
        <book><title>t</title></book>\
        <book><extra><title>t</title></extra></book>\
        <book><name/></book>\
        </shelf>";

    fn run(query: &str, k: usize, relax: RelaxMode, prune: bool) -> Vec<RankedAnswer> {
        let doc = parse_document(SRC).unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern(query).unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let ctx = QueryContext::new(&doc, &index, &pattern, &model, ContextOptions { relax });
        let plan = StaticPlan::in_id_order(pattern.server_ids().count());
        if prune {
            run_lockstep_anytime(
                &ctx,
                &plan,
                k,
                QueuePolicy::MaxFinalScore,
                &RunControl::unlimited(),
            )
            .answers
        } else {
            run_lockstep_noprune_anytime(&ctx, &plan, k, &RunControl::unlimited()).answers
        }
    }

    #[test]
    fn pruned_and_unpruned_agree_on_answers() {
        for k in [1, 2, 3, 5] {
            let a = run(
                "//book[./title and ./isbn and ./price]",
                k,
                RelaxMode::Relaxed,
                true,
            );
            let b = run(
                "//book[./title and ./isbn and ./price]",
                k,
                RelaxMode::Relaxed,
                false,
            );
            let sa: Vec<_> = a.iter().map(|r| (r.root, r.score)).collect();
            let sb: Vec<_> = b.iter().map(|r| (r.root, r.score)).collect();
            assert_eq!(sa, sb, "k={k}");
        }
    }

    #[test]
    fn best_answer_is_the_richest_book() {
        let answers = run(
            "//book[./title and ./isbn and ./price]",
            5,
            RelaxMode::Relaxed,
            true,
        );
        assert_eq!(answers.len(), 5);
        // Scores strictly decrease over the first three books (3, 2, 1
        // exact predicates satisfied).
        assert!(answers[0].score > answers[1].score);
        assert!(answers[1].score > answers[2].score);
        // The book with only a nested title scores above the bare book.
        assert!(answers[3].score > answers[4].score || answers[4].score.value() == 0.0);
    }

    #[test]
    fn exact_mode_returns_only_exact_matches() {
        let answers = run("//book[./title and ./isbn]", 10, RelaxMode::Exact, true);
        // Only books 0 and 1 have both title and isbn as children.
        assert_eq!(answers.len(), 2);
        let answers_np = run("//book[./title and ./isbn]", 10, RelaxMode::Exact, false);
        assert_eq!(answers_np.len(), 2);
    }

    #[test]
    fn k_limits_the_answer_count() {
        let answers = run("//book[./title]", 2, RelaxMode::Relaxed, true);
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn pruning_reduces_work() {
        let doc = parse_document(SRC).unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern("//book[./title and ./isbn and ./price]").unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let plan = StaticPlan::in_id_order(3);

        let ctx1 = QueryContext::new(&doc, &index, &pattern, &model, ContextOptions::default());
        let _ = run_lockstep_anytime(
            &ctx1,
            &plan,
            1,
            QueuePolicy::MaxFinalScore,
            &RunControl::unlimited(),
        )
        .answers;
        let with_prune = ctx1.metrics.snapshot();

        let ctx2 = QueryContext::new(&doc, &index, &pattern, &model, ContextOptions::default());
        let _ = run_lockstep_noprune_anytime(&ctx2, &plan, 1, &RunControl::unlimited()).answers;
        let without = ctx2.metrics.snapshot();

        assert!(with_prune.server_ops <= without.server_ops);
        assert!(with_prune.pruned > 0);
        assert_eq!(without.pruned, 0);
    }

    #[test]
    fn noprune_keeps_earlier_extensions_when_its_server_dies_mid_stage() {
        // Exact mode fans the root out to two matches at `b`; the `c`
        // server runs for the first and fails on the second, which
        // stops the run. The first one's answer was already produced
        // and must survive the stop.
        let doc = parse_document("<r><a><b/><b/><c/></a></r>").unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern("//a[./b and ./c]").unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let ctx = QueryContext::new(
            &doc,
            &index,
            &pattern,
            &model,
            ContextOptions {
                relax: RelaxMode::Exact,
            },
        );
        let plan = StaticPlan::in_id_order(2);
        let faults = crate::fault::FaultPlan::seeded(0).with(
            whirlpool_pattern::QNodeId(2),
            crate::fault::FaultKind::Fail { after_ops: 1 },
        );
        let control = RunControl::new(crate::fault::Budget::new(None, None), Some(&faults), 3);
        let run = run_lockstep_noprune_anytime(&ctx, &plan, 1, &control);
        assert_eq!(run.answers.len(), 1, "{run:?}");
        assert!(!run.completeness.is_exact());
    }

    #[test]
    fn empty_document_gives_empty_answers() {
        let doc = parse_document("<r/>").unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern("//book[./title]").unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let ctx = QueryContext::new(&doc, &index, &pattern, &model, ContextOptions::default());
        let plan = StaticPlan::in_id_order(1);
        assert!(run_lockstep_anytime(
            &ctx,
            &plan,
            3,
            QueuePolicy::MaxFinalScore,
            &RunControl::unlimited()
        )
        .answers
        .is_empty());
    }
}
