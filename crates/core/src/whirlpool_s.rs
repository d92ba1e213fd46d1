//! Whirlpool-S: the single-threaded adaptive engine.
//!
//! "A partial match is processed by a server as soon as it is routed to
//! it, therefore the servers' priority queues are not needed, and
//! partial matches are only kept in the router's queue. ... the
//! algorithm always chooses the partial match with the maximum possible
//! final score as it is the one on top of the router queue" (§6.1.2) —
//! the order MPro/Upper prove necessary for instance-optimal probing.

use crate::context::{Located, QueryContext, RelaxMode};
use crate::error::EngineError;
use crate::fault::{drop_seed_source, guarded, process_located, EngineRun, RunControl, Truncation};
use crate::partial::PartialMatch;
use crate::queue::{MatchQueue, QueuePolicy};
use crate::router::RoutingStrategy;
use crate::topk::TopKSet;

/// Runs Whirlpool-S under a [`RunControl`].
///
/// `queue_policy` is [`QueuePolicy::MaxFinalScore`] by default; other
/// policies are accepted for the ablation experiments. Each turn — one
/// seed, or one pop with its routing decision and server operation —
/// runs under the run's guard. The budget is checked before every turn;
/// a spent budget and a failed turn both stop the run, draining the
/// router queue into the certificate with each match's score bound.
pub(crate) fn run_whirlpool_s_anytime(
    ctx: &QueryContext<'_>,
    routing: &RoutingStrategy,
    k: usize,
    queue_policy: QueuePolicy,
    control: &RunControl,
) -> EngineRun {
    let offer_partial = ctx.relax == RelaxMode::Relaxed;
    let full = ctx.full_mask();
    let trunc = Truncation::new();
    let mut topk = TopKSet::with_floor(k, control.threshold_floor());
    let mut tr = control.trace_worker("whirlpool-s");

    tr.span_begin("seed");
    let mut queue = MatchQueue::with_seeds(queue_policy, ctx);
    tr.span_end("seed");

    tr.span_begin("route-and-process");
    let mut exts = Vec::new();
    let mut locs: Vec<Located> = Vec::new();
    // The match being routed and joined: a stop accounts it with the
    // queue.
    let mut in_hand: Option<PartialMatch> = None;
    while queue.peek_rank().is_some() {
        // The budget comes first, as for any pop: an expired run
        // materialises no further root.
        let spent = control.exhausted(&ctx.metrics);
        if spent && trunc.stop() {
            control.count_stop(&ctx.metrics);
        }
        let turn = || -> Result<(), EngineError> {
            if queue.seeds_are_head() {
                // No unseeded root can reach higher than the ceiling:
                // once that cannot beat the k-th score they all go in
                // one step, without ever existing. Otherwise the next
                // one enters, as the root server would have handed it
                // over up front.
                if topk.cannot_beat(ctx.seed_ceiling().0) {
                    drop_seed_source(ctx, &mut queue, None);
                    return Ok(());
                }
                let m = queue.next_seed(ctx).expect("the seed source is live");
                let complete = m.is_complete(full); // single-node patterns
                if offer_partial || complete {
                    topk.offer_match(&m);
                }
                if complete {
                    ctx.metrics.add_completed(1);
                } else {
                    queue.push(ctx, m);
                }
                return Ok(());
            }
            let m = queue.pop().expect("the head is a queued match");
            // Re-check at pop time: the threshold may have grown since
            // the match was queued.
            if topk.should_prune(&m) {
                // Under max-final-score order nothing queued can reach
                // higher than the head: once the head cannot beat the
                // k-th score the whole queue is pruned in one step (the
                // seed source, ranking below the head, follows on the
                // next turn) and the run is over. (Other policies prune
                // match by match.)
                let rest = (queue_policy == QueuePolicy::MaxFinalScore).then(|| queue.drain());
                for _ in std::iter::once(m).chain(rest.into_iter().flatten()) {
                    ctx.metrics.add_pruned();
                }
                return Ok(());
            }
            debug_assert!(!m.is_complete(full), "complete matches are never queued");

            let m = in_hand.insert(m);
            let server = routing.choose_traced(ctx, m, topk.threshold(), queue.len(), &mut tr);
            ctx.locate_batch_at_server(server, &[m.root()], &mut locs);
            exts.clear();
            let t0 = tr.op_start();
            process_located(ctx, control, &trunc, server, m, locs[0], &mut exts)?;
            tr.server_op(server, m.seq, exts.len(), t0);
            in_hand = None;
            ctx.metrics.add_created(exts.len() as u64);
            for e in exts.drain(..) {
                let complete = e.is_complete(full);
                if offer_partial || complete {
                    topk.offer_match(&e);
                }
                if complete {
                    ctx.metrics.add_completed(1);
                    continue;
                }
                if topk.should_prune(&e) {
                    ctx.metrics.add_pruned();
                    continue;
                }
                queue.push(ctx, e);
            }
            if tr.enabled() {
                tr.threshold(topk.threshold());
                tr.queue_depth(crate::trace::QueueId::Router, queue.len());
            }
            Ok(())
        };
        if spent || guarded(&ctx.metrics, &trunc, turn).is_none() {
            for x in in_hand.take().into_iter().chain(queue.drain()) {
                trunc.account(x.max_final);
                ctx.metrics.add_abandoned(1);
            }
            drop_seed_source(ctx, &mut queue, Some(&trunc));
            break;
        }
    }
    tr.span_end("route-and-process");

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
    use crate::lockstep::{run_lockstep_anytime, run_lockstep_noprune_anytime};
    use whirlpool_index::TagIndex;
    use whirlpool_pattern::{parse_pattern, StaticPlan};
    use whirlpool_score::{Normalization, TfIdfModel};
    use whirlpool_xml::parse_document;

    const SRC: &str = "<shelf>\
        <book><title>t</title><isbn>1</isbn><price>9</price></book>\
        <book><title>t</title><isbn>2</isbn></book>\
        <book><title>t</title></book>\
        <book><extra><title>t</title><price>3</price></extra></book>\
        <book><name/></book>\
        <book><isbn>5</isbn><price>1</price></book>\
        </shelf>";

    fn harness(query: &str, relax: RelaxMode, f: impl FnOnce(&QueryContext<'_>, usize)) {
        let doc = parse_document(SRC).unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern(query).unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let ctx = QueryContext::new(&doc, &index, &pattern, &model, ContextOptions { relax });
        let servers = pattern.server_ids().count();
        f(&ctx, servers);
    }

    #[test]
    fn agrees_with_lockstep_noprune_reference() {
        let query = "//book[./title and ./isbn and ./price]";
        for k in [1, 2, 3, 6] {
            let mut reference = Vec::new();
            harness(query, RelaxMode::Relaxed, |ctx, servers| {
                reference = run_lockstep_noprune_anytime(
                    ctx,
                    &StaticPlan::in_id_order(servers),
                    k,
                    &RunControl::unlimited(),
                )
                .answers;
            });
            for routing in [
                RoutingStrategy::MinAlive,
                RoutingStrategy::MaxScore,
                RoutingStrategy::MinScore,
            ] {
                harness(query, RelaxMode::Relaxed, |ctx, _| {
                    let got = run_whirlpool_s_anytime(
                        ctx,
                        &routing,
                        k,
                        QueuePolicy::MaxFinalScore,
                        &RunControl::unlimited(),
                    )
                    .answers;
                    assert!(
                        crate::topk::answers_equivalent(&got, &reference, 1e-9),
                        "k={k} routing={}: {got:?} vs {reference:?}",
                        routing.name()
                    );
                });
            }
        }
    }

    #[test]
    fn static_routing_matches_lockstep_answers() {
        let query = "//book[./title and ./price]";
        let mut a = Vec::new();
        let mut b = Vec::new();
        harness(query, RelaxMode::Relaxed, |ctx, servers| {
            a = run_lockstep_anytime(
                ctx,
                &StaticPlan::in_id_order(servers),
                3,
                QueuePolicy::MaxFinalScore,
                &RunControl::unlimited(),
            )
            .answers;
        });
        harness(query, RelaxMode::Relaxed, |ctx, servers| {
            let routing = RoutingStrategy::Static(StaticPlan::in_id_order(servers));
            b = run_whirlpool_s_anytime(
                ctx,
                &routing,
                3,
                QueuePolicy::MaxFinalScore,
                &RunControl::unlimited(),
            )
            .answers;
        });
        let sa: Vec<_> = a.iter().map(|r| (r.root, r.score)).collect();
        let sb: Vec<_> = b.iter().map(|r| (r.root, r.score)).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn exact_mode_agrees_with_lockstep() {
        let query = "//book[./title and ./isbn]";
        let mut a = Vec::new();
        let mut b = Vec::new();
        harness(query, RelaxMode::Exact, |ctx, servers| {
            a = run_lockstep_noprune_anytime(
                ctx,
                &StaticPlan::in_id_order(servers),
                10,
                &RunControl::unlimited(),
            )
            .answers;
        });
        harness(query, RelaxMode::Exact, |ctx, _| {
            b = run_whirlpool_s_anytime(
                ctx,
                &RoutingStrategy::MinAlive,
                10,
                QueuePolicy::MaxFinalScore,
                &RunControl::unlimited(),
            )
            .answers;
        });
        assert_eq!(a.len(), b.len());
        let sa: Vec<_> = a.iter().map(|r| (r.root, r.score)).collect();
        let sb: Vec<_> = b.iter().map(|r| (r.root, r.score)).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn pruning_happens_for_small_k() {
        harness(
            "//book[./title and ./isbn and ./price]",
            RelaxMode::Relaxed,
            |ctx, _| {
                let _ = run_whirlpool_s_anytime(
                    ctx,
                    &RoutingStrategy::MinAlive,
                    1,
                    QueuePolicy::MaxFinalScore,
                    &RunControl::unlimited(),
                )
                .answers;
                // Cut as matches, or as roots that never became one.
                let m = ctx.metrics.snapshot();
                assert!(m.pruned + m.roots_unseeded > 0, "{m:?}");
            },
        );
    }

    #[test]
    fn fifo_queue_still_terminates_with_right_answers() {
        let query = "//book[./title and ./isbn]";
        let mut reference = Vec::new();
        harness(query, RelaxMode::Relaxed, |ctx, servers| {
            reference = run_lockstep_noprune_anytime(
                ctx,
                &StaticPlan::in_id_order(servers),
                4,
                &RunControl::unlimited(),
            )
            .answers;
        });
        harness(query, RelaxMode::Relaxed, |ctx, _| {
            let got = run_whirlpool_s_anytime(
                ctx,
                &RoutingStrategy::MinAlive,
                4,
                QueuePolicy::Fifo,
                &RunControl::unlimited(),
            )
            .answers;
            let gs: Vec<_> = got.iter().map(|r| (r.root, r.score)).collect();
            let rs: Vec<_> = reference.iter().map(|r| (r.root, r.score)).collect();
            assert_eq!(gs, rs);
        });
    }
}
