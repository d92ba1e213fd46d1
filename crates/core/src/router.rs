//! Routing decisions (paper §6.1.4).
//!
//! "Given a partial match at the head of the router queue, the router
//! needs to make a decision on which server to choose next ... a partial
//! match should not be sent to a server that it has already gone
//! through." Strategies: **static** (fixed permutation), **score-based**
//! (`max_score` / `min_score`), and **size-based**
//! (`min_alive_partial_matches`) — the paper's winner, which estimates
//! how many extensions would survive pruning after each candidate server
//! and picks the server minimizing that.

use crate::context::{QueryContext, RelaxMode};
use crate::partial::PartialMatch;
use whirlpool_pattern::{QNodeId, StaticPlan};
use whirlpool_score::Score;

/// A routing strategy.
#[derive(Debug, Clone)]
pub enum RoutingStrategy {
    /// Every match visits servers in the same fixed order.
    Static(StaticPlan),
    /// Send to the unvisited server expected to *increase* the match's
    /// score the most. "does not result in fast executions as it reduces
    /// the pruning opportunities."
    MaxScore,
    /// Send to the server expected to increase the score the *least*
    /// ("performs reasonably well").
    MinScore,
    /// Send to the server expected to leave the fewest alive extensions
    /// after pruning — `min_alive_partial_matches`, the default.
    MinAlive,
}

impl RoutingStrategy {
    /// Short name used by the experiment harness.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingStrategy::Static(_) => "static",
            RoutingStrategy::MaxScore => "max_score",
            RoutingStrategy::MinScore => "min_score",
            RoutingStrategy::MinAlive => "min_alive_partial_matches",
        }
    }

    /// Picks the next server for `m` (which must not be complete).
    /// `threshold` is the current k-th score, used by the size-based
    /// estimate.
    pub fn choose(&self, ctx: &QueryContext<'_>, m: &PartialMatch, threshold: Score) -> QNodeId {
        ctx.metrics.add_routing_decision();
        let chosen = match self {
            RoutingStrategy::Static(plan) => {
                plan.order().iter().copied().find(|&s| !m.has_visited(s))
            }
            RoutingStrategy::MaxScore => pick(ctx, m, |s| expected_contribution(ctx, s), true),
            RoutingStrategy::MinScore => pick(ctx, m, |s| expected_contribution(ctx, s), false),
            RoutingStrategy::MinAlive => {
                pick(ctx, m, |s| estimated_alive(ctx, m, s, threshold), false)
            }
        };
        chosen.expect("routing a complete match")
    }

    /// [`choose`](RoutingStrategy::choose), recording the decision and
    /// its [`explain`](RoutingStrategy::explain) record into `tr` when
    /// it is enabled. `queue_len` is the router queue's depth.
    pub(crate) fn choose_traced(
        &self,
        ctx: &QueryContext<'_>,
        m: &PartialMatch,
        threshold: Score,
        queue_len: usize,
        tr: &mut crate::trace::WorkerTrace,
    ) -> QNodeId {
        if !tr.enabled() {
            return self.choose(ctx, m, threshold);
        }
        let candidates = self.explain(ctx, m, threshold);
        let chosen = self.choose(ctx, m, threshold);
        tr.routed(crate::trace::RouteExplain {
            seq: m.seq,
            strategy: self.name(),
            threshold: threshold.value(),
            queue_len,
            chosen,
            candidates,
        });
        chosen
    }

    /// Scores every unvisited server of `m` the way
    /// [`choose`](RoutingStrategy::choose) would, without choosing (or
    /// counting a routing decision). This is the router's *explain*
    /// record: the observability layer captures it alongside each
    /// traced decision so a trace shows not just where a match went but
    /// what the alternatives scored. For the score-based strategies the
    /// estimate is the expected contribution, for
    /// `min_alive_partial_matches` the expected number of surviving
    /// extensions, and for `static` the server's plan position.
    pub fn explain(
        &self,
        ctx: &QueryContext<'_>,
        m: &PartialMatch,
        threshold: Score,
    ) -> Vec<crate::trace::RouteCandidate> {
        m.unvisited(ctx.pattern.len())
            .map(|s| {
                let estimate = match self {
                    RoutingStrategy::Static(plan) => plan
                        .order()
                        .iter()
                        .position(|&p| p == s)
                        .map(|i| i as f64)
                        .unwrap_or(f64::MAX),
                    RoutingStrategy::MaxScore | RoutingStrategy::MinScore => {
                        expected_contribution(ctx, s)
                    }
                    RoutingStrategy::MinAlive => estimated_alive(ctx, m, s, threshold),
                };
                crate::trace::RouteCandidate {
                    server: s,
                    estimate,
                }
            })
            .collect()
    }
}

/// The unvisited server of `m` with the best `score_fn` (the largest if
/// `maximize`, else the smallest; ties go to the lower id).
fn pick(
    ctx: &QueryContext<'_>,
    m: &PartialMatch,
    score_fn: impl Fn(QNodeId) -> f64,
    maximize: bool,
) -> Option<QNodeId> {
    let mut best: Option<(QNodeId, f64)> = None;
    for s in m.unvisited(ctx.pattern.len()) {
        let v = score_fn(s);
        let better = match best {
            None => true,
            Some((_, bv)) => {
                if maximize {
                    v > bv
                } else {
                    v < bv
                }
            }
        };
        if better {
            best = Some((s, v));
        }
    }
    best.map(|(s, _)| s)
}

/// The distribution of what one operation at `server` binds, as
/// `(exact, relaxed, null)` weights read from the scope's idf counts
/// ([`QueryContext::fractions_of`]). A relaxed-mode operation emits one
/// extension, at the best level any candidate reaches, so the weights
/// are the fractions of answers that satisfy the exact predicate, only
/// its relaxed form, or neither, and sum to one. Exact mode keeps the
/// exact candidates alone (the rest die, nulls included), so its single
/// weight is the fraction of answers that have one.
fn binding_weights(ctx: &QueryContext<'_>, server: QNodeId) -> (f64, f64, f64) {
    let [exact, relaxed] = ctx.fractions_of(server);
    match ctx.relax {
        RelaxMode::Relaxed => (exact, relaxed - exact, 1.0 - relaxed),
        RelaxMode::Exact => (exact, 0.0, 0.0),
    }
}

/// Expected score `server` adds to a match: the exact/relaxed bounds
/// weighted by [`binding_weights`], zero for the null path.
fn expected_contribution(ctx: &QueryContext<'_>, server: QNodeId) -> f64 {
    let (exact, relaxed, _) = binding_weights(ctx, server);
    exact * ctx.max_contribution(server) + relaxed * ctx.model.max_relaxed_contribution(server)
}

/// Size-based estimate: how many extensions of `m` would be alive after
/// processing at `server`, given the current `threshold`?
///
/// An extension with contribution `c` survives iff
/// `m.max_final - max_contrib(server) + c ≥ threshold`, i.e.
/// `c ≥ need`; the null path contributes `c = 0`. In relaxed mode this
/// is the probability that the one extension survives, not a fan-out.
fn estimated_alive(
    ctx: &QueryContext<'_>,
    m: &PartialMatch,
    server: QNodeId,
    threshold: Score,
) -> f64 {
    let server_max = ctx.max_contribution(server);
    let need = threshold.value() - (m.max_final.value() - server_max);
    let (exact, relaxed, null) = binding_weights(ctx, server);
    exact * survives(server_max, need)
        + relaxed * survives(ctx.model.max_relaxed_contribution(server), need)
        + null * survives(0.0, need)
}

fn survives(contribution: f64, need: f64) -> f64 {
    if contribution >= need {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ContextOptions, QueryContext, RelaxMode};
    use whirlpool_index::TagIndex;
    use whirlpool_pattern::{parse_pattern, StaticPlan};
    use whirlpool_score::{Normalization, TfIdfModel};
    use whirlpool_xml::parse_document;

    /// items with very different server fanouts: `many` has 4 matches
    /// per item, `rare` has at most one and is often missing.
    const SRC: &str = "<r>\
        <item><many/><many/><many/><many/><rare/></item>\
        <item><many/><many/><many/><many/></item>\
        <item><many/><many/><many/><many/><rare/></item>\
        <item><many/><many/><many/><many/></item>\
        </r>";

    fn with_ctx(f: impl FnOnce(&QueryContext<'_>)) {
        let doc = parse_document(SRC).unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern("//item[./many and ./rare]").unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let ctx = QueryContext::new(
            &doc,
            &index,
            &pattern,
            &model,
            ContextOptions {
                relax: RelaxMode::Relaxed,
            },
        );
        f(&ctx);
    }

    #[test]
    fn static_routing_follows_the_plan() {
        with_ctx(|ctx| {
            let plan = StaticPlan::new(vec![QNodeId(2), QNodeId(1)]);
            let strategy = RoutingStrategy::Static(plan);
            let m = ctx.make_root_matches().remove(0);
            assert_eq!(strategy.choose(ctx, &m, Score::ZERO), QNodeId(2));
        });
    }

    #[test]
    fn min_alive_ignores_fanout_and_prefers_likely_prunes() {
        with_ctx(|ctx| {
            let m = ctx.make_root_matches().remove(0);
            // A relaxed operation leaves exactly one extension whatever
            // the fan-out (many: 4 candidates, rare: ≤ 1), so with
            // threshold 0 — nothing prunable — every server scores 1 and
            // the tie resolves to the first (q1).
            let s = RoutingStrategy::MinAlive.choose(ctx, &m, Score::ZERO);
            assert_eq!(s, QNodeId(1));
            // `many` is everywhere (idf 0): its extension always
            // survives. `rare` (weight 1.0) is missing under half the
            // roots, and a null there cannot reach 0.5: its extension
            // survives with probability ½ — min_alive picks it (q2).
            let s = RoutingStrategy::MinAlive.choose(ctx, &m, Score::new(0.5));
            assert_eq!(s, QNodeId(2));
        });
    }

    #[test]
    fn min_alive_accounts_for_pruning() {
        with_ctx(|ctx| {
            let m = ctx.make_root_matches().remove(0);
            // The root match has max_final = 1.0 (`rare` maxes out at
            // 1.0, `many` at 0). A threshold of 2.1 is out of reach at
            // either server: no extension can survive, both estimates
            // collapse to 0, and the tie resolves to the first
            // unvisited server (q1) — the threshold flipping the choice
            // of `min_alive_ignores_fanout_and_prefers_likely_prunes`.
            let s = RoutingStrategy::MinAlive.choose(ctx, &m, Score::new(2.1));
            assert_eq!(s, QNodeId(1), "high threshold flips the choice");
        });
    }

    #[test]
    fn max_score_picks_the_generous_server() {
        with_ctx(|ctx| {
            let m = ctx.make_root_matches().remove(0);
            // Every item has a `many` child, so per Definition 4.2 the
            // `many` predicate's idf — and with it the server's expected
            // contribution — is 0. `rare` discriminates (idf ln 2) and,
            // even discounted by its 50% empty fraction, contributes
            // more. max_score therefore picks `rare`, min_score `many`.
            let max = RoutingStrategy::MaxScore.choose(ctx, &m, Score::ZERO);
            let min = RoutingStrategy::MinScore.choose(ctx, &m, Score::ZERO);
            assert_eq!(max, QNodeId(2));
            assert_eq!(min, QNodeId(1));
        });
    }

    #[test]
    fn visited_servers_are_skipped() {
        with_ctx(|ctx| {
            let m = ctx.make_root_matches().remove(0);
            let mut out = Vec::new();
            ctx.process_at_server(QNodeId(1), &m, &mut out);
            let next = RoutingStrategy::MinAlive.choose(ctx, &out[0], Score::ZERO);
            assert_eq!(next, QNodeId(2), "only q2 remains");
        });
    }

    #[test]
    fn routing_decisions_are_counted() {
        with_ctx(|ctx| {
            let m = ctx.make_root_matches().remove(0);
            let before = ctx.metrics.snapshot().routing_decisions;
            let _ = RoutingStrategy::MinAlive.choose(ctx, &m, Score::ZERO);
            let _ = RoutingStrategy::MaxScore.choose(ctx, &m, Score::ZERO);
            assert_eq!(ctx.metrics.snapshot().routing_decisions, before + 2);
        });
    }
}
