//! Virtual-time simulation of the Whirlpool-M schedule.
//!
//! The paper's Figure 9 measures Whirlpool-M speedup on machines with
//! 1, 2, 4 and "∞" processors. This reproduction runs on whatever CPU
//! count the host has (often 1), so the processor sweep is replayed as
//! a **discrete-event simulation**: the same task graph Whirlpool-M
//! executes — per-server priority queues served by a worker pool, a
//! router thread, the shared top-k set — scheduled onto `p` virtual
//! processors, with the per-operation costs supplied by
//! [`VTimeConfig`]. The simulation reuses the *real* server operation
//! and routing code, so answer sets and work counters are identical to
//! a real run with the same schedule; only time is virtual.
//!
//! The scheduler model mirrors the real engine's worker pool: each of
//! the [`VTimeConfig::threads`] virtual workers serves its *home*
//! queues (indices congruent to its id mod the pool size) best-head
//! first, and when every home queue is dry it *steals* from the
//! most-loaded foreign queue — recorded through the same
//! `steal_events` counter as the real scheduler (at op granularity,
//! since the simulation schedules single operations, not drain-batch
//! chunks).
//!
//! The thread-synchronization overhead that makes Whirlpool-M slower
//! than Whirlpool-S on small queries/single processors in the paper is
//! modelled by `thread_overhead`, charged per scheduled task.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use whirlpool_core::{
    MatchQueue, MetricsSnapshot, PartialMatch, QueryContext, QueuePolicy, RankedAnswer, RelaxMode,
    RoutingStrategy, TopKSet,
};

/// Virtual costs, in (virtual) seconds.
#[derive(Debug, Clone)]
pub struct VTimeConfig {
    /// Concurrent task cap (`None` = unbounded processors).
    pub processors: Option<usize>,
    /// Cost of one server operation (the paper reports results "where
    /// join operations cost around 1.8 msecs each").
    pub server_op_cost: f64,
    /// Cost of one routing decision.
    pub router_cost: f64,
    /// Per-task scheduling/synchronization overhead of the threaded
    /// engine (charged in Whirlpool-M only).
    pub thread_overhead: f64,
    /// Scheduler pool workers, mirroring
    /// [`whirlpool_core::EvalOptions::threads`]:
    /// every virtual worker serves its home queues first and steals
    /// from the most-loaded foreign queue when they are dry. The router
    /// is a separate virtual thread, as in the real engine.
    pub threads: usize,
}

impl Default for VTimeConfig {
    fn default() -> Self {
        VTimeConfig {
            processors: None,
            server_op_cost: 1.8e-3,
            router_cost: 0.05e-3,
            thread_overhead: 0.02e-3,
            threads: 1,
        }
    }
}

/// Result of a virtual-time run.
#[derive(Debug, Clone)]
pub struct VTimeResult {
    /// Virtual makespan in seconds.
    pub makespan: f64,
    /// The top-k answers (identical to a real run with this schedule).
    pub answers: Vec<RankedAnswer>,
    /// Work counters of the simulated run.
    pub metrics: MetricsSnapshot,
}

/// Thread index 0 is the router; 1..=S are the servers.
const ROUTER: usize = 0;

/// Simulates Whirlpool-M under `config`, returning the virtual makespan
/// alongside the (real) answers and work counters.
pub fn simulate_whirlpool_m(
    ctx: &QueryContext<'_>,
    routing: &RoutingStrategy,
    k: usize,
    queue_policy: QueuePolicy,
    config: &VTimeConfig,
) -> VTimeResult {
    let server_ids = ctx.server_ids();
    let offer_partial = ctx.relax == RelaxMode::Relaxed;
    let full_mask = ctx.full_mask();
    let max_procs = config.processors.unwrap_or(usize::MAX);
    let pool_workers = config.threads.max(1);
    let n_servers = server_ids.len();

    let mut topk = TopKSet::new(k);
    // queues[0] = router; queues[i] = server i. Worker 0 is the router
    // thread; workers 1..=pool_workers form the scheduler pool, each
    // homing the server queues congruent to its pool index.
    let mut queues: Vec<MatchQueue> = Vec::with_capacity(n_servers + 1);
    queues.push(MatchQueue::new(QueuePolicy::MaxFinalScore, None));
    for &s in &server_ids {
        queues.push(MatchQueue::new(queue_policy, Some(s)));
    }
    let worker_count = pool_workers + 1;
    // Which queue would this worker serve next, and is it a steal?
    // Mirrors the real worker loop: best-priority head among the home
    // queues first, else the most-loaded foreign queue.
    let queue_for = |w: usize, queues: &[MatchQueue]| -> Option<(usize, bool)> {
        if w == ROUTER {
            return (!queues[ROUTER].is_empty()).then_some((ROUTER, false));
        }
        let pw = w - 1;
        let home = (pw..n_servers)
            .step_by(pool_workers)
            .filter(|&qi| !queues[qi + 1].is_empty())
            .max_by(|&a, &b| queues[a + 1].peek_key().cmp(&queues[b + 1].peek_key()));
        if let Some(qi) = home {
            return Some((qi + 1, false));
        }
        (0..n_servers)
            .filter(|&qi| qi % pool_workers != pw && !queues[qi + 1].is_empty())
            .max_by_key(|&qi| queues[qi + 1].len())
            .map(|qi| (qi + 1, true))
    };

    for m in ctx.make_root_matches() {
        let complete = m.is_complete(full_mask);
        if offer_partial || complete {
            topk.offer_match(&m);
        }
        if !complete {
            queues[ROUTER].push(ctx, m);
        }
    }

    // Event-driven schedule: (finish_time, worker) completions. Each
    // running worker remembers the queue it popped from, since the
    // pool mapping is dynamic.
    let mut events: BinaryHeap<Reverse<(OrderedF64, usize)>> = BinaryHeap::new();
    let mut running: Vec<Option<(usize, PartialMatch)>> = Vec::new();
    running.resize_with(worker_count, || None);
    let mut busy = 0usize;
    let mut now = 0.0f64;
    let mut makespan = 0.0f64;
    let mut exts = Vec::new();

    loop {
        // Start tasks on idle workers while processors are free. Workers
        // whose chosen queue head has the highest priority go first —
        // mirroring the fact that on a real machine the OS runs
        // whichever threads are runnable, and all queues pop best-first
        // anyway.
        loop {
            if busy >= max_procs {
                break;
            }
            let candidate = (0..worker_count)
                .filter(|&w| running[w].is_none())
                .filter_map(|w| queue_for(w, &queues).map(|(q, stolen)| (w, q, stolen)))
                .max_by(|&(_, a, _), &(_, b, _)| queues[a].peek_key().cmp(&queues[b].peek_key()));
            let Some((w, q, stolen)) = candidate else {
                break;
            };
            if stolen {
                ctx.metrics.add_steal();
            }

            // Pop; for server workers, pruning happens at pop time and
            // consumes no processor time (as in the real engine, where
            // the prune check is epsilon next to a join).
            let m = queues[q].pop().expect("non-empty queue");
            if q != ROUTER && topk.should_prune(&m) {
                ctx.metrics.add_pruned();
                continue;
            }
            let duration = if q == ROUTER {
                config.router_cost + config.thread_overhead
            } else {
                config.server_op_cost + config.thread_overhead
            };
            running[w] = Some((q, m));
            busy += 1;
            events.push(Reverse((OrderedF64(now + duration), w)));
        }

        let Some(Reverse((OrderedF64(t_fin), worker))) = events.pop() else {
            break; // nothing running and nothing startable ⇒ done
        };
        now = t_fin;
        makespan = makespan.max(now);
        busy -= 1;
        let (q, m) = running[worker].take().expect("completion for idle worker");

        if q == ROUTER {
            let server = routing.choose(ctx, &m, topk.threshold());
            // server QNodeId -> queue index.
            let t = server_ids
                .iter()
                .position(|&s| s == server)
                .expect("known server")
                + 1;
            queues[t].push(ctx, m);
        } else {
            let server = server_ids[q - 1];
            exts.clear();
            ctx.process_at_server(server, &m, &mut exts);
            for e in exts.drain(..) {
                let complete = e.is_complete(full_mask);
                if offer_partial || complete {
                    topk.offer_match(&e);
                }
                if complete {
                    continue;
                }
                if topk.should_prune(&e) {
                    ctx.metrics.add_pruned();
                    continue;
                }
                queues[ROUTER].push(ctx, e);
            }
        }
    }

    VTimeResult {
        makespan,
        answers: topk.ranked(),
        metrics: ctx.metrics.snapshot(),
    }
}

/// The virtual execution time of a *sequential* engine run (Whirlpool-S
/// or LockStep) with the same cost model: operations execute one after
/// another on one processor, with no thread overhead.
pub fn sequential_virtual_time(metrics: &MetricsSnapshot, config: &VTimeConfig) -> f64 {
    metrics.server_ops as f64 * config.server_op_cost
        + metrics.routing_decisions as f64 * config.router_cost
}

/// Total-order wrapper for event times.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);
impl Eq for OrderedF64 {}
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whirlpool_core::{
        answers_equivalent, evaluate_with_context, Algorithm, ContextOptions, EvalOptions,
    };
    use whirlpool_index::TagIndex;
    use whirlpool_pattern::parse_pattern;
    use whirlpool_score::{Normalization, TfIdfModel};
    use whirlpool_xml::parse_document;

    const SRC: &str = "<shelf>\
        <book><title>t</title><isbn>1</isbn><price>9</price></book>\
        <book><title>t</title><isbn>2</isbn></book>\
        <book><title>t</title></book>\
        <book><extra><title>t</title><price>3</price></extra></book>\
        <book><isbn>5</isbn><price>1</price></book>\
        </shelf>";

    fn harness(f: impl FnOnce(&QueryContext<'_>)) {
        let doc = parse_document(SRC).unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern("//book[./title and ./isbn and ./price]").unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let ctx = QueryContext::new(&doc, &index, &pattern, &model, ContextOptions::default());
        f(&ctx);
    }

    #[test]
    fn simulated_answers_match_reference() {
        let mut reference = Vec::new();
        harness(|ctx| {
            let noprune =
                evaluate_with_context(ctx, &Algorithm::LockStepNoPrune, &EvalOptions::top_k(3));
            reference = noprune.answers;
        });
        for procs in [Some(1), Some(2), Some(4), None] {
            harness(|ctx| {
                let result = simulate_whirlpool_m(
                    ctx,
                    &RoutingStrategy::MinAlive,
                    3,
                    QueuePolicy::MaxFinalScore,
                    &VTimeConfig {
                        processors: procs,
                        ..Default::default()
                    },
                );
                let gs: Vec<_> = result.answers.iter().map(|r| (r.root, r.score)).collect();
                let rs: Vec<_> = reference.iter().map(|r| (r.root, r.score)).collect();
                assert_eq!(gs, rs, "procs={procs:?}");
            });
        }
    }

    #[test]
    fn more_processors_never_slow_the_schedule_much() {
        // Virtual makespans shrink (or stay equal) as processors grow.
        // Adaptive routing may change decisions across runs (the top-k
        // threshold evolves differently), so allow a small tolerance.
        let mut spans = Vec::new();
        for procs in [Some(1), Some(2), Some(4), None] {
            harness(|ctx| {
                let r = simulate_whirlpool_m(
                    ctx,
                    &RoutingStrategy::MinAlive,
                    3,
                    QueuePolicy::MaxFinalScore,
                    &VTimeConfig {
                        processors: procs,
                        // Enough pool workers that the processor cap,
                        // not the pool size, is the binding constraint.
                        threads: 8,
                        ..Default::default()
                    },
                );
                spans.push(r.makespan);
            });
        }
        assert!(spans[1] <= spans[0] * 1.05, "{spans:?}");
        assert!(spans[2] <= spans[1] * 1.05, "{spans:?}");
        assert!(spans[3] <= spans[2] * 1.05, "{spans:?}");
        // And some real speedup materializes between 1 and ∞.
        assert!(spans[3] < spans[0], "{spans:?}");
    }

    #[test]
    fn one_processor_costs_at_least_the_sequential_time() {
        harness(|ctx| {
            let cfg = VTimeConfig {
                processors: Some(1),
                ..Default::default()
            };
            let r = simulate_whirlpool_m(
                ctx,
                &RoutingStrategy::MinAlive,
                3,
                QueuePolicy::MaxFinalScore,
                &cfg,
            );
            // With one virtual processor, the makespan is the serialized
            // work including thread overhead — at least the op costs.
            let min = r.metrics.server_ops as f64 * cfg.server_op_cost;
            assert!(r.makespan >= min, "makespan {} < min {min}", r.makespan);
        });
    }

    #[test]
    fn extra_pool_workers_help_when_one_server_is_the_bottleneck() {
        // With one pool worker, everything serializes onto one virtual
        // thread; more workers (the real scheduler's `threads` knob)
        // must not hurt and typically shortens the makespan — and
        // answers stay equivalent.
        let mut base = 0.0;
        let mut reference = Vec::new();
        harness(|ctx| {
            let r = simulate_whirlpool_m(
                ctx,
                &RoutingStrategy::MinAlive,
                3,
                QueuePolicy::MaxFinalScore,
                &VTimeConfig {
                    threads: 1,
                    ..Default::default()
                },
            );
            base = r.makespan;
            reference = r.answers;
        });
        for threads in [2usize, 4, 8] {
            harness(|ctx| {
                let r = simulate_whirlpool_m(
                    ctx,
                    &RoutingStrategy::MinAlive,
                    3,
                    QueuePolicy::MaxFinalScore,
                    &VTimeConfig {
                        threads,
                        ..Default::default()
                    },
                );
                assert!(
                    r.makespan <= base * 1.05,
                    "threads={threads}: {} vs {base}",
                    r.makespan
                );
                assert!(
                    answers_equivalent(&r.answers, &reference, 1e-9),
                    "threads={threads}"
                );
            });
        }
    }

    #[test]
    fn steals_appear_with_multiple_workers_and_never_alone() {
        // One pool worker homes every queue: no steals by construction.
        harness(|ctx| {
            let r = simulate_whirlpool_m(
                ctx,
                &RoutingStrategy::MinAlive,
                3,
                QueuePolicy::MaxFinalScore,
                &VTimeConfig {
                    threads: 1,
                    ..Default::default()
                },
            );
            assert_eq!(r.metrics.steal_events, 0);
        });
        // More workers than servers: the surplus lives off stealing.
        harness(|ctx| {
            let r = simulate_whirlpool_m(
                ctx,
                &RoutingStrategy::MinAlive,
                3,
                QueuePolicy::MaxFinalScore,
                &VTimeConfig {
                    threads: 8,
                    ..Default::default()
                },
            );
            assert!(r.metrics.steal_events > 0, "{:?}", r.metrics.steal_events);
        });
    }

    #[test]
    fn sequential_virtual_time_formula() {
        let metrics = MetricsSnapshot {
            server_ops: 10,
            routing_decisions: 4,
            ..Default::default()
        };
        let cfg = VTimeConfig {
            server_op_cost: 2.0,
            router_cost: 0.5,
            ..Default::default()
        };
        assert!((sequential_virtual_time(&metrics, &cfg) - 22.0).abs() < 1e-12);
    }
}
