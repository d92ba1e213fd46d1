//! Whirlpool-M: the multi-threaded adaptive engine, scheduled by a
//! pool of workers that route their own survivors.
//!
//! The paper assigns "each server ... an individual thread" (§6.1.2)
//! plus a router thread, which caps parallelism at the number of query
//! nodes, leaves threads idle whenever routing skews load toward one
//! server, and lets a server thread drain fresh root matches while the
//! survivors it just produced wait for the router. Here the per-server
//! priority queues stay (they carry the paper's prioritization
//! semantics), but they are *served* by a pool of N workers (N =
//! `threads`, the calling thread included, independent of query size)
//! and nothing else: there is no router thread.
//!
//! Each turn a worker takes one [`DRAIN_BATCH`]-sized batch from
//! whichever queue — any server queue, or the *unrouted* queue that
//! holds the seed source — has the highest-ranked head under
//! [`QueuePolicy::rank`]. A server batch is joined at its server and
//! the worker routes the survivors itself; the unrouted queue's turn
//! *materialises* the next root matches and routes them: the root
//! matches nobody has asked for yet do not exist
//! ([`MatchQueue::with_seeds`]). This is Whirlpool-S's single queue at
//! batch granularity: an in-progress match runs before a fresh root is
//! admitted, a root that top-k never reaches is never seeded, and once
//! the source's ceiling cannot beat the k-th score its remaining roots
//! are dropped in one step. Batches pop in heap order, so per-server
//! priority order is preserved within every batch. Every server queue
//! still has a home worker (`queue index mod N`); a batch a worker
//! takes from a server queue that is not its home is counted and traced
//! as a *steal*. The top-k set is shared.
//!
//! Termination: a global in-flight counter tracks matches in queues or
//! being processed, plus one token for a seed source that still has
//! roots to produce (it leaves with the last root, or when the source
//! is dropped); it reaches zero exactly when "there are no more
//! partial matches in any of the server queues, the router queue, or
//! being compared against the top-k set" (§5.1). Each worker settles
//! its batch's net count change in one atomic op *before* it routes and
//! publishes the batch's survivors, so the count never undercounts live
//! matches — the settling protocol is per-batch, not per-queue, and
//! therefore unaffected by which worker drained the batch. The worker
//! that drives the count to zero sets `done` and wakes the pool; there
//! is no separate thread waiting for termination.
//!
//! Stopping: a batch — its seeding, its server operations and the
//! routing of its survivors — runs under the run's guard. A failed
//! operation or a panic anywhere in it (an injected fault, a panicking
//! score model) stops the run as a spent budget does: the batch's
//! matches enter the truncation certificate, and every worker drains
//! whatever it pops next, the seed source included, so the run still
//! terminates with a valid anytime bound.

use crate::context::{Located, QueryContext, RelaxMode};
use crate::error::EngineError;
use crate::fault::{drop_seed_source, guarded, process_located, EngineRun, RunControl, Truncation};
use crate::partial::PartialMatch;
use crate::queue::{MatchQueue, QueuePolicy, Rank};
use crate::router::RoutingStrategy;
use crate::topk::SharedTopK;
use crate::trace::{QueueId, WorkerTrace};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use whirlpool_pattern::QNodeId;

/// Matches a worker moves per queue-lock acquisition: it drains up to
/// this many waiting matches in one pop and hands each server its
/// routed group in one push. Batching cuts lock traffic ~`DRAIN_BATCH`×
/// at the price of slightly staler priority order *within* a batch (a
/// higher-priority arrival cannot preempt matches already drained).
const DRAIN_BATCH: usize = 32;

/// Configuration for [`run_whirlpool_m_anytime`].
#[derive(Debug, Clone)]
pub(crate) struct WhirlpoolMConfig {
    /// Queue prioritization, for the server queues and the unrouted
    /// queue alike (the paper settled on
    /// [`QueuePolicy::MaxFinalScore`]).
    pub queue_policy: QueuePolicy,
    /// Threads the run uses, the calling thread included, independent
    /// of query size: `1` serializes every server operation and routing
    /// decision onto the caller, larger values realize the paper's
    /// future-work proposal of "maximal parallelism" (§7) without one
    /// thread per server.
    pub threads: usize,
}

impl Default for WhirlpoolMConfig {
    fn default() -> Self {
        WhirlpoolMConfig {
            queue_policy: QueuePolicy::MaxFinalScore,
            threads: 1,
        }
    }
}

/// A lock-guarded match queue shared by the worker pool. Nothing ever
/// blocks on one queue: workers park on the pool-wide work signal
/// ([`Shared::signal_work`]), which every publisher raises after its
/// pushes.
struct SharedQueue {
    inner: Mutex<MatchQueue>,
}

impl SharedQueue {
    fn new(queue: MatchQueue) -> Self {
        SharedQueue {
            inner: Mutex::new(queue),
        }
    }

    /// Pushes a whole batch under one lock acquisition, draining
    /// `batch`.
    fn push_batch(&self, ctx: &QueryContext<'_>, batch: &mut Vec<PartialMatch>) {
        let mut queue = self.inner.lock();
        for m in batch.drain(..) {
            queue.push(ctx, m);
        }
    }

    /// The rank of the head match — or of the seed source, when that
    /// comes first (`None`: empty).
    fn peek_rank(&self) -> Option<Rank> {
        self.inner.lock().peek_rank()
    }

    /// Drains up to `max` matches into `out` without blocking. Returns
    /// `true` when at least one match was moved; an empty queue returns
    /// `false` immediately. Popping preserves heap order, so the batch
    /// carries the queue's priority order with it to whichever worker
    /// processes it.
    fn try_pop_batch(&self, max: usize, out: &mut Vec<PartialMatch>) -> bool {
        let mut queue = self.inner.lock();
        while out.len() < max {
            match queue.pop() {
                Some(m) => out.push(m),
                None => break,
            }
        }
        !out.is_empty()
    }

    /// Current queue depth (takes the lock; used only by the tracing
    /// layer when it samples queue depths).
    fn len(&self) -> usize {
        self.inner.lock().len()
    }
}

struct Shared<'c, 'a> {
    ctx: &'c QueryContext<'a>,
    /// Top-k set behind a lock-free threshold snapshot: the hot prune
    /// paths read the snapshot (one relaxed load) and take the lock
    /// only for offers that could actually change the set.
    topk: SharedTopK,
    /// The seed source, the one thing no server has been chosen for
    /// yet: root matches are materialised a batch at a time, when its
    /// rank is the best head. Nothing is ever pushed here.
    unrouted: SharedQueue,
    server_queues: Vec<SharedQueue>,
    /// Matches alive in the system (queued or being processed), plus
    /// one token for a seed source that still has roots to produce.
    in_flight: AtomicI64,
    done: AtomicBool,
    /// Bumped after every push that makes queued work visible (and on
    /// termination). Workers snapshot it before scanning the queues and
    /// re-check it under `work_lock` before parking, which closes the
    /// scan/park lost-wakeup window.
    work_version: AtomicU64,
    work_lock: Mutex<()>,
    work_cv: Condvar,
    offer_partial: bool,
    full_mask: u64,
}

impl Shared<'_, '_> {
    /// Applies a net change to the in-flight count; any match the
    /// change credits must still be in the caller's hands (not yet
    /// published). Signals completion when the count reaches zero.
    fn adjust_in_flight(&self, delta: i64) {
        let now = self.in_flight.fetch_add(delta, Ordering::AcqRel) + delta;
        debug_assert!(now >= 0, "in-flight count went negative");
        if now == 0 {
            self.done.store(true, Ordering::Release);
            self.signal_work();
        }
    }

    /// Publishes newly queued work (or termination) to the worker
    /// pool. The version bump is `Release`, so a worker whose `Acquire`
    /// snapshot observes it also observes the push that preceded it;
    /// the notify takes `work_lock` first, which orders it after any
    /// in-progress park decision — a worker that has re-checked the
    /// version but not yet parked holds the lock, and notifying without
    /// it would be a *lost wakeup*.
    fn signal_work(&self) {
        self.work_version.fetch_add(1, Ordering::Release);
        let _g = self.work_lock.lock();
        self.work_cv.notify_all();
    }

    fn server_queue(&self, server: QNodeId) -> &SharedQueue {
        &self.server_queues[server.index() - 1]
    }

    /// Queue `qi`: a server queue, or — one past the last — the
    /// unrouted queue.
    fn queue(&self, qi: usize) -> &SharedQueue {
        self.server_queues.get(qi).unwrap_or(&self.unrouted)
    }

    /// The queue whose head ranks highest (`None`: all empty). Ranks
    /// are totally ordered across queues — `seq` is unique within a run
    /// — so every worker sees the same best head, and an in-progress
    /// match outranks a fresh root at the same score ceiling.
    fn best_head(&self) -> Option<usize> {
        (0..=self.server_queues.len())
            .filter_map(|qi| Some((self.queue(qi).peek_rank()?, qi)))
            .max()
            .map(|(_, qi)| qi)
    }
}

/// Runs Whirlpool-M on a pool of [`WhirlpoolMConfig::threads`] workers,
/// the calling thread being one of them, under a [`RunControl`]: a
/// spent budget, a failed server operation and a panic all stop the
/// run, turning every consumer into a draining one (each abandoned
/// match's score bound is recorded before the run returns its anytime
/// prefix).
pub(crate) fn run_whirlpool_m_anytime(
    ctx: &QueryContext<'_>,
    routing: &RoutingStrategy,
    k: usize,
    config: &WhirlpoolMConfig,
    control: &RunControl,
) -> EngineRun {
    let server_ids = ctx.server_ids();
    let offer_partial = ctx.relax == RelaxMode::Relaxed;
    let full_mask = ctx.full_mask();

    // The root server's output stays unmaterialised in the unrouted
    // queue; while it has roots left it holds one in-flight token.
    let mut seed_tr = control.trace_worker("main");
    seed_tr.span_begin("seed");
    let unrouted = MatchQueue::with_seeds(config.queue_policy, ctx);
    seed_tr.span_end("seed");
    drop(seed_tr);

    let shared = Shared {
        ctx,
        topk: SharedTopK::with_floor(k, control.threshold_floor()),
        in_flight: AtomicI64::new(unrouted.has_seeds() as i64),
        unrouted: SharedQueue::new(unrouted),
        server_queues: server_ids
            .iter()
            .map(|&s| SharedQueue::new(MatchQueue::new(config.queue_policy, Some(s))))
            .collect(),
        done: AtomicBool::new(false),
        work_version: AtomicU64::new(0),
        work_lock: Mutex::new(()),
        work_cv: Condvar::new(),
        offer_partial,
        full_mask,
    };

    let trunc = Truncation::new();
    let workers = config.threads.max(1);
    if shared.in_flight.load(Ordering::Acquire) > 0 {
        std::thread::scope(|scope| {
            for worker_id in 1..workers {
                let (shared, trunc) = (&shared, &trunc);
                scope.spawn(move || {
                    worker_loop(shared, routing, worker_id, workers, control, trunc)
                });
            }
            // The calling thread is worker 0, so `threads` is the
            // number of threads the run uses; whichever worker settles
            // the last match ends the run for all of them.
            worker_loop(&shared, routing, 0, workers, control, &trunc);
        });
    }

    let answers = shared.topk.into_inner().ranked();
    let completeness = trunc.finish(&answers);
    EngineRun {
        answers,
        completeness,
    }
}

/// Drains one match of a stopped run: its bound is recorded and it
/// leaves the system. A spent budget that has not stopped the run yet
/// stops it here, and is counted.
fn drain_stopped(
    shared: &Shared<'_, '_>,
    control: &RunControl,
    trunc: &Truncation,
    m: PartialMatch,
    tr: &mut WorkerTrace,
) {
    if trunc.stop() {
        control.count_stop(&shared.ctx.metrics);
    }
    trunc.account(m.max_final);
    tr.abandoned(&m);
    shared.adjust_in_flight(-1);
}

/// Has the run stopped, or should it (a spent budget)?
fn stopping(shared: &Shared<'_, '_>, control: &RunControl, trunc: &Truncation) -> bool {
    trunc.is_stopped() || control.exhausted(&shared.ctx.metrics)
}

/// Settles a batch and routes what it left alive. The net in-flight
/// change lands in one atomic op *before* the survivors are routed and
/// become visible to other workers, so the count never dips below the
/// true number of live matches (the survivors are part of `net`, so it
/// cannot reach zero while any exist). Routing decisions stay
/// per-match, under one threshold snapshot, and are all taken before
/// any survivor moves, so a panicking decision leaves every survivor in
/// `work.survivors`; queue pushes are one per destination server.
fn settle_and_route(
    shared: &Shared<'_, '_>,
    routing: &RoutingStrategy,
    work: &mut BatchWork,
    tr: &mut WorkerTrace,
) {
    work.settle(shared);
    if work.survivors.is_empty() {
        return;
    }
    let ctx = shared.ctx;
    let threshold = shared.topk.threshold_snapshot();
    work.routes.clear();
    for m in &work.survivors {
        // Whirlpool-M routes as it goes: no router queue waits.
        work.routes
            .push(routing.choose_traced(ctx, m, threshold, 0, tr));
    }
    for (m, server) in work.survivors.drain(..).zip(work.routes.drain(..)) {
        work.groups[server.index() - 1].push(m);
    }
    for (group, queue) in work.groups.iter_mut().zip(&shared.server_queues) {
        if !group.is_empty() {
            queue.push_batch(ctx, group);
        }
    }
    shared.signal_work();
}

/// Per-batch working state. It lives outside the guarded batch so a
/// stopped batch can be accounted: [`abandon_batch`] puts the in-hand
/// match, the unprocessed remainder and the survivors not yet routed
/// into the truncation certificate.
#[derive(Default)]
struct BatchWork {
    /// Drained batch, highest priority last (processed back-to-front).
    local: Vec<PartialMatch>,
    /// Candidate ranges aligned with `local` (batched locate mode).
    locs: Vec<Located>,
    /// Extensions produced by the match currently being processed.
    exts: Vec<PartialMatch>,
    /// Matches the batch left alive, awaiting routing.
    survivors: Vec<PartialMatch>,
    /// The server chosen for each survivor, aligned with `survivors`.
    routes: Vec<QNodeId>,
    /// Routed survivors, one out-group per server queue.
    groups: Vec<Vec<PartialMatch>>,
    /// Net in-flight change accumulated across the batch; applied in
    /// one atomic op at settle time, before the survivors are routed.
    net: i64,
    /// The match whose server op is running right now. Stored here —
    /// not in a loop local — so `abandon_batch` can account it.
    in_hand: Option<PartialMatch>,
}

impl BatchWork {
    /// Applies the accumulated net in-flight change.
    fn settle(&mut self, shared: &Shared<'_, '_>) {
        if self.net != 0 {
            shared.adjust_in_flight(std::mem::take(&mut self.net));
        }
    }
}

/// One scheduler worker: each turn it takes a batch from the queue with
/// the best head, joins it at its server (or, for the unrouted queue,
/// seeds it), routes what survives, and parks on the global work signal
/// when every queue is empty.
fn worker_loop(
    shared: &Shared<'_, '_>,
    routing: &RoutingStrategy,
    worker_id: usize,
    n_workers: usize,
    control: &RunControl,
    trunc: &Truncation,
) {
    let ctx = shared.ctx;
    let server_ids = ctx.server_ids();
    let mut work = BatchWork {
        groups: server_ids.iter().map(|_| Vec::new()).collect(),
        ..BatchWork::default()
    };
    let mut tr = if control.tracing() {
        control.trace_worker(&format!("worker {worker_id}"))
    } else {
        WorkerTrace::disabled()
    };
    tr.span_begin("serve");
    loop {
        // Snapshot the version *before* scanning: any push the scan
        // could miss bumps the version afterwards (Release ordering),
        // so the park at the bottom sees a changed version and rescans
        // instead of sleeping — the scan/park lost-wakeup window is
        // closed by the version, the notify by `work_lock`.
        let version = shared.work_version.load(Ordering::Acquire);
        if let Some(qi) = shared.best_head() {
            // A sibling may have emptied the queue since the peek;
            // then there is nothing to do but look again.
            let server = server_ids.get(qi).copied();
            if let Some(server) = server {
                if !shared.queue(qi).try_pop_batch(DRAIN_BATCH, &mut work.local) {
                    continue;
                }
                // With one worker every queue is home, so
                // `steal_events` is zero by construction in serial
                // runs.
                if qi % n_workers != worker_id {
                    ctx.metrics.add_steal();
                    tr.stolen(server, work.local.len());
                }
            }
            serve_batch(shared, routing, server, &mut work, control, trunc, &mut tr);
            continue;
        }
        if shared.done.load(Ordering::Acquire) {
            break;
        }
        let mut guard = shared.work_lock.lock();
        if !shared.done.load(Ordering::Acquire)
            && shared.work_version.load(Ordering::Acquire) == version
        {
            shared.work_cv.wait(&mut guard);
        }
    }
    tr.span_end("serve");
}

/// Takes the unrouted queue's turn: the next [`DRAIN_BATCH`] root
/// matches, materialised here, counted in flight and offered to the
/// top-k set. Every one then gets a queue pop's budget check and its
/// prune check — in that order, as in Whirlpool-S — and what passes
/// awaits routing in `work.survivors`.
///
/// A stopped run, or a k-th score the source's ceiling cannot beat,
/// drops the source instead, with its roots unseeded (pending under the
/// ceiling when the run stopped).
fn admit_batch(
    shared: &Shared<'_, '_>,
    work: &mut BatchWork,
    control: &RunControl,
    trunc: &Truncation,
    tr: &mut WorkerTrace,
) {
    let ctx = shared.ctx;
    let stopped = stopping(shared, control, trunc);
    {
        let mut source = shared.unrouted.inner.lock();
        if !source.has_seeds() {
            // A sibling seeded the last root since the peek.
            return;
        }
        if stopped || shared.topk.cannot_beat(ctx.seed_ceiling().0) {
            if stopped && trunc.stop() {
                control.count_stop(&ctx.metrics);
            }
            let threshold = shared.topk.threshold_snapshot();
            drop_seed_source(ctx, &mut source, stopped.then_some(trunc), tr, threshold);
        }
        // A seed is spawned and counted in as it is materialised: if
        // the score model panics on a later root, the batch is
        // consistent.
        while source.has_seeds() && work.local.len() < DRAIN_BATCH {
            let m = source.next_seed(ctx).expect("the source has roots left");
            tr.spawned(&m);
            work.net += 1;
            work.local.push(m);
        }
        if !source.has_seeds() {
            // The source's in-flight token leaves with its last root.
            work.net -= 1;
        }
    }
    // The seeds enter the count before any check below can take one
    // out; the token (if it just left) goes in the same op.
    work.settle(shared);
    if !work.local.is_empty() {
        let mut topk = shared.topk.lock();
        for m in &work.local {
            if shared.offer_partial || m.is_complete(shared.full_mask) {
                topk.offer_match(m);
            }
        }
    }
    // Reverse so pop() walks the batch front-first.
    work.local.reverse();
    while let Some(m) = work.local.pop() {
        if stopping(shared, control, trunc) {
            drain_stopped(shared, control, trunc, m, tr);
        } else if m.is_complete(shared.full_mask) {
            // A seed of a single-node pattern: an answer on arrival.
            tr.completed(&m);
            work.net -= 1;
        } else if shared.topk.should_prune(&m) {
            ctx.metrics.add_pruned();
            tr.pruned(&m, shared.topk.threshold_snapshot());
            work.net -= 1;
        } else {
            work.survivors.push(m);
        }
    }
}

/// Serves one batch — drained from `server`'s queue, or the unrouted
/// queue's turn — and routes what survives, all under the run's guard:
/// a failed operation or a panic anywhere in the batch, seeding and
/// routing included, stops the run, and [`abandon_batch`] accounts what
/// the batch still held. The worker keeps running and drains what it
/// pops next, so the run ends instead of hanging or aborting.
fn serve_batch(
    shared: &Shared<'_, '_>,
    routing: &RoutingStrategy,
    server: Option<QNodeId>,
    work: &mut BatchWork,
    control: &RunControl,
    trunc: &Truncation,
    tr: &mut WorkerTrace,
) {
    let served = guarded(&shared.ctx.metrics, trunc, || {
        match server {
            Some(server) => process_batch(shared, server, work, control, trunc, tr)?,
            None => admit_batch(shared, work, control, trunc, tr),
        }
        settle_and_route(shared, routing, work, tr);
        Ok(())
    });
    if served.is_none() {
        abandon_batch(shared, trunc, work, tr);
    }
}

/// Accounts a batch whose work failed. The in-hand match, the
/// unprocessed remainder and the survivors not yet routed enter the
/// truncation certificate and leave the system; extensions of the
/// in-hand match were never admitted (no spawn event, not yet counted
/// in flight), so they are simply dropped. The kills join the batch's
/// net count change, settled here. The seed source and the other
/// queues drain as their matches are popped: the run is stopped.
fn abandon_batch(
    shared: &Shared<'_, '_>,
    trunc: &Truncation,
    work: &mut BatchWork,
    tr: &mut WorkerTrace,
) {
    let held = work.in_hand.take().into_iter();
    for m in held
        .chain(work.local.drain(..))
        .chain(work.survivors.drain(..))
    {
        trunc.account(m.max_final);
        tr.abandoned(&m);
        work.net -= 1;
    }
    work.exts.clear();
    work.locs.clear();
    work.settle(shared);
}

/// Joins one drained batch at `server`. Leaves the batch's survivors in
/// `work.survivors` and its net in-flight change in `work.net` for
/// [`settle_and_route`]; an injected failure is the `Err`.
fn process_batch(
    shared: &Shared<'_, '_>,
    server: QNodeId,
    work: &mut BatchWork,
    control: &RunControl,
    trunc: &Truncation,
    tr: &mut WorkerTrace,
) -> Result<(), EngineError> {
    let ctx = shared.ctx;
    if tr.enabled() {
        tr.queue_depth(QueueId::Server(server), shared.server_queue(server).len());
    }
    // Process the drained batch highest-priority first (the drain
    // preserved heap order; reverse so pop() walks it front-first).
    work.local.reverse();
    // One document-order locate sweep resolves every drained match's
    // candidate range before any is evaluated; `locs` stays aligned
    // with `local` and the two are popped in lockstep.
    let roots: Vec<_> = work.local.iter().map(|m| m.root()).collect();
    ctx.locate_batch_at_server(server, &roots, &mut work.locs);
    while let Some(m) = work.local.pop() {
        let loc = work.locs.pop().expect("locs stays aligned with local");
        if stopping(shared, control, trunc) {
            drain_stopped(shared, control, trunc, m, tr);
            continue;
        }
        if shared.topk.should_prune(&m) {
            // Conservative lock-free check: the snapshot only
            // condemns matches the live threshold also would.
            ctx.metrics.add_pruned();
            tr.pruned(&m, shared.topk.threshold_snapshot());
            work.net -= 1;
            continue;
        }

        work.exts.clear();
        let t0 = tr.op_start();
        // The match lives in the batch state while the join runs so a
        // stopped batch can still account it.
        let m = work.in_hand.insert(m);
        process_located(ctx, control, trunc, server, m, loc, &mut work.exts)?;
        tr.server_op(server, m.seq, work.exts.len(), t0);
        work.in_hand = None;
        work.net -= 1;

        // The k-th score snapshot decides, without the lock, whether
        // any extension's offer could change the top-k set; the lock is
        // taken only when one could. Without it every offer is provably
        // a no-op on the live set (see SharedTopK), so the extensions
        // are pruned against the snapshot, which is conservative.
        let offers_needed = work.exts.iter().any(|e| {
            (shared.offer_partial || e.is_complete(shared.full_mask))
                && !shared.topk.offer_is_noop(e.score)
        });
        let mut live = offers_needed.then(|| shared.topk.lock());
        for e in work.exts.drain(..) {
            tr.spawned(&e);
            let complete = e.is_complete(shared.full_mask);
            if let Some(topk) = live.as_mut() {
                if shared.offer_partial || complete {
                    topk.offer_match(&e);
                }
            }
            if complete {
                tr.completed(&e);
                continue;
            }
            let prune = match &live {
                Some(topk) => topk.should_prune(&e),
                None => shared.topk.should_prune(&e),
            };
            if prune {
                ctx.metrics.add_pruned();
                let threshold = match &live {
                    Some(topk) => topk.threshold(),
                    None => shared.topk.threshold_snapshot(),
                };
                tr.pruned(&e, threshold);
                continue;
            }
            work.net += 1;
            work.survivors.push(e);
        }
        // Only the live threshold is sampled: the snapshot is stale by
        // construction, and a stale value timestamped now would break
        // the merged stream's monotonicity.
        if let Some(topk) = &live {
            if tr.enabled() {
                tr.threshold(topk.threshold());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextOptions;
    use crate::lockstep::run_lockstep_noprune_anytime;
    use crate::topk::RankedAnswer;
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

    const FULL_QUERY: &str = "//book[./title and ./isbn and ./price]";

    fn harness(query: &str, relax: RelaxMode, f: impl FnOnce(&QueryContext<'_>, usize)) {
        let doc = parse_document(SRC).unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern(query).unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let ctx = QueryContext::new(&doc, &index, &pattern, &model, ContextOptions { relax });
        f(&ctx, pattern.server_ids().count());
    }

    /// A shelf of `n` identical books, each reaching the score ceiling
    /// of `FULL_QUERY`, evaluated for the top 1 under a tracer.
    fn traced_shelf_run(
        n: usize,
        budget: crate::fault::Budget,
        threads: usize,
    ) -> (EngineRun, crate::trace::TraceSummary) {
        let book = "<book><title>t</title><isbn>1</isbn><price>9</price></book>";
        let doc = parse_document(&format!("<shelf>{}</shelf>", book.repeat(n))).unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern(FULL_QUERY).unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let ctx = QueryContext::new(&doc, &index, &pattern, &model, ContextOptions::default());
        let tracer = crate::trace::Tracer::new();
        let control = RunControl::new(budget, None, pattern.len()).with_tracer(tracer.clone());
        let config = WhirlpoolMConfig {
            threads,
            ..WhirlpoolMConfig::default()
        };
        let run = run_whirlpool_m_anytime(&ctx, &RoutingStrategy::MinAlive, 1, &config, &control);
        (run, tracer.finish().summary())
    }

    #[test]
    fn prunable_unrouted_head_drops_the_rest_in_one_step() {
        let roots = 10 * DRAIN_BATCH;
        let (run, trace) = traced_shelf_run(roots, crate::fault::Budget::unlimited(), 1);
        assert!(run.completeness.is_exact());
        assert_eq!(run.answers.len(), 1);
        assert!(trace.balanced(), "{trace:?}");
        // One answer at the ceiling makes the seed source prunable:
        // only the first batch of roots ever existed (routed at most
        // once per server), and the other nine were dropped unseeded.
        assert!(trace.spawned <= 4 * DRAIN_BATCH as u64, "{trace:?}");
        assert!(trace.routed <= 3 * DRAIN_BATCH as u64, "{trace:?}");
        assert_eq!(trace.roots_unseeded, (roots - DRAIN_BATCH) as u64);
        assert_eq!(trace.abandoned, 0);
    }

    #[test]
    fn pre_expired_op_budget_accounts_every_seed() {
        let roots = 3 * DRAIN_BATCH;
        for threads in [1, 2] {
            let spent = crate::fault::Budget::new(None, Some(0));
            let (run, trace) = traced_shelf_run(roots, spent, threads);
            match run.completeness {
                crate::Completeness::Truncated {
                    pending_matches, ..
                } => assert_eq!(pending_matches, roots as u64, "threads={threads}"),
                other => panic!("threads={threads}: expected truncation, got {other:?}"),
            }
            // The budget is checked before the source is consulted: no
            // root was materialised only to be abandoned.
            assert!(trace.balanced(), "{trace:?}");
            assert_eq!(trace.roots_unseeded, roots as u64);
            assert_eq!(
                (trace.spawned, trace.consumed, trace.pruned, trace.routed),
                (0, 0, 0, 0)
            );
        }
    }

    /// Panics once `after` server (non-root) contribution calls have
    /// been made.
    struct PanicAfter<'m> {
        inner: &'m TfIdfModel,
        calls: AtomicU64,
        after: u64,
    }

    impl whirlpool_score::ScoreModel for PanicAfter<'_> {
        fn contribution(
            &self,
            server: QNodeId,
            node: whirlpool_xml::NodeId,
            level: whirlpool_score::MatchLevel,
        ) -> f64 {
            if server != QNodeId::ROOT && self.calls.fetch_add(1, Ordering::Relaxed) >= self.after {
                panic!("injected score-model panic");
            }
            self.inner.contribution(server, node, level)
        }

        fn max_contribution(&self, server: QNodeId) -> f64 {
            self.inner.max_contribution(server)
        }
    }

    #[test]
    fn a_panic_at_any_operation_still_ends_the_run_at_two_threads() {
        // A score-model panic, caught by `serve_batch`'s guard.
        // Wherever it lands, `abandon_batch` must leave
        // the in-flight count exact — one match too many and the two
        // workers park forever, one too few and the run ends with
        // matches still queued.
        let doc = parse_document(SRC).unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern(FULL_QUERY).unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let run = |after: u64, threads: usize| {
            let panicking = PanicAfter {
                inner: &model,
                calls: AtomicU64::new(0),
                after,
            };
            let ctx = QueryContext::new(
                &doc,
                &index,
                &pattern,
                &panicking,
                ContextOptions::default(),
            );
            let config = WhirlpoolMConfig {
                threads,
                ..WhirlpoolMConfig::default()
            };
            let control = RunControl::unlimited();
            let run =
                run_whirlpool_m_anytime(&ctx, &RoutingStrategy::MinAlive, 6, &config, &control);
            (run, panicking.calls.load(Ordering::Relaxed))
        };
        let (clean, total) = run(u64::MAX, 1);
        assert!(clean.completeness.is_exact());
        assert!(total > 8, "workload too small: {total} calls");
        for after in 0..total {
            let (r, calls) = run(after, 2);
            // The run came back at all; and it is certified truncated
            // exactly when the panic fired.
            assert_eq!(r.completeness.is_exact(), calls <= after, "after={after}");
        }
    }

    #[test]
    fn agrees_with_reference_for_all_k() {
        let query = "//book[./title and ./isbn and ./price]";
        for k in [1, 3, 6] {
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
            harness(query, RelaxMode::Relaxed, |ctx, _| {
                let got = run_whirlpool_m_anytime(
                    ctx,
                    &RoutingStrategy::MinAlive,
                    k,
                    &WhirlpoolMConfig::default(),
                    &RunControl::unlimited(),
                )
                .answers;
                let gs: Vec<_> = got.iter().map(|r| (r.root, r.score)).collect();
                let rs: Vec<_> = reference.iter().map(|r| (r.root, r.score)).collect();
                assert_eq!(gs, rs, "k={k}");
            });
        }
    }

    #[test]
    fn processor_limit_does_not_change_answers() {
        // `processors` caps the pool size, so it is addressed through
        // the engine entry point that applies the cap.
        use crate::engine::{evaluate_with_context, Algorithm, EvalOptions};
        let query = "//book[./title and ./isbn and ./price]";
        let mut reference = Vec::new();
        harness(query, RelaxMode::Relaxed, |ctx, servers| {
            reference = run_lockstep_noprune_anytime(
                ctx,
                &StaticPlan::in_id_order(servers),
                3,
                &RunControl::unlimited(),
            )
            .answers;
        });
        for procs in [1, 2, 4] {
            for threads in [1usize, 4] {
                harness(query, RelaxMode::Relaxed, |ctx, _| {
                    let got = evaluate_with_context(
                        ctx,
                        &Algorithm::WhirlpoolM {
                            processors: Some(procs),
                        },
                        &EvalOptions {
                            threads,
                            ..EvalOptions::top_k(3)
                        },
                    );
                    assert!(
                        crate::topk::answers_equivalent(&got.answers, &reference, 1e-9),
                        "procs={procs} threads={threads}"
                    );
                    if procs == 1 {
                        // One worker homes every queue: nothing to steal.
                        assert_eq!(got.metrics.steal_events, 0, "threads={threads}");
                    }
                });
            }
        }
    }

    #[test]
    fn exact_mode_terminates_and_agrees() {
        let query = "//book[./title and ./isbn]";
        let mut reference = Vec::new();
        harness(query, RelaxMode::Exact, |ctx, servers| {
            reference = run_lockstep_noprune_anytime(
                ctx,
                &StaticPlan::in_id_order(servers),
                10,
                &RunControl::unlimited(),
            )
            .answers;
        });
        harness(query, RelaxMode::Exact, |ctx, _| {
            let got = run_whirlpool_m_anytime(
                ctx,
                &RoutingStrategy::MinAlive,
                10,
                &WhirlpoolMConfig::default(),
                &RunControl::unlimited(),
            )
            .answers;
            let gs: Vec<_> = got.iter().map(|r| (r.root, r.score)).collect();
            let rs: Vec<_> = reference.iter().map(|r| (r.root, r.score)).collect();
            assert_eq!(gs, rs);
        });
    }

    #[test]
    fn extra_workers_do_not_change_answers() {
        let query = "//book[./title and ./isbn and ./price]";
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
        // Worker counts below, at, and above the number of server
        // queues: above, the surplus workers have no home queues and
        // live entirely off stealing.
        for threads in [2usize, 4, 8] {
            harness(query, RelaxMode::Relaxed, |ctx, _| {
                let got = run_whirlpool_m_anytime(
                    ctx,
                    &RoutingStrategy::MinAlive,
                    4,
                    &WhirlpoolMConfig {
                        threads,
                        ..WhirlpoolMConfig::default()
                    },
                    &RunControl::unlimited(),
                )
                .answers;
                assert!(
                    crate::topk::answers_equivalent(&got, &reference, 1e-9),
                    "threads={threads}"
                );
            });
        }
    }

    #[test]
    fn empty_root_set_returns_immediately() {
        harness("//nosuchroot[./title]", RelaxMode::Relaxed, |ctx, _| {
            let got = run_whirlpool_m_anytime(
                ctx,
                &RoutingStrategy::MinAlive,
                5,
                &WhirlpoolMConfig::default(),
                &RunControl::unlimited(),
            )
            .answers;
            assert!(got.is_empty());
        });
    }

    #[test]
    fn shutdown_handshake_survives_many_iterations() {
        // Regression test for a lost-wakeup deadlock: `signal_work`
        // must take `work_lock` before notifying, or a worker that
        // checked `done == false` but had not yet parked sleeps
        // forever. The window is narrow — hammer the full
        // start/evaluate/terminate cycle, with a second worker to park.
        let doc = parse_document(SRC).unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern("//book[./title and ./isbn]").unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        for i in 0..300 {
            let ctx = QueryContext::new(&doc, &index, &pattern, &model, ContextOptions::default());
            let got = run_whirlpool_m_anytime(
                &ctx,
                &RoutingStrategy::MinAlive,
                3,
                &WhirlpoolMConfig {
                    threads: 2,
                    ..WhirlpoolMConfig::default()
                },
                &RunControl::unlimited(),
            )
            .answers;
            assert!(!got.is_empty(), "iteration {i}");
        }
    }

    #[test]
    fn repeated_runs_are_consistent() {
        // The thread interleaving varies; the answers must not, up to
        // which of the three books tied at the k-th score is returned.
        let query = "//book[./title and ./price]";
        let mut first: Option<Vec<RankedAnswer>> = None;
        for _ in 0..10 {
            harness(query, RelaxMode::Relaxed, |ctx, _| {
                let got = run_whirlpool_m_anytime(
                    ctx,
                    &RoutingStrategy::MinAlive,
                    3,
                    &WhirlpoolMConfig::default(),
                    &RunControl::unlimited(),
                )
                .answers;
                match &first {
                    None => first = Some(got),
                    Some(f) => assert!(
                        crate::topk::answers_equivalent(&got, f, 1e-9),
                        "{got:?} vs {f:?}"
                    ),
                }
            });
        }
    }
}
