//! Whirlpool-M: the multi-threaded adaptive engine, scheduled by a
//! work-stealing worker pool.
//!
//! The paper assigns "each server ... an individual thread" (§6.1.2),
//! which caps parallelism at the number of query nodes and leaves
//! threads idle whenever routing skews load toward one server. Here
//! the per-server priority queues stay (they carry the paper's
//! prioritization semantics), but they are *served* by a pool of N
//! workers (N = `threads`, independent of query size): every server
//! queue has a home worker (`queue index mod N`), each worker drains
//! its home queues round-robin in [`DRAIN_BATCH`]-sized batches, and a
//! worker whose home queues are dry *steals* one whole batch from the
//! most-loaded foreign queue. Batches pop in heap order, so per-server
//! priority order is preserved within every batch, stolen or not. A
//! dedicated router thread assigns survivors their next server; the
//! top-k set is shared.
//!
//! Termination: a global in-flight counter tracks matches in queues or
//! being processed; it reaches zero exactly when "there are no more
//! partial matches in any of the server queues, the router queue, or
//! being compared against the top-k set" (§5.1). Each worker settles
//! its batch's net count change in one atomic op *before* publishing
//! the batch's survivors, so the count never undercounts live matches
//! — the settling protocol is per-batch, not per-queue, and therefore
//! unaffected by which worker drained the batch.
//!
//! Fault tolerance: a server whose injected fault fires (or that
//! panics) is isolated — the worker processing it marks it dead,
//! closes its queue, and rescues the queued matches; the router stops
//! routing to it and finishes stranded matches through degradation
//! (relaxed mode binds the dead server to the outer-join null, scoring
//! the predicate as the leaf-deletion relaxation). The worker itself
//! does *not* retire: it moves on to its other queues. A panic that
//! escapes the fault layer entirely (no fault plan — e.g. a panicking
//! score model) is caught at batch granularity: the in-hand match and
//! the rest of the batch are accounted into the truncation certificate
//! and the worker continues, so the run still terminates with a valid
//! anytime bound. Every rescued match either re-enters the router
//! queue (count unchanged) or leaves the system (count decremented).

use crate::context::{Located, QueryContext, RelaxMode};
use crate::fault::{guarded_process_located, EngineRun, RunControl, Truncation};
use crate::partial::PartialMatch;
use crate::pool::{MatchPool, PoolHub};
use crate::queue::{MatchQueue, QueuePolicy};
use crate::router::RoutingStrategy;
use crate::topk::{RankedAnswer, SharedTopK};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use whirlpool_pattern::QNodeId;

/// Matches a worker moves per queue-lock acquisition: servers drain up
/// to this many waiting matches in one pop, the router drains up to
/// this many survivors in one pop and hands each server its routed
/// group in one push. Batching cuts lock traffic ~`DRAIN_BATCH`× at
/// the price of slightly staler priority order *within* a batch (a
/// higher-priority arrival cannot preempt matches already drained).
const DRAIN_BATCH: usize = 32;

/// Configuration for [`run_whirlpool_m`].
#[derive(Debug, Clone)]
pub struct WhirlpoolMConfig {
    /// Per-server queue prioritization (the paper settled on
    /// [`QueuePolicy::MaxFinalScore`]).
    pub queue_policy: QueuePolicy,
    /// Total worker threads in the scheduler pool, independent of query
    /// size. Server queues are assigned home workers round-robin and
    /// idle workers steal whole batches from loaded foreign queues;
    /// `1` serializes every server operation onto one worker (plus the
    /// router thread), larger values realize the paper's future-work
    /// proposal of "maximal parallelism" (§7) without one thread per
    /// server.
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

/// A match queue plus its closed flag, guarded by one lock so that
/// "push to a live queue" and "close and rescue everything queued" are
/// atomic with respect to each other.
struct QueueState {
    queue: MatchQueue,
    closed: bool,
}

/// A lock+condvar guarded match queue shared between producer and
/// consumer threads.
struct SharedQueue {
    inner: Mutex<QueueState>,
    cv: Condvar,
}

impl SharedQueue {
    fn new(policy: QueuePolicy, server: Option<QNodeId>) -> Self {
        SharedQueue {
            inner: Mutex::new(QueueState {
                queue: MatchQueue::new(policy, server),
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Pushes `m` unless the queue has been closed; a closed queue
    /// hands the match back so the caller can re-route it.
    fn push(&self, ctx: &QueryContext<'_>, m: PartialMatch) -> Result<(), PartialMatch> {
        {
            let mut guard = self.inner.lock();
            if guard.closed {
                return Err(m);
            }
            guard.queue.push(ctx, m);
        }
        self.cv.notify_one();
        Ok(())
    }

    /// Pushes a whole batch under one lock acquisition, draining
    /// `batch`. A closed queue leaves `batch` untouched and returns
    /// `false` so the caller can re-route every match in it.
    fn push_batch(&self, ctx: &QueryContext<'_>, batch: &mut Vec<PartialMatch>) -> bool {
        if batch.is_empty() {
            return true;
        }
        let many = batch.len() > 1;
        {
            let mut guard = self.inner.lock();
            if guard.closed {
                return false;
            }
            for m in batch.drain(..) {
                guard.queue.push(ctx, m);
            }
        }
        // One wake per batch; notify_all only when there is work for
        // more than one sibling worker.
        if many {
            self.cv.notify_all();
        } else {
            self.cv.notify_one();
        }
        true
    }

    /// Blocks until at least one match is available, then drains up to
    /// `max` of them into `out` — all under the single lock
    /// acquisition. Returns `false` (with `out` untouched) once the
    /// queue is closed or `done` is set with nothing left to drain.
    fn pop_wait_batch(&self, done: &AtomicBool, max: usize, out: &mut Vec<PartialMatch>) -> bool {
        let mut guard = self.inner.lock();
        loop {
            if !guard.queue.is_empty() {
                while out.len() < max {
                    match guard.queue.pop() {
                        Some(m) => out.push(m),
                        None => break,
                    }
                }
                return true;
            }
            if guard.closed || done.load(Ordering::Acquire) {
                return false;
            }
            self.cv.wait(&mut guard);
        }
    }

    /// Drains up to `max` matches into `out` without blocking — the
    /// worker-pool drain/steal primitive. Returns `true` when at least
    /// one match was moved; an empty or closed queue returns `false`
    /// immediately. Popping preserves heap order, so the batch carries
    /// the queue's priority order with it wherever it is processed.
    fn try_pop_batch(&self, max: usize, out: &mut Vec<PartialMatch>) -> bool {
        let mut guard = self.inner.lock();
        if guard.closed || guard.queue.is_empty() {
            return false;
        }
        while out.len() < max {
            match guard.queue.pop() {
                Some(m) => out.push(m),
                None => break,
            }
        }
        !out.is_empty()
    }

    /// Closes the queue and removes everything still in it, in one lock
    /// acquisition: any push that loses the race gets its match back
    /// (`push` returns `Err`) and re-routes, so no match is stranded in
    /// a closed queue. Notifying after the drop is safe here — unlike
    /// the `done` flag, `closed` is set under the queue lock itself, so
    /// a waiter that saw `closed == false` was parked before we took
    /// the lock and receives the notification.
    fn close_and_drain(&self) -> Vec<PartialMatch> {
        let mut rescued = Vec::new();
        {
            let mut guard = self.inner.lock();
            guard.closed = true;
            while let Some(m) = guard.queue.pop() {
                rescued.push(m);
            }
        }
        self.cv.notify_all();
        rescued
    }

    /// Current queue depth (takes the lock; used only by the tracing
    /// layer when it samples queue depths).
    fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Wakes every waiter. Must acquire the queue lock first: a waiter
    /// that has checked the `done` flag (false) but not yet parked holds
    /// the lock, and notifying without it would be a *lost wakeup* —
    /// the notification fires before the wait begins and the thread
    /// sleeps forever. Taking the lock orders this notify after that
    /// waiter's `wait()`, which re-checks `done` on wake.
    fn wake_all(&self) {
        let _guard = self.inner.lock();
        self.cv.notify_all();
    }
}

struct Shared<'c, 'a> {
    ctx: &'c QueryContext<'a>,
    /// Top-k set behind a lock-free threshold snapshot: the hot prune
    /// paths read the snapshot (one relaxed load) and take the lock
    /// only for offers that could actually change the set.
    topk: SharedTopK,
    /// Reservoir rebalancing binding buffers between the per-worker
    /// pool shards in whole blocks.
    pool_hub: PoolHub,
    router_queue: SharedQueue,
    server_queues: Vec<SharedQueue>,
    /// Matches alive in the system (queued or being processed).
    in_flight: AtomicI64,
    done: AtomicBool,
    done_cv: Condvar,
    done_lock: Mutex<()>,
    /// Bumped after every push that makes server-queue work visible
    /// (and on termination). Workers snapshot it before scanning their
    /// queues and re-check it under `work_lock` before parking, which
    /// closes the scan/park lost-wakeup window.
    work_version: AtomicU64,
    work_lock: Mutex<()>,
    work_cv: Condvar,
    offer_partial: bool,
    full_mask: u64,
}

impl Shared<'_, '_> {
    /// Applies a net change to the in-flight count; the caller must have
    /// already pushed any children it created. Signals completion when
    /// the count reaches zero.
    fn adjust_in_flight(&self, delta: i64) {
        let now = self.in_flight.fetch_add(delta, Ordering::AcqRel) + delta;
        debug_assert!(now >= 0, "in-flight count went negative");
        if now == 0 {
            self.done.store(true, Ordering::Release);
            self.router_queue.wake_all();
            self.signal_work();
            let _g = self.done_lock.lock();
            self.done_cv.notify_all();
        }
    }

    /// Publishes new server-queue work (or termination) to the worker
    /// pool. The version bump is `Release`, so a worker whose `Acquire`
    /// snapshot observes it also observes the push that preceded it;
    /// the notify takes `work_lock` first, which orders it after any
    /// in-progress park decision (the same lost-wakeup argument as
    /// [`SharedQueue::wake_all`]).
    fn signal_work(&self) {
        self.work_version.fetch_add(1, Ordering::Release);
        let _g = self.work_lock.lock();
        self.work_cv.notify_all();
    }

    fn server_queue(&self, server: QNodeId) -> &SharedQueue {
        &self.server_queues[server.index() - 1]
    }
}

/// Runs Whirlpool-M: a pool of [`WhirlpoolMConfig::threads`] workers
/// serving every server queue (with batch stealing), one router
/// thread, and the calling thread acting as the paper's "main thread
/// \[that\] checks for termination".
pub fn run_whirlpool_m(
    ctx: &QueryContext<'_>,
    routing: &RoutingStrategy,
    k: usize,
    config: &WhirlpoolMConfig,
) -> Vec<RankedAnswer> {
    run_whirlpool_m_anytime(ctx, routing, k, config, &RunControl::unlimited()).answers
}

/// Whirlpool-M under a [`RunControl`]: deadlines and op budgets turn
/// every consumer into a draining one (each abandoned match's score
/// bound is recorded before the run returns its anytime prefix), and a
/// server killed by an injected fault or panic is isolated without
/// aborting or hanging the run — its queued matches are redistributed
/// to the survivors or completed through degradation.
pub fn run_whirlpool_m_anytime(
    ctx: &QueryContext<'_>,
    routing: &RoutingStrategy,
    k: usize,
    config: &WhirlpoolMConfig,
    control: &RunControl,
) -> EngineRun {
    let server_ids = ctx.server_ids();
    let offer_partial = ctx.relax == RelaxMode::Relaxed;
    let full_mask = ctx.full_mask();

    let shared = Shared {
        ctx,
        topk: SharedTopK::with_floor(k, control.threshold_floor()),
        pool_hub: PoolHub::new(),
        router_queue: SharedQueue::new(QueuePolicy::MaxFinalScore, None),
        server_queues: server_ids
            .iter()
            .map(|&s| SharedQueue::new(config.queue_policy, Some(s)))
            .collect(),
        in_flight: AtomicI64::new(0),
        done: AtomicBool::new(false),
        done_cv: Condvar::new(),
        done_lock: Mutex::new(()),
        work_version: AtomicU64::new(0),
        work_lock: Mutex::new(()),
        work_cv: Condvar::new(),
        offer_partial,
        full_mask,
    };

    // Seed the router queue with the root server's output.
    let mut seed_tr = control.trace_worker("main");
    seed_tr.span_begin("seed");
    let mut seeds = Vec::new();
    {
        let mut topk = shared.topk.lock();
        for m in ctx.make_root_matches() {
            seed_tr.spawned(&m);
            let complete = m.is_complete(full_mask);
            if offer_partial || complete {
                topk.offer_match(&m);
            }
            if complete {
                seed_tr.completed(&m);
            } else {
                seeds.push(m);
            }
        }
    }
    let seeded = seeds.len() as i64;
    push_batch_to_router(&shared, &mut seeds);
    seed_tr.span_end("seed");
    drop(seed_tr);
    if seeded == 0 {
        return EngineRun::exact(shared.topk.into_inner().ranked());
    }
    shared.in_flight.store(seeded, Ordering::Release);

    let trunc = Truncation::new();
    let workers = config.threads.max(1);
    std::thread::scope(|scope| {
        // Router thread.
        {
            let (shared, trunc) = (&shared, &trunc);
            scope.spawn(move || router_loop(shared, routing, control, trunc));
        }
        // Worker pool: N workers serve all the server queues between
        // them, N independent of the query size.
        for worker_id in 0..workers {
            let (shared, trunc) = (&shared, &trunc);
            scope.spawn(move || worker_loop(shared, worker_id, workers, control, trunc));
        }
        // Main thread: wait for termination.
        let mut guard = shared.done_lock.lock();
        while !shared.done.load(Ordering::Acquire) {
            shared.done_cv.wait(&mut guard);
        }
    });

    let answers = shared.topk.into_inner().ranked();
    let completeness = trunc.finish(&answers);
    EngineRun {
        answers,
        completeness,
    }
}

/// Pushes a batch to the router queue (one lock acquisition), which is
/// never closed.
fn push_batch_to_router(shared: &Shared<'_, '_>, batch: &mut Vec<PartialMatch>) {
    if !shared.router_queue.push_batch(shared.ctx, batch) {
        unreachable!("the router queue is never closed");
    }
}

/// Drains one match on budget expiry: its bound is recorded and it
/// leaves the system.
fn drain_expired(
    shared: &Shared<'_, '_>,
    control: &RunControl,
    trunc: &Truncation,
    m: PartialMatch,
    pool: &mut crate::pool::MatchPool<'_>,
    tr: &mut crate::trace::WorkerTrace,
) {
    if trunc.expire() {
        control.count_stop(&shared.ctx.metrics);
    }
    trunc.account(m.max_final);
    tr.abandoned(&m);
    pool.release(m);
    shared.adjust_in_flight(-1);
}

fn router_loop(
    shared: &Shared<'_, '_>,
    routing: &RoutingStrategy,
    control: &RunControl,
    trunc: &Truncation,
) {
    let ctx = shared.ctx;
    // The router only needs a pool on the degraded paths; it is idle
    // (and allocates nothing) in fault-free runs.
    let mut pool = ctx.new_pool_shared(&shared.pool_hub);
    let mut tr = control.trace_worker("router");
    tr.span_begin("route");
    let mut batch = Vec::new();
    // One out-queue per server: decisions stay per-match, queue pushes
    // are per (batch × server).
    let mut groups: Vec<Vec<PartialMatch>> =
        shared.server_queues.iter().map(|_| Vec::new()).collect();
    while shared
        .router_queue
        .pop_wait_batch(&shared.done, DRAIN_BATCH, &mut batch)
    {
        let threshold = shared.topk.threshold_snapshot();
        let queue_len = if tr.enabled() {
            let len = shared.router_queue.len();
            tr.queue_depth(crate::trace::QueueId::Router, len);
            len
        } else {
            0
        };
        for m in batch.drain(..) {
            if trunc.is_expired() || control.exhausted(&ctx.metrics) {
                drain_expired(shared, control, trunc, m, &mut pool, &mut tr);
                continue;
            }
            let candidates = if tr.enabled() {
                routing.explain(ctx, &m, threshold, |s| !control.is_dead(s))
            } else {
                Vec::new()
            };
            let choice = routing.try_choose(ctx, &m, threshold, |s| !control.is_dead(s));
            if tr.enabled() {
                tr.routed(crate::trace::RouteExplain {
                    seq: m.seq,
                    strategy: routing.name(),
                    threshold: threshold.value(),
                    queue_len,
                    chosen: choice,
                    candidates,
                });
            }
            match choice {
                Some(server) => groups[server.index() - 1].push(m),
                // Every remaining server for this match is dead.
                None => finish_unroutable(shared, trunc, m, &mut pool, &mut tr),
            }
        }
        let mut pushed = false;
        for (i, group) in groups.iter_mut().enumerate() {
            if group.is_empty() {
                continue;
            }
            if shared.server_queues[i].push_batch(ctx, group) {
                pushed = true;
            } else {
                // The queue closed between the aliveness check and the
                // push (its server just died): re-route each match
                // among the survivors.
                for m in group.drain(..) {
                    ctx.metrics.add_match_redistributed();
                    reroute(shared, routing, control, trunc, m, &mut pool, &mut tr);
                }
            }
        }
        if pushed {
            shared.signal_work();
        }
    }
    tr.span_end("route");
}

/// Re-routes one match that lost a race with a closing queue,
/// re-choosing among the surviving servers until a push lands or no
/// server remains.
fn reroute(
    shared: &Shared<'_, '_>,
    routing: &RoutingStrategy,
    control: &RunControl,
    trunc: &Truncation,
    mut m: PartialMatch,
    pool: &mut crate::pool::MatchPool<'_>,
    tr: &mut crate::trace::WorkerTrace,
) {
    let ctx = shared.ctx;
    loop {
        let threshold = shared.topk.threshold_snapshot();
        let candidates = if tr.enabled() {
            routing.explain(ctx, &m, threshold, |s| !control.is_dead(s))
        } else {
            Vec::new()
        };
        let choice = routing.try_choose(ctx, &m, threshold, |s| !control.is_dead(s));
        if tr.enabled() {
            tr.routed(crate::trace::RouteExplain {
                seq: m.seq,
                strategy: routing.name(),
                threshold: threshold.value(),
                queue_len: shared.router_queue.len(),
                chosen: choice,
                candidates,
            });
        }
        let Some(server) = choice else {
            finish_unroutable(shared, trunc, m, pool, tr);
            return;
        };
        match shared.server_queue(server).push(ctx, m) {
            Ok(()) => {
                shared.signal_work();
                return;
            }
            Err(back) => {
                ctx.metrics.add_match_redistributed();
                m = back;
            }
        }
    }
}

/// Completes a match none of whose remaining servers is alive: relaxed
/// mode degrades it to completion and offers it; exact mode can only
/// drop it. Either way its bound is recorded and it leaves the system.
fn finish_unroutable(
    shared: &Shared<'_, '_>,
    trunc: &Truncation,
    m: PartialMatch,
    pool: &mut crate::pool::MatchPool<'_>,
    tr: &mut crate::trace::WorkerTrace,
) {
    let ctx = shared.ctx;
    trunc.account(m.max_final);
    tr.abandoned(&m);
    if shared.offer_partial {
        ctx.metrics.add_match_redistributed();
        let done = crate::fault::degrade_to_completion(ctx, m, pool);
        tr.spawned(&done);
        shared.topk.lock().offer_match(&done);
        tr.completed(&done);
        ctx.metrics.add_answer_degraded();
        pool.release(done);
    } else {
        pool.release(m);
    }
    shared.adjust_in_flight(-1);
}

/// Rescues one match that reached dead `server`: relaxed mode degrades
/// it past the server and sends it back to the router (unless it is
/// now complete or prunable); exact mode drops it with its bound
/// recorded.
fn handle_dead_server_match(
    shared: &Shared<'_, '_>,
    trunc: &Truncation,
    server: QNodeId,
    m: PartialMatch,
    pool: &mut crate::pool::MatchPool<'_>,
    tr: &mut crate::trace::WorkerTrace,
) {
    let ctx = shared.ctx;
    trunc.account(m.max_final);
    tr.abandoned(&m);
    if !shared.offer_partial {
        pool.release(m);
        shared.adjust_in_flight(-1);
        return;
    }
    let e = ctx.degrade_at_server(server, &m, pool);
    ctx.metrics.add_match_redistributed();
    pool.release(m);
    tr.spawned(&e);
    let complete = e.is_complete(shared.full_mask);
    let (keep, threshold) = {
        let mut topk = shared.topk.lock();
        topk.offer_match(&e);
        let keep = if complete {
            false
        } else if topk.should_prune(&e) {
            ctx.metrics.add_pruned();
            false
        } else {
            true
        };
        (keep, topk.threshold())
    };
    if keep {
        // The rescued match stays in flight: net count change is zero.
        if shared.router_queue.push(ctx, e).is_err() {
            unreachable!("the router queue is never closed");
        }
    } else {
        if complete {
            ctx.metrics.add_answer_degraded();
            tr.completed(&e);
        } else {
            tr.pruned(&e, threshold);
        }
        pool.release(e);
        shared.adjust_in_flight(-1);
    }
}

/// Per-batch working state. It lives outside the batch loop so a panic
/// that escapes the fault layer can be settled at batch granularity:
/// [`abandon_batch`] accounts the in-hand match and the unprocessed
/// remainder into the truncation certificate and still publishes the
/// survivors the batch had already produced.
#[derive(Default)]
struct BatchWork {
    /// Drained batch, highest priority last (processed back-to-front).
    local: Vec<PartialMatch>,
    /// Candidate ranges aligned with `local` (batched locate mode).
    locs: Vec<Located>,
    /// Extensions produced by the match currently being processed.
    exts: Vec<PartialMatch>,
    /// Extensions that survived pruning, awaiting the router.
    survivors: Vec<PartialMatch>,
    /// Net in-flight change accumulated across the batch; applied in
    /// one atomic op at settle time, before the survivors are pushed.
    net: i64,
    /// The match whose server op is running right now. Stored here —
    /// not in a loop local — so `abandon_batch` can account it.
    in_hand: Option<PartialMatch>,
}

/// One scheduler worker: drains its home queues (indices congruent to
/// `worker_id` mod `n_workers`) round-robin one batch at a time, steals
/// a whole batch from the most-loaded foreign queue when every home
/// queue is dry, and parks on the global work signal when there is
/// nothing to do anywhere.
fn worker_loop(
    shared: &Shared<'_, '_>,
    worker_id: usize,
    n_workers: usize,
    control: &RunControl,
    trunc: &Truncation,
) {
    let ctx = shared.ctx;
    // One pool shard per worker thread: per-match recycling needs no
    // synchronization; whole blocks of buffers rebalance through the
    // shared hub when a shard runs dry or overflows.
    let mut pool = ctx.new_pool_shared(&shared.pool_hub);
    let server_ids = ctx.server_ids();
    let n_servers = shared.server_queues.len();
    let mut work = BatchWork::default();
    let mut tr = if control.tracing() {
        control.trace_worker(&format!("worker {worker_id}"))
    } else {
        crate::trace::WorkerTrace::disabled()
    };
    tr.span_begin("serve");
    loop {
        // Snapshot the version *before* scanning: any push the scan
        // could miss bumps the version afterwards (Release ordering),
        // so the park at the bottom sees a changed version and rescans
        // instead of sleeping — the scan/park lost-wakeup window is
        // closed by the version, the notify by `work_lock`.
        let version = shared.work_version.load(Ordering::Acquire);
        let mut found = false;
        // Home queues first, one batch each per sweep so no home queue
        // starves another. With one worker every queue is home, so
        // `steal_events` is zero by construction in serial runs.
        for qi in (worker_id..n_servers).step_by(n_workers) {
            if shared.server_queues[qi].try_pop_batch(DRAIN_BATCH, &mut work.local) {
                found = true;
                let server = server_ids[qi];
                serve_batch(
                    shared, server, &mut work, control, trunc, &mut pool, &mut tr,
                );
            }
        }
        if !found && !shared.done.load(Ordering::Acquire) {
            // Every home queue is dry: steal one whole batch from the
            // most-loaded foreign queue. The batch pops in heap order,
            // so the stolen work is exactly that server's current
            // highest-priority prefix and per-server priority order is
            // preserved within the batch.
            let victim = (0..n_servers)
                .filter(|qi| qi % n_workers != worker_id)
                .map(|qi| (shared.server_queues[qi].len(), qi))
                .max();
            if let Some((len, qi)) = victim {
                if len > 0 && shared.server_queues[qi].try_pop_batch(DRAIN_BATCH, &mut work.local) {
                    found = true;
                    let server = server_ids[qi];
                    ctx.metrics.add_steal(1);
                    tr.stolen(server, work.local.len());
                    serve_batch(
                        shared, server, &mut work, control, trunc, &mut pool, &mut tr,
                    );
                }
            }
        }
        if found {
            continue;
        }
        if shared.done.load(Ordering::Acquire) {
            break;
        }
        let mut guard = shared.work_lock.lock();
        if shared.done.load(Ordering::Acquire)
            || shared.work_version.load(Ordering::Acquire) != version
        {
            continue;
        }
        shared.work_cv.wait(&mut guard);
    }
    tr.span_end("serve");
}

/// Serves one drained batch on behalf of `server`, catching any panic
/// that escapes the fault layer (e.g. a panicking score model when no
/// fault plan is active, so [`guarded_process_located`] runs unguarded). The
/// panic is settled at batch granularity — see [`abandon_batch`] — and
/// the worker keeps running, so a poisoned batch truncates the result
/// instead of hanging or aborting the run.
fn serve_batch(
    shared: &Shared<'_, '_>,
    server: QNodeId,
    work: &mut BatchWork,
    control: &RunControl,
    trunc: &Truncation,
    pool: &mut MatchPool<'_>,
    tr: &mut crate::trace::WorkerTrace,
) {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        process_batch(shared, server, work, control, trunc, pool, tr);
    }));
    if caught.is_err() {
        abandon_batch(shared, trunc, work, pool, tr);
    }
}

/// Settles a batch whose processing panicked outside the fault layer.
/// The in-hand match and the unprocessed remainder are accounted into
/// the truncation certificate and leave the system; extensions of the
/// in-hand match were never admitted (no spawn event, not yet counted
/// in-flight), so their buffers are simply recycled. The net count
/// change — including the kills — lands in one atomic op *before* the
/// already-produced survivors are pushed, preserving the settling
/// protocol's no-undercount invariant.
fn abandon_batch(
    shared: &Shared<'_, '_>,
    trunc: &Truncation,
    work: &mut BatchWork,
    pool: &mut MatchPool<'_>,
    tr: &mut crate::trace::WorkerTrace,
) {
    trunc.mark();
    let mut killed = 0i64;
    if let Some(m) = work.in_hand.take() {
        trunc.account(m.max_final);
        tr.abandoned(&m);
        pool.release(m);
        killed += 1;
    }
    while let Some(m) = work.local.pop() {
        trunc.account(m.max_final);
        tr.abandoned(&m);
        pool.release(m);
        killed += 1;
    }
    for e in work.exts.drain(..) {
        pool.release(e);
    }
    work.locs.clear();
    let delta = work.net - killed;
    work.net = 0;
    // `net` credits every survivor, so the count cannot reach zero
    // while the survivors below are still unpublished.
    if delta != 0 {
        shared.adjust_in_flight(delta);
    }
    push_batch_to_router(shared, &mut work.survivors);
}

fn process_batch(
    shared: &Shared<'_, '_>,
    server: QNodeId,
    work: &mut BatchWork,
    control: &RunControl,
    trunc: &Truncation,
    pool: &mut MatchPool<'_>,
    tr: &mut crate::trace::WorkerTrace,
) {
    let ctx = shared.ctx;
    let queue = shared.server_queue(server);
    if tr.enabled() {
        tr.queue_depth(crate::trace::QueueId::Server(server), queue.len());
    }
    // Process the drained batch highest-priority first (the drain
    // preserved heap order; reverse so pop() walks it front-first).
    work.local.reverse();
    // One document-order locate sweep resolves every drained match's
    // candidate range before any is evaluated; `locs` stays aligned
    // with `local` and the two are popped in lockstep.
    let roots: Vec<_> = work.local.iter().map(|m| m.root()).collect();
    ctx.locate_batch_at_server(server, &roots, &mut work.locs);
    // Net in-flight change accumulated across the batch; applied in
    // one atomic op at settle time, before the survivors are pushed,
    // so the count never undercounts live matches.
    work.net = 0;
    while let Some(m) = work.local.pop() {
        let loc = work.locs.pop().expect("locs stays aligned with local");
        if trunc.is_expired() || control.exhausted(&ctx.metrics) {
            drain_expired(shared, control, trunc, m, pool, tr);
            continue;
        }
        if shared.topk.should_prune(&m) {
            // Conservative lock-free check: the snapshot only
            // condemns matches the live threshold also would.
            ctx.metrics.add_pruned();
            tr.pruned(&m, shared.topk.threshold_snapshot());
            pool.release(m);
            work.net -= 1;
            continue;
        }

        work.exts.clear();
        let t0 = tr.op_start();
        // The match lives in the batch state while the join runs so a
        // panic escaping the fault layer can still account it.
        work.in_hand = Some(m);
        let ran = {
            let BatchWork {
                ref in_hand,
                ref mut exts,
                ..
            } = *work;
            let m = in_hand.as_ref().expect("in-hand match was just stored");
            guarded_process_located(ctx, control, trunc, server, m, loc, exts, pool)
        };
        let m = work.in_hand.take().expect("in-hand match is present");
        if !ran {
            // This server is dead (it may have just died under us).
            // Settle the batch so far, then close its queue and rescue
            // everything still waiting — the match in hand, the rest of
            // the drained batch, and the queue. The *worker* does not
            // retire: it moves on to the other queues it serves.
            if work.net != 0 {
                shared.adjust_in_flight(work.net);
                work.net = 0;
            }
            push_batch_to_router(shared, &mut work.survivors);
            handle_dead_server_match(shared, trunc, server, m, pool, tr);
            while let Some(rest) = work.local.pop() {
                handle_dead_server_match(shared, trunc, server, rest, pool, tr);
            }
            for rescued in queue.close_and_drain() {
                handle_dead_server_match(shared, trunc, server, rescued, pool, tr);
            }
            work.locs.clear();
            return;
        }
        tr.server_op(server, m.seq, work.exts.len(), t0);
        pool.release(m);
        work.net -= 1;

        // The k-th score snapshot decides, without the lock, whether
        // any extension's offer could change the top-k set; the
        // lock is taken only when one could.
        let offers_needed = work.exts.iter().any(|e| {
            (shared.offer_partial || e.is_complete(shared.full_mask))
                && !shared.topk.offer_is_noop(e.score)
        });
        if offers_needed {
            let mut topk = shared.topk.lock();
            for e in work.exts.drain(..) {
                tr.spawned(&e);
                let complete = e.is_complete(shared.full_mask);
                if shared.offer_partial || complete {
                    topk.offer_match(&e);
                }
                if complete {
                    tr.completed(&e);
                    if e.degraded {
                        ctx.metrics.add_answer_degraded();
                    }
                    pool.release(e);
                    continue;
                }
                if topk.should_prune(&e) {
                    ctx.metrics.add_pruned();
                    tr.pruned(&e, topk.threshold());
                    pool.release(e);
                    continue;
                }
                work.net += 1;
                work.survivors.push(e);
            }
            if tr.enabled() {
                tr.threshold(topk.threshold());
            }
        } else {
            // Every offer is provably a no-op on the live set (see
            // SharedTopK): stay off the lock and prune against the
            // snapshot, which is conservative.
            for e in work.exts.drain(..) {
                tr.spawned(&e);
                if e.is_complete(shared.full_mask) {
                    tr.completed(&e);
                    if e.degraded {
                        ctx.metrics.add_answer_degraded();
                    }
                    pool.release(e);
                    continue;
                }
                if shared.topk.should_prune(&e) {
                    ctx.metrics.add_pruned();
                    tr.pruned(&e, shared.topk.threshold_snapshot());
                    pool.release(e);
                    continue;
                }
                work.net += 1;
                work.survivors.push(e);
            }
            // No threshold sample here: the snapshot is stale by
            // construction, and a stale value timestamped now would
            // break the merged stream's monotonicity. The locked
            // branch samples the live value whenever it changes.
        }
    }
    // Settle the batch: the net count change lands in one atomic op
    // *before* the survivors become visible to other workers, so the
    // count never dips below the true number of live matches (the
    // survivors are part of `net`, so it cannot reach zero while any
    // exist).
    if work.net != 0 {
        shared.adjust_in_flight(work.net);
        work.net = 0;
    }
    push_batch_to_router(shared, &mut work.survivors);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextOptions;
    use crate::lockstep::run_lockstep_noprune;
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
        let ctx = QueryContext::new(
            &doc,
            &index,
            &pattern,
            &model,
            ContextOptions {
                relax,
                ..Default::default()
            },
        );
        f(&ctx, pattern.server_ids().count());
    }

    #[test]
    fn agrees_with_reference_for_all_k() {
        let query = "//book[./title and ./isbn and ./price]";
        for k in [1, 3, 6] {
            let mut reference = Vec::new();
            harness(query, RelaxMode::Relaxed, |ctx, servers| {
                reference = run_lockstep_noprune(ctx, &StaticPlan::in_id_order(servers), k);
            });
            harness(query, RelaxMode::Relaxed, |ctx, _| {
                let got = run_whirlpool_m(
                    ctx,
                    &RoutingStrategy::MinAlive,
                    k,
                    &WhirlpoolMConfig::default(),
                );
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
            reference = run_lockstep_noprune(ctx, &StaticPlan::in_id_order(servers), 3);
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
            reference = run_lockstep_noprune(ctx, &StaticPlan::in_id_order(servers), 10);
        });
        harness(query, RelaxMode::Exact, |ctx, _| {
            let got = run_whirlpool_m(
                ctx,
                &RoutingStrategy::MinAlive,
                10,
                &WhirlpoolMConfig::default(),
            );
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
            reference = run_lockstep_noprune(ctx, &StaticPlan::in_id_order(servers), 4);
        });
        // Worker counts below, at, and above the number of server
        // queues: above, the surplus workers have no home queues and
        // live entirely off stealing.
        for threads in [2usize, 4, 8] {
            harness(query, RelaxMode::Relaxed, |ctx, _| {
                let got = run_whirlpool_m(
                    ctx,
                    &RoutingStrategy::MinAlive,
                    4,
                    &WhirlpoolMConfig {
                        threads,
                        ..WhirlpoolMConfig::default()
                    },
                );
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
            let got = run_whirlpool_m(
                ctx,
                &RoutingStrategy::MinAlive,
                5,
                &WhirlpoolMConfig::default(),
            );
            assert!(got.is_empty());
        });
    }

    #[test]
    fn shutdown_handshake_survives_many_iterations() {
        // Regression test for a lost-wakeup deadlock: `wake_all` must
        // take the queue lock before notifying, or a thread that
        // checked `done == false` but had not yet parked sleeps
        // forever. The window is narrow — hammer the full
        // start/evaluate/terminate cycle.
        let doc = parse_document(SRC).unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern("//book[./title and ./isbn]").unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        for i in 0..300 {
            let ctx = QueryContext::new(&doc, &index, &pattern, &model, ContextOptions::default());
            let got = run_whirlpool_m(
                &ctx,
                &RoutingStrategy::MinAlive,
                3,
                &WhirlpoolMConfig::default(),
            );
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
                let got = run_whirlpool_m(
                    ctx,
                    &RoutingStrategy::MinAlive,
                    3,
                    &WhirlpoolMConfig::default(),
                );
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
