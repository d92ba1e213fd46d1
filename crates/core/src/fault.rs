//! Fault injection and evaluation budgets — the anytime control plane.
//!
//! A [`FaultPlan`] makes chosen servers *delay* (per-op latency drawn
//! from the seeded shim RNG), *fail* (return an error after N ops), or
//! *panic* (poison themselves mid-extension). A [`Budget`] bounds the
//! run by wall-clock deadline and/or a server-operation cap. Both are
//! carried by a [`RunControl`], which every engine consults at
//! queue-pop granularity.
//!
//! A run stops early one way. A spent budget, a failed server
//! operation and a panic anywhere in an engine's work (an injected
//! fault's or a real one, [`guarded`]) all end it the same: what the
//! engine holds is drained into a [`Truncation`] under each match's
//! maximum possible final score, and the run returns a certified
//! [`Completeness::Truncated`] prefix. Nothing is retried, re-routed or
//! completed past a failed server.

use crate::error::{Completeness, EngineError};
use crate::metrics::Metrics;
use crate::topk::RankedAnswer;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use whirlpool_pattern::{QNodeId, TreePattern};
use whirlpool_score::Score;

/// The longest injected per-operation delay accepted: the mean of a
/// `delay@` fault, which is also what the daemon's `op_cost_us` test
/// hook sets on every server. The delay spins in a busy-wait that
/// neither a deadline nor a cancel token interrupts, so an uncapped
/// value would pin a worker for as long as a client asks.
pub const MAX_INJECTED_DELAY: Duration = Duration::from_secs(1);

/// What an injected fault does to its server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Every operation busy-waits a latency drawn uniformly from
    /// `[0, 2 * mean]` (seeded, deterministic per op).
    Delay {
        /// Mean injected latency per operation.
        mean: Duration,
    },
    /// Operations succeed `after_ops` times, then return
    /// [`EngineError::ServerFailed`], which stops the run.
    Fail {
        /// Operations completed before the failure.
        after_ops: u64,
    },
    /// Operations succeed `after_ops` times, then panic, which stops
    /// the run.
    Panic {
        /// Operations completed before the panic.
        after_ops: u64,
    },
}

/// A seeded, per-server fault assignment, wired through
/// [`EvalOptions`](crate::EvalOptions) and the CLI `--fault` flag.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the delay-latency stream.
    pub seed: u64,
    faults: Vec<(QNodeId, FaultKind)>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given RNG seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a fault for `server`, replacing any previous one.
    pub fn with(mut self, server: QNodeId, kind: FaultKind) -> Self {
        self.faults.retain(|(s, _)| *s != server);
        self.faults.push((server, kind));
        self
    }

    /// The configured faults.
    pub fn faults(&self) -> &[(QNodeId, FaultKind)] {
        &self.faults
    }

    /// Adds a `Delay { mean }` to every server in `servers` the plan
    /// does not fault yet: a per-operation cost on every join, as in
    /// Figure 8 and the daemon's `op_cost_us` hook. Servers the plan
    /// already names keep their fault.
    pub fn delay_unfaulted(
        mut self,
        servers: impl IntoIterator<Item = QNodeId>,
        mean: Duration,
    ) -> Self {
        for server in servers {
            if !self.faults.iter().any(|(s, _)| *s == server) {
                self.faults.push((server, FaultKind::Delay { mean }));
            }
        }
        self
    }

    /// Parses a CLI-style spec: `server=<id>:<kind>@<arg>` where kind is
    /// `panic` or `fail` (arg = ops before the fault) or `delay`
    /// (arg = mean latency in microseconds, at most
    /// [`MAX_INJECTED_DELAY`]). Examples: `server=2:panic@100`,
    /// `server=1:fail@0`, `server=3:delay@250`.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, EngineError> {
        let bad = || EngineError::InvalidFaultSpec(crate::error::FaultSpecError::new(spec));
        let mut plan = FaultPlan::seeded(seed);
        for part in spec.split(',') {
            let rest = part.trim().strip_prefix("server=").ok_or_else(bad)?;
            let (id, action) = rest.split_once(':').ok_or_else(bad)?;
            let id: u8 = id.parse().map_err(|_| bad())?;
            if id == 0 {
                // The root server runs before evaluation proper; it
                // cannot be faulted.
                return Err(bad());
            }
            let (kind, arg) = action.split_once('@').ok_or_else(bad)?;
            let arg: u64 = arg.parse().map_err(|_| bad())?;
            let kind = match kind {
                "panic" => FaultKind::Panic { after_ops: arg },
                "fail" => FaultKind::Fail { after_ops: arg },
                "delay" => {
                    let mean = Duration::from_micros(arg);
                    if mean > MAX_INJECTED_DELAY {
                        return Err(bad());
                    }
                    FaultKind::Delay { mean }
                }
                _ => return Err(bad()),
            };
            plan = plan.with(QNodeId(id), kind);
        }
        if plan.faults.is_empty() {
            return Err(bad());
        }
        Ok(plan)
    }

    /// Refuses a plan that faults a server `pattern` does not have: a
    /// run would never meet it, and an answer reported exact under a
    /// fault that never fired says nothing. Both front ends call this
    /// once the query is parsed.
    pub fn check(&self, pattern: &TreePattern) -> Result<(), EngineError> {
        let servers = pattern.len() - 1;
        match self.faults.iter().find(|(s, _)| s.index() > servers) {
            Some(&(server, _)) => Err(EngineError::FaultOutsideQuery { server, servers }),
            None => Ok(()),
        }
    }
}

/// Per-server runtime fault state: the fault and its op counter.
struct ServerFaultState {
    kind: Option<FaultKind>,
    ops: AtomicU64,
}

/// Instantiated fault state for one evaluation.
pub struct FaultState {
    seed: u64,
    /// Indexed by `QNodeId::index()`; slot 0 (the root) is never
    /// faulted.
    servers: Vec<ServerFaultState>,
}

impl FaultState {
    fn new(plan: &FaultPlan, query_len: usize) -> Self {
        let servers = (0..query_len)
            .map(|i| ServerFaultState {
                kind: plan
                    .faults
                    .iter()
                    .find(|(s, _)| s.index() == i)
                    .map(|(_, k)| *k),
                ops: AtomicU64::new(0),
            })
            .collect();
        FaultState {
            seed: plan.seed,
            servers,
        }
    }

    /// Runs the injected fault, if any, for one operation at `server`:
    /// delays busy-wait, failures return `Err`, panics unwind. Called
    /// *before* the server mutates any state.
    fn before_op(&self, server: QNodeId) -> Result<(), EngineError> {
        let slot = &self.servers[server.index()];
        let Some(kind) = slot.kind else {
            return Ok(());
        };
        let op = slot.ops.fetch_add(1, Ordering::Relaxed);
        match kind {
            FaultKind::Delay { mean } => {
                let micros = mean.as_micros() as u64;
                if micros > 0 {
                    let mut rng = rand::rngs::SmallRng::seed_from_u64(
                        self.seed ^ ((server.0 as u64) << 48) ^ op,
                    );
                    let drawn = rng.gen_range(0..=micros.saturating_mul(2));
                    busy_wait(Duration::from_micros(drawn));
                }
                Ok(())
            }
            FaultKind::Fail { after_ops } => {
                if op >= after_ops {
                    Err(EngineError::ServerFailed { server, after_ops })
                } else {
                    Ok(())
                }
            }
            FaultKind::Panic { after_ops } => {
                if op >= after_ops {
                    // An injected panic is an expected stop: it unwinds
                    // without running the panic hook, so it prints
                    // nothing and captures no backtrace. A real panic
                    // still runs the hook.
                    std::panic::resume_unwind(Box::new(format!(
                        "injected fault: server q{} panicked at op {op}",
                        server.0
                    )));
                }
                Ok(())
            }
        }
    }
}

/// A shared cancellation flag for one evaluation.
///
/// The holder (a serving layer's watchdog, a driving thread, a signal
/// handler) keeps one clone and calls [`cancel`](CancelToken::cancel);
/// the engines observe the flag through their [`Budget`] at queue-pop
/// granularity *and* inside the columnar kernels every
/// [`INTERRUPT_SPAN`] candidates, so a cancelled run drains promptly —
/// returning its workers — and comes back as a certified
/// [`Completeness::Truncated`] anytime answer, never an error.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the token. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Has the token been tripped?
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Wall-clock and operation-count limits for one evaluation.
pub struct Budget {
    start: Instant,
    deadline: Option<Duration>,
    max_ops: Option<u64>,
    cancel: Option<CancelToken>,
}

impl Budget {
    /// No limits.
    pub fn unlimited() -> Self {
        Budget {
            start: Instant::now(),
            deadline: None,
            max_ops: None,
            cancel: None,
        }
    }

    /// A budget starting now.
    pub fn new(deadline: Option<Duration>, max_ops: Option<u64>) -> Self {
        Budget {
            start: Instant::now(),
            deadline,
            max_ops,
            cancel: None,
        }
    }

    /// Attaches a cooperative cancellation token: once tripped, the
    /// budget reports exhausted and the run drains to an anytime
    /// answer.
    pub fn with_cancel(mut self, cancel: Option<CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Has the attached token (if any) been tripped?
    #[inline]
    pub fn cancelled(&self) -> bool {
        matches!(&self.cancel, Some(c) if c.is_cancelled())
    }

    /// Has the budget expired? Checked at queue-pop granularity; the
    /// no-limit path is three `Option` tests.
    #[inline]
    pub fn exhausted(&self, metrics: &Metrics) -> bool {
        if self.cancelled() {
            return true;
        }
        if let Some(max) = self.max_ops {
            if metrics.server_ops.load(Ordering::Relaxed) >= max {
                return true;
            }
        }
        if let Some(d) = self.deadline {
            if self.start.elapsed() >= d {
                return true;
            }
        }
        false
    }

    /// What is left of the deadline and of the op budget with the
    /// operations counted in `metrics` spent: what a driver that
    /// spreads one budget over several runs grants the next run.
    pub fn remaining(&self, metrics: &Metrics) -> (Option<Duration>, Option<u64>) {
        (
            self.deadline
                .map(|d| d.saturating_sub(self.start.elapsed())),
            self.max_ops
                .map(|m| m.saturating_sub(metrics.server_ops.load(Ordering::Relaxed))),
        )
    }

    /// The absolute instant the deadline falls on, if one is set.
    fn deadline_at(&self) -> Option<Instant> {
        self.deadline.map(|d| self.start + d)
    }
}

/// Fixed-width kernel lanes processed between [`OpInterrupt`] checks
/// inside the columnar evaluate kernels.
pub const INTERRUPT_LANES: usize = 64;

/// Candidates processed between [`OpInterrupt`] checks inside the
/// columnar evaluate kernels: [`INTERRUPT_LANES`] lanes of
/// [`KERNEL_LANE`](whirlpool_index::KERNEL_LANE) candidates each. A
/// single oversized server operation can overshoot a deadline (or
/// outlive a cancelled client) by at most the work of one span, rather
/// than by the whole candidate range.
pub const INTERRUPT_SPAN: usize = INTERRUPT_LANES * whirlpool_index::KERNEL_LANE;

/// The mid-operation half of a [`Budget`]: deadline and cancellation
/// checks cheap enough to run *inside* a server operation, every
/// [`INTERRUPT_SPAN`] candidates, next to the queue-pop granularity
/// checks the engines already make. Operation budgets are deliberately
/// excluded — they stay at queue-pop granularity so op-budget runs
/// remain deterministic.
pub struct OpInterrupt {
    cancel: Option<CancelToken>,
    deadline_at: Option<Instant>,
}

impl OpInterrupt {
    /// Should the running operation stop producing extensions?
    #[inline]
    pub fn tripped(&self) -> bool {
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return true;
            }
        }
        if let Some(at) = self.deadline_at {
            if Instant::now() >= at {
                return true;
            }
        }
        false
    }
}

/// Everything an engine consults while running: the budget, the
/// instantiated fault state, and the (optional) tracer. `Sync`, shared
/// by reference across the Whirlpool-M threads.
pub struct RunControl {
    budget: Budget,
    faults: Option<FaultState>,
    tracer: Option<crate::trace::Tracer>,
    /// Precomputed mid-operation check, `Some` iff the budget carries a
    /// deadline or a cancel token (op budgets stay at pop granularity).
    interrupt: Option<OpInterrupt>,
    /// Lower bound seeded into the run's top-k threshold (see
    /// [`TopKSet::with_floor`](crate::TopKSet::with_floor)). Zero —
    /// i.e. inert — outside collection runs.
    threshold_floor: Score,
}

impl RunControl {
    /// No budget, no faults, no tracer — the zero-overhead default.
    pub fn unlimited() -> Self {
        RunControl {
            budget: Budget::unlimited(),
            faults: None,
            tracer: None,
            interrupt: None,
            threshold_floor: Score::ZERO,
        }
    }

    /// Builds the control plane for one run. `query_len` sizes the
    /// per-server fault slots.
    pub fn new(budget: Budget, plan: Option<&FaultPlan>, query_len: usize) -> Self {
        let interrupt = if budget.cancel.is_some() || budget.deadline.is_some() {
            Some(OpInterrupt {
                cancel: budget.cancel.clone(),
                deadline_at: budget.deadline_at(),
            })
        } else {
            None
        };
        RunControl {
            budget,
            faults: plan.map(|p| FaultState::new(p, query_len)),
            tracer: None,
            interrupt,
            threshold_floor: Score::ZERO,
        }
    }

    /// Attaches a tracer: every engine running under this control
    /// records its event stream into it.
    pub fn with_tracer(mut self, tracer: crate::trace::Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Seeds the run's top-k threshold with an external lower bound:
    /// the engines build their top-k set with this floor, so pruning
    /// starts from it instead of from zero. The collection driver
    /// passes the current *global* k-th score when evaluating a shard.
    /// Sound because the caller guarantees no answer scoring strictly
    /// below the floor can enter the final result (the global
    /// threshold is monotone non-decreasing).
    pub fn with_threshold_floor(mut self, floor: Score) -> Self {
        self.threshold_floor = floor;
        self
    }

    /// The seeded top-k threshold floor (zero unless set).
    #[inline]
    pub fn threshold_floor(&self) -> Score {
        self.threshold_floor
    }

    /// Is a tracer attached? Engines use this to skip building worker
    /// names for handles that would be disabled anyway.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Opens a per-worker recording handle: disabled (every emit is an
    /// inlined no-op branch) unless a tracer is attached.
    pub fn trace_worker(&self, name: &str) -> crate::trace::WorkerTrace {
        match &self.tracer {
            Some(t) => t.worker(name),
            None => crate::trace::WorkerTrace::disabled(),
        }
    }

    /// Has the run's budget expired?
    #[inline]
    pub fn exhausted(&self, metrics: &Metrics) -> bool {
        self.budget.exhausted(metrics)
    }

    /// Was the run cancelled through its [`CancelToken`]?
    #[inline]
    pub fn cancelled(&self) -> bool {
        self.budget.cancelled()
    }

    /// The mid-operation interruption check for this run, if its budget
    /// carries a deadline or a cancel token. `None` (the common case)
    /// keeps the kernels on their single-segment path.
    #[inline]
    pub fn op_interrupt(&self) -> Option<&OpInterrupt> {
        self.interrupt.as_ref()
    }

    /// Counts the budget stop that just truncated the run: a tripped
    /// cancel token counts as a cancellation, anything else as a
    /// deadline/op-budget hit. Called once per run, guarded by
    /// `Truncation::stop` returning `true`.
    pub fn count_stop(&self, metrics: &Metrics) {
        if self.cancelled() {
            metrics.add_cancellation();
        } else {
            metrics.add_deadline_hit();
        }
    }

    /// Injects the fault (if any) for one operation at `server`.
    #[inline]
    pub fn before_op(&self, server: QNodeId) -> Result<(), EngineError> {
        match &self.faults {
            None => Ok(()),
            Some(f) => f.before_op(server),
        }
    }
}

/// The outcome of one anytime engine run.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Top-k answers, best first.
    pub answers: Vec<RankedAnswer>,
    /// Whether `answers` is the true top-k or an anytime prefix.
    pub completeness: Completeness,
}

impl EngineRun {
    /// An exact (complete) run.
    pub fn exact(answers: Vec<RankedAnswer>) -> Self {
        EngineRun {
            answers,
            completeness: Completeness::Exact,
        }
    }
}

/// Shared truncation accounting: whether the run stopped early, how
/// many matches it left unprocessed, and the max-score bound over them.
/// Thread-safe (Whirlpool-M workers all report into one).
pub(crate) struct Truncation {
    /// Set by the first stop, whatever stopped the run: engines stop
    /// consuming and drain.
    stopped: AtomicBool,
    pending: AtomicU64,
    /// Max `max_final` over the matches left unprocessed, as f64 bits.
    /// Scores are non-negative, so the zero initializer is the identity.
    bound_bits: AtomicU64,
}

impl Truncation {
    pub(crate) fn new() -> Self {
        Truncation {
            stopped: AtomicBool::new(false),
            pending: AtomicU64::new(0),
            bound_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Stops the run; `true` the first time, so the caller that stopped
    /// it counts why.
    pub(crate) fn stop(&self) -> bool {
        !self.stopped.swap(true, Ordering::AcqRel)
    }

    pub(crate) fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// Accounts one match left unprocessed: its `max_final` caps what
    /// the true evaluation could have scored it.
    pub(crate) fn account(&self, max_final: Score) {
        self.account_many(1, max_final);
    }

    /// Accounts `n` matches at once under one bound: the root matches a
    /// dropped seed source never produced, none of which could have
    /// exceeded its ceiling.
    pub(crate) fn account_many(&self, n: u64, max_final: Score) {
        self.pending.fetch_add(n, Ordering::Relaxed);
        self.track(max_final.value());
    }

    fn track(&self, v: f64) {
        let mut cur = self.bound_bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.bound_bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Folds the accounting into a [`Completeness`]: the certificate is
    /// the max over the matches left unprocessed joined with the best
    /// returned score (a returned answer is its own bound).
    pub(crate) fn finish(&self, answers: &[RankedAnswer]) -> Completeness {
        if !self.is_stopped() {
            return Completeness::Exact;
        }
        let mut bound = f64::from_bits(self.bound_bits.load(Ordering::Acquire));
        if let Some(best) = answers.first() {
            bound = bound.max(best.score.value());
        }
        Completeness::Truncated {
            pending_matches: self.pending.load(Ordering::Acquire),
            score_bound: bound,
        }
    }
}

/// Books an operation that stopped at a mid-kernel [`OpInterrupt`]
/// check: the run is stopped by its budget, and the match's
/// `max_final` caps every extension the aborted tail could have
/// produced, keeping the [`Completeness::Truncated`] certificate valid.
/// The extensions produced *before* the trip are real and stay.
fn account_interrupted(
    ctx: &crate::context::QueryContext<'_>,
    control: &RunControl,
    trunc: &Truncation,
    m: &crate::partial::PartialMatch,
) {
    if trunc.stop() {
        control.count_stop(&ctx.metrics);
    }
    trunc.account(m.max_final);
}

/// One server operation over a match whose candidate range `loc` was
/// resolved by [`QueryContext::locate_batch_at_server`]: the injected
/// fault (if any) fires first, then the evaluation. Locating is a pure
/// read with no fault site of its own. An injected failure is the
/// `Err`; engines run this inside [`guarded`], which stops the run on
/// it as on a panic.
///
/// [`QueryContext::locate_batch_at_server`]: crate::QueryContext::locate_batch_at_server
pub(crate) fn process_located(
    ctx: &crate::context::QueryContext<'_>,
    control: &RunControl,
    trunc: &Truncation,
    server: QNodeId,
    m: &crate::partial::PartialMatch,
    loc: crate::context::Located,
    exts: &mut Vec<crate::partial::PartialMatch>,
) -> Result<(), EngineError> {
    control.before_op(server)?;
    let o =
        ctx.process_located_at_server_interruptible(server, m, loc, exts, control.op_interrupt());
    if o.interrupted {
        account_interrupted(ctx, control, trunc, m);
    }
    Ok(())
}

/// Runs one unit of an engine's work (a turn of Whirlpool-S, a
/// LockStep seeding or operation, a Whirlpool-M batch) under the run's
/// one guard, which covers every score-model and server call the unit
/// makes. An injected failure (`Err`) and a panic, injected or real,
/// end the unit alike: the run stops, and the first stop counts the
/// run's one `servers_failed`. `None` tells the caller to drop what the
/// unit produced and drain what it holds into the certificate, as for a
/// spent budget. Sound because a unit keeps every match it holds where
/// its caller's drain finds it, and the extensions of a failed
/// operation were never admitted (not counted as created, not queued).
pub(crate) fn guarded<T>(
    metrics: &Metrics,
    trunc: &Truncation,
    unit: impl FnOnce() -> Result<T, EngineError>,
) -> Option<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(unit)) {
        Ok(Ok(done)) => Some(done),
        Ok(Err(_)) | Err(_) => {
            if trunc.stop() {
                metrics.add_server_failed();
            }
            None
        }
    }
}

/// Drops `queue`'s seed source, if it still has roots to produce: none
/// of them will ever be a match, and `roots_unseeded` counts them. A
/// run that was cut short (`pending`) also accounts them into its
/// certificate, under the ceiling none of them could exceed.
pub(crate) fn drop_seed_source(
    ctx: &crate::context::QueryContext<'_>,
    queue: &mut crate::queue::MatchQueue,
    pending: Option<&Truncation>,
) {
    if let (Some((unseeded, ceiling)), Some(trunc)) = (queue.drop_seeds(ctx), pending) {
        trunc.account_many(unseeded, ceiling);
    }
}

/// Spins for (at least) `duration`: the injected per-operation cost of
/// delay faults. Sleeping would let the OS deschedule the thread and
/// distort the multi-threaded measurements, so we burn cycles like a
/// real join would.
pub(crate) fn busy_wait(duration: Duration) {
    let start = Instant::now();
    while start.elapsed() < duration {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_forms() {
        let p = FaultPlan::parse("server=2:panic@100", 7).unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(
            p.faults(),
            &[(QNodeId(2), FaultKind::Panic { after_ops: 100 })]
        );
        assert!(FaultPlan::parse("server=1:delay@1000000", 0).is_ok());
        let p = FaultPlan::parse("server=1:fail@0,server=3:delay@250", 1).unwrap();
        assert_eq!(p.faults().len(), 2);
        assert_eq!(
            p.faults()[1],
            (
                QNodeId(3),
                FaultKind::Delay {
                    mean: Duration::from_micros(250)
                }
            )
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "server=",
            "server=1",
            "server=1:panic",
            "server=1:explode@3",
            "server=x:panic@1",
            "server=1:panic@x",
            "server=0:panic@1", // the root server cannot be faulted
            "panic@1",
            "server=1:delay@1000001", // longer than MAX_INJECTED_DELAY
            "server=1:delay@18446744073709551615",
        ] {
            assert!(
                matches!(
                    FaultPlan::parse(bad, 0),
                    Err(EngineError::InvalidFaultSpec(_))
                ),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn fail_fault_fires_after_n_ops() {
        let plan = FaultPlan::seeded(0).with(QNodeId(1), FaultKind::Fail { after_ops: 2 });
        let state = FaultState::new(&plan, 3);
        assert!(state.before_op(QNodeId(1)).is_ok());
        assert!(state.before_op(QNodeId(1)).is_ok());
        assert_eq!(
            state.before_op(QNodeId(1)),
            Err(EngineError::ServerFailed {
                server: QNodeId(1),
                after_ops: 2
            })
        );
        // Unfaulted servers never fail.
        for _ in 0..10 {
            assert!(state.before_op(QNodeId(2)).is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn panic_fault_panics() {
        let plan = FaultPlan::seeded(0).with(QNodeId(1), FaultKind::Panic { after_ops: 0 });
        let state = FaultState::new(&plan, 2);
        let _ = state.before_op(QNodeId(1));
    }

    #[test]
    fn budget_max_ops_trips() {
        let metrics = Metrics::new();
        let b = Budget::new(None, Some(2));
        assert!(!b.exhausted(&metrics));
        metrics.add_server_op();
        metrics.add_server_op();
        assert!(b.exhausted(&metrics));
    }

    #[test]
    fn budget_deadline_trips() {
        let metrics = Metrics::new();
        let b = Budget::new(Some(Duration::ZERO), None);
        assert!(b.exhausted(&metrics));
        let b = Budget::new(Some(Duration::from_secs(3600)), None);
        assert!(!b.exhausted(&metrics));
    }

    #[test]
    fn cancel_token_trips_the_budget() {
        let metrics = Metrics::new();
        let token = CancelToken::new();
        let b = Budget::new(None, None).with_cancel(Some(token.clone()));
        assert!(!b.exhausted(&metrics));
        assert!(!b.cancelled());
        token.cancel();
        assert!(b.exhausted(&metrics));
        assert!(b.cancelled());
        // Every clone observes the trip.
        assert!(token.clone().is_cancelled());
    }

    #[test]
    fn op_interrupt_exists_iff_deadline_or_cancel() {
        let c = RunControl::unlimited();
        assert!(c.op_interrupt().is_none());
        let c = RunControl::new(Budget::new(None, Some(100)), None, 2);
        assert!(
            c.op_interrupt().is_none(),
            "op budgets stay at pop granularity"
        );
        let c = RunControl::new(Budget::new(Some(Duration::from_secs(3600)), None), None, 2);
        let i = c.op_interrupt().expect("deadline compiles an interrupt");
        assert!(!i.tripped(), "an hour-long deadline is not tripped yet");
        let token = CancelToken::new();
        let c = RunControl::new(
            Budget::new(None, None).with_cancel(Some(token.clone())),
            None,
            2,
        );
        assert!(!c.op_interrupt().unwrap().tripped());
        token.cancel();
        assert!(c.op_interrupt().unwrap().tripped());
        assert!(c.cancelled());
    }

    #[test]
    fn count_stop_distinguishes_cancellation_from_deadline() {
        let metrics = Metrics::new();
        let token = CancelToken::new();
        token.cancel();
        let c = RunControl::new(Budget::new(None, None).with_cancel(Some(token)), None, 2);
        c.count_stop(&metrics);
        let c = RunControl::new(Budget::new(Some(Duration::ZERO), None), None, 2);
        c.count_stop(&metrics);
        let s = metrics.snapshot();
        assert_eq!(s.cancellations, 1);
        assert_eq!(s.deadline_hits, 1);
    }

    #[test]
    fn unlimited_control_is_inert() {
        let metrics = Metrics::new();
        let c = RunControl::unlimited();
        assert!(!c.exhausted(&metrics));
        assert!(c.before_op(QNodeId(1)).is_ok());
        assert!(c.op_interrupt().is_none());
    }

    #[test]
    fn truncation_accumulates_the_bound() {
        let t = Truncation::new();
        assert!(matches!(t.finish(&[]), Completeness::Exact));
        assert!(t.stop(), "the first stop reports true");
        assert!(!t.stop(), "a second stop reports false");
        t.account(Score::new(1.5));
        t.account(Score::new(0.5));
        match t.finish(&[]) {
            Completeness::Truncated {
                pending_matches,
                score_bound,
            } => {
                assert_eq!(pending_matches, 2);
                assert!((score_bound - 1.5).abs() < 1e-12);
            }
            c => panic!("expected truncated, got {c:?}"),
        }
    }

    #[test]
    fn a_dropped_seed_source_is_counted_root_by_root_under_one_bound() {
        let t = Truncation::new();
        assert!(t.stop());
        t.account(Score::new(0.5));
        t.account_many(12_000, Score::new(3.0));
        t.account_many(0, Score::new(9.0));
        match t.finish(&[]) {
            Completeness::Truncated {
                pending_matches,
                score_bound,
            } => {
                assert_eq!(pending_matches, 12_001);
                // Nothing was pending under the last bound, but a bound
                // may only ever be too high.
                assert!(score_bound >= 3.0);
            }
            c => panic!("expected truncated, got {c:?}"),
        }
    }

    #[test]
    fn delay_fault_is_deterministic_and_slow() {
        let plan = FaultPlan::seeded(42).with(
            QNodeId(1),
            FaultKind::Delay {
                mean: Duration::from_micros(200),
            },
        );
        let state = FaultState::new(&plan, 2);
        let start = Instant::now();
        for _ in 0..20 {
            state.before_op(QNodeId(1)).unwrap();
        }
        // 20 draws with mean 200µs: even a very unlucky stream takes
        // visible time.
        assert!(start.elapsed() >= Duration::from_micros(200));
    }
}
