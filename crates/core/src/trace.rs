//! Structured event tracing — the observability layer.
//!
//! Every engine can record a stream of typed events (match lifecycle,
//! server-operation latencies, routing *explain* records, threshold and
//! queue-depth samples) into a [`Tracer`]. Recording is lock-free on
//! the hot path: each worker thread owns a [`WorkerTrace`] handle with
//! a private event buffer that flushes into the tracer in blocks —
//! once the buffer reaches [`FLUSH_BLOCK`] events and a final time
//! when the handle is dropped — so the tracer's single lock is taken
//! once per thousands of events, never per event. Timestamps come from
//! a cached clock re-read every [`TS_REFRESH`] events: lifecycle
//! events carry microsecond timestamps that are coarse by up to one
//! refresh window, while server-operation *durations* still use
//! dedicated precise clock reads ([`WorkerTrace::op_start`]). When
//! tracing is disabled — the default — every emit method is one
//! inlined `Option` test.
//!
//! All four engines emit events at the same semantic points, so traces
//! are directly comparable across engines and must never perturb the
//! answer set (pinned by the trace-consistency integration test):
//!
//! | event | emitted when |
//! |---|---|
//! | [`TraceEventKind::MatchSpawned`] | a partial match enters the system (root match or server-op extension) |
//! | [`TraceEventKind::ServerOp`] | a server operation consumes a match (duration + extensions produced) |
//! | [`TraceEventKind::MatchPruned`] | a match is discarded against the top-k threshold |
//! | [`TraceEventKind::MatchCompleted`] | a complete match is offered to the top-k set |
//! | [`TraceEventKind::MatchAbandoned`] | a match leaves unprocessed when the run stops (spent budget, failed server operation); its bound enters the truncation certificate |
//! | [`TraceEventKind::SeedsDropped`] | the seed source is dropped: the root matches it never produced are pruned (or, when the run stops, abandoned) in one step |
//! | [`TraceEventKind::Routed`] | the router takes one routing decision (with per-candidate estimates) |
//! | [`TraceEventKind::ThresholdSample`] | the top-k threshold is sampled after an operation |
//! | [`TraceEventKind::QueueDepth`] | a queue's depth is sampled |
//! | [`TraceEventKind::BatchStolen`] | an idle worker stole one drain batch from another worker's server queue |
//! | [`TraceEventKind::SpanBegin`]/[`SpanEnd`](TraceEventKind::SpanEnd) | a worker enters/leaves a phase |
//!
//! The lifecycle events obey a conservation law checked by
//! [`TraceSummary::balanced`]: every spawned match reaches exactly one
//! terminal state, so `spawned = consumed + pruned + completed +
//! abandoned`. A root the seed source never materialised was never
//! spawned, so it appears on neither side: one
//! [`SeedsDropped`](TraceEventKind::SeedsDropped) event carries the
//! count.
//!
//! # Example
//!
//! ```
//! use whirlpool_core::trace::Tracer;
//!
//! let tracer = Tracer::new();
//! let mut worker = tracer.worker("demo");
//! worker.span_begin("seed");
//! worker.span_end("seed");
//! drop(worker); // flushes the buffer into the tracer
//!
//! let data = tracer.finish();
//! let summary = data.summary();
//! assert!(summary.unmatched_spans.is_empty());
//! let mut json = Vec::new();
//! data.write_chrome_trace(&mut json).unwrap();
//! assert!(String::from_utf8(json).unwrap().contains("traceEvents"));
//! ```

use parking_lot::Mutex;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;
use whirlpool_pattern::QNodeId;

/// Buffered events per worker before a block flush into the tracer's
/// shared store (the final partial block flushes on drop).
pub const FLUSH_BLOCK: usize = 8192;

/// Events stamped per clock read: the first event after a refresh
/// reads the monotonic clock, the next `TS_REFRESH - 1` reuse the
/// cached value. Event timestamps are therefore coarse by up to one
/// refresh window; per-worker ordering is unaffected (the cache is
/// monotone within a worker).
pub const TS_REFRESH: u32 = 32;

/// Identifies the queue a [`TraceEventKind::QueueDepth`] sample
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueId {
    /// The router's queue: Whirlpool-S's only queue, and Whirlpool-M's
    /// queue of matches not yet routed.
    Router,
    /// The per-server queue of this server (Whirlpool-M).
    Server(QNodeId),
}

/// One candidate considered by a routing decision, with the estimate
/// the strategy scored it by (see
/// [`RoutingStrategy::explain`](crate::RoutingStrategy::explain)).
#[derive(Debug, Clone, PartialEq)]
pub struct RouteCandidate {
    /// The candidate server.
    pub server: QNodeId,
    /// The strategy's estimate for it (expected contribution for the
    /// score-based strategies, expected alive extensions for
    /// `min_alive_partial_matches`, plan position for `static`).
    pub estimate: f64,
}

/// A routing *explain* record: everything the router looked at for one
/// decision.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteExplain {
    /// Sequence number of the routed match.
    pub seq: u64,
    /// Strategy name, as [`RoutingStrategy::name`](crate::RoutingStrategy::name)
    /// spells it.
    pub strategy: &'static str,
    /// Top-k threshold at decision time.
    pub threshold: f64,
    /// Router-queue depth at decision time (Whirlpool-M: the depth of
    /// its unrouted queue).
    pub queue_len: usize,
    /// The chosen server.
    pub chosen: QNodeId,
    /// Per-candidate estimates.
    pub candidates: Vec<RouteCandidate>,
}

/// A typed trace event payload.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A worker entered the named phase.
    SpanBegin {
        /// Phase name (paired with the matching [`TraceEventKind::SpanEnd`]).
        name: String,
    },
    /// A worker left the named phase.
    SpanEnd {
        /// Phase name.
        name: String,
    },
    /// A server operation consumed one partial match.
    ServerOp {
        /// The server that ran the operation.
        server: QNodeId,
        /// Sequence number of the consumed match.
        seq: u64,
        /// Extensions produced (0 = the match died, exact mode).
        produced: usize,
        /// Operation latency in microseconds.
        dur_us: u64,
    },
    /// A partial match entered the system.
    MatchSpawned {
        /// Its sequence number.
        seq: u64,
        /// Its current score.
        score: f64,
        /// Its maximum possible final score.
        max_final: f64,
    },
    /// A partial match was discarded against the top-k threshold.
    MatchPruned {
        /// Its sequence number.
        seq: u64,
        /// Its maximum possible final score (below the threshold).
        max_final: f64,
        /// The threshold it lost to.
        threshold: f64,
    },
    /// A complete match was offered to the top-k set.
    MatchCompleted {
        /// Its sequence number.
        seq: u64,
        /// Its final score.
        score: f64,
    },
    /// A partial match left the system unprocessed; its score bound
    /// entered the truncation certificate.
    MatchAbandoned {
        /// Its sequence number.
        seq: u64,
        /// Its maximum possible final score.
        max_final: f64,
    },
    /// The seed source was dropped with root candidates left: none of
    /// them ever became a partial match.
    SeedsDropped {
        /// Root candidates never materialised.
        remaining: u64,
        /// The maximum possible final score none of them could exceed.
        max_final: f64,
        /// The threshold at that moment (they lost to it unless the
        /// run's budget expired).
        threshold: f64,
    },
    /// One routing decision, with its explain record.
    Routed(RouteExplain),
    /// The top-k threshold, sampled after an operation.
    ThresholdSample {
        /// Current k-th score (0 until the set fills).
        value: f64,
    },
    /// A queue's depth, sampled.
    QueueDepth {
        /// Which queue.
        queue: QueueId,
        /// Matches currently queued.
        depth: usize,
    },
    /// An idle worker stole one drain batch from another worker's
    /// server queue (Whirlpool-M's work-stealing scheduler).
    BatchStolen {
        /// The server whose queue was raided.
        victim: QNodeId,
        /// Matches moved (at most one drain batch).
        moved: usize,
    },
}

/// One recorded event: a payload stamped with the worker that emitted
/// it and the microseconds elapsed since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Microseconds since [`Tracer::new`].
    pub ts_us: u64,
    /// The emitting worker's id (index into [`TraceData::workers`]).
    pub tid: u32,
    /// The payload.
    pub kind: TraceEventKind,
}

struct TracerInner {
    start: Instant,
    next_tid: AtomicU32,
    /// Flushed per-worker buffers: `(tid, worker name, events)`.
    flushed: Mutex<Vec<(u32, String, Vec<TraceEvent>)>>,
}

/// A shared, cloneable event recorder. Cloning is cheap (one `Arc`);
/// all clones feed the same event store. Create per-thread recording
/// handles with [`Tracer::worker`], and collect everything with
/// [`Tracer::finish`] once the handles are dropped.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}

impl Tracer {
    /// A fresh tracer; its clock starts now.
    pub fn new() -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                start: Instant::now(),
                next_tid: AtomicU32::new(0),
                flushed: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Opens a recording handle for one worker thread. The handle
    /// buffers events locally and flushes them into the tracer when
    /// dropped — the only point that takes the tracer's lock.
    pub fn worker(&self, name: &str) -> WorkerTrace {
        let tid = self.inner.next_tid.fetch_add(1, Ordering::Relaxed);
        WorkerTrace {
            inner: Some(WorkerInner {
                tracer: self.clone(),
                tid,
                name: name.to_string(),
                events: Vec::new(),
                ts_us: 0,
                until_refresh: 0,
            }),
        }
    }

    /// Collects every flushed block into a [`TraceData`], merged and
    /// sorted by timestamp. A worker that flushed multiple blocks
    /// appears once. Call after all [`WorkerTrace`] handles are
    /// dropped (an engine drops its handles before returning).
    pub fn finish(&self) -> TraceData {
        let mut flushed = self.inner.flushed.lock();
        let mut workers: Vec<(u32, String)> = Vec::new();
        let mut events = Vec::new();
        for (tid, name, buf) in flushed.drain(..) {
            if !workers.iter().any(|(t, _)| *t == tid) {
                workers.push((tid, name));
            }
            events.extend(buf);
        }
        workers.sort_by_key(|(tid, _)| *tid);
        // Stable sort: blocks were flushed in per-worker order, so
        // events with equal (coarse) timestamps keep their emit order.
        events.sort_by_key(|e: &TraceEvent| e.ts_us);
        TraceData { workers, events }
    }
}

struct WorkerInner {
    tracer: Tracer,
    tid: u32,
    name: String,
    events: Vec<TraceEvent>,
    /// Cached timestamp, re-read from the clock every [`TS_REFRESH`]
    /// events.
    ts_us: u64,
    /// Events left before the next clock read.
    until_refresh: u32,
}

/// A per-worker recording handle (see [`Tracer::worker`]). All emit
/// methods are no-ops that cost one inlined branch when the handle is
/// disabled — the state every engine runs with unless the caller asked
/// for a trace.
pub struct WorkerTrace {
    inner: Option<WorkerInner>,
}

impl WorkerTrace {
    /// A permanently disabled handle (what
    /// [`RunControl`](crate::RunControl) hands engines when no tracer
    /// is attached).
    pub fn disabled() -> Self {
        WorkerTrace { inner: None }
    }

    /// Is this handle recording? Emit sites guard any event-building
    /// work (explain records, queue-length reads) behind this.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    #[inline]
    fn push(&mut self, kind: TraceEventKind) {
        if let Some(w) = &mut self.inner {
            if w.until_refresh == 0 {
                w.ts_us = w.tracer.inner.start.elapsed().as_micros() as u64;
                w.until_refresh = TS_REFRESH;
            }
            w.until_refresh -= 1;
            let (ts_us, tid) = (w.ts_us, w.tid);
            w.events.push(TraceEvent { ts_us, tid, kind });
            if w.events.len() >= FLUSH_BLOCK {
                let block = std::mem::replace(&mut w.events, Vec::with_capacity(FLUSH_BLOCK));
                w.tracer
                    .inner
                    .flushed
                    .lock()
                    .push((w.tid, w.name.clone(), block));
            }
        }
    }

    /// Marks the start of the named phase.
    #[inline]
    pub fn span_begin(&mut self, name: &str) {
        if self.enabled() {
            self.push(TraceEventKind::SpanBegin {
                name: name.to_string(),
            });
        }
    }

    /// Marks the end of the named phase.
    #[inline]
    pub fn span_end(&mut self, name: &str) {
        if self.enabled() {
            self.push(TraceEventKind::SpanEnd {
                name: name.to_string(),
            });
        }
    }

    /// Reads the clock for a server-operation span; `None` (no clock
    /// read at all) when disabled. Pass the result to
    /// [`WorkerTrace::server_op`].
    #[inline]
    pub fn op_start(&self) -> Option<Instant> {
        if self.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Records one server operation: `started` is the
    /// [`WorkerTrace::op_start`] result, `produced` the number of
    /// extensions it emitted.
    #[inline]
    pub fn server_op(
        &mut self,
        server: QNodeId,
        seq: u64,
        produced: usize,
        started: Option<Instant>,
    ) {
        if let Some(t0) = started {
            if self.enabled() {
                let dur_us = t0.elapsed().as_micros() as u64;
                self.push(TraceEventKind::ServerOp {
                    server,
                    seq,
                    produced,
                    dur_us,
                });
            }
        }
    }

    /// Records a partial match entering the system.
    #[inline]
    pub fn spawned(&mut self, m: &crate::PartialMatch) {
        if self.enabled() {
            self.push(TraceEventKind::MatchSpawned {
                seq: m.seq,
                score: m.score.value(),
                max_final: m.max_final.value(),
            });
        }
    }

    /// Records a match pruned against `threshold`.
    #[inline]
    pub fn pruned(&mut self, m: &crate::PartialMatch, threshold: whirlpool_score::Score) {
        if self.enabled() {
            self.push(TraceEventKind::MatchPruned {
                seq: m.seq,
                max_final: m.max_final.value(),
                threshold: threshold.value(),
            });
        }
    }

    /// Records a complete match offered to the top-k set.
    #[inline]
    pub fn completed(&mut self, m: &crate::PartialMatch) {
        if self.enabled() {
            self.push(TraceEventKind::MatchCompleted {
                seq: m.seq,
                score: m.score.value(),
            });
        }
    }

    /// Records a match abandoned unprocessed (the run stopped).
    #[inline]
    pub fn abandoned(&mut self, m: &crate::PartialMatch) {
        if self.enabled() {
            self.push(TraceEventKind::MatchAbandoned {
                seq: m.seq,
                max_final: m.max_final.value(),
            });
        }
    }

    /// Records the seed source being dropped with `remaining` roots
    /// unseeded, none able to exceed `max_final`.
    #[inline]
    pub fn seeds_dropped(
        &mut self,
        remaining: u64,
        max_final: whirlpool_score::Score,
        threshold: whirlpool_score::Score,
    ) {
        if self.enabled() {
            self.push(TraceEventKind::SeedsDropped {
                remaining,
                max_final: max_final.value(),
                threshold: threshold.value(),
            });
        }
    }

    /// Records one routing decision with its explain record. Build the
    /// record only when [`WorkerTrace::enabled`] — it is the one event
    /// whose construction is not free.
    #[inline]
    pub fn routed(&mut self, explain: RouteExplain) {
        if self.enabled() {
            self.push(TraceEventKind::Routed(explain));
        }
    }

    /// Samples the top-k threshold. Threshold samples bypass the cached
    /// clock: the monotone-threshold invariant is checked over the
    /// *merged* stream in timestamp order, so each sample needs a
    /// timestamp taken while the sampled value is still current — call
    /// sites sample while holding the top-k lock.
    #[inline]
    pub fn threshold(&mut self, value: whirlpool_score::Score) {
        if self.enabled() {
            if let Some(w) = &mut self.inner {
                w.until_refresh = 0;
            }
            self.push(TraceEventKind::ThresholdSample {
                value: value.value(),
            });
        }
    }

    /// Samples a queue's depth.
    #[inline]
    pub fn queue_depth(&mut self, queue: QueueId, depth: usize) {
        if self.enabled() {
            self.push(TraceEventKind::QueueDepth { queue, depth });
        }
    }

    /// Records one successful batch steal from `victim`'s queue.
    #[inline]
    pub fn stolen(&mut self, victim: QNodeId, moved: usize) {
        if self.enabled() {
            self.push(TraceEventKind::BatchStolen { victim, moved });
        }
    }
}

impl Drop for WorkerTrace {
    fn drop(&mut self) {
        if let Some(w) = self.inner.take() {
            let events = w.events;
            let mut flushed = w.tracer.inner.flushed.lock();
            flushed.push((w.tid, w.name, events));
        }
    }
}

/// A collected trace: every event from every worker, merged and sorted
/// by timestamp.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// `(tid, name)` for every worker that recorded.
    pub workers: Vec<(u32, String)>,
    /// All events, sorted by [`TraceEvent::ts_us`].
    pub events: Vec<TraceEvent>,
}

/// Per-server operation statistics derived from a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerOpStats {
    /// Operations the server ran.
    pub ops: u64,
    /// Routing decisions that chose this server.
    pub routed_to: u64,
    /// Total operation latency, microseconds.
    pub total_us: u64,
    /// Slowest single operation, microseconds.
    pub max_us: u64,
    /// Extensions produced across all operations.
    pub produced: u64,
}

impl ServerOpStats {
    /// Mean operation latency in microseconds (0 with no ops).
    pub fn mean_us(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.total_us as f64 / self.ops as f64
        }
    }
}

/// Aggregate view of a trace (see [`TraceData::summary`]).
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Matches that entered the system.
    pub spawned: u64,
    /// Matches consumed by a server operation.
    pub consumed: u64,
    /// Matches pruned against the threshold.
    pub pruned: u64,
    /// Complete matches offered to the top-k set.
    pub completed: u64,
    /// Matches abandoned unprocessed.
    pub abandoned: u64,
    /// Root candidates the seed source dropped unmaterialised (never
    /// spawned, so outside the conservation law).
    pub roots_unseeded: u64,
    /// Routing decisions recorded.
    pub routed: u64,
    /// Successful batch steals recorded.
    pub steals: u64,
    /// Matches moved across workers by stealing.
    pub stolen_matches: u64,
    /// Per-server operation statistics, indexed by `QNodeId::index() - 1`.
    pub per_server: Vec<(QNodeId, ServerOpStats)>,
    /// `(ts_us, value)` threshold trajectory, in time order.
    pub thresholds: Vec<(u64, f64)>,
    /// Span names opened by some worker but never closed (empty for a
    /// well-formed trace).
    pub unmatched_spans: Vec<String>,
}

impl TraceSummary {
    /// The match-lifecycle conservation law: every spawned match
    /// reaches exactly one terminal state.
    pub fn balanced(&self) -> bool {
        self.spawned == self.consumed + self.pruned + self.completed + self.abandoned
    }

    /// Matches still unaccounted for: `spawned - (terminal states)`,
    /// clamped at zero. Non-zero only for a malformed trace.
    pub fn pending(&self) -> i64 {
        self.spawned as i64 - (self.consumed + self.pruned + self.completed + self.abandoned) as i64
    }
}

impl TraceData {
    /// Aggregates the event stream into lifecycle counts, per-server
    /// latency stats, the threshold trajectory, and span pairing.
    pub fn summary(&self) -> TraceSummary {
        let mut s = TraceSummary::default();
        let mut per_server: Vec<(QNodeId, ServerOpStats)> = Vec::new();
        let mut open: Vec<(u32, String)> = Vec::new();
        fn stats(
            per_server: &mut Vec<(QNodeId, ServerOpStats)>,
            server: QNodeId,
        ) -> &mut ServerOpStats {
            if let Some(i) = per_server.iter().position(|(q, _)| *q == server) {
                return &mut per_server[i].1;
            }
            per_server.push((server, ServerOpStats::default()));
            &mut per_server.last_mut().unwrap().1
        }
        for e in &self.events {
            match &e.kind {
                TraceEventKind::SpanBegin { name } => open.push((e.tid, name.clone())),
                TraceEventKind::SpanEnd { name } => {
                    if let Some(i) = open.iter().rposition(|(tid, n)| *tid == e.tid && n == name) {
                        open.remove(i);
                    } else {
                        s.unmatched_spans
                            .push(format!("close without open: {name}"));
                    }
                }
                TraceEventKind::ServerOp {
                    server,
                    produced,
                    dur_us,
                    ..
                } => {
                    s.consumed += 1;
                    let st = stats(&mut per_server, *server);
                    st.ops += 1;
                    st.total_us += dur_us;
                    st.max_us = st.max_us.max(*dur_us);
                    st.produced += *produced as u64;
                }
                TraceEventKind::MatchSpawned { .. } => s.spawned += 1,
                TraceEventKind::MatchPruned { .. } => s.pruned += 1,
                TraceEventKind::MatchCompleted { .. } => s.completed += 1,
                TraceEventKind::MatchAbandoned { .. } => s.abandoned += 1,
                TraceEventKind::SeedsDropped { remaining, .. } => s.roots_unseeded += remaining,
                TraceEventKind::Routed(x) => {
                    s.routed += 1;
                    stats(&mut per_server, x.chosen).routed_to += 1;
                }
                TraceEventKind::ThresholdSample { value } => {
                    s.thresholds.push((e.ts_us, *value));
                }
                TraceEventKind::QueueDepth { .. } => {}
                TraceEventKind::BatchStolen { moved, .. } => {
                    s.steals += 1;
                    s.stolen_matches += *moved as u64;
                }
            }
        }
        for (_, name) in open {
            s.unmatched_spans.push(format!("never closed: {name}"));
        }
        per_server.sort_by_key(|(q, _)| q.index());
        s.per_server = per_server;
        s
    }

    /// The routing explain records, in time order.
    pub fn explains(&self) -> impl Iterator<Item = &RouteExplain> {
        self.events.iter().filter_map(|e| match &e.kind {
            TraceEventKind::Routed(x) => Some(x),
            _ => None,
        })
    }

    /// Writes the trace in Chrome trace-event JSON (the `traceEvents`
    /// array format), loadable in Perfetto and `chrome://tracing`.
    /// Spans become `B`/`E` duration events, server operations `X`
    /// complete events, match-lifecycle and routing events instants,
    /// and threshold/queue-depth samples counter tracks.
    pub fn write_chrome_trace(&self, out: &mut dyn Write) -> io::Result<()> {
        writeln!(out, "{{")?;
        writeln!(out, "  \"displayTimeUnit\": \"ms\",")?;
        writeln!(out, "  \"traceEvents\": [")?;
        let mut first = true;
        let mut sep = |out: &mut dyn Write| -> io::Result<()> {
            if first {
                first = false;
                Ok(())
            } else {
                writeln!(out, ",")
            }
        };
        for (tid, name) in &self.workers {
            sep(out)?;
            write!(
                out,
                "    {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                escape(name)
            )?;
        }
        for e in &self.events {
            sep(out)?;
            let (ts, tid) = (e.ts_us, e.tid);
            match &e.kind {
                TraceEventKind::SpanBegin { name } => write!(
                    out,
                    "    {{\"name\": \"{}\", \"cat\": \"phase\", \"ph\": \"B\", \
                     \"ts\": {ts}, \"pid\": 1, \"tid\": {tid}}}",
                    escape(name)
                )?,
                TraceEventKind::SpanEnd { name } => write!(
                    out,
                    "    {{\"name\": \"{}\", \"cat\": \"phase\", \"ph\": \"E\", \
                     \"ts\": {ts}, \"pid\": 1, \"tid\": {tid}}}",
                    escape(name)
                )?,
                TraceEventKind::ServerOp {
                    server,
                    seq,
                    produced,
                    dur_us,
                } => {
                    let start = ts.saturating_sub(*dur_us);
                    write!(
                        out,
                        "    {{\"name\": \"op q{}\", \"cat\": \"server\", \"ph\": \"X\", \
                         \"ts\": {start}, \"dur\": {dur_us}, \"pid\": 1, \"tid\": {tid}, \
                         \"args\": {{\"seq\": {seq}, \"produced\": {produced}}}}}",
                        server.0
                    )?;
                }
                TraceEventKind::MatchSpawned {
                    seq,
                    score,
                    max_final,
                } => write!(
                    out,
                    "    {{\"name\": \"spawned\", \"cat\": \"match\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {ts}, \"pid\": 1, \"tid\": {tid}, \
                     \"args\": {{\"seq\": {seq}, \"score\": {}, \"max_final\": {}}}}}",
                    num(*score),
                    num(*max_final)
                )?,
                TraceEventKind::MatchPruned {
                    seq,
                    max_final,
                    threshold,
                } => write!(
                    out,
                    "    {{\"name\": \"pruned\", \"cat\": \"match\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {ts}, \"pid\": 1, \"tid\": {tid}, \
                     \"args\": {{\"seq\": {seq}, \"max_final\": {}, \"threshold\": {}}}}}",
                    num(*max_final),
                    num(*threshold)
                )?,
                TraceEventKind::MatchCompleted { seq, score } => write!(
                    out,
                    "    {{\"name\": \"completed\", \"cat\": \"match\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {ts}, \"pid\": 1, \"tid\": {tid}, \
                     \"args\": {{\"seq\": {seq}, \"score\": {}}}}}",
                    num(*score)
                )?,
                TraceEventKind::MatchAbandoned { seq, max_final } => write!(
                    out,
                    "    {{\"name\": \"abandoned\", \"cat\": \"match\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {ts}, \"pid\": 1, \"tid\": {tid}, \
                     \"args\": {{\"seq\": {seq}, \"max_final\": {}}}}}",
                    num(*max_final)
                )?,
                TraceEventKind::SeedsDropped {
                    remaining,
                    max_final,
                    threshold,
                } => write!(
                    out,
                    "    {{\"name\": \"seeds dropped\", \"cat\": \"match\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {ts}, \"pid\": 1, \"tid\": {tid}, \
                     \"args\": {{\"remaining\": {remaining}, \"max_final\": {}, \"threshold\": {}}}}}",
                    num(*max_final),
                    num(*threshold)
                )?,
                TraceEventKind::Routed(x) => {
                    let mut cands = String::new();
                    for (i, c) in x.candidates.iter().enumerate() {
                        if i > 0 {
                            cands.push_str(", ");
                        }
                        cands.push_str(&format!(
                            "{{\"server\": \"q{}\", \"estimate\": {}}}",
                            c.server.0,
                            num(c.estimate),
                        ));
                    }
                    write!(
                        out,
                        "    {{\"name\": \"routed\", \"cat\": \"router\", \"ph\": \"i\", \"s\": \"t\", \
                         \"ts\": {ts}, \"pid\": 1, \"tid\": {tid}, \
                         \"args\": {{\"seq\": {}, \"strategy\": \"{}\", \"threshold\": {}, \
                         \"queue_len\": {}, \"chosen\": \"q{}\", \
                         \"candidates\": [{cands}]}}}}",
                        x.seq,
                        escape(x.strategy),
                        num(x.threshold),
                        x.queue_len,
                        x.chosen.0
                    )?;
                }
                TraceEventKind::ThresholdSample { value } => write!(
                    out,
                    "    {{\"name\": \"threshold\", \"cat\": \"topk\", \"ph\": \"C\", \
                     \"ts\": {ts}, \"pid\": 1, \"tid\": {tid}, \
                     \"args\": {{\"value\": {}}}}}",
                    num(*value)
                )?,
                TraceEventKind::QueueDepth { queue, depth } => {
                    let name = match queue {
                        QueueId::Router => "router queue".to_string(),
                        QueueId::Server(q) => format!("queue q{}", q.0),
                    };
                    write!(
                        out,
                        "    {{\"name\": \"{name}\", \"cat\": \"queue\", \"ph\": \"C\", \
                         \"ts\": {ts}, \"pid\": 1, \"tid\": {tid}, \
                         \"args\": {{\"depth\": {depth}}}}}"
                    )?;
                }
                TraceEventKind::BatchStolen { victim, moved } => write!(
                    out,
                    "    {{\"name\": \"stolen\", \"cat\": \"scheduler\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {ts}, \"pid\": 1, \"tid\": {tid}, \
                     \"args\": {{\"victim\": \"q{}\", \"moved\": {moved}}}}}",
                    victim.0
                )?,
            }
        }
        writeln!(out)?;
        writeln!(out, "  ]")?;
        writeln!(out, "}}")?;
        Ok(())
    }
}

/// Formats an `f64` as a JSON number (JSON has no NaN/inf; scores are
/// finite by construction, but clamp defensively).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.0".to_string()
    }
}

fn escape(s: &str) -> String {
    let mut o = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let mut w = WorkerTrace::disabled();
        assert!(!w.enabled());
        w.span_begin("x");
        w.span_end("x");
        assert!(w.op_start().is_none());
        w.threshold(whirlpool_score::Score::ZERO);
        // Dropping a disabled handle is a no-op.
    }

    #[test]
    fn events_flow_from_worker_to_finish() {
        let tracer = Tracer::new();
        let mut w = tracer.worker("w0");
        assert!(w.enabled());
        w.span_begin("phase");
        w.threshold(whirlpool_score::Score::new(0.5));
        w.queue_depth(QueueId::Router, 3);
        w.span_end("phase");
        drop(w);
        let data = tracer.finish();
        assert_eq!(data.workers, vec![(0, "w0".to_string())]);
        assert_eq!(data.events.len(), 4);
        let s = data.summary();
        assert!(s.unmatched_spans.is_empty());
        assert_eq!(s.thresholds.len(), 1);
    }

    #[test]
    fn block_flushing_dedupes_workers_and_keeps_order() {
        let tracer = Tracer::new();
        let mut w = tracer.worker("w0");
        let total = FLUSH_BLOCK + 10;
        for i in 0..total {
            w.push(TraceEventKind::MatchSpawned {
                seq: i as u64,
                score: 0.0,
                max_final: 1.0,
            });
        }
        drop(w);
        let data = tracer.finish();
        // Two flushed blocks, one worker entry.
        assert_eq!(data.workers, vec![(0, "w0".to_string())]);
        assert_eq!(data.events.len(), total);
        // Per-worker emit order survives coarse timestamps + merge.
        let seqs: Vec<u64> = data
            .events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::MatchSpawned { seq, .. } => Some(seq),
                _ => None,
            })
            .collect();
        assert!(seqs.windows(2).all(|p| p[0] < p[1]), "emit order lost");
    }

    #[test]
    fn summary_detects_unclosed_spans() {
        let tracer = Tracer::new();
        let mut w = tracer.worker("w0");
        w.span_begin("left-open");
        w.span_end("never-opened");
        drop(w);
        let s = tracer.finish().summary();
        assert_eq!(s.unmatched_spans.len(), 2);
    }

    #[test]
    fn conservation_law_over_a_synthetic_stream() {
        let tracer = Tracer::new();
        let mut w = tracer.worker("w0");
        // Three spawned: one consumed, one pruned, one completed.
        for (seq, kind) in [
            (1u64, "spawn"),
            (2, "spawn"),
            (3, "spawn"),
            (1, "op"),
            (2, "prune"),
            (3, "complete"),
        ] {
            match kind {
                "spawn" => w.push(TraceEventKind::MatchSpawned {
                    seq,
                    score: 0.0,
                    max_final: 1.0,
                }),
                "op" => w.push(TraceEventKind::ServerOp {
                    server: QNodeId(1),
                    seq,
                    produced: 0,
                    dur_us: 5,
                }),
                "prune" => w.push(TraceEventKind::MatchPruned {
                    seq,
                    max_final: 0.1,
                    threshold: 0.5,
                }),
                _ => w.push(TraceEventKind::MatchCompleted { seq, score: 0.9 }),
            }
        }
        drop(w);
        let s = tracer.finish().summary();
        assert!(s.balanced(), "{s:?}");
        assert_eq!(s.pending(), 0);
        assert_eq!(s.per_server.len(), 1);
        assert_eq!(s.per_server[0].1.ops, 1);
    }

    #[test]
    fn chrome_trace_has_the_envelope() {
        let tracer = Tracer::new();
        let mut w = tracer.worker("w0");
        w.span_begin("p");
        w.routed(RouteExplain {
            seq: 1,
            strategy: "min_alive_partial_matches",
            threshold: 0.0,
            queue_len: 1,
            chosen: QNodeId(2),
            candidates: vec![RouteCandidate {
                server: QNodeId(2),
                estimate: 0.5,
            }],
        });
        w.span_end("p");
        drop(w);
        let mut buf = Vec::new();
        tracer.finish().write_chrome_trace(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("\"traceEvents\""));
        assert!(s.contains("thread_name"));
        assert!(s.contains("min_alive_partial_matches"));
        assert!(s.contains("\"chosen\": \"q2\""));
    }
}
