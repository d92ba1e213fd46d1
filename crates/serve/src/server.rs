//! The daemon: accept loop, worker pool, and the per-request pipeline
//! (parse → admit → pick a rung → evaluate under watchdog → classify).

use crate::error::{Outcome, RejectReason, ServeError};
use crate::governor::{Admission, Permit, Rung, WatchGuard, Watchdog};
use crate::http::{read_request, respond, Request};
use crate::json::{escape, Json};
use crate::metrics::{RungHistory, ServeMetrics};
use crate::shared::{Corpus, Prepare, Registry};
use std::collections::VecDeque;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use whirlpool_core::{
    evaluate_scope, Algorithm, CancelToken, Collection, CollectionOptions, CollectionResult,
    Completeness, EvalOptions, FaultPlan, Scope, MAX_INJECTED_DELAY,
};
use whirlpool_index::DocView;
use whirlpool_pattern::TreePattern;
use whirlpool_score::Normalization;
use whirlpool_xml::{NodeId, TagId};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` for an ephemeral
    /// port — read the bound address off [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads evaluating queries.
    pub workers: usize,
    /// Accepted connections waiting for a worker; beyond this the
    /// accept loop sheds load with an immediate 429.
    pub queue_depth: usize,
    /// Admission token bucket: queries evaluated concurrently.
    pub max_inflight: usize,
    /// Server-operation spend considered affordable at zero load (the
    /// admission cost gate and the ladder's op budgets scale from it).
    pub capacity_ops: f64,
    /// Full-service deadline (the ladder shrinks it under pressure).
    pub base_deadline: Duration,
    /// Watchdog slack past the rung deadline before the hard cancel.
    pub watchdog_grace: Duration,
    /// Warm-start directory: at boot, every document that had to be
    /// parsed (no usable snapshot) gets a snapshot written here by a
    /// background thread, so the *next* boot peeks it in O(synopsis)
    /// instead of re-indexing.
    pub snapshot_dir: Option<std::path::PathBuf>,
    /// Residency target for snapshot-backed documents (peeked or
    /// attached): at most this many mapped at once (0 = unlimited),
    /// handed to [`Collection::set_max_resident`]. A target, not a hard
    /// cap — snapshots pinned by in-flight queries are not evictable.
    pub max_resident: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 8,
            max_inflight: 4,
            capacity_ops: 5e6,
            base_deadline: Duration::from_millis(2000),
            watchdog_grace: Duration::from_millis(250),
            snapshot_dir: None,
            max_resident: 0,
        }
    }
}

/// Connection queue between the accept loop and the workers; `closed` is the shutdown signal.
struct ConnQueue {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    depth: usize,
    closed: AtomicBool,
}

impl ConnQueue {
    fn new(depth: usize) -> ConnQueue {
        ConnQueue {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            depth: depth.max(1),
            closed: AtomicBool::new(false),
        }
    }

    /// Sets `closed`, then wakes every worker through the lock, so none misses it.
    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        drop(self.queue.lock().unwrap_or_else(|p| p.into_inner()));
        self.ready.notify_all();
    }

    /// Enqueues unless full; a full queue hands the connection back so
    /// the caller can shed it with a 429.
    fn push(&self, conn: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.queue.lock().unwrap_or_else(|p| p.into_inner());
        if q.len() >= self.depth {
            return Err(conn);
        }
        q.push_back(conn);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a connection is available; `None` once the queue is
    /// closed and empty.
    fn pop(&self) -> Option<TcpStream> {
        let mut q = self.queue.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(conn) = q.pop_front() {
                return Some(conn);
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Everything a worker needs, cheaply clonable.
#[derive(Clone)]
struct Daemon {
    corpus: Arc<Corpus>,
    admission: Arc<Admission>,
    watchdog: Arc<Watchdog>,
    metrics: Arc<ServeMetrics>,
    config: Arc<ServeConfig>,
    request_seq: Arc<AtomicU64>,
    /// Lazy documents that collection requests pruned off their
    /// ceilings while unmapped — the attaches the synopses saved.
    pruned_before_attach: Arc<AtomicU64>,
    /// Shards whose idf counts ran for a request rather than coming
    /// from their memo: a repeated query shape adds nothing.
    shards_counted: Arc<AtomicU64>,
    history: Arc<RungHistory>,
}

/// A running daemon. Dropping the handle does *not* stop it; call
/// [`shutdown`](ServerHandle::shutdown).
pub struct ServerHandle {
    addr: SocketAddr,
    queue: Arc<ConnQueue>,
    threads: Vec<std::thread::JoinHandle<()>>,
    watchdog: Arc<Watchdog>,
    metrics: Arc<ServeMetrics>,
    admission: Arc<Admission>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's counters.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Queries currently holding an admission token.
    pub fn inflight(&self) -> usize {
        self.admission.inflight()
    }

    /// Stops accepting, drains the workers, and joins every thread.
    /// In-flight evaluations finish (or are reclaimed by their own
    /// deadlines); queued-but-unserved connections are dropped.
    pub fn shutdown(mut self) {
        self.queue.close();
        // One connection wakes the accept thread, which drops what it
        // accepts once closed; `0.0.0.0`/`::` are reached via loopback.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.watchdog.stop();
    }
}

/// Starts the daemon: binds `config.addr`, spawns the accept loop, the
/// worker pool, and the watchdog, and returns immediately.
pub fn start(config: ServeConfig, registry: Registry) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;

    let queue = Arc::new(ConnQueue::new(config.queue_depth));
    let corpus = registry.freeze();
    corpus.collection.set_max_resident(config.max_resident);
    let daemon = Daemon {
        corpus: Arc::new(corpus),
        admission: Arc::new(Admission::new(config.max_inflight, config.capacity_ops)),
        watchdog: Watchdog::start(),
        metrics: Arc::new(ServeMetrics::default()),
        config: Arc::new(config),
        request_seq: Arc::new(AtomicU64::new(0)),
        pruned_before_attach: Arc::new(AtomicU64::new(0)),
        shards_counted: Arc::new(AtomicU64::new(0)),
        history: Arc::new(RungHistory::default()),
    };

    let mut threads = Vec::new();
    {
        let queue = queue.clone();
        let metrics = daemon.metrics.clone();
        threads.push(
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || loop {
                    let accepted = listener.accept();
                    if queue.closed.load(Ordering::Acquire) {
                        break;
                    }
                    match accepted {
                        Ok((conn, _)) => {
                            if let Err(mut conn) = queue.push(conn) {
                                // Shed at the door: the queue is full,
                                // so tell the client to back off
                                // instead of making it wait.
                                metrics.shed.fetch_add(1, Ordering::Relaxed);
                                let _ = respond(
                                    &mut conn,
                                    429,
                                    &[("Retry-After", "1".to_string())],
                                    "{\"error\": \"overloaded: connection queue full\", \
                                     \"status\": 429}\n",
                                );
                                drain_before_close(conn);
                            }
                        }
                        // Out of descriptors and the like: back off.
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                })?,
        );
    }
    // Warm-start maintenance: snapshot every parsed document in the
    // background so the next boot attaches instead of re-indexing.
    // Off the request path entirely — the thread holds only `Arc`s and
    // exits when the last document is written.
    if let Some(dir) = daemon.config.snapshot_dir.clone() {
        let corpus = daemon.corpus.clone();
        let shards = corpus.collection.shards();
        if shards.iter().any(|s| s.as_parsed().is_some()) {
            threads.push(
                std::thread::Builder::new()
                    .name("serve-snapshotter".into())
                    .spawn(move || {
                        let _ = std::fs::create_dir_all(&dir);
                        for shard in corpus.collection.shards() {
                            let Some((doc, index)) = shard.as_parsed() else {
                                continue;
                            };
                            // `save_snapshot` writes then renames, so a
                            // daemon that dies mid-write leaves no
                            // truncated file to poison the next warm
                            // start.
                            let path = dir.join(format!("{}.wps", shard.name()));
                            let _ = whirlpool_store::save_snapshot(doc, index, &path);
                        }
                    })?,
            );
        }
    }
    for i in 0..daemon.config.workers.max(1) {
        let queue = queue.clone();
        let daemon = daemon.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || {
                    while let Some(mut conn) = queue.pop() {
                        // The daemon's one unwind guard: a panic anywhere
                        // in a request unwinds its admission token and
                        // watchdog guard, answers 500, and the worker
                        // serves the next connection.
                        let handled = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            handle_connection(&daemon, &mut conn)
                        }));
                        if handled.is_err() {
                            daemon.metrics.panics.fetch_add(1, Ordering::Relaxed);
                            // The watchdog's probe may have left the
                            // socket non-blocking.
                            let _ = conn.set_nonblocking(false);
                            let _ = respond(
                                &mut conn,
                                500,
                                &[],
                                "{\"error\": \"internal error: the request panicked\", \
                                 \"status\": 500}\n",
                            );
                        }
                    }
                })?,
        );
    }

    Ok(ServerHandle {
        addr,
        queue,
        threads,
        watchdog: daemon.watchdog.clone(),
        metrics: daemon.metrics.clone(),
        admission: daemon.admission.clone(),
    })
}

/// Starts the daemon and blocks the calling thread until the process
/// dies (the CLI `serve` subcommand's mode of operation).
pub fn serve_blocking(config: ServeConfig, registry: Registry) -> std::io::Result<()> {
    let _handle = start(config, registry)?;
    loop {
        std::thread::park();
    }
}

// ---------------------------------------------------------------------
// Request pipeline.

/// Discards whatever request bytes the client already sent, then drops
/// the connection. Closing a socket whose receive buffer still holds
/// unread data makes Linux abort with RST and discard the in-flight
/// response — a shed client would see "connection reset" instead of its
/// 429. Bounded (64 KiB, 50 ms) so a slow or malicious client cannot
/// stall the accept loop.
fn drain_before_close(mut conn: TcpStream) {
    use std::io::Read as _;
    let _ = conn.set_read_timeout(Some(Duration::from_millis(50)));
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    while drained < 64 * 1024 {
        match conn.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn handle_connection(daemon: &Daemon, conn: &mut TcpStream) {
    let request = match read_request(conn) {
        Ok(r) => r,
        Err(e) => {
            daemon.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = error_response(conn, &e);
            return;
        }
    };
    let result = route(daemon, conn, &request);
    if let Err(e) = result {
        match e {
            ServeError::Rejected { .. } => daemon.metrics.rejected.fetch_add(1, Ordering::Relaxed),
            ServeError::BadRequest(_) | ServeError::Engine(_) => {
                daemon.metrics.bad_requests.fetch_add(1, Ordering::Relaxed)
            }
            ServeError::NotFound(_) => daemon.metrics.not_found.fetch_add(1, Ordering::Relaxed),
            ServeError::TimedOut { .. } | ServeError::Io(_) | ServeError::Render(_) => 0,
        };
        let _ = error_response(conn, &e);
    }
}

fn error_response(conn: &mut TcpStream, e: &ServeError) -> std::io::Result<()> {
    let mut headers: Vec<(&str, String)> = Vec::new();
    if let ServeError::Rejected { retry_after, .. } = e {
        headers.push(("Retry-After", retry_after.as_secs().max(1).to_string()));
    }
    let body = format!(
        "{{\"error\": \"{}\", \"status\": {}}}\n",
        escape(&e.to_string()),
        e.status()
    );
    respond(conn, e.status(), &headers, &body)
}

fn route(daemon: &Daemon, conn: &mut TcpStream, request: &Request) -> Result<(), ServeError> {
    match (request.method.as_str(), request.target.as_str()) {
        ("GET", "/healthz") => {
            let body = format!(
                "{{\"status\": \"ok\", \"documents\": {}, \"inflight\": {}, \
                 \"pressure\": {:.3}}}\n",
                daemon.corpus.collection.len(),
                daemon.admission.inflight(),
                daemon.admission.pressure(),
            );
            respond(conn, 200, &[], &body)?;
            Ok(())
        }
        ("GET", "/metrics") => {
            // Per-document prepare costs ride along with the counters:
            // `index_build_ms` for cold (parsed) documents,
            // `snapshot_attach_ms` for warm (attached) ones,
            // `snapshot_peek_ms` for lazy (peeked) ones.
            let collection = &daemon.corpus.collection;
            let mut docs_json = String::from("[");
            for (i, (shard, prepare)) in collection
                .shards()
                .iter()
                .zip(&daemon.corpus.prepares)
                .enumerate()
            {
                if i > 0 {
                    docs_json.push_str(", ");
                }
                docs_json.push_str(&format!(
                    "{{\"name\": \"{}\", \"backing\": \"{}\", \"resident\": {}, \
                     \"{}\": {:.3}}}",
                    escape(shard.name()),
                    prepare.backing_label(),
                    shard.as_parsed().is_none() && shard.is_resident(),
                    prepare.stat_name(),
                    prepare.ms(),
                ));
            }
            docs_json.push(']');
            let peeked = (daemon.corpus.prepares.iter())
                .filter(|p| matches!(p, Prepare::Peeked { .. }))
                .count();
            let base = daemon
                .metrics
                .snapshot()
                .to_json_with_docs(daemon.admission.inflight(), &docs_json);
            // Splice in the residency counters and the ladder's recent
            // decisions (same string surgery as the docs field).
            let body = format!(
                "{}, \"shards\": {{\"attached\": {}, \"attach_failed\": {}, \
                 \"peeked\": {peeked}, \"pruned_before_attach\": {}, \"evictions\": {}, \
                 \"resident\": {}, \"counted\": {}}}, \"history\": {}}}\n",
                &base[..base.len() - 1],
                collection.attach_count(),
                collection.attach_failed_count(),
                daemon.pruned_before_attach.load(Ordering::Relaxed),
                collection.eviction_count(),
                collection.resident_count(),
                daemon.shards_counted.load(Ordering::Relaxed),
                daemon.history.to_json(),
            );
            respond(conn, 200, &[], &body)?;
            Ok(())
        }
        ("POST", "/query") => {
            daemon.metrics.received.fetch_add(1, Ordering::Relaxed);
            handle_query(daemon, conn, &request.body)
        }
        ("GET", "/query") => Err(ServeError::BadRequest(
            "use POST /query with a JSON body".into(),
        )),
        _ => Err(ServeError::NotFound(request.target.clone())),
    }
}

/// The parsed `/query` body.
struct QueryRequest {
    doc: String,
    query: String,
    k: usize,
    /// Query every loaded document as one sharded corpus instead of a
    /// single named document.
    collection: bool,
    fault: Option<String>,
    fault_seed: u64,
    /// Test hook: mean artificial per-op cost, for exercising the
    /// ladder and the watchdog without a huge document. Runs as a
    /// `Delay` fault on every server the `fault` spec leaves alone.
    op_cost: Option<Duration>,
}

impl QueryRequest {
    fn parse(body: &[u8]) -> Result<QueryRequest, ServeError> {
        let text = std::str::from_utf8(body)
            .map_err(|_| ServeError::BadRequest("body is not utf-8".into()))?;
        let v = Json::parse(text).map_err(|e| ServeError::BadRequest(e.to_string()))?;
        let query = v
            .get("query")
            .and_then(Json::as_str)
            .ok_or_else(|| ServeError::BadRequest("missing \"query\" field".into()))?
            .to_string();
        let k = v.get("k").and_then(Json::as_u64).unwrap_or(10) as usize;
        if k == 0 {
            return Err(ServeError::BadRequest("\"k\" must be at least 1".into()));
        }
        let op_cost = v
            .get("op_cost_us")
            .and_then(Json::as_u64)
            .map(Duration::from_micros);
        if op_cost.is_some_and(|c| c > MAX_INJECTED_DELAY) {
            return Err(ServeError::BadRequest(format!(
                "\"op_cost_us\" must be at most {}",
                MAX_INJECTED_DELAY.as_micros()
            )));
        }
        Ok(QueryRequest {
            doc: v
                .get("doc")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            query,
            k,
            collection: v.get("collection").and_then(Json::as_bool).unwrap_or(false),
            fault: v
                .get("fault")
                .and_then(Json::as_str)
                .map(str::to_string)
                .filter(|s| !s.is_empty()),
            fault_seed: v.get("fault_seed").and_then(Json::as_u64).unwrap_or(0),
            op_cost,
        })
    }

    /// The request's fault plan: the `fault` spec, refused if it names
    /// a server the query lacks, plus `op_cost_us` as a delay on every
    /// server the spec leaves alone.
    fn fault_plan(&self, pattern: &TreePattern) -> Result<Option<FaultPlan>, ServeError> {
        let seed = self.fault_seed;
        let plan = self
            .fault
            .as_deref()
            .map(|spec| FaultPlan::parse(spec, seed))
            .transpose()?;
        if let Some(plan) = &plan {
            plan.check(pattern)?;
        }
        Ok(match self.op_cost {
            Some(cost) => Some(
                plan.unwrap_or_else(|| FaultPlan::seeded(seed))
                    .delay_unfaulted(pattern.server_ids(), cost),
            ),
            None => plan,
        })
    }
}

/// An admitted request under the governor: its admission token, the
/// rung that admission-time pressure picked, the watchdog guard, and
/// engine options carrying the rung's budgets and the watchdog's
/// cancel token.
struct Governed<'d> {
    permit: Permit,
    rung: Rung,
    guard: WatchGuard,
    started: Instant,
    options: EvalOptions,
    unsettled: Unsettled<'d>,
}

/// An admitted request [`Governed::finish`] has not classified yet. A
/// request that panics first drops it in the unwind, which settles the
/// request as `aborted`, so the conservation law survives the panic.
struct Unsettled<'d>(&'d ServeMetrics);

impl Drop for Unsettled<'_> {
    fn drop(&mut self) {
        self.0.aborted.fetch_add(1, Ordering::Relaxed);
    }
}

/// Admits a request predicted to cost `estimated_ops` (token bucket +
/// cost gate; refusals are 429s), picks its rung, and puts it under
/// the watchdog.
fn govern<'d>(
    daemon: &'d Daemon,
    conn: &TcpStream,
    estimated_ops: f64,
    k: usize,
) -> Result<Governed<'d>, ServeError> {
    let permit = daemon
        .admission
        .try_admit(estimated_ops)
        .map_err(|reason| ServeError::Rejected {
            retry_after: Duration::from_secs(match reason {
                RejectReason::Busy { .. } => 1,
                RejectReason::TooExpensive { .. } => 2,
            }),
            reason,
        })?;

    // The ladder: pressure at admission picks the rung and its budgets.
    let pressure = daemon.admission.pressure();
    let rung = Rung::for_pressure(pressure);
    daemon.history.record(rung.label(), pressure);
    let (deadline, max_ops) = rung.budgets(daemon.config.base_deadline, daemon.config.capacity_ops);

    // The watchdog backstops the rung deadline and watches for client
    // disconnect. No socket I/O happens until the guard is dropped
    // (the probe shares the connection's file description).
    let cancel = CancelToken::new();
    let started = Instant::now();
    let guard = daemon.watchdog.watch(
        cancel.clone(),
        started + deadline + daemon.config.watchdog_grace,
        conn,
    )?;
    // Counted only now: every code path past this point classifies the
    // request into exactly one outcome (a panic into `aborted`, as
    // `Unsettled` drops), keeping `admitted = exact + degraded +
    // timed_out + aborted` conserved.
    daemon.metrics.admitted.fetch_add(1, Ordering::Relaxed);

    let mut options = EvalOptions::top_k(k);
    options.deadline = Some(deadline);
    options.max_server_ops = max_ops;
    options.cancel = Some(cancel);
    Ok(Governed {
        permit,
        rung,
        guard,
        started,
        options,
        unsettled: Unsettled(&daemon.metrics),
    })
}

impl Governed<'_> {
    /// Classification: exactly one outcome per admitted request, before
    /// any fallible I/O so the conservation law survives write errors.
    /// Returns the outcome and its HTTP status.
    fn finish(
        self,
        daemon: &Daemon,
        conn: &TcpStream,
        completeness: &Completeness,
    ) -> (Outcome, u16) {
        let fired = self.guard.fired();
        drop(self.guard);
        let outcome = match (fired, completeness) {
            (Some(_), _) => Outcome::TimedOut,
            (None, Completeness::Exact) => Outcome::Exact,
            (None, Completeness::Truncated { .. }) => Outcome::Degraded,
        };
        daemon.metrics.classify(outcome);
        std::mem::forget(self.unsettled);
        drop(self.permit);
        // Restore blocking I/O (the watchdog probe flipped the shared
        // file description to non-blocking). Failure means the client
        // is gone — the response write will fail harmlessly too.
        let _ = conn.set_nonblocking(false);
        let status = if outcome == Outcome::TimedOut {
            504
        } else {
            200
        };
        (outcome, status)
    }
}

/// The one `/query` pipeline: resolve the scope (one document, or with
/// `"collection": true` every loaded document as a sharded corpus),
/// price admission off the scope's synopses, then run
/// [`whirlpool_core::evaluate_scope`] — scope idf, global threshold
/// sharing, shard pruning by count ceilings, attach-on-visit — under
/// the rung's budgets and the watchdog's cancel token, once: a run a
/// failed server operation stopped is a certified truncated reply, not
/// a reason to run again. The driver visits shards one after another on
/// the worker's thread; the pool's workers share the collection.
fn handle_query(daemon: &Daemon, conn: &mut TcpStream, body: &[u8]) -> Result<(), ServeError> {
    let req = QueryRequest::parse(body)?;
    let collection = &daemon.corpus.collection;
    let scope = if req.collection {
        if !req.doc.is_empty() {
            return Err(ServeError::BadRequest(
                "collection mode queries every loaded document; drop the \"doc\" field".into(),
            ));
        }
        if collection.is_empty() {
            return Err(ServeError::NotFound("no documents loaded".into()));
        }
        Scope::Corpus
    } else {
        Scope::Shard(
            (daemon.corpus.index_of(&req.doc))
                .ok_or_else(|| ServeError::NotFound(req.doc.clone()))?,
        )
    };
    let pattern = whirlpool_pattern::parse_pattern(&req.query)
        .map_err(|e| ServeError::BadRequest(format!("query {:?}: {e}", req.query)))?;
    // Validate the chaos spec before admission: a malformed spec, or
    // one naming a server the query lacks, is the client's fault, not
    // load.
    let fault_plan = req.fault_plan(&pattern)?;

    // Admission is priced before any model or context exists, off the
    // synopses: the scope's candidate answer roots, times one op per
    // server and one for the root. In relaxed mode a root match meets
    // each server at most once, so this bounds the engine's work. A
    // shard that has not counted the shape yet walks its answers once
    // more to count them.
    let answer_tag = pattern.node(pattern.root()).tag.as_str();
    let per_root_ops = pattern.server_ids().count() as f64 + 1.0;
    let roots: u64 = (scope.shards(collection.len()))
        .map(|i| collection.shards()[i].synopsis().answers(answer_tag))
        .sum();
    let uncounted = collection.uncounted_answers(scope, &pattern);
    let estimate = roots as f64 * per_root_ops + uncounted as f64;
    let mut gov = govern(daemon, conn, estimate, req.k)?;
    gov.options.fault_plan = fault_plan;

    // Whirlpool-S: the worker pool already provides cross-request
    // parallelism, so a per-request multi-threaded engine would only
    // add thread churn under load.
    let result = evaluate_scope(
        collection,
        scope,
        &pattern,
        &Algorithm::WhirlpoolS,
        &gov.options,
        Normalization::Sparse,
        &CollectionOptions::default(),
    );
    daemon.pruned_before_attach.fetch_add(
        result.collection_metrics.shards_pruned_before_attach as u64,
        Ordering::Relaxed,
    );
    daemon.shards_counted.fetch_add(
        result.collection_metrics.shards_counted as u64,
        Ordering::Relaxed,
    );

    let (rung, started) = (gov.rung, gov.started);
    let (outcome, status) = gov.finish(daemon, conn, &result.completeness);
    let body = query_response_json(
        daemon.request_seq.fetch_add(1, Ordering::Relaxed),
        collection,
        (outcome, rung),
        &result,
        started.elapsed(),
    )?;
    // A disconnected client can't receive this; the write fails and
    // that is fine — the worker is already reclaimed.
    let _ = respond(conn, status, &[], &body);
    Ok(())
}

/// The `, "id": "…"` fragment of every answer that has an `id`
/// attribute (empty otherwise), in answer order. A lazy shard evicted
/// since its run re-attaches once ([`Collection::visit_answers`]); if
/// that fails its answers ship without ids. An id that is not UTF-8 is
/// an error ([`id_fragment`]).
fn answer_ids(
    collection: &Collection,
    result: &CollectionResult,
) -> Result<Vec<String>, ServeError> {
    let mut ids = vec![String::new(); result.answers.len()];
    let mut failed = None;
    collection.visit_answers(result, |rank, a, doc| {
        match id_fragment(doc, doc.tag_id("id"), a.root) {
            Ok(id) => ids[rank] = id,
            Err(e) => {
                failed.get_or_insert(e);
            }
        }
    });
    failed.map_or(Ok(ids), Err)
}

/// The `, "id": "…"` fragment of an answer, empty if it has no `id`
/// attribute. Stored bytes that are not UTF-8 are an error, not a lossy
/// string.
fn id_fragment(
    doc: DocView<'_>,
    id_attr: Option<TagId>,
    root: NodeId,
) -> Result<String, ServeError> {
    let Some(bytes) = id_attr.and_then(|t| doc.attribute_bytes(root, t)) else {
        return Ok(String::new());
    };
    let id = std::str::from_utf8(bytes).map_err(|e| {
        ServeError::Render(format!(
            "node {}: the id attribute is not UTF-8 ({e})",
            root.index()
        ))
    })?;
    Ok(format!(", \"id\": \"{}\"", escape(id)))
}

/// The `/query` reply: the outcome, the certificate of a truncated
/// run, shard and engine counters, and the answers, each naming its
/// document.
fn query_response_json(
    seq: u64,
    collection: &Collection,
    (outcome, rung): (Outcome, Rung),
    result: &CollectionResult,
    elapsed: Duration,
) -> Result<String, ServeError> {
    let ids = answer_ids(collection, result)?;
    let mut body = String::with_capacity(512);
    body.push_str("{\n");
    body.push_str(&format!("  \"request\": {seq},\n"));
    body.push_str(&format!("  \"outcome\": \"{}\",\n", outcome.label()));
    body.push_str(&format!("  \"rung\": \"{}\",\n", rung.label()));
    body.push_str(&format!(
        "  \"completeness\": \"{}\",\n",
        result.completeness.label()
    ));
    if let Completeness::Truncated {
        pending_matches,
        score_bound,
    } = result.completeness
    {
        body.push_str(&format!("  \"pending_matches\": {pending_matches},\n"));
        body.push_str(&format!("  \"score_bound\": {score_bound:.6},\n"));
    }
    let m = &result.metrics;
    body.push_str(&format!("  \"servers_failed\": {},\n", m.servers_failed));
    body.push_str(&format!("  \"cancellations\": {},\n", m.cancellations));
    let counts = &result.collection_metrics;
    body.push_str(&format!(
        "  \"shards\": {{\"total\": {}, \"visited\": {}, \"pruned\": {}, \
         \"pruned_before_attach\": {}, \"skipped_budget\": {}, \"counted\": {}}},\n",
        counts.shards_total,
        counts.shards_visited,
        counts.shards_pruned,
        counts.shards_pruned_before_attach,
        counts.shards_skipped_budget,
        counts.shards_counted,
    ));
    body.push_str(&format!("  \"roots_unseeded\": {},\n", m.roots_unseeded));
    body.push_str(&format!(
        "  \"elapsed_ms\": {:.3},\n",
        elapsed.as_secs_f64() * 1e3
    ));
    body.push_str(&format!(
        "  \"model_build_ms\": {:.3},\n",
        result.model_build.as_secs_f64() * 1e3
    ));
    body.push_str("  \"answers\": [\n");
    for (i, (a, id)) in result.answers.iter().zip(&ids).enumerate() {
        body.push_str(&format!(
            "    {{\"rank\": {}, \"doc\": \"{}\", \"node\": {}, \"score\": {:.6}{id}}}{}\n",
            i + 1,
            escape(collection.shards()[a.shard].name()),
            a.root.index(),
            a.score.value(),
            if i + 1 < result.answers.len() {
                ","
            } else {
                ""
            },
        ));
    }
    body.push_str("  ]\n}\n");
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::DocState;
    use std::io::{Read as _, Write as _};

    #[test]
    fn an_answer_id_that_is_not_utf8_is_a_render_error() {
        let doc = whirlpool_xml::parse_document("<r><a id=\"x1\"/></r>").unwrap();
        let mut blob = doc.view().attr_blob.to_vec();
        blob[0] = 0xff;
        let forged = DocView {
            attr_blob: &blob,
            ..doc.view()
        };
        let (a, id) = (NodeId::from_index(2), doc.tag_id("id"));
        assert_eq!(id_fragment(doc.view(), id, a).unwrap(), ", \"id\": \"x1\"");
        let err = id_fragment(forged, id, a).unwrap_err();
        assert!(matches!(err, ServeError::Render(_)), "{err}");
        assert_eq!(err.status(), 500);
    }

    fn test_registry() -> Registry {
        let doc = whirlpool_xml::parse_document(
            "<shelf>\
             <book id=\"b1\"><title>dune</title><isbn>1</isbn></book>\
             <book id=\"b2\"><title>dune</title></book>\
             <book id=\"b3\"><review><title>dune</title></review></book>\
             </shelf>",
        )
        .unwrap();
        let mut registry = Registry::new();
        registry.insert(DocState::new("books", doc));
        registry
    }

    /// `raw` sent, and the reply's status and body. A reply that takes
    /// over 10 s fails the test rather than hang it: a worker lost to a
    /// panic never answers.
    fn send(addr: SocketAddr, raw: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut response = String::new();
        s.read_to_string(&mut response)
            .expect("a reply within 10 s");
        let status: u16 = response
            .split(' ')
            .nth(1)
            .and_then(|v| v.parse().ok())
            .expect("status line");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn post_query(addr: SocketAddr, json: &str) -> (u16, String) {
        send(
            addr,
            &format!(
                "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{json}",
                json.len()
            ),
        )
    }

    #[test]
    fn serves_health_query_and_metrics_end_to_end() {
        let handle = start(ServeConfig::default(), test_registry()).unwrap();
        let addr = handle.addr();

        let (status, body) = send(addr, "GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"documents\": 1"));

        let (status, body) = post_query(addr, r#"{"query": "//book[./title and ./isbn]", "k": 2}"#);
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("outcome").and_then(Json::as_str), Some("exact"));
        assert_eq!(v.get("rung").and_then(Json::as_str), Some("full"));
        assert!(
            v.get("roots_unseeded").and_then(Json::as_u64).is_some(),
            "{body}"
        );
        // Reported on its own, and inside `elapsed_ms`.
        let model_build_ms = v.get("model_build_ms").and_then(Json::as_f64);
        assert!(model_build_ms.is_some_and(|ms| ms >= 0.0), "{body}");
        let Some(Json::Arr(answers)) = v.get("answers") else {
            panic!("no answers: {body}")
        };
        assert_eq!(answers.len(), 2);
        assert_eq!(
            answers[0].get("id").and_then(Json::as_str),
            Some("b1"),
            "the exact match outranks the relaxed ones"
        );

        // Unknown documents 404; malformed bodies and queries 400.
        let (status, _) = post_query(addr, r#"{"doc": "nope", "query": "//a"}"#);
        assert_eq!(status, 404);
        let (status, _) = post_query(addr, "not json");
        assert_eq!(status, 400);
        let (status, _) = post_query(addr, r#"{"query": "///["}"#);
        assert_eq!(status, 400);
        let (status, _) = post_query(addr, r#"{"query": "//book", "fault": "garbage"}"#);
        assert_eq!(status, 400, "bad fault specs are the client's fault");
        // So is a spec faulting a server the query does not have: it
        // would never fire, and the reply would claim an exact answer.
        let (status, body) = post_query(
            addr,
            r#"{"query": "//book[./title]", "fault": "server=9:panic@0"}"#,
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("server 9"), "{body}");

        let (status, body) = send(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        let m = Json::parse(&body).unwrap();
        assert_eq!(m.get("admitted").and_then(Json::as_u64), Some(1));
        assert_eq!(m.get("exact").and_then(Json::as_u64), Some(1));
        assert_eq!(m.get("inflight").and_then(Json::as_u64), Some(0));

        handle.shutdown();
    }

    /// The first request of a query shape counts the document's idf;
    /// the rest, in either scope, read the shard's memo and reply the
    /// same answers.
    #[test]
    fn a_repeated_query_shape_builds_its_model_from_the_memo() {
        let handle = start(ServeConfig::default(), test_registry()).unwrap();
        let addr = handle.addr();
        let counted = |body: &str| {
            let v = Json::parse(body).unwrap();
            let shards = v.get("shards").expect("shards object");
            shards.get("counted").and_then(Json::as_u64).unwrap()
        };
        let answers = |body: &str| body[body.find("\"answers\"").unwrap()..].to_string();
        let query = r#"{"query": "//book[./title and .//isbn]", "k": 3}"#;
        let (status, first) = post_query(addr, query);
        assert_eq!(status, 200, "{first}");
        assert_eq!(counted(&first), 1, "{first}");
        for request in [
            query,
            r#"{"collection": true, "query": "//book[./title and .//isbn]", "k": 3}"#,
        ] {
            let (status, again) = post_query(addr, request);
            assert_eq!(status, 200, "{again}");
            assert_eq!(counted(&again), 0, "{again}");
            assert_eq!(answers(&again), answers(&first));
        }
        let (_, body) = send(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        let m = Json::parse(&body).unwrap();
        let shards = m.get("shards").expect("shards counters");
        assert_eq!(shards.get("counted").and_then(Json::as_u64), Some(1));
        handle.shutdown();
    }

    /// The accept thread blocks in `accept()`, so `shutdown` must wake
    /// it whatever address the daemon bound — with no request ever sent.
    #[test]
    fn shutdown_wakes_the_accept_thread_on_every_bind_address() {
        for addr in ["127.0.0.1:0", "0.0.0.0:0", "[::1]:0", "[::]:0"] {
            let config = ServeConfig {
                addr: addr.into(),
                ..ServeConfig::default()
            };
            let handle = match start(config, test_registry()) {
                Ok(handle) => handle,
                Err(_) if addr.starts_with('[') => continue, // no IPv6 here
                Err(e) => panic!("{addr}: {e}"),
            };
            let (done, returned) = std::sync::mpsc::channel();
            let shutter = std::thread::spawn(move || {
                handle.shutdown();
                let _ = done.send(());
            });
            returned
                .recv_timeout(Duration::from_secs(2))
                .unwrap_or_else(|_| panic!("{addr}: shutdown still blocked after 2 s"));
            shutter.join().unwrap();
        }
    }

    /// A request costs its own work: nothing between the client's
    /// connect and the worker waits on a clock.
    #[test]
    fn healthz_round_trip_median_is_under_a_millisecond() {
        let handle = start(ServeConfig::default(), test_registry()).unwrap();
        let mut round_trips: Vec<Duration> = (0..51)
            .map(|_| {
                let sent = Instant::now();
                let (status, body) = send(handle.addr(), "GET /healthz HTTP/1.1\r\n\r\n");
                assert_eq!(status, 200, "{body}");
                sent.elapsed()
            })
            .collect();
        handle.shutdown();
        round_trips.sort_unstable();
        let median = round_trips[round_trips.len() / 2];
        assert!(
            median < Duration::from_millis(1),
            "median {median:?} of {round_trips:?}"
        );
    }

    /// A document query and a collection query, as `/query` bodies.
    const VALID_QUERY_BODIES: [&str; 2] = [
        r#"{"doc": "books", "query": "//book[./title and ./isbn]", "k": 2, "fault": "server=1:delay@10", "fault_seed": 3}"#,
        r#"{"collection": true, "query": "//book[./title]", "k": 3, "op_cost_us": 50}"#,
    ];

    /// Every truncation and every single-bit flip of `valid`, then the
    /// splices `valid[..i] + valid[j..]` for cut points `i < j` on a grid
    /// of `len / 24` bytes (the end included), as `tests/hostile_input.rs`
    /// cuts XML and XPath.
    fn mutations(valid: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        let truncations = (0..valid.len()).map(|n| valid[..n].to_vec());
        let flips = (0..valid.len() * 8).map(|bit| {
            let mut bytes = valid.to_vec();
            bytes[bit / 8] ^= 1 << (bit % 8);
            bytes
        });
        let stride = (valid.len() / 24).max(1);
        let cuts: Vec<usize> = (0..valid.len())
            .step_by(stride)
            .chain([valid.len()])
            .collect();
        let mut splices = Vec::new();
        for (k, &i) in cuts.iter().enumerate() {
            splices.extend(
                cuts[k + 1..]
                    .iter()
                    .map(|&j| [&valid[..i], &valid[j..]].concat()),
            );
        }
        truncations.chain(flips).chain(splices)
    }

    fn is_clean<T>(result: &Result<T, ServeError>) -> bool {
        matches!(
            result,
            Ok(_) | Err(ServeError::BadRequest(_)) | Err(ServeError::Io(_))
        )
    }

    #[test]
    fn hostile_requests_parse_or_fail_cleanly() {
        let mut requests = vec!["GET /healthz HTTP/1.1\r\n\r\n".to_string()];
        requests.extend(VALID_QUERY_BODIES.map(|body| {
            format!(
                "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
        }));
        for request in &requests {
            let parsed = crate::http::parse_request(&mut request.as_bytes()).unwrap();
            assert!(request.ends_with(std::str::from_utf8(&parsed.body).unwrap()));
            for bytes in mutations(request.as_bytes()) {
                let result = crate::http::parse_request(&mut bytes.as_slice());
                assert!(
                    is_clean(&result),
                    "{:?} -> {:?}",
                    String::from_utf8_lossy(&bytes),
                    result.err()
                );
            }
        }
    }

    #[test]
    fn hostile_query_bodies_parse_or_fail_cleanly() {
        for body in VALID_QUERY_BODIES {
            assert!(QueryRequest::parse(body.as_bytes()).is_ok(), "{body}");
            for bytes in mutations(body.as_bytes()) {
                let result = QueryRequest::parse(&bytes);
                assert!(
                    is_clean(&result),
                    "{:?} -> {:?}",
                    String::from_utf8_lossy(&bytes),
                    result.err()
                );
            }
        }
    }

    #[test]
    fn hostile_nesting_is_a_400_and_the_daemon_keeps_serving() {
        let handle = start(ServeConfig::default(), test_registry()).unwrap();
        let addr = handle.addr();

        // Half a megabyte of `[`: unbounded recursion here overflows
        // the worker's stack, which aborts the whole process.
        let (status, body) = post_query(addr, &"[".repeat(500_000));
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("nesting"), "{body}");

        // One node past the tree-pattern cap: a parse error, not the
        // builder's panic.
        let query = format!("//a{}{}", "[./a".repeat(64), "]".repeat(64));
        let (status, body) = post_query(addr, &format!(r#"{{"query": "{query}"}}"#));
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("limited to 64 nodes"), "{body}");

        let (status, body) = post_query(addr, r#"{"query": "//book[./title]", "k": 1}"#);
        assert_eq!(status, 200, "{body}");
        handle.shutdown();
    }

    #[test]
    fn zero_k_is_a_400_not_a_silent_clamp() {
        let handle = start(ServeConfig::default(), test_registry()).unwrap();
        let addr = handle.addr();
        for body in [
            r#"{"query": "//book[./title]", "k": 0}"#,
            r#"{"collection": true, "query": "//book[./title]", "k": 0}"#,
        ] {
            let (status, reply) = post_query(addr, body);
            assert_eq!(status, 400, "{reply}");
            assert!(reply.contains("must be at least 1"), "{reply}");
        }
        let (status, body) = send(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        let m = Json::parse(&body).unwrap();
        assert_eq!(m.get("admitted").and_then(Json::as_u64), Some(0));
        handle.shutdown();
    }

    /// `op_cost_us` and a `delay@` fault spin in a busy-wait no deadline
    /// or cancel token stops, so a value past [`MAX_INJECTED_DELAY`] is
    /// refused before admission instead of pinning a worker.
    #[test]
    fn injected_delays_past_the_cap_are_a_400() {
        let parses = |body: &str| QueryRequest::parse(body.as_bytes());
        assert!(parses(r#"{"query": "//book", "op_cost_us": 1000000}"#).is_ok());
        for body in [
            r#"{"query": "//book", "op_cost_us": 1000001}"#,
            r#"{"query": "//book", "op_cost_us": 10000000000000}"#,
            r#"{"collection": true, "query": "//book", "op_cost_us": 10000000000000}"#,
        ] {
            assert!(
                matches!(parses(body), Err(ServeError::BadRequest(_))),
                "{body}"
            );
        }

        let handle = start(ServeConfig::default(), test_registry()).unwrap();
        let addr = handle.addr();
        for body in [
            r#"{"query": "//book[./title]", "op_cost_us": 10000000000000}"#,
            r#"{"query": "//book[./title]", "fault": "server=1:delay@10000000000000"}"#,
        ] {
            let (status, reply) = post_query(addr, body);
            assert_eq!(status, 400, "{reply}");
        }
        let (_, body) = send(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        let m = Json::parse(&body).unwrap();
        assert_eq!(m.get("admitted").and_then(Json::as_u64), Some(0));
        handle.shutdown();
    }

    #[test]
    fn warm_start_serves_identically_and_reports_attach_cost() {
        let dir = crate::TempDir::new("wp-serve-warm");
        let wps = dir.join("books.wps");
        {
            let registry = test_registry();
            let state = registry.get("books").unwrap();
            let (doc, index) = state.shard().as_parsed().unwrap();
            whirlpool_store::save_snapshot(doc, index, &wps).unwrap();
        }

        // Cold and warm daemons answer the same query identically.
        let cold = start(ServeConfig::default(), test_registry()).unwrap();
        let mut warm_registry = Registry::new();
        warm_registry.insert(DocState::attach("books", &wps).unwrap());
        let warm = start(ServeConfig::default(), warm_registry).unwrap();
        let query = r#"{"query": "//book[./title and ./isbn]", "k": 3}"#;
        let (cs, cold_body) = post_query(cold.addr(), query);
        let (ws, warm_body) = post_query(warm.addr(), query);
        assert_eq!((cs, ws), (200, 200), "{cold_body}\n{warm_body}");
        let answers = |body: &str| -> Vec<(u64, String)> {
            let v = Json::parse(body).unwrap();
            let Some(Json::Arr(list)) = v.get("answers").cloned() else {
                panic!("no answers: {body}")
            };
            list.iter()
                .map(|a| {
                    (
                        a.get("node").and_then(Json::as_u64).unwrap(),
                        format!("{:?}", a.get("score")),
                    )
                })
                .collect()
        };
        assert_eq!(
            answers(&cold_body),
            answers(&warm_body),
            "snapshot-backed answers must match the parsed ones"
        );

        // /metrics names the backing and the prepare cost per document.
        let (_, body) = send(warm.addr(), "GET /metrics HTTP/1.1\r\n\r\n");
        assert!(body.contains("\"backing\": \"snapshot\""), "{body}");
        assert!(body.contains("\"snapshot_attach_ms\""), "{body}");
        let (_, body) = send(cold.addr(), "GET /metrics HTTP/1.1\r\n\r\n");
        assert!(body.contains("\"backing\": \"parsed\""), "{body}");
        assert!(body.contains("\"index_build_ms\""), "{body}");

        cold.shutdown();
        warm.shutdown();
    }

    #[test]
    fn background_snapshotter_writes_attachable_snapshots() {
        let dir = crate::TempDir::new("wp-serve-snapper");
        let config = ServeConfig {
            snapshot_dir: Some(dir.to_path_buf()),
            ..ServeConfig::default()
        };
        let handle = start(config, test_registry()).unwrap();
        let wps = dir.join("books.wps");
        // The snapshotter runs off the request path; poll briefly.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !wps.exists() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        handle.shutdown();
        let state = DocState::attach("books", &wps).expect("background snapshot must attach");
        assert_eq!(state.shard().synopsis().tag_count("book"), 3);
    }

    /// Three documents of sharply different promise: `rich` holds the
    /// only full matches, `sparse` holds bare books (ceiling = root
    /// contribution only), `none` holds no book at all (no ceiling).
    const PROMISE: [(&str, &str); 3] = [
        (
            "rich",
            "<shelf>\
             <book id=\"r1\"><title>dune</title><isbn>1</isbn></book>\
             <book id=\"r2\"><title>ubik</title><isbn>2</isbn></book>\
             </shelf>",
        ),
        (
            "sparse",
            "<shelf><book id=\"s1\"><blurb>x</blurb></book>\
             <book id=\"s2\"><blurb>y</blurb></book></shelf>",
        ),
        ("none", "<shelf><cd><title>x</title></cd></shelf>"),
    ];

    /// `sources` parsed and indexed in-process.
    fn parsed_registry(sources: &[(&str, &str)]) -> Registry {
        let mut registry = Registry::new();
        for (name, xml) in sources {
            let doc = whirlpool_xml::parse_document(xml).unwrap();
            registry.insert(DocState::new(*name, doc));
        }
        registry
    }

    /// Writes `xml` as the snapshot `<dir>/<name>.wps`.
    fn write_snapshot(dir: &std::path::Path, name: &str, xml: &str) -> std::path::PathBuf {
        let doc = whirlpool_xml::parse_document(xml).unwrap();
        let index = whirlpool_index::TagIndex::build(&doc);
        let path = dir.join(format!("{name}.wps"));
        whirlpool_store::save_snapshot(&doc, &index, &path).unwrap();
        path
    }

    /// `sources` written as snapshot files and *peeked*, not attached:
    /// only a query that survives pruning pays the attach.
    fn peeked_registry(dir: &std::path::Path, sources: &[(&str, &str)]) -> Registry {
        let mut registry = Registry::new();
        for (name, xml) in sources {
            let path = write_snapshot(dir, name, xml);
            registry.insert(DocState::peek(*name, &path).unwrap());
        }
        registry
    }

    /// A fresh per-process scratch directory.
    fn scratch_dir(tag: &str) -> crate::TempDir {
        crate::TempDir::new(&format!("wp-serve-{tag}"))
    }

    /// The `(doc, node, score)` rows of a collection reply.
    fn wire_answers(body: &str) -> Vec<(String, usize, f64)> {
        let v = Json::parse(body).unwrap();
        let Some(Json::Arr(answers)) = v.get("answers") else {
            panic!("no answers: {body}")
        };
        answers
            .iter()
            .map(|a| {
                (
                    a.get("doc").and_then(Json::as_str).unwrap().to_string(),
                    a.get("node").and_then(Json::as_u64).unwrap() as usize,
                    a.get("score").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect()
    }

    /// A resident shard's file overwritten in place by `cp` with another
    /// valid snapshot: the mapping now reads the new bytes at the old
    /// layout. A query shape that makes the daemon count that shard
    /// again, and one it counted before the copy, each answer 500 or a
    /// certified truncated reply, and the one worker lives on to answer
    /// the next requests.
    #[test]
    fn a_file_copied_over_a_resident_shard_never_takes_the_worker() {
        use whirlpool_xmark::{generate, GeneratorConfig};
        let dir = scratch_dir("cp-over");
        let xml = |items, seed| {
            let doc = generate(&GeneratorConfig::items(items).with_seed(seed));
            whirlpool_xml::write_document(&doc, &Default::default())
        };
        let registry = peeked_registry(&dir, &[("a", &xml(40, 1)), ("b", &xml(40, 2))]);
        // Larger than `a.wps`, so every page of the old mapping stays
        // backed by the file (a shorter file would fault past its end).
        let other = write_snapshot(&dir, "other", &xml(160, 3));
        let a = dir.join("a.wps");
        assert!(std::fs::metadata(&other).unwrap().len() > std::fs::metadata(&a).unwrap().len());
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let handle = start(config, registry).unwrap();
        let addr = handle.addr();
        let query = |q: &str| {
            post_query(
                addr,
                &format!(r#"{{"collection": true, "query": "{q}", "k": 100}}"#),
            )
        };

        // A certified truncated reply or a 500, never `exact`.
        let never_exact = |(status, body): (u16, String)| match status {
            500 => assert!(body.contains("panicked"), "{body}"),
            200 => {
                let v = Json::parse(&body).unwrap();
                let completeness = v.get("completeness").and_then(Json::as_str);
                assert_eq!(completeness, Some("truncated"), "{body}");
                assert!(v.get("score_bound").is_some(), "{body}");
            }
            _ => panic!("{status}: {body}"),
        };

        let (status, body) = query("//item[./name]");
        assert_eq!(status, 200, "{body}");
        std::fs::copy(&other, &a).unwrap();

        never_exact(query(
            "//item[./description/parlist and ./mailbox/mail/text]",
        ));
        let (status, body) = send(addr, "GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200, "{body}");
        // A shape counted before the copy reads the memo, not the file:
        // the visit's population check still sees the new bytes.
        never_exact(query("//item[./name]"));
        handle.shutdown();
    }

    /// A resident shard whose posting ids are overwritten in place with
    /// ids past its last node: counting it for a new shape panics
    /// outside any engine run. The one worker answers that request 500,
    /// releases its admission token, counts the panic in `/metrics`, and
    /// serves the next requests.
    #[test]
    fn a_panicking_request_answers_500_and_the_worker_lives() {
        let dir = scratch_dir("panic-guard");
        let registry = peeked_registry(
            &dir,
            &[
                ("a", "<shelf><book><title>x</title></book></shelf>"),
                ("b", "<shelf><book><title>y</title></book></shelf>"),
            ],
        );
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let handle = start(config, registry).unwrap();
        let addr = handle.addr();
        let query = |q: &str| {
            post_query(
                addr,
                &format!(r#"{{"collection": true, "query": "{q}", "k": 5}}"#),
            )
        };
        let (status, body) = query("//book[./title]");
        assert_eq!(status, 200, "{body}");

        // Section 7 (the posting ids) of `a.wps`, every id past the end,
        // written over the mapped file without changing its length.
        let a = dir.join("a.wps");
        let mut bytes = std::fs::read(&a).unwrap();
        let entry = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let (off, len) = (entry(32 + 7 * 16), entry(40 + 7 * 16));
        bytes[off..off + len].fill(0xf0);
        std::fs::write(&a, &bytes).unwrap();

        let (status, body) = query("//book[./isbn]");
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("panicked"), "{body}");
        let (status, body) = send(addr, "GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200, "{body}");
        let (status, body) = send(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"panics\": 1"), "{body}");
        let inflight = handle.inflight();
        assert_eq!(inflight, 0, "the panic released its admission token");
        let (status, body) = query("//book[./isbn]");
        assert_eq!(status, 500, "{body}");
        let metrics = handle.metrics().snapshot();
        assert_eq!((metrics.panics, metrics.aborted), (2, 2), "{metrics:?}");
        assert!(metrics.conserved(), "{metrics:?}");
        handle.shutdown();
    }

    #[test]
    fn collection_query_spans_documents_and_prunes() {
        let handle = start(ServeConfig::default(), parsed_registry(&PROMISE)).unwrap();
        let addr = handle.addr();
        let (status, body) = post_query(
            addr,
            r#"{"collection": true, "query": "//book[./title and ./isbn]", "k": 2}"#,
        );
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("outcome").and_then(Json::as_str), Some("exact"));
        let shards = v.get("shards").expect("shards object");
        assert_eq!(shards.get("total").and_then(Json::as_u64), Some(3));
        let visited = shards.get("visited").and_then(Json::as_u64).unwrap();
        let pruned = shards.get("pruned").and_then(Json::as_u64).unwrap();
        assert_eq!(visited + pruned, 3, "{body}");
        assert!(pruned >= 1, "the bookless document must be pruned: {body}");
        let Some(Json::Arr(answers)) = v.get("answers") else {
            panic!("no answers: {body}")
        };
        assert_eq!(answers.len(), 2);
        let mut ids: Vec<&str> = answers
            .iter()
            .map(|a| {
                assert_eq!(
                    a.get("doc").and_then(Json::as_str),
                    Some("rich"),
                    "only rich holds full matches: {body}"
                );
                a.get("id").and_then(Json::as_str).unwrap()
            })
            .collect();
        ids.sort_unstable();
        // The two full matches tie, so their relative order is free.
        assert_eq!(ids, ["r1", "r2"]);
        handle.shutdown();
    }

    #[test]
    fn lazy_collection_prunes_before_attach_and_reports_residency() {
        let dir = scratch_dir("lazy");
        let config = ServeConfig {
            max_resident: 1,
            ..ServeConfig::default()
        };
        let handle = start(config, peeked_registry(&dir, &PROMISE)).unwrap();
        let addr = handle.addr();

        let (status, body) = post_query(
            addr,
            r#"{"collection": true, "query": "//book[./title and ./isbn]", "k": 2}"#,
        );
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("outcome").and_then(Json::as_str), Some("exact"));
        let shards = v.get("shards").expect("shards object");
        assert_eq!(shards.get("total").and_then(Json::as_u64), Some(3));
        let before = shards
            .get("pruned_before_attach")
            .and_then(Json::as_u64)
            .unwrap();
        assert!(
            before >= 1,
            "pruned lazy documents must never attach: {body}"
        );
        let Some(Json::Arr(answers)) = v.get("answers") else {
            panic!("no answers: {body}")
        };
        assert_eq!(answers.len(), 2, "{body}");
        for a in answers {
            assert_eq!(a.get("doc").and_then(Json::as_str), Some("rich"), "{body}");
            assert!(a.get("id").and_then(Json::as_str).is_some(), "{body}");
        }

        // A per-document query against a lazy doc attaches on demand.
        let (status, body) = post_query(
            addr,
            r#"{"doc": "sparse", "query": "//book[./blurb]", "k": 1}"#,
        );
        assert_eq!(status, 200, "{body}");

        // /metrics: residency counters and the rung history ring.
        let (status, body) = send(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        let m = Json::parse(&body).unwrap();
        let shards = m.get("shards").expect("shards counters");
        assert_eq!(shards.get("peeked").and_then(Json::as_u64), Some(3));
        assert_eq!(shards.get("attach_failed").and_then(Json::as_u64), Some(0));
        // The collection query attaches rich and sparse to count them
        // (the document "none" holds no book) and rich again to visit
        // it; the document query attaches sparse to count its new
        // shape, then evaluates it resident.
        assert_eq!(
            shards.get("attached").and_then(Json::as_u64),
            Some(4),
            "{body}"
        );
        assert!(
            shards
                .get("pruned_before_attach")
                .and_then(Json::as_u64)
                .unwrap()
                >= 1
        );
        assert!(
            shards.get("resident").and_then(Json::as_u64).unwrap() <= 1,
            "max_resident 1 must hold at quiescence: {body}"
        );
        let Some(Json::Arr(history)) = m.get("history") else {
            panic!("no history: {body}")
        };
        assert_eq!(history.len(), 2, "one sample per admitted query: {body}");
        assert!(history
            .iter()
            .all(|s| s.get("rung").and_then(Json::as_str).is_some()
                && s.get("pressure").and_then(Json::as_f64).is_some()));
        assert!(body.contains("\"backing\": \"lazy\""), "{body}");

        handle.shutdown();
    }

    /// A `fault` spec names servers by query node, the same in every
    /// shard, so a corpus scope takes it as a document scope does; the
    /// one per-document field a corpus scope refuses is `doc`.
    #[test]
    fn collection_query_rejects_per_document_features() {
        let handle = start(ServeConfig::default(), parsed_registry(&PROMISE)).unwrap();
        let addr = handle.addr();
        let (status, body) = post_query(
            addr,
            r#"{"collection": true, "query": "//book[./title and ./isbn]", "fault": "server=1:fail@0"}"#,
        );
        assert_eq!(status, 200, "a fault spec applies to every shard: {body}");
        let v = Json::parse(&body).unwrap();
        assert_eq!(
            v.get("completeness").and_then(Json::as_str),
            Some("truncated"),
            "{body}"
        );
        assert!(
            v.get("score_bound").and_then(Json::as_f64).is_some(),
            "{body}"
        );
        let failed = v.get("servers_failed").and_then(Json::as_u64).unwrap();
        assert!(failed >= 1, "{body}");
        let (status, body) = post_query(
            addr,
            r#"{"collection": true, "doc": "rich", "query": "//book"}"#,
        );
        assert_eq!(status, 400, "doc + collection conflict: {body}");
        handle.shutdown();
    }

    #[test]
    fn collection_reply_attaches_each_answering_document_once() {
        // Scores nest (3 predicates > 2 > 1 > 0) and alternate between
        // the two documents, so rank order interleaves them.
        let sources = [
            (
                "a",
                "<shelf>\
                 <book id=\"a3\"><title>x</title><isbn>1</isbn><price>2</price></book>\
                 <book id=\"a1\"><title>y</title></book></shelf>",
            ),
            (
                "b",
                "<shelf><book id=\"b2\"><title>x</title><isbn>1</isbn></book>\
                 <book id=\"b0\"/></shelf>",
            ),
        ];
        let dir = scratch_dir("pin-once");
        let config = ServeConfig {
            max_resident: 1,
            ..ServeConfig::default()
        };
        let handle = start(config, peeked_registry(&dir, &sources)).unwrap();
        let (status, body) = post_query(
            handle.addr(),
            r#"{"collection": true, "query": "//book[./title and ./isbn and ./price]", "k": 4}"#,
        );
        assert_eq!(status, 200, "{body}");
        let docs: Vec<String> = wire_answers(&body).into_iter().map(|a| a.0).collect();
        assert_eq!(docs, ["a", "b", "a", "b"], "{body}");
        let v = Json::parse(&body).unwrap();
        let Some(Json::Arr(answers)) = v.get("answers") else {
            panic!("no answers: {body}")
        };
        let ids: Vec<&str> = answers
            .iter()
            .map(|a| {
                a.get("id")
                    .and_then(Json::as_str)
                    .expect("every book has an id")
            })
            .collect();
        assert_eq!(ids, ["a3", "b2", "a1", "b0"], "{body}");
        let shards = |key| {
            v.get("shards")
                .and_then(|s| s.get(key))
                .and_then(Json::as_u64)
                .unwrap()
        };
        // The shape is new: each document was attached once more, to
        // count it.
        let (visited, counted) = (shards("visited"), shards("counted"));
        assert_eq!(counted, 2, "{body}");

        let (_, metrics) = send(handle.addr(), "GET /metrics HTTP/1.1\r\n\r\n");
        let attached = Json::parse(&metrics)
            .unwrap()
            .get("shards")
            .and_then(|s| s.get("attached"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(
            attached <= counted + visited + 2,
            "{attached} attaches for {counted} counts + {visited} visits + 2 answering documents"
        );

        handle.shutdown();
    }

    /// A peeked registry is counted like any other: the first
    /// collection query of a shape counts every peeked document, a
    /// repeat reads the memo and answers byte for byte alike, and
    /// `/metrics` still tells how the documents were admitted.
    #[test]
    fn a_peeked_registry_counts_each_document_once() {
        let dir = scratch_dir("peeked-counts");
        let handle = start(ServeConfig::default(), peeked_registry(&dir, &PROMISE[..2])).unwrap();
        let addr = handle.addr();
        let request = r#"{"collection": true, "query": "//book[./title and ./isbn]", "k": 3}"#;
        let counted = |body: &str| {
            let v = Json::parse(body).unwrap();
            let shards = v.get("shards").expect("shards object");
            shards.get("counted").and_then(Json::as_u64).unwrap()
        };
        let answers = |body: &str| body[body.find("\"answers\"").unwrap()..].to_string();
        let (status, first) = post_query(addr, request);
        assert_eq!(status, 200, "{first}");
        assert_eq!(counted(&first), 2, "{first}");
        let (status, again) = post_query(addr, request);
        assert_eq!(status, 200, "{again}");
        assert_eq!(counted(&again), 0, "{again}");
        assert_eq!(answers(&again), answers(&first));
        let (_, body) = send(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        let m = Json::parse(&body).unwrap();
        let shards = m.get("shards").expect("shards counters");
        assert_eq!(shards.get("peeked").and_then(Json::as_u64), Some(2));
        assert_eq!(shards.get("counted").and_then(Json::as_u64), Some(2));
        handle.shutdown();
    }

    /// Two parsed and two peeked documents with overlapping score
    /// ranges; `d3` holds no book at all.
    const MIXED: [(&str, &str); 4] = [
        (
            "d0",
            "<shelf>\
             <book><title>a</title><isbn>1</isbn><price>3</price></book>\
             <book><title>b</title><isbn>2</isbn></book>\
             <book><title>c</title></book></shelf>",
        ),
        (
            "d1",
            "<shelf>\
             <book><title>d</title><isbn>4</isbn><price>5</price></book>\
             <book><price>6</price></book></shelf>",
        ),
        (
            "d2",
            "<shelf>\
             <book><review><title>e</title></review><isbn>7</isbn></book>\
             <book><title>f</title><price>8</price></book></shelf>",
        ),
        ("d3", "<shelf><cd><title>g</title></cd></shelf>"),
    ];

    /// `d0`/`d2` parsed, `d1`/`d3` peeked — as a daemon registry, and
    /// as the library collection over the same files (shards in the
    /// registry's name order, so shard `i` is document `d<i>`).
    fn mixed_registry_and_library(dir: &std::path::Path) -> (Registry, Collection) {
        let mut registry = parsed_registry(&[MIXED[0], MIXED[2]]);
        let mut library = Collection::new();
        for (i, (name, xml)) in MIXED.iter().enumerate() {
            if i % 2 == 0 {
                library.add_source(*name, xml).unwrap();
            } else {
                let path = write_snapshot(dir, name, xml);
                registry.insert(DocState::peek(*name, &path).unwrap());
                library.attach_snapshot_file(&path).unwrap();
            }
        }
        (registry, library)
    }

    #[test]
    fn collection_replies_match_the_library_driver() {
        use whirlpool_core::{
            collection_answers_equivalent, evaluate_collection, CollectionAnswer,
        };
        let dir = scratch_dir("differential");
        let (registry, library) = mixed_registry_and_library(&dir);
        let handle = start(ServeConfig::default(), registry).unwrap();
        for query in [
            "//book[./title and ./isbn and ./price]",
            "//book[.//title and ./isbn]",
            "//book[./title]",
        ] {
            for k in [1, 3, 100] {
                let (status, body) = post_query(
                    handle.addr(),
                    &format!(r#"{{"collection": true, "query": "{query}", "k": {k}}}"#),
                );
                assert_eq!(status, 200, "{body}");
                assert!(body.contains("\"outcome\": \"exact\""), "{body}");
                let wire: Vec<CollectionAnswer> = wire_answers(&body)
                    .into_iter()
                    .map(|(doc, node, score)| CollectionAnswer {
                        shard: MIXED.iter().position(|(name, _)| *name == doc).unwrap(),
                        root: whirlpool_xml::NodeId::from_index(node),
                        score: whirlpool_score::Score::new(score),
                    })
                    .collect();
                let reference = evaluate_collection(
                    &library,
                    &whirlpool_pattern::parse_pattern(query).unwrap(),
                    &Algorithm::WhirlpoolS,
                    &EvalOptions::top_k(k),
                    Normalization::Sparse,
                    &CollectionOptions::default(),
                );
                // The wire rounds scores to six decimals.
                assert!(
                    collection_answers_equivalent(&wire, &reference.answers, 1e-6),
                    "{query} k={k}: {wire:?} vs {:?}",
                    reference.answers
                );
            }
        }
        handle.shutdown();
    }

    #[test]
    fn degraded_collection_reply_certifies_what_it_left_out() {
        let dir = scratch_dir("degraded");
        let (registry, _) = mixed_registry_and_library(&dir);
        let config = ServeConfig {
            base_deadline: Duration::from_millis(150),
            // The deadline, not the watchdog, must end the slow run.
            watchdog_grace: Duration::from_secs(10),
            ..ServeConfig::default()
        };
        let handle = start(config, registry).unwrap();
        let query =
            r#""collection": true, "query": "//book[./title and ./isbn and ./price]", "k": 100"#;
        let (status, exact) = post_query(handle.addr(), &format!("{{{query}}}"));
        assert_eq!(status, 200, "{exact}");
        assert!(exact.contains("\"outcome\": \"exact\""), "{exact}");

        // 50 ms per server operation on average: the first shard alone overruns
        // the Full rung's 150 ms, the rest are never visited.
        let (status, body) = post_query(
            handle.addr(),
            &format!("{{{query}, \"op_cost_us\": 50000}}"),
        );
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("outcome").and_then(Json::as_str), Some("degraded"));
        assert_eq!(v.get("rung").and_then(Json::as_str), Some("full"));
        let skipped = v
            .get("shards")
            .and_then(|s| s.get("skipped_budget"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(skipped > 0, "{body}");
        let bound = v.get("score_bound").and_then(Json::as_f64).unwrap();
        let returned = wire_answers(&body);
        for (doc, node, score) in wire_answers(&exact) {
            let kept = returned.iter().any(|(d, n, _)| (d, n) == (&doc, &node));
            assert!(
                kept || score <= bound + 1e-6,
                "{doc}/{node} scores {score}, above the certified bound {bound}: {body}"
            );
        }
        handle.shutdown();
    }

    #[test]
    fn chaos_query_comes_back_certified() {
        let handle = start(ServeConfig::default(), test_registry()).unwrap();
        let (status, body) = post_query(
            handle.addr(),
            r#"{"query": "//book[./title and ./isbn]", "fault": "server=1:fail@0", "k": 2}"#,
        );
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("outcome").and_then(Json::as_str), Some("degraded"));
        assert_eq!(
            v.get("completeness").and_then(Json::as_str),
            Some("truncated")
        );
        assert!(
            v.get("score_bound").and_then(Json::as_f64).is_some(),
            "a truncated answer carries its certificate: {body}"
        );
        handle.shutdown();
    }
}
