#![forbid(unsafe_code)]

//! Performance snapshot: runs the Table-1 default configuration (Q2,
//! 10 Mb document, k = 15) across all four engines and writes the
//! medians plus work and buffer counters to `BENCH_core.json`. A
//! second, traced run per engine pins the cost of the observability
//! layer (`BENCH_core.json`'s `trace_overhead` fields; the untraced
//! rows are the ≤ 2 % regression anchor) and its
//! aggregated event stream — score-progress curve, per-server latency
//! histograms, phase times — goes to `BENCH_trace.json`.
//!
//! ```text
//! cargo run --release -p whirlpool-bench --bin perfsnap
//! cargo run --release -p whirlpool-bench --bin perfsnap -- --smoke
//! cargo run --release -p whirlpool-bench --bin perfsnap -- --reps 7 --out BENCH_core.json
//! ```
//!
//! `--smoke` shrinks the document and repetition count for CI and
//! prints the JSON to stdout instead of writing files; it still fails
//! (exit 1) if a traced run changes its engine's answers, and it gates
//! the scheduler: the *virtual* 4-thread Whirlpool-M makespan must not
//! exceed the 1-thread one (virtual time, so it holds even on a
//! single-core CI box), and the pruning: Whirlpool-S's server
//! operations must grow from k = 1 to k = 75 and stay within a quarter
//! of LockStep-NoPrun's, Whirlpool-M's at one worker within four times
//! Whirlpool-S's, at k = 1 one-worker Whirlpool-M must make fewer
//! routing decisions than there are root candidates, and Whirlpool-S
//! must create at most two partial matches per server operation plus
//! one while leaving root candidates unseeded (counts, so they hold on
//! any host). Every
//! section's invariants are gated here and nowhere else — CI runs
//! `--smoke` once and reads the exit code.
//!
//! A `scaling` section sweeps Whirlpool-M's scheduler pool size (1, 2,
//! 4, 8 workers) at the defaults; every config's answers are
//! checked tie-aware ([`answers_equivalent`] — concurrent
//! interleavings may resolve a tied boundary group differently, and
//! any resolution is a correct top-k). Each config records the real
//! wall-clock median **and** the discrete-event virtual makespan
//! ([`whirlpool_bench::vtime`], `processors = threads`): on the
//! single-core machines this repo targets, real walls cannot speed up
//! with added workers, so the virtual makespan is the honest vehicle
//! for the paper's Figure-9 speedup curve while the real wall pins the
//! scheduler's overhead. Derived `speedup` (virtual, relative to 1
//! worker) and `steal_rate` (real, stolen batches per server-op batch)
//! arrays feed `--compare`, which fails when a speedup regresses by
//! more than 15 %.
//!
//! A `collection_lazy` section exercises the disk-resident driver:
//! `Collection::open_dir` over a directory of snapshot shards whose
//! sparse majority carries the query's tags in the wrong arrangement,
//! so only the stored path synopsis can prune them before their
//! payload is read. Gated: ≥ 50 % of shards pruned before attach,
//! tie-aware answer equivalence against the eager scan (capped and
//! uncapped), lazy wall ≤ eager wall, and evictions under
//! `max_resident = 2`.
//!
//! `--compare <old BENCH_core.json>` diffs this run's engine medians
//! (context build + evaluation wall) against a previous snapshot and
//! exits non-zero when any engine regressed by more than 15 % and 1 ms
//! (skipped with a warning when the old snapshot was taken on a
//! different document label).

use std::io::Write as _;
use std::time::Instant;
use whirlpool_bench::aggregate::TraceAggregate;
use whirlpool_bench::vtime::{sequential_virtual_time, simulate_whirlpool_m, VTimeConfig};
use whirlpool_bench::{median, Workload};
use whirlpool_core::{
    answers_equivalent, collection_answers_equivalent, evaluate_collection, evaluate_with_context,
    Algorithm, Collection, CollectionOptions, ContextOptions, EvalOptions, EvalResult,
    MetricsSnapshot, QueryContext, QueuePolicy, RoutingStrategy,
};
use whirlpool_score::Normalization;
use whirlpool_xmark::{generate, queries, GeneratorConfig};

struct ConfigStats {
    /// Median of `QueryContext::new`, which a run pays before
    /// `wall_ms_median` starts: a query costs their sum.
    context_ms_median: f64,
    wall_ms_median: f64,
    metrics: MetricsSnapshot,
}

struct EngineRow {
    name: &'static str,
    stats: ConfigStats,
    /// Median wall time with event tracing on, and whether the traced
    /// run returned the same answers (tracing must not perturb results).
    traced_wall_ms: f64,
    traced_identical: bool,
    aggregate: TraceAggregate,
    trace_events: usize,
}

impl EngineRow {
    /// Traced wall over untraced wall, minus one.
    fn trace_overhead(&self) -> f64 {
        if self.stats.wall_ms_median > 0.0 {
            self.traced_wall_ms / self.stats.wall_ms_median - 1.0
        } else {
            0.0
        }
    }
}

fn run_config(
    workload: &Workload,
    query: &whirlpool_pattern::TreePattern,
    model: &dyn whirlpool_score::ScoreModel,
    algorithm: &Algorithm,
    options: &EvalOptions,
    reps: usize,
) -> (ConfigStats, EvalResult) {
    let mut contexts = Vec::with_capacity(reps);
    let mut walls = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let built = Instant::now();
        let ctx = QueryContext::new(
            &workload.doc,
            &workload.index,
            query,
            model,
            ContextOptions {
                relax: options.relax,
                selectivity_sample: options.selectivity_sample,
                op_cost: options.op_cost,
            },
        );
        contexts.push(built.elapsed().as_secs_f64() * 1e3);
        let result = evaluate_with_context(&ctx, algorithm, options);
        walls.push(result.elapsed.as_secs_f64() * 1e3);
        last = Some(result);
    }
    let last = last.expect("reps >= 1");
    (
        ConfigStats {
            context_ms_median: median(&mut contexts),
            wall_ms_median: median(&mut walls),
            metrics: last.metrics,
        },
        last,
    )
}

/// Daemon serving benchmark: steady-state latency percentiles plus the
/// shed rate under 2x admission overload.
struct ServeBenchStats {
    workers: usize,
    max_inflight: usize,
    steady_requests: usize,
    steady_p50_ms: f64,
    steady_p99_ms: f64,
    overload_clients: usize,
    overload_total: usize,
    overload_served: usize,
    overload_shed: usize,
    overload_p50_ms: f64,
    overload_p99_ms: f64,
    conserved: bool,
}

impl ServeBenchStats {
    fn shed_rate(&self) -> f64 {
        if self.overload_total == 0 {
            0.0
        } else {
            self.overload_shed as f64 / self.overload_total as f64
        }
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

/// One raw-HTTP query round trip; returns (status, wall ms).
fn serve_request(addr: std::net::SocketAddr, body: &str) -> (u16, f64) {
    use std::io::{Read as _, Write as _};
    let raw = format!(
        "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let t = Instant::now();
    let mut conn = std::net::TcpStream::connect(addr).expect("connect to bench daemon");
    conn.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    conn.write_all(raw.as_bytes()).expect("send bench query");
    let mut response = String::new();
    conn.read_to_string(&mut response)
        .expect("read bench reply");
    let status = response
        .split(' ')
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    (status, t.elapsed().as_secs_f64() * 1e3)
}

/// Runs the daemon benchmark: `steady` sequential requests for the
/// no-contention percentiles, then `2 * max_inflight` concurrent
/// clients (each sending `per_client` requests with a small artificial
/// per-op cost so evaluations genuinely overlap) for the overload shed
/// rate. The conservation law is checked at quiescence.
fn serve_bench(items: usize, steady: usize, per_client: usize) -> ServeBenchStats {
    use whirlpool_serve::{start, DocState, Registry, ServeConfig};
    let mut registry = Registry::new();
    registry.insert(DocState::new(
        "bench",
        whirlpool_xmark::generate(&whirlpool_xmark::GeneratorConfig::items(items)),
    ));
    let config = ServeConfig::default();
    let workers = config.workers;
    let max_inflight = config.max_inflight;
    // What the daemon can hold without shedding: evaluations in the
    // workers plus connections parked in the accept queue. "2x
    // overload" doubles that.
    let holding_capacity = config.workers + config.queue_depth;
    let handle = start(config, registry).expect("bench daemon");
    let addr = handle.addr();
    let steady_body = format!("{{\"query\": \"{}\", \"k\": 15}}", queries::Q2);

    let mut steady_ms = Vec::with_capacity(steady);
    for _ in 0..steady {
        let (status, ms) = serve_request(addr, &steady_body);
        assert_eq!(status, 200, "steady-state bench query must succeed");
        steady_ms.push(ms);
    }
    steady_ms.sort_by(|a, b| a.total_cmp(b));

    let overload_clients = holding_capacity * 2;
    let overload_body = format!(
        "{{\"query\": \"{}\", \"k\": 15, \"op_cost_us\": 200}}",
        queries::Q2
    );
    let joined: Vec<(Vec<u16>, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..overload_clients)
            .map(|_| {
                let body = overload_body.clone();
                scope.spawn(move || {
                    let mut statuses = Vec::with_capacity(per_client);
                    let mut served_ms = Vec::new();
                    for _ in 0..per_client {
                        let (status, ms) = serve_request(addr, &body);
                        if status == 200 {
                            served_ms.push(ms);
                        }
                        statuses.push(status);
                    }
                    (statuses, served_ms)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("overload client"))
            .collect()
    });
    let statuses: Vec<u16> = joined.iter().flat_map(|(s, _)| s.iter().copied()).collect();
    let mut overload_ms: Vec<f64> = joined
        .iter()
        .flat_map(|(_, ms)| ms.iter().copied())
        .collect();
    overload_ms.sort_by(|a, b| a.total_cmp(b));

    // Quiesce, then check the conservation law on the daemon's own
    // counters: every admitted request settled exactly once.
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    while handle.inflight() > 0 && Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let snapshot = handle.metrics().snapshot();
    let conserved = snapshot.conserved();
    handle.shutdown();

    ServeBenchStats {
        workers,
        max_inflight,
        steady_requests: steady,
        steady_p50_ms: percentile(&steady_ms, 0.50),
        steady_p99_ms: percentile(&steady_ms, 0.99),
        overload_clients,
        overload_total: statuses.len(),
        overload_served: statuses.iter().filter(|&&s| s == 200).count(),
        overload_shed: statuses.iter().filter(|&&s| s == 429).count(),
        overload_p50_ms: percentile(&overload_ms, 0.50),
        overload_p99_ms: percentile(&overload_ms, 0.99),
        conserved,
    }
}

/// Extracts `(engine name, pooled wall-ms median)` pairs from a
/// previously written snapshot. Hand-rolled to match `config_json`'s
/// output shape — the repo carries no JSON parser dependency.
struct CollectionBenchStats {
    shards_total: usize,
    rich_shards: usize,
    k: usize,
    scan_all_wall_ms: f64,
    sharded_wall_ms: f64,
    shards_visited: usize,
    shards_pruned: usize,
    equivalent: bool,
}

impl CollectionBenchStats {
    fn speedup(&self) -> f64 {
        if self.sharded_wall_ms > 0.0 {
            self.scan_all_wall_ms / self.sharded_wall_ms
        } else {
            1.0
        }
    }
}

/// Benchmarks the sharded collection driver against its own scan-all
/// baseline on a skewed corpus: a few rich XMark shards holding every
/// full Q2 match, plus many sparse shards whose items carry none of
/// Q2's predicate paths (`description/parlist`, `mailbox/mail/text`).
/// The sparse shards cost the scan real work — every item is a
/// candidate answer root — but their synopsis ceilings collapse to the
/// bare root contribution, which falls below the global threshold once
/// the rich shards fill the top-k, so the sharded run skips them
/// without touching their postings.
fn collection_bench(
    rich: usize,
    sparse: usize,
    bytes_per_rich: usize,
    k: usize,
    reps: usize,
) -> CollectionBenchStats {
    let mut collection = Collection::new();
    for i in 0..rich {
        let doc = generate(&GeneratorConfig {
            target_bytes: bytes_per_rich,
            seed: 1000 + i as u64,
            max_items: None,
        });
        collection.add_document(format!("rich-{i:02}"), doc);
    }
    // Sparse shards carry as many items as the largest rich shard, so
    // the scan-all baseline pays a comparable per-shard candidate cost.
    let rich_items = collection
        .shards()
        .iter()
        .map(|s| s.synopsis().tag_count("item"))
        .max()
        .unwrap_or(0);
    for i in 0..sparse {
        let mut src = String::from("<site><regions><namerica>");
        for j in 0..rich_items {
            src.push_str(&format!(
                "<item id=\"sparse-{i}-{j}\"><name>widget {j}</name>\
                 <quantity>1</quantity></item>"
            ));
        }
        src.push_str("</namerica></regions></site>");
        collection
            .add_source(format!("sparse-{i:02}"), &src)
            .expect("synthetic sparse shard parses");
    }

    let query = queries::parse(queries::Q2);
    let options = EvalOptions::top_k(k);
    let run = |copts: &CollectionOptions| {
        let mut walls = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            let r = evaluate_collection(
                &collection,
                &query,
                &Algorithm::WhirlpoolS,
                &options,
                Normalization::Sparse,
                copts,
            );
            walls.push(r.elapsed.as_secs_f64() * 1e3);
            last = Some(r);
        }
        (median(&mut walls), last.expect("reps >= 1"))
    };
    let (scan_ms, scan_last) = run(&CollectionOptions::scan_all());
    let (sharded_ms, sharded_last) = run(&CollectionOptions::default());
    CollectionBenchStats {
        shards_total: collection.len(),
        rich_shards: rich,
        k,
        scan_all_wall_ms: scan_ms,
        sharded_wall_ms: sharded_ms,
        shards_visited: sharded_last.collection_metrics.shards_visited,
        shards_pruned: sharded_last.collection_metrics.shards_pruned,
        equivalent: collection_answers_equivalent(&scan_last.answers, &sharded_last.answers, 1e-9),
    }
}

/// Disk-resident lazy collection: `open_dir` over a directory of
/// snapshot shards, attach-on-visit against an eager scan-all.
struct CollectionLazyStats {
    shards_total: usize,
    rich_shards: usize,
    k: usize,
    /// Median of `Collection::open_dir` — one peek per shard, nothing
    /// attached.
    open_ms: f64,
    /// Median wall of scan-all on a freshly opened collection: every
    /// shard's payload is attached and evaluated.
    eager_wall_ms: f64,
    /// Median wall of the ceiling-ordered lazy run on a freshly opened
    /// collection: only visited shards touch disk.
    lazy_wall_ms: f64,
    shards_visited: usize,
    shards_attached: u64,
    /// Shards discarded by their path-synopsis ceiling with the payload
    /// never read from disk.
    pruned_before_attach: usize,
    /// Evictions observed rerunning the lazy config under
    /// `max_resident = 2`.
    capped_evictions: u64,
    equivalent: bool,
    capped_equivalent: bool,
}

impl CollectionLazyStats {
    fn speedup(&self) -> f64 {
        if self.lazy_wall_ms > 0.0 {
            self.eager_wall_ms / self.lazy_wall_ms
        } else {
            1.0
        }
    }

    fn pruned_rate(&self) -> f64 {
        if self.shards_total > 0 {
            self.pruned_before_attach as f64 / self.shards_total as f64
        } else {
            0.0
        }
    }
}

/// Benchmarks the attach-on-visit driver on a corpus built to defeat
/// tag-count ceilings: a few rich shards whose books carry `title`,
/// `isbn`, and `price` as direct children, and many sparse shards with
/// *the same tags* arranged uselessly (isbn and price live under an
/// `<archive>`, never under a `<book>`). Tag counts cannot tell the
/// two apart, so only the stored path synopsis lets the driver drop a
/// sparse shard before reading its payload. Every rep reopens the
/// directory so all three configs start cold; the eager baseline is
/// scan-all on the same lazy collection, which attaches every shard.
fn collection_lazy_bench(rich: usize, sparse: usize, k: usize, reps: usize) -> CollectionLazyStats {
    let dir = std::env::temp_dir().join(format!("wp-perfsnap-lazy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create lazy fixture dir");
    let write = |name: String, src: &str| {
        let doc = whirlpool_xml::parse_document(src).expect("lazy fixture parses");
        let index = whirlpool_index::TagIndex::build(&doc);
        whirlpool_store::save_snapshot(&doc, &index, dir.join(name)).expect("write fixture shard");
    };
    for i in 0..rich {
        let mut src = String::from("<shelf>");
        for j in 0..3 {
            src.push_str(&format!(
                "<book><title>rich {i} vol {j}</title>\
                 <isbn>{i}-{j}</isbn><price>{j}</price></book>"
            ));
        }
        src.push_str("</shelf>");
        write(format!("rich-{i:03}.wps"), &src);
    }
    // Sparse shards hold several title-only books (so isbn and price
    // stay rare corpus-wide and keep a positive idf weight) plus one
    // archive carrying both tags: tag presence looks identical to a
    // rich shard, but no book→isbn / book→price path exists.
    for i in 0..sparse {
        let mut src = String::from("<shelf>");
        for j in 0..5 {
            src.push_str(&format!("<book><title>husk {i} vol {j}</title></book>"));
        }
        src.push_str(&format!(
            "<archive><isbn>{i}</isbn><price>{i}</price></archive></shelf>"
        ));
        write(format!("sparse-{i:03}.wps"), &src);
    }

    let query = whirlpool_pattern::parse_pattern("//book[./title and ./isbn and ./price]")
        .expect("lazy bench query parses");
    let options = EvalOptions::top_k(k);
    let mut open_walls = Vec::new();
    let mut run_fresh = |copts: &CollectionOptions, max_resident: usize| {
        let mut walls = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            let t = Instant::now();
            let collection = Collection::open_dir(&dir).expect("open lazy fixture");
            open_walls.push(t.elapsed().as_secs_f64() * 1e3);
            if max_resident > 0 {
                collection.set_max_resident(max_resident);
            }
            let r = evaluate_collection(
                &collection,
                &query,
                &Algorithm::WhirlpoolS,
                &options,
                Normalization::Sparse,
                copts,
            );
            walls.push(r.elapsed.as_secs_f64() * 1e3);
            last = Some(r);
        }
        (median(&mut walls), last.expect("reps >= 1"))
    };
    let (eager_ms, eager_last) = run_fresh(&CollectionOptions::scan_all(), 0);
    let (lazy_ms, lazy_last) = run_fresh(&CollectionOptions::default(), 0);
    let (_capped_ms, capped_last) = run_fresh(&CollectionOptions::default(), 2);
    let _ = std::fs::remove_dir_all(&dir);

    let m = &lazy_last.collection_metrics;
    CollectionLazyStats {
        shards_total: rich + sparse,
        rich_shards: rich,
        k,
        open_ms: median(&mut open_walls),
        eager_wall_ms: eager_ms,
        lazy_wall_ms: lazy_ms,
        shards_visited: m.shards_visited,
        shards_attached: m.shards_attached,
        pruned_before_attach: m.shards_pruned_before_attach,
        capped_evictions: capped_last.collection_metrics.shard_evictions,
        equivalent: collection_answers_equivalent(&eager_last.answers, &lazy_last.answers, 1e-9),
        capped_equivalent: collection_answers_equivalent(
            &eager_last.answers,
            &capped_last.answers,
            1e-9,
        ),
    }
}

/// Cold-vs-warm start benchmark for the version-2 snapshot format.
struct SnapshotBenchStats {
    file_bytes: u64,
    /// Median of parse + index build off the serialized XML — what
    /// every boot paid before snapshots existed.
    cold_ms: f64,
    /// Median of `Snapshot::attach` — header validation + checksum
    /// fold over the mapped file.
    attach_ms: f64,
    mapped: bool,
    /// Whirlpool-S top-k over both backings, tie-aware.
    equivalent: bool,
}

impl SnapshotBenchStats {
    fn speedup(&self) -> f64 {
        if self.attach_ms > 0.0 {
            self.cold_ms / self.attach_ms
        } else {
            1.0
        }
    }
}

/// Benchmarks attaching a prebuilt snapshot against re-deriving the
/// same state from XML. The cold side re-parses the serialized
/// document and rebuilds the tag index each rep; the warm side
/// re-attaches the snapshot file each rep. Both backings then answer
/// the benchmark query and the answer sets are compared tie-aware.
fn snapshot_bench(
    workload: &Workload,
    query: &whirlpool_pattern::TreePattern,
    k: usize,
    reps: usize,
) -> SnapshotBenchStats {
    let xml = whirlpool_xml::write_document(&workload.doc, &whirlpool_xml::WriteOptions::default());
    let path = std::env::temp_dir().join(format!("wp-perfsnap-{}.wps", std::process::id()));
    whirlpool_store::save_snapshot(&workload.doc, &workload.index, &path)
        .expect("write bench snapshot");
    let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    let mut cold_walls = Vec::with_capacity(reps);
    let mut cold_state = None;
    for _ in 0..reps {
        let t = Instant::now();
        let doc = whirlpool_xml::parse_document(&xml).expect("reparse bench document");
        let index = whirlpool_index::TagIndex::build(&doc);
        cold_walls.push(t.elapsed().as_secs_f64() * 1e3);
        cold_state = Some((doc, index));
    }
    let (cold_doc, cold_index) = cold_state.expect("reps >= 1");

    let mut attach_walls = Vec::with_capacity(reps);
    let mut snapshot = None;
    for _ in 0..reps {
        let t = Instant::now();
        let s = whirlpool_store::Snapshot::attach(&path).expect("attach bench snapshot");
        attach_walls.push(t.elapsed().as_secs_f64() * 1e3);
        snapshot = Some(s);
    }
    let snapshot = snapshot.expect("reps >= 1");
    let _ = std::fs::remove_file(&path);

    let options = EvalOptions::top_k(k);
    let cold_model =
        whirlpool_score::TfIdfModel::build(&cold_doc, &cold_index, query, Normalization::Sparse);
    let cold_run = whirlpool_core::evaluate_view(
        (&cold_doc).into(),
        cold_index.view(),
        query,
        &cold_model,
        &Algorithm::WhirlpoolS,
        &options,
    );
    let snap_model = whirlpool_score::TfIdfModel::build_view(
        snapshot.doc_view(),
        snapshot.index_view(),
        query,
        Normalization::Sparse,
    );
    let snap_run = whirlpool_core::evaluate_view(
        snapshot.doc_view(),
        snapshot.index_view(),
        query,
        &snap_model,
        &Algorithm::WhirlpoolS,
        &options,
    );

    SnapshotBenchStats {
        file_bytes,
        cold_ms: median(&mut cold_walls),
        attach_ms: median(&mut attach_walls),
        mapped: snapshot.is_mapped(),
        equivalent: answers_equivalent(&snap_run.answers, &cold_run.answers, 1e-9),
    }
}

/// `(engine name, context_ms_median + wall_ms_median)` of every engine
/// row in an old snapshot: the first of each after a `"name"`. Rows
/// older than the context column count as if the build were free.
fn parse_snapshot_walls(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut pos = 0;
    while let Some(i) = text[pos..].find("\"name\": \"") {
        let start = pos + i + "\"name\": \"".len();
        let Some(name_len) = text[start..].find('"') else {
            break;
        };
        let name = text[start..start + name_len].to_string();
        pos = start + name_len;
        let row = &text[pos..pos + text[pos..].find("\"name\": \"").unwrap_or(text.len() - pos)];
        let field = |marker: &str| -> Option<f64> {
            let vstart = row.find(marker)? + marker.len();
            let vend = vstart + row[vstart..].find([',', '}'])?;
            row[vstart..vend].trim().parse().ok()
        };
        if let Some(wall) = field("\"wall_ms_median\": ") {
            out.push((name, field("\"context_ms_median\": ").unwrap_or(0.0) + wall));
        }
    }
    out
}

/// The old snapshot's `doc_label`, for refusing cross-scale diffs.
fn parse_snapshot_label(text: &str) -> Option<String> {
    let marker = "\"doc_label\": \"";
    let start = text.find(marker)? + marker.len();
    let len = text[start..].find('"')?;
    Some(text[start..start + len].to_string())
}

/// The old snapshot's derived `"speedup": [..]` array (virtual scaling
/// curve). Absent in pre-worker-pool snapshots — those diffs skip the
/// scaling comparison rather than fail it.
fn parse_snapshot_speedup(text: &str) -> Option<Vec<f64>> {
    let marker = "\"speedup\": [";
    let start = text.find(marker)? + marker.len();
    let len = text[start..].find(']')?;
    text[start..start + len]
        .split(',')
        .map(|v| v.trim().parse::<f64>().ok())
        .collect()
}

fn answer_key(r: &EvalResult) -> Vec<(usize, u64)> {
    r.answers
        .iter()
        .map(|a| (a.root.index(), a.score.value().to_bits()))
        .collect()
}

/// The counters of one engine row, as the body of its JSON object.
fn config_json(out: &mut String, s: &ConfigStats) {
    let m = &s.metrics;
    out.push_str(&format!(
        "      \"context_ms_median\": {:.3}, \"wall_ms_median\": {:.3}, \
         \"buffers_allocated\": {}, \"buffers_reused\": {}, \"pool_hit_rate\": {:.4}, \
         \"partials_created\": {}, \"roots_unseeded\": {}, \
         \"server_ops\": {}, \"pruned\": {}, \"deadline_hits\": {}, \
         \"servers_failed\": {}, \"matches_redistributed\": {}, \
         \"answers_degraded\": {},\n",
        s.context_ms_median,
        s.wall_ms_median,
        m.buffers_allocated,
        m.buffers_reused,
        m.pool_hit_rate(),
        m.partials_created,
        m.roots_unseeded,
        m.server_ops,
        m.pruned,
        m.deadline_hits,
        m.servers_failed,
        m.matches_redistributed,
        m.answers_degraded,
    ));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let value_of = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let reps: usize = match value_of("--reps") {
        None => {
            if smoke {
                3
            } else {
                5
            }
        }
        Some(v) => match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("perfsnap: --reps needs a positive integer, got {v:?}");
                std::process::exit(2);
            }
        },
    };
    let out_path = value_of("--out").unwrap_or_else(|| "BENCH_core.json".to_string());

    // Table 1 defaults (bold column): Q2, 10 Mb, k = 15.
    let (bytes, label) = if smoke {
        (200_000, "smoke")
    } else {
        (10_000_000, "10M")
    };
    let k = 15;
    eprintln!("perfsnap: generating {label} document ({bytes} bytes)...");
    let workload = Workload::of_bytes(bytes, label);
    let query = queries::parse(queries::Q2);
    let model = workload.model(&query);

    let engines = [
        Algorithm::LockStepNoPrune,
        Algorithm::LockStep,
        Algorithm::WhirlpoolS,
        Algorithm::WhirlpoolM { processors: None },
    ];

    let options = EvalOptions::top_k(k);
    let traced_options = EvalOptions {
        trace: true,
        ..EvalOptions::top_k(k)
    };

    let mut rows = Vec::new();
    for algorithm in &engines {
        eprintln!(
            "perfsnap: {} ({} reps, untraced + traced)...",
            algorithm.name(),
            reps
        );
        let (stats, last) = run_config(&workload, &query, &model, algorithm, &options, reps);
        let (traced, traced_last) =
            run_config(&workload, &query, &model, algorithm, &traced_options, reps);
        let trace = traced_last.trace.as_ref();
        rows.push(EngineRow {
            name: algorithm.name(),
            traced_wall_ms: traced.wall_ms_median,
            traced_identical: answer_key(&traced_last) == answer_key(&last),
            aggregate: trace.map(TraceAggregate::from_trace).unwrap_or_default(),
            trace_events: trace.map_or(0, |t| t.events.len()),
            stats,
        });
    }

    // Top-k does less work than compute-everything, and more as k
    // grows (the paper's Figure 10). Counts, not wall time, so the
    // gates below hold on any host.
    let ops_of = |name: &str| {
        let row = rows.iter().find(|r| r.name == name).expect("engine row");
        row.stats.metrics.server_ops
    };
    let (s_ops, noprune_ops) = (ops_of("Whirlpool-S"), ops_of("LockStep-NoPrun"));
    let s_metrics = rows
        .iter()
        .find(|r| r.name == "Whirlpool-S")
        .expect("Whirlpool-S row")
        .stats
        .metrics;
    let metrics_at = |algorithm: &Algorithm, k: usize| {
        let (stats, _) = run_config(
            &workload,
            &query,
            &model,
            algorithm,
            &EvalOptions::top_k(k),
            1,
        );
        stats.metrics
    };
    let s_ops_at = |k: usize| metrics_at(&Algorithm::WhirlpoolS, k).server_ops;
    let (s_ops_k1, s_ops_k75) = (s_ops_at(1), s_ops_at(75));
    // Whirlpool-M on one worker (the default `threads`), at the k where
    // most roots are never reached.
    let m1_routing_k1 =
        metrics_at(&Algorithm::WhirlpoolM { processors: None }, 1).routing_decisions;

    // Scheduler-pool sweep: Whirlpool-M at the defaults with 1,
    // 2, 4, and 8 workers. Every config must return a top-k answer
    // equivalent to the reference — tie-aware, not bit-identical:
    // concurrent interleavings may legitimately admit different members
    // of a tied boundary group (Q2's structural-only scores tie
    // heavily), and `answers_equivalent` accepts exactly those swaps
    // while still rejecting any score change. Each entry carries the
    // real wall-clock median (pins scheduler overhead on the host) and
    // the virtual makespan of the same pool size on `threads` virtual
    // cores (the discrete-event model in `whirlpool_bench::vtime` — the
    // honest speedup vehicle on single-core hosts).
    let scaling_reference = {
        let (_, last) = run_config(
            &workload,
            &query,
            &model,
            &Algorithm::LockStepNoPrune,
            &options,
            1,
        );
        last
    };
    struct ScalingRow {
        threads: usize,
        stats: ConfigStats,
        virtual_ms: f64,
        equivalent: bool,
    }
    let mut scaling = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        eprintln!("perfsnap: Whirlpool-M scaling, threads = {threads} ({reps} reps + vtime)...");
        let options = EvalOptions {
            threads,
            ..EvalOptions::top_k(k)
        };
        let (stats, last) = run_config(
            &workload,
            &query,
            &model,
            &Algorithm::WhirlpoolM { processors: None },
            &options,
            reps,
        );
        let vctx = QueryContext::new(
            &workload.doc,
            &workload.index,
            &query,
            &model,
            ContextOptions::default(),
        );
        let sim = simulate_whirlpool_m(
            &vctx,
            &RoutingStrategy::MinAlive,
            k,
            QueuePolicy::MaxFinalScore,
            &VTimeConfig {
                processors: Some(threads),
                threads,
                ..VTimeConfig::default()
            },
        );
        scaling.push(ScalingRow {
            threads,
            equivalent: answers_equivalent(&last.answers, &scaling_reference.answers, 1e-9),
            stats,
            virtual_ms: sim.makespan * 1e3,
        });
    }
    // Whirlpool-S under the same virtual cost model: its operations run
    // strictly sequentially, so its virtual time is the work-sum. The
    // multi-worker configs are expected to beat it (the paper's
    // Whirlpool-M-overtakes-S crossover).
    let s_row = rows
        .iter()
        .find(|r| r.name == "Whirlpool-S")
        .expect("Whirlpool-S row");
    let s_virtual_ms = sequential_virtual_time(&s_row.stats.metrics, &VTimeConfig::default()) * 1e3;
    let scaling_speedup: Vec<f64> = scaling
        .iter()
        .map(|r| {
            if r.virtual_ms > 0.0 {
                scaling[0].virtual_ms / r.virtual_ms
            } else {
                1.0
            }
        })
        .collect();

    // Daemon serving: steady-state latency percentiles and the shed
    // rate at 2x admission overload, on a fixed medium document (the
    // per-request pipeline rebuilds the score model, so the document
    // scale is deliberately independent of the engine rows above).
    let (serve_items, serve_steady, serve_per_client) =
        if smoke { (40, 20, 5) } else { (200, 100, 25) };
    eprintln!(
        "perfsnap: serve bench ({serve_items} items, {serve_steady} steady requests, \
         2x overload)..."
    );
    let serve = serve_bench(serve_items, serve_steady, serve_per_client);

    // Collection: sharded top-k with corpus idf, threshold sharing, and
    // synopsis pruning, against its own scan-all baseline on a skewed
    // 16-shard corpus.
    let (coll_rich, coll_sparse, coll_bytes, coll_k) = if smoke {
        (4usize, 12usize, 50_000usize, 10usize)
    } else {
        (4, 12, 400_000, 10)
    };
    eprintln!(
        "perfsnap: collection bench ({coll_rich} rich + {coll_sparse} sparse shards, \
         k = {coll_k}, {reps} reps)..."
    );
    let coll = collection_bench(coll_rich, coll_sparse, coll_bytes, coll_k, reps);

    // Lazy collection: open_dir over a directory of snapshot shards,
    // attach-on-visit with path-synopsis ceilings, against an eager
    // scan-all that attaches every shard. The sparse shards carry the
    // query's tags in the wrong arrangement, so only the stored path
    // synopsis can prune them before their payload is read.
    let (lazy_rich, lazy_sparse) = if smoke { (4usize, 60usize) } else { (16, 240) };
    eprintln!(
        "perfsnap: collection-lazy bench ({lazy_rich} rich + {lazy_sparse} arrangement-mismatched \
         shards, k = {coll_k}, {reps} reps)..."
    );
    let lazy = collection_lazy_bench(lazy_rich, lazy_sparse, coll_k, reps);

    // Snapshot attach: the zero-copy warm start against the cold
    // parse+index it replaces, on the same document as the engine rows.
    eprintln!("perfsnap: snapshot bench (cold parse+index vs mmap attach, {reps} reps)...");
    let snap = snapshot_bench(&workload, &query, k, reps);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"meta\": {{\"query\": \"Q2\", \"doc_label\": \"{label}\", \"doc_bytes\": {bytes}, \
         \"k\": {k}, \"reps\": {reps}}},\n"
    ));
    json.push_str("  \"engines\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"name\": \"{}\",\n", row.name));
        config_json(&mut json, &row.stats);
        json.push_str(&format!(
            "      \"trace_overhead\": {{\"traced_wall_ms\": {:.3}, \"overhead_frac\": {:.4}, \
             \"events\": {}, \"answers_identical\": {}}}\n",
            row.traced_wall_ms,
            row.trace_overhead(),
            row.trace_events,
            row.traced_identical,
        ));
        json.push_str(if i + 1 < rows.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"scaling\": {{\"engine\": \"Whirlpool-M\", \"mode\": \"threads\", \
         \"whirlpool_s_virtual_ms\": {s_virtual_ms:.3}, \"configs\": [\n"
    ));
    for (i, r) in scaling.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {}, \"wall_ms_median\": {:.3}, \"virtual_ms\": {:.3}, \
             \"server_ops\": {}, \"steal_events\": {}, \"batches_stolen\": {}, \
             \"steal_rate\": {:.4}, \"beats_s_virtual\": {}, \"answers_equivalent\": {}}}{}\n",
            r.threads,
            r.stats.wall_ms_median,
            r.virtual_ms,
            r.stats.metrics.server_ops,
            r.stats.metrics.steal_events,
            r.stats.metrics.batches_stolen,
            r.stats.metrics.steal_rate(),
            r.virtual_ms < s_virtual_ms,
            r.equivalent,
            if i + 1 < scaling.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    let fmt4 = |v: &[f64]| -> String {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    json.push_str(&format!("  \"speedup\": [{}],\n", fmt4(&scaling_speedup)));
    let steal_rates: Vec<f64> = scaling
        .iter()
        .map(|r| r.stats.metrics.steal_rate())
        .collect();
    json.push_str(&format!(
        "  \"steal_rate\": [{}]\n  }},\n",
        fmt4(&steal_rates)
    ));
    json.push_str(&format!(
        "  \"serve\": {{\n    \"workers\": {}, \"max_inflight\": {},\n    \
         \"steady\": {{\"requests\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}},\n    \
         \"overload\": {{\"clients\": {}, \"requests\": {}, \"served\": {}, \"shed\": {}, \
         \"shed_rate\": {:.4}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}},\n    \
         \"conserved\": {}\n  }},\n",
        serve.workers,
        serve.max_inflight,
        serve.steady_requests,
        serve.steady_p50_ms,
        serve.steady_p99_ms,
        serve.overload_clients,
        serve.overload_total,
        serve.overload_served,
        serve.overload_shed,
        serve.shed_rate(),
        serve.overload_p50_ms,
        serve.overload_p99_ms,
        serve.conserved,
    ));
    json.push_str(&format!(
        "  \"collection\": {{\n    \"shards_total\": {}, \"rich_shards\": {}, \"k\": {},\n    \
         \"scan_all_wall_ms\": {:.3}, \"sharded_wall_ms\": {:.3}, \"speedup\": {:.3},\n    \
         \"shards_visited\": {}, \"shards_pruned\": {}, \"answers_equivalent\": {}\n  }},\n",
        coll.shards_total,
        coll.rich_shards,
        coll.k,
        coll.scan_all_wall_ms,
        coll.sharded_wall_ms,
        coll.speedup(),
        coll.shards_visited,
        coll.shards_pruned,
        coll.equivalent,
    ));
    json.push_str(&format!(
        "  \"collection_lazy\": {{\n    \"shards_total\": {}, \"rich_shards\": {}, \"k\": {},\n    \
         \"open_ms\": {:.3}, \"eager_wall_ms\": {:.3}, \"lazy_wall_ms\": {:.3}, \
         \"speedup\": {:.3},\n    \"shards_visited\": {}, \"shards_attached\": {}, \
         \"pruned_before_attach\": {}, \"pruned_before_attach_rate\": {:.4},\n    \
         \"capped\": {{\"max_resident\": 2, \"evictions\": {}, \"answers_equivalent\": {}}},\n    \
         \"answers_equivalent\": {}\n  }},\n",
        lazy.shards_total,
        lazy.rich_shards,
        lazy.k,
        lazy.open_ms,
        lazy.eager_wall_ms,
        lazy.lazy_wall_ms,
        lazy.speedup(),
        lazy.shards_visited,
        lazy.shards_attached,
        lazy.pruned_before_attach,
        lazy.pruned_rate(),
        lazy.capped_evictions,
        lazy.capped_equivalent,
        lazy.equivalent,
    ));
    json.push_str(&format!(
        "  \"snapshot\": {{\n    \"file_bytes\": {},\n    \
         \"cold_parse_index_ms\": {:.3}, \"snapshot_attach_ms\": {:.3}, \
         \"speedup\": {:.1},\n    \"mapped\": {}, \"answers_equivalent\": {}\n  }}\n",
        snap.file_bytes,
        snap.cold_ms,
        snap.attach_ms,
        snap.speedup(),
        snap.mapped,
        snap.equivalent,
    ));
    json.push_str("}\n");

    // BENCH_trace.json: the aggregated event stream per engine —
    // score-progress trajectory (threshold vs. server ops), per-server
    // latency histograms, and phase wall time.
    let mut trace_json = String::new();
    trace_json.push_str("{\n");
    trace_json.push_str(&format!(
        "  \"meta\": {{\"query\": \"Q2\", \"doc_label\": \"{label}\", \"doc_bytes\": {bytes}, \
         \"k\": {k}, \"progress_max_points\": 64}},\n"
    ));
    trace_json.push_str("  \"engines\": [\n");
    for (i, row) in rows.iter().enumerate() {
        trace_json.push_str(&format!(
            "    {{\"name\": \"{}\", \"overhead_frac\": {:.4}, \"aggregate\": ",
            row.name,
            row.trace_overhead()
        ));
        row.aggregate.push_json(&mut trace_json, 64);
        trace_json.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    trace_json.push_str("  ]\n}\n");

    for row in &rows {
        eprintln!(
            "perfsnap: {:16} context {:5.2} + wall {:8.2} ms, {:>9} buffers allocated, \
             {:>9} reused (hit rate {:.3})",
            row.name,
            row.stats.context_ms_median,
            row.stats.wall_ms_median,
            row.stats.metrics.buffers_allocated,
            row.stats.metrics.buffers_reused,
            row.stats.metrics.pool_hit_rate(),
        );
        eprintln!(
            "perfsnap: {:16} traced {:8.2} ms ({:+.1}% vs untraced), {} events, \
             answers identical: {}",
            row.name,
            row.traced_wall_ms,
            row.trace_overhead() * 100.0,
            row.trace_events,
            row.traced_identical,
        );
    }

    for (r, speedup) in scaling.iter().zip(&scaling_speedup) {
        eprintln!(
            "perfsnap: Whirlpool-M   threads {:>2} wall {:8.2} ms, virtual {:8.2} ms \
             (speedup {:.2}x, steal rate {:.3}), answers equivalent: {}",
            r.threads,
            r.stats.wall_ms_median,
            r.virtual_ms,
            speedup,
            r.stats.metrics.steal_rate(),
            r.equivalent,
        );
    }
    eprintln!(
        "perfsnap: Whirlpool-S   virtual {s_virtual_ms:8.2} ms (sequential work-sum); \
         multi-worker M beats it: {}",
        scaling.iter().skip(1).all(|r| r.virtual_ms < s_virtual_ms),
    );

    eprintln!(
        "perfsnap: serve steady p50 {:.2} ms / p99 {:.2} ms; 2x overload ({} clients): \
         {}/{} served, shed rate {:.3}, p50 {:.2} ms / p99 {:.2} ms, conserved: {}",
        serve.steady_p50_ms,
        serve.steady_p99_ms,
        serve.overload_clients,
        serve.overload_served,
        serve.overload_total,
        serve.shed_rate(),
        serve.overload_p50_ms,
        serve.overload_p99_ms,
        serve.conserved,
    );

    eprintln!(
        "perfsnap: collection {} shards ({} rich): scan-all {:8.2} ms -> sharded {:8.2} ms \
         ({:.2}x), visited {}, pruned {}, answers equivalent: {}",
        coll.shards_total,
        coll.rich_shards,
        coll.scan_all_wall_ms,
        coll.sharded_wall_ms,
        coll.speedup(),
        coll.shards_visited,
        coll.shards_pruned,
        coll.equivalent,
    );

    eprintln!(
        "perfsnap: collection-lazy {} shards ({} rich): open {:.2} ms, eager {:8.2} ms -> \
         lazy {:8.2} ms ({:.2}x), {} pruned before attach ({:.0}%), {} attached, \
         {} evictions @ max-resident 2, answers equivalent: {}",
        lazy.shards_total,
        lazy.rich_shards,
        lazy.open_ms,
        lazy.eager_wall_ms,
        lazy.lazy_wall_ms,
        lazy.speedup(),
        lazy.pruned_before_attach,
        lazy.pruned_rate() * 100.0,
        lazy.shards_attached,
        lazy.capped_evictions,
        lazy.equivalent && lazy.capped_equivalent,
    );

    eprintln!(
        "perfsnap: snapshot {} bytes: cold parse+index {:8.2} ms -> attach {:8.3} ms \
         ({:.0}x, mapped: {}), answers equivalent: {}",
        snap.file_bytes,
        snap.cold_ms,
        snap.attach_ms,
        snap.speedup(),
        snap.mapped,
        snap.equivalent,
    );

    if rows.iter().any(|r| !r.traced_identical) {
        eprintln!("perfsnap: FAIL — tracing changed the answer set");
        std::process::exit(1);
    }
    if scaling.iter().any(|r| !r.equivalent) {
        eprintln!("perfsnap: FAIL — a scaling config returned a non-equivalent answer set");
        std::process::exit(1);
    }
    if s_ops_k1 >= s_ops_k75 {
        eprintln!(
            "perfsnap: FAIL — Whirlpool-S server ops do not grow with k: {s_ops_k1} at k = 1, \
             {s_ops_k75} at k = 75"
        );
        std::process::exit(1);
    }
    if s_ops * 4 > noprune_ops {
        eprintln!(
            "perfsnap: FAIL — Whirlpool-S spent {s_ops} server ops, more than a quarter of \
             LockStep-NoPrun's {noprune_ops}"
        );
        std::process::exit(1);
    }
    // Seeding is on demand: every root Whirlpool-S turns into a match
    // it also processes (or ends the run on), so its matches follow its
    // operations, and at k = 15 even the smoke document has roots it
    // never reaches. Counts, so host-independent.
    if s_metrics.partials_created > 2 * s_ops + 1 {
        eprintln!(
            "perfsnap: FAIL — Whirlpool-S created {} partial matches for {s_ops} server ops \
             (more than 2 x ops + 1: roots are being seeded that nobody visits)",
            s_metrics.partials_created
        );
        std::process::exit(1);
    }
    if s_metrics.roots_unseeded == 0 {
        eprintln!("perfsnap: FAIL — Whirlpool-S at k = {k} left no root candidate unseeded");
        std::process::exit(1);
    }
    // Serve conservation gate: the daemon's outcome counters must
    // account for every admitted request exactly once — a leak here
    // means a worker died or a request settled twice.
    if !serve.conserved {
        eprintln!(
            "perfsnap: FAIL — serve counters violate admitted = exact + degraded + timed_out"
        );
        std::process::exit(1);
    }
    // Scheduler-scaling gate: the virtual 4-worker makespan must not
    // exceed the 1-worker one (virtual time, so it holds on single-core
    // hosts; 5 % headroom for adaptive-routing divergence between the
    // two schedules).
    {
        let one = &scaling[0];
        let four = scaling
            .iter()
            .find(|r| r.threads == 4)
            .expect("4-thread scaling config");
        if four.virtual_ms > one.virtual_ms * 1.05 {
            eprintln!(
                "perfsnap: FAIL — Whirlpool-M virtual makespan at 4 workers ({:.2} ms) \
                 exceeds 1 worker ({:.2} ms)",
                four.virtual_ms, one.virtual_ms
            );
            std::process::exit(1);
        }
    }
    // The virtual speedup curve is monotone over 1/2/4/8 workers (same
    // 5 % headroom), and one worker homes every queue, so it never
    // steals.
    if scaling_speedup.windows(2).any(|w| w[1] < w[0] * 0.95) {
        eprintln!("perfsnap: FAIL — virtual speedup is not monotone: {scaling_speedup:?}");
        std::process::exit(1);
    }
    if scaling[0].stats.metrics.steal_events != 0 {
        eprintln!("perfsnap: FAIL — Whirlpool-M stole batches with a single worker");
        std::process::exit(1);
    }
    // One worker schedules like Whirlpool-S at batch granularity: its
    // work stays within a small factor of Whirlpool-S's, and a root that
    // top-k never reaches is never routed — at k = 1, where even the
    // smoke document has more roots than one answer needs, there are
    // fewer routing decisions than roots. Counts, so host-independent.
    let m1_ops = scaling[0].stats.metrics.server_ops;
    if m1_ops > 4 * s_ops {
        eprintln!(
            "perfsnap: FAIL — Whirlpool-M at one worker spent {m1_ops} server ops, more than \
             4x Whirlpool-S's {s_ops}"
        );
        std::process::exit(1);
    }
    let roots = QueryContext::new(
        &workload.doc,
        &workload.index,
        &query,
        &model,
        ContextOptions::default(),
    )
    .root_candidates()
    .len() as u64;
    if m1_routing_k1 >= roots {
        eprintln!(
            "perfsnap: FAIL — Whirlpool-M at one worker made {m1_routing_k1} routing decisions \
             at k = 1 for {roots} root candidates"
        );
        std::process::exit(1);
    }

    // Collection gates: pruning must fire on the skewed corpus, must
    // not change the answer set, must leave every shard either visited
    // or pruned with no rich shard skipped, and must not cost wall time
    // over the scan-all baseline (10 % headroom for noise).
    if coll.shards_pruned == 0 {
        eprintln!("perfsnap: FAIL — collection run pruned no shard on the skewed corpus");
        std::process::exit(1);
    }
    if !coll.equivalent {
        eprintln!("perfsnap: FAIL — sharded collection answers diverge from scan-all");
        std::process::exit(1);
    }
    if coll.shards_visited + coll.shards_pruned != coll.shards_total
        || coll.shards_visited < coll.rich_shards
    {
        eprintln!(
            "perfsnap: FAIL — collection run visited {} and pruned {} of {} shards ({} rich)",
            coll.shards_visited, coll.shards_pruned, coll.shards_total, coll.rich_shards
        );
        std::process::exit(1);
    }
    if coll.sharded_wall_ms > coll.scan_all_wall_ms * 1.10 {
        eprintln!(
            "perfsnap: FAIL — sharded collection {:.2} ms exceeds scan-all {:.2} ms by >10%",
            coll.sharded_wall_ms, coll.scan_all_wall_ms
        );
        std::process::exit(1);
    }

    // Lazy-collection gates: the whole point of attach-on-visit is
    // that most of a skewed corpus never touches disk. At least half
    // the shards must be pruned before attach (the fixture is built so
    // tag counts alone cannot do this — only the stored path synopsis
    // can), answers must match the eager scan tie-aware (capped and
    // uncapped), the lazy run must not cost wall time over the eager
    // one (5 % headroom for noise), the max_resident=2 rerun must
    // actually evict, and the attached shards are all the rich ones and
    // none of those pruned before attach.
    if lazy.pruned_rate() < 0.5 {
        eprintln!(
            "perfsnap: FAIL — lazy collection pruned only {}/{} shards before attach (< 50%)",
            lazy.pruned_before_attach, lazy.shards_total
        );
        std::process::exit(1);
    }
    if !lazy.equivalent || !lazy.capped_equivalent {
        eprintln!(
            "perfsnap: FAIL — lazy collection answers diverge from the eager scan \
             (uncapped equivalent: {}, capped equivalent: {})",
            lazy.equivalent, lazy.capped_equivalent
        );
        std::process::exit(1);
    }
    if lazy.lazy_wall_ms > lazy.eager_wall_ms * 1.05 {
        eprintln!(
            "perfsnap: FAIL — lazy collection {:.2} ms exceeds eager scan-all {:.2} ms by >5%",
            lazy.lazy_wall_ms, lazy.eager_wall_ms
        );
        std::process::exit(1);
    }
    if lazy.capped_evictions == 0 {
        eprintln!(
            "perfsnap: FAIL — max_resident=2 rerun attached {} shards without evicting",
            lazy.shards_attached
        );
        std::process::exit(1);
    }

    if lazy.shards_attached as usize + lazy.pruned_before_attach > lazy.shards_total
        || (lazy.shards_attached as usize) < lazy.rich_shards
    {
        eprintln!(
            "perfsnap: FAIL — lazy collection attached {} and pruned {} before attach of {} \
             shards ({} rich)",
            lazy.shards_attached, lazy.pruned_before_attach, lazy.shards_total, lazy.rich_shards
        );
        std::process::exit(1);
    }

    // Snapshot gates: attaching must be a pure representation change
    // (tie-aware equivalent answers), must go through mmap (the
    // owned-buffer read fallback is correct but is not the zero-copy
    // product) and must actually be a warm start — at least 5x faster
    // than the cold parse+index it replaces.
    // The floor is deliberately loose: the measured gap at full scale
    // is orders of magnitude (20x+ on the 10 Mb document), but at
    // smoke scale the fixed mmap + checksum floor (~0.4 ms) dominates
    // a sub-millisecond attach, and the gate only needs to catch an
    // attach path that silently degrades into a rebuild.
    if !snap.equivalent {
        eprintln!("perfsnap: FAIL — snapshot-backed answers diverge from the parsed run");
        std::process::exit(1);
    }
    if !snap.mapped {
        eprintln!("perfsnap: FAIL — snapshot attach fell back to the read path");
        std::process::exit(1);
    }
    if snap.speedup() < 5.0 {
        eprintln!(
            "perfsnap: FAIL — snapshot attach {:.3} ms is less than 5x faster than the \
             cold parse+index {:.2} ms",
            snap.attach_ms, snap.cold_ms
        );
        std::process::exit(1);
    }

    if smoke {
        print!("{json}");
    } else {
        let mut file = std::fs::File::create(&out_path)
            .unwrap_or_else(|e| panic!("cannot create {out_path}: {e}"));
        file.write_all(json.as_bytes()).expect("write BENCH json");
        eprintln!("perfsnap: wrote {out_path}");
        let trace_path = "BENCH_trace.json";
        let mut file = std::fs::File::create(trace_path)
            .unwrap_or_else(|e| panic!("cannot create {trace_path}: {e}"));
        file.write_all(trace_json.as_bytes())
            .expect("write BENCH trace json");
        eprintln!("perfsnap: wrote {trace_path}");
    }

    // Snapshot-diff gate: any engine whose context build + wall median
    // exceeds the old snapshot's by more than 15 % — and by more than
    // 1 ms, below which a handful of reps on a shared host resolves
    // nothing (Whirlpool-S is a 0.1 ms run) — fails the run. The sum,
    // because locating moved between the two: what the constructor
    // used to merge per server, a lock-step stage now merges on arrival. Cross-scale
    // comparisons (different doc labels) are refused, not guessed at.
    // Runs after the files are written so a failing run still leaves
    // the new snapshot behind for inspection (CI uploads it).
    if let Some(old_path) = value_of("--compare") {
        let old = std::fs::read_to_string(&old_path)
            .unwrap_or_else(|e| panic!("cannot read {old_path}: {e}"));
        let old_label = parse_snapshot_label(&old);
        if old_label.as_deref() != Some(label) {
            eprintln!(
                "perfsnap: WARN — --compare skipped: {old_path} was taken on doc_label {:?}, \
                 this run is {label:?}",
                old_label.as_deref().unwrap_or("<missing>"),
            );
        } else {
            let baselines = parse_snapshot_walls(&old);
            let mut regressed = false;
            for row in &rows {
                let Some((_, old_ms)) = baselines.iter().find(|(n, _)| n == row.name) else {
                    eprintln!("perfsnap: WARN — {} absent from {old_path}", row.name);
                    continue;
                };
                let new_ms = row.stats.context_ms_median + row.stats.wall_ms_median;
                let delta = if *old_ms > 0.0 {
                    new_ms / old_ms - 1.0
                } else {
                    0.0
                };
                let verdict = if delta > 0.15 && new_ms - old_ms > 1.0 {
                    regressed = true;
                    "REGRESSED"
                } else {
                    "ok"
                };
                eprintln!(
                    "perfsnap: compare {:16} context + wall {:8.2} ms vs {:8.2} ms ({:+.1}%) \
                     {verdict}",
                    row.name,
                    new_ms,
                    old_ms,
                    delta * 100.0,
                );
            }
            match parse_snapshot_speedup(&old) {
                None => eprintln!(
                    "perfsnap: WARN — {old_path} carries no scaling speedup array; \
                     scaling comparison skipped"
                ),
                Some(old_speedup) => {
                    for ((r, new_s), old_s) in
                        scaling.iter().zip(&scaling_speedup).zip(&old_speedup)
                    {
                        let verdict = if *new_s < old_s * 0.85 {
                            regressed = true;
                            "REGRESSED"
                        } else {
                            "ok"
                        };
                        eprintln!(
                            "perfsnap: compare scaling @{} workers: speedup {:.2}x vs {:.2}x \
                             {verdict}",
                            r.threads, new_s, old_s,
                        );
                    }
                }
            }
            if regressed {
                eprintln!(
                    "perfsnap: FAIL — engine wall-clock or scaling speedup regressed against \
                     {old_path}"
                );
                std::process::exit(1);
            }
        }
    }

    if smoke {
        eprintln!("perfsnap: smoke OK");
    }
}
