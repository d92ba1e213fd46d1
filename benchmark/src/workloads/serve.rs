//! `serve_closed`: the daemon on loopback, one client, one request per
//! connection, the next request sent when the previous reply is read.
//!
//! The registry holds parsed documents and peeked snapshot shards. Nine
//! classes query one document each (class `i` → document `i mod docs`);
//! three query everything as a collection. Each class is sampled five
//! times a round and the round keeps the median: the accept loop polls
//! every 2 ms, so a request's latency has jitter of its own that a
//! minimum would hide.

use super::{classes_of, files_with_ext, mb, ratio, read_references, Reference, EPSILON, KS};
use crate::protocol::{Config, Layers, OpKind, OpOutcome, Run, Workload};
use crate::stats;
use crate::trace::Tracer;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Instant;
use whirlpool_core::{
    evaluate_collection, evaluate_with_context, Algorithm, Collection, CollectionOptions,
    ContextOptions, EvalOptions, QueryContext,
};
use whirlpool_index::TagIndex;
use whirlpool_pattern::parse_pattern;
use whirlpool_score::{Normalization, TfIdfModel};
use whirlpool_serve::{
    start, DocState, Json, Registry, ServeConfig, ServeMetricsSnapshot, ServerHandle,
};
use whirlpool_xmark::queries;
use whirlpool_xml::{parse_document, Document};

/// Samples per class per round.
const REPEATS: usize = 5;

/// The daemon rounds scores to six decimals in its replies.
const WIRE_EPSILON: f64 = 1e-6 + EPSILON;

#[derive(Clone, Copy)]
struct Class {
    name: &'static str,
    query: &'static str,
    k: usize,
    /// `Some(i)`: document `i`; `None`: the whole registry as a collection.
    doc: Option<usize>,
}

/// What the in-process library answers for the same queries over the
/// same files: the reference every reply is checked against, and the
/// baseline `serve.overhead_ms` is measured from.
struct Library {
    docs: Vec<(Document, TagIndex)>,
    collection: Collection,
}

/// See the module comment.
pub struct ServeWorkload {
    dir: PathBuf,
    classes: Vec<Class>,
    /// Reference scores per class, best first.
    references: Vec<Vec<f64>>,
    library: Option<Library>,
    daemon: Option<ServerHandle>,
    addr: Option<SocketAddr>,
    xml_bytes: u64,
    nodes: usize,
    index_ms: f64,
    /// Per class: `elapsed_ms` the daemon reported, every reply.
    server_elapsed: Vec<Vec<f64>>,
    /// Per class: the same query through the library, every probe.
    library_ms: Vec<Vec<f64>>,
    /// Counters of every daemon this run started, read at shutdown.
    daemons: Vec<ServeMetricsSnapshot>,
}

impl ServeWorkload {
    /// The workload over the fixtures in `cfg.dir`. A traced run also
    /// loads the library twin its probes measure against.
    pub fn new(cfg: &Config) -> Result<ServeWorkload, String> {
        let mut workload = ServeWorkload::bare(cfg);
        workload.references = read_references(&cfg.dir, workload.classes.len())?
            .into_iter()
            .map(|answers| answers.into_iter().map(|a| a.score).collect())
            .collect();
        if cfg.traced {
            workload.library = Some(workload.load_library()?);
        }
        Ok(workload)
    }

    fn bare(cfg: &Config) -> ServeWorkload {
        let docs = cfg.scale.serve_docs;
        let named = [
            ("Q1", queries::Q1),
            ("Q2", queries::Q2),
            ("Q3", queries::Q3),
        ];
        let mut classes: Vec<Class> = classes_of(&named)
            .into_iter()
            .enumerate()
            .map(|(i, (name, query, k))| Class {
                name,
                query,
                k,
                doc: Some(i % docs),
            })
            .collect();
        classes.extend(KS.iter().map(|&k| Class {
            name: "Q2/collection",
            query: queries::Q2,
            k,
            doc: None,
        }));
        let n = classes.len();
        ServeWorkload {
            dir: cfg.dir.clone(),
            classes,
            references: Vec::new(),
            library: None,
            daemon: None,
            addr: None,
            xml_bytes: 0,
            nodes: 0,
            index_ms: 0.0,
            server_elapsed: vec![Vec::new(); n],
            library_ms: vec![Vec::new(); n],
            daemons: Vec::new(),
        }
    }

    /// The same documents and shards the daemon's registry holds, as
    /// the library sees them.
    fn load_library(&self) -> Result<Library, String> {
        let mut docs = Vec::new();
        let mut collection = Collection::new();
        for path in self.doc_files()? {
            let src = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
            let name = path
                .file_stem()
                .expect("named")
                .to_string_lossy()
                .into_owned();
            collection
                .add_source(name, &src)
                .map_err(|e| e.to_string())?;
            let doc = parse_document(&src).map_err(|e| e.to_string())?;
            let index = TagIndex::build(&doc);
            docs.push((doc, index));
        }
        for path in self.shard_files()? {
            collection
                .attach_snapshot_file(&path)
                .map_err(|e| format!("peek {}: {e}", path.display()))?;
        }
        Ok(Library { docs, collection })
    }

    fn doc_files(&self) -> Result<Vec<PathBuf>, String> {
        files_with_ext(&self.dir.join("docs"), "xml")
    }

    fn shard_files(&self) -> Result<Vec<PathBuf>, String> {
        files_with_ext(&self.dir.join("shards"), "wps")
    }

    /// The class's query through the library; scores and wall ms.
    fn library_run(&self, class: usize) -> (Vec<f64>, f64) {
        let c = self.classes[class];
        let library = self.library.as_ref().expect("library loaded");
        let start = Instant::now();
        let pattern = parse_pattern(c.query).expect("benchmark query parses");
        let scores = match c.doc {
            Some(i) => {
                let (doc, index) = &library.docs[i];
                let model = TfIdfModel::build(doc, index, &pattern, Normalization::Sparse);
                let ctx =
                    QueryContext::new(doc, index, &pattern, &model, ContextOptions::default());
                evaluate_with_context(&ctx, &Algorithm::WhirlpoolS, &EvalOptions::top_k(c.k))
                    .answers
                    .iter()
                    .map(|a| a.score.value())
                    .collect()
            }
            None => evaluate_collection(
                &library.collection,
                &pattern,
                &Algorithm::WhirlpoolS,
                &EvalOptions::top_k(c.k),
                Normalization::Sparse,
                &CollectionOptions::default(),
            )
            .answers
            .iter()
            .map(|a| a.score.value())
            .collect(),
        };
        (scores, start.elapsed().as_secs_f64() * 1e3)
    }
}

/// The scores the in-process library gives for every class: what the
/// daemon's replies must equal.
pub fn reference_answers(cfg: &Config) -> Result<Vec<Vec<Reference>>, String> {
    let mut workload = ServeWorkload::bare(cfg);
    workload.library = Some(workload.load_library()?);
    Ok((0..workload.classes.len())
        .map(|class| {
            let (scores, _) = workload.library_run(class);
            scores
                .into_iter()
                .map(|score| Reference {
                    shard: 0,
                    root: 0,
                    score,
                })
                .collect()
        })
        .collect())
}

/// One request on a fresh connection; status and body.
fn request(addr: SocketAddr, raw: &str, tr: &mut Tracer) -> std::io::Result<(u16, String)> {
    let mut conn = tr.span("serve.connect", || TcpStream::connect(addr))?;
    conn.set_nodelay(true)?;
    let mut response = Vec::with_capacity(8192);
    let mut first = [0u8; 4096];
    let got = {
        let id = tr.begin("serve.ttfb");
        let got = conn
            .write_all(raw.as_bytes())
            .and_then(|()| conn.read(&mut first));
        tr.end(id);
        got?
    };
    response.extend_from_slice(&first[..got]);
    tr.span("serve.read", || conn.read_to_end(&mut response))?;
    let text = String::from_utf8_lossy(&response);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn answer_scores(body: &Json) -> Option<Vec<f64>> {
    match body.get("answers")? {
        Json::Arr(items) => items
            .iter()
            .map(|a| a.get("score").and_then(Json::as_f64))
            .collect(),
        _ => None,
    }
}

impl Workload for ServeWorkload {
    fn classes(&self) -> Vec<String> {
        self.classes
            .iter()
            .map(|c| format!("{}/k={}", c.name, c.k))
            .collect()
    }

    fn repeats(&self) -> usize {
        REPEATS
    }

    fn counters_repeat(&self) -> bool {
        false
    }

    fn teardown(&mut self) -> Result<(), String> {
        if let Some(daemon) = self.daemon.take() {
            let seen = daemon.metrics().snapshot();
            daemon.shutdown();
            let conserved = seen.conserved();
            self.daemons.push(seen);
            if !conserved {
                return Err(format!("daemon counters not conserved: {seen:?}"));
            }
        }
        Ok(())
    }

    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let mut registry = Registry::new();
        let (mut xml_bytes, mut nodes, mut index_ms) = (0, 0, 0.0);
        for path in self.doc_files()? {
            let name = path
                .file_stem()
                .expect("named")
                .to_string_lossy()
                .into_owned();
            let src = tr
                .span("fs.read", || std::fs::read_to_string(&path))
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let doc = tr
                .span("xml.parse", || parse_document(&src))
                .map_err(|e| format!("parse {}: {e}", path.display()))?;
            xml_bytes += src.len() as u64;
            nodes += doc.len();
            let state = tr.span("serve.doc_state", || DocState::new(name, doc));
            index_ms += state.prepare.ms();
            registry.insert(state);
        }
        for path in self.shard_files()? {
            let name = path
                .file_stem()
                .expect("named")
                .to_string_lossy()
                .into_owned();
            let state = tr
                .span("serve.doc_peek", || DocState::peek(name, &path))
                .map_err(|e| format!("peek {}: {e}", path.display()))?;
            registry.insert(state);
        }
        self.xml_bytes = xml_bytes;
        self.nodes = nodes;
        self.index_ms = index_ms;
        let config = ServeConfig {
            workers: 2,
            max_inflight: 2,
            ..ServeConfig::default()
        };
        let daemon = tr
            .span("serve.start", || start(config, registry))
            .map_err(|e| format!("start daemon: {e}"))?;
        let addr = daemon.addr();
        self.daemon = Some(daemon);
        self.addr = Some(addr);
        let (status, body) = tr
            .span("serve.healthz", || {
                request(addr, "GET /healthz HTTP/1.1\r\n\r\n", &mut Tracer::new())
            })
            .map_err(|e| format!("healthz: {e}"))?;
        if status != 200 {
            return Err(format!("healthz answered {status}: {body}"));
        }
        Ok(())
    }

    fn probes(&mut self, tr: &mut Tracer) -> Result<(), String> {
        for path in self.shard_files()? {
            tr.span("probe.store.peek", || {
                whirlpool_store::Snapshot::peek(&path)
            })
            .map_err(|e| format!("peek {}: {e}", path.display()))?;
        }
        for class in 0..self.classes.len() {
            let (_, ms) = tr.span("probe.serve.library", || self.library_run(class));
            self.library_ms[class].push(ms);
        }
        Ok(())
    }

    fn op(&mut self, class: usize, tr: &mut Tracer) -> OpOutcome {
        let c = self.classes[class];
        let addr = self.addr.expect("set up");
        let target = match c.doc {
            Some(i) => format!("\"doc\": \"doc_{i}\""),
            None => "\"collection\": true".to_string(),
        };
        let json = format!("{{{target}, \"query\": \"{}\", \"k\": {}}}", c.query, c.k);
        let raw = format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{json}",
            json.len()
        );

        let start = Instant::now();
        let root = tr.begin("bench.op");
        let reply = request(addr, &raw, tr);
        tr.end(root);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        let mut ok = false;
        if let Ok((200, body)) = reply {
            if let Ok(body) = Json::parse(&body) {
                let exact = body.get("outcome").and_then(Json::as_str) == Some("exact");
                let scores = answer_scores(&body).unwrap_or_default();
                let reference = &self.references[class];
                ok = exact
                    && scores.len() == reference.len()
                    && scores
                        .iter()
                        .zip(reference)
                        .all(|(a, b)| (a - b).abs() <= WIRE_EPSILON);
                if let Some(ms) = body.get("elapsed_ms").and_then(Json::as_f64) {
                    self.server_elapsed[class].push(ms);
                }
            }
        }
        OpOutcome {
            wall_ms,
            ok,
            counters: [0; 4],
        }
    }

    fn layer_metrics(&self, run: &Run) -> Layers {
        let mut out = Layers::new();
        let mut put = |name: &str, v: f64| {
            out.insert(name.to_string(), v);
        };
        let xml_mb = mb(self.xml_bytes);
        let setup = |name: &str| run.segment_span_floor(OpKind::Setup, name);
        let probe = |name: &str| run.segment_span_floor(OpKind::Probe, name);
        let shards = self.shard_files().map_or(0, |f| f.len()) as f64;

        put("xml.parse_ms_per_mb", setup("xml.parse") / xml_mb);
        put("xml.nodes_per_mb", self.nodes as f64 / xml_mb);
        // `DocState::new` builds the index inside one call and reports
        // the build's own time.
        put("index.build_ms_per_mb", self.index_ms / xml_mb);
        put(
            "store.peek_us_per_shard",
            ratio(probe("probe.store.peek") * 1e3, shards),
        );

        put(
            "serve.connect_us",
            run.span_ms_per_op("serve.connect") * 1e3,
        );
        put("serve.ttfb_ms", run.span_ms_per_op("serve.ttfb"));
        put("serve.read_us", run.span_ms_per_op("serve.read") * 1e3);
        let elapsed: Vec<f64> = self
            .server_elapsed
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| stats::floor(v))
            .collect();
        put("serve.server_elapsed_ms", stats::mean(&elapsed));

        // Request floor minus the same query through the library.
        let floors = run.class_floors();
        let (mut doc_over, mut coll_over) = (Vec::new(), Vec::new());
        for (i, c) in self.classes.iter().enumerate() {
            if self.library_ms[i].is_empty() {
                continue;
            }
            let over = floors[i] - stats::floor(&self.library_ms[i]);
            match c.doc {
                Some(_) => doc_over.push(over),
                None => coll_over.push(over),
            }
        }
        put("serve.overhead_ms", stats::mean(&doc_over));
        put("serve.collection_overhead_ms", stats::mean(&coll_over));

        let total = |f: fn(&ServeMetricsSnapshot) -> u64| {
            self.daemons.iter().map(|d| f(d) as f64).sum::<f64>()
        };
        put("serve.outcomes.exact", total(|d| d.exact));
        put("serve.outcomes.degraded", total(|d| d.degraded));
        put("serve.outcomes.timed_out", total(|d| d.timed_out));
        put("serve.outcomes.shed", total(|d| d.shed));
        put("serve.outcomes.rejected", total(|d| d.rejected));
        let conserved = self.daemons.iter().all(ServeMetricsSnapshot::conserved);
        put("serve.conserved", f64::from(u8::from(conserved)));
        out
    }
}
