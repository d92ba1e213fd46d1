//! `corpus_lazy`: 64 snapshot shards opened lazily with 4 resident.
//!
//! Set-up ingests every XML file into a `.wps` shard and opens the
//! directory; an op is one `evaluate_collection` call. From outside
//! that call is opaque, so the store's share of it is measured by
//! direct `Snapshot::peek` / `attach` probes on the same files.

use super::{
    classes_of, engine_layers, files_with_ext, ingest, ingest_layers, labels, mb, ratio,
    read_references, IngestTotals, Reference, EPSILON, Q1_TO_Q4,
};
use crate::protocol::{Config, Layers, OpKind, OpOutcome, Run, Workload};
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;
use whirlpool_core::{
    collection_answers_equivalent, evaluate_collection, Algorithm, Collection, CollectionAnswer,
    CollectionMetrics, CollectionOptions, EvalOptions, MetricsSnapshot,
};
use whirlpool_index::PathSynopsis;
use whirlpool_pattern::parse_pattern;
use whirlpool_score::{Normalization, Score};
use whirlpool_store::Snapshot;
use whirlpool_xmark::queries;
use whirlpool_xml::{parse_document, NodeId};

/// Shards kept attached at once: far fewer than the 64 on disk, so
/// queries that visit every shard run in the attach/evict-bound regime.
const MAX_RESIDENT: usize = 4;

/// See the module comment.
pub struct CorpusWorkload {
    dir: PathBuf,
    classes: Vec<(&'static str, &'static str, usize)>,
    references: Vec<Vec<CollectionAnswer>>,
    collection: Option<Collection>,
    ingested: IngestTotals,
    shards: usize,
    /// Bytes of the document the path-synopsis probe builds over.
    probe_xml_bytes: u64,
    /// Driver and engine counters of the last op of each class.
    last: Vec<Option<(CollectionMetrics, MetricsSnapshot)>>,
}

impl CorpusWorkload {
    /// The workload over the fixtures in `cfg.dir`.
    pub fn new(cfg: &Config) -> Result<CorpusWorkload, String> {
        let classes = classes_of(&Q1_TO_Q4);
        let references = read_references(&cfg.dir, classes.len())?
            .into_iter()
            .map(|answers| {
                answers
                    .into_iter()
                    .map(|a| CollectionAnswer {
                        shard: a.shard,
                        root: NodeId::from_index(a.root),
                        score: Score::new(a.score),
                    })
                    .collect()
            })
            .collect();
        Ok(CorpusWorkload::with_references(cfg, references))
    }

    fn with_references(cfg: &Config, references: Vec<Vec<CollectionAnswer>>) -> CorpusWorkload {
        let classes = classes_of(&Q1_TO_Q4);
        CorpusWorkload {
            dir: cfg.dir.clone(),
            references,
            last: vec![None; classes.len()],
            classes,
            collection: None,
            ingested: IngestTotals::default(),
            shards: 0,
            probe_xml_bytes: 0,
        }
    }

    fn shard_dir(&self) -> PathBuf {
        self.dir.join("shards")
    }

    fn open(&self) -> Result<Collection, String> {
        let collection = Collection::open_dir(self.shard_dir())
            .map_err(|e| format!("open {}: {e}", self.shard_dir().display()))?;
        collection.set_max_resident(MAX_RESIDENT);
        Ok(collection)
    }
}

/// `CollectionOptions::scan_all()` over the same lazily opened shards
/// the ops run on (a peeked collection scores by synopsis counts, so a
/// parsed one would not be the same corpus model).
pub fn reference_answers(cfg: &Config) -> Result<Vec<Vec<Reference>>, String> {
    let mut workload = CorpusWorkload::with_references(cfg, Vec::new());
    workload.setup(&mut Tracer::new())?;
    let collection = workload.collection.as_ref().expect("set up");
    Ok(workload
        .classes
        .iter()
        .map(|&(_, q, k)| {
            evaluate(collection, q, k, &CollectionOptions::scan_all())
                .answers
                .iter()
                .map(|a| Reference {
                    shard: a.shard,
                    root: a.root.index(),
                    score: a.score.value(),
                })
                .collect()
        })
        .collect())
}

fn evaluate(
    collection: &Collection,
    query: &str,
    k: usize,
    copts: &CollectionOptions,
) -> whirlpool_core::CollectionResult {
    let pattern = parse_pattern(query).expect("benchmark query parses");
    evaluate_collection(
        collection,
        &pattern,
        &Algorithm::WhirlpoolS,
        &EvalOptions::top_k(k),
        Normalization::Sparse,
        copts,
    )
}

impl Workload for CorpusWorkload {
    fn classes(&self) -> Vec<String> {
        labels(&self.classes)
    }

    fn repeats(&self) -> usize {
        1
    }

    fn counters_repeat(&self) -> bool {
        true
    }

    fn teardown(&mut self) -> Result<(), String> {
        self.collection = None;
        Ok(())
    }

    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let shards = self.shard_dir();
        // A fresh directory every time: no shard of the previous
        // segment survives to be opened by this one.
        let _ = std::fs::remove_dir_all(&shards);
        std::fs::create_dir_all(&shards).map_err(|e| format!("mkdir {}: {e}", shards.display()))?;
        let mut totals = IngestTotals::default();
        let sources = files_with_ext(&self.dir.join("xml"), "xml")?;
        for xml in &sources {
            let stem = xml.file_stem().expect("fixture has a name");
            let wps = shards.join(stem).with_extension("wps");
            totals.add(&ingest(xml, &wps, tr)?);
        }
        self.ingested = totals;
        self.shards = sources.len();
        let opened = tr.span("core.collection.open", || self.open())?;
        self.collection = Some(opened);
        Ok(())
    }

    fn probes(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let files = files_with_ext(&self.shard_dir(), "wps")?;
        for f in &files {
            tr.span("probe.store.peek", || Snapshot::peek(f))
                .map_err(|e| format!("peek {}: {e}", f.display()))?;
        }
        for f in &files {
            // Attach and release, as an evicting visit does.
            tr.span("probe.store.attach", || Snapshot::attach(f).map(drop))
                .map_err(|e| format!("attach {}: {e}", f.display()))?;
        }
        let sources = files_with_ext(&self.dir.join("xml"), "xml")?;
        let last = sources.last().expect("fixtures exist");
        let src = std::fs::read_to_string(last).map_err(|e| e.to_string())?;
        let doc = parse_document(&src).map_err(|e| e.to_string())?;
        tr.span("probe.index.path_synopsis", || PathSynopsis::build(&doc));
        self.probe_xml_bytes = src.len() as u64;

        let side = self.open()?;
        let q2 = parse_pattern(queries::Q2).expect("Q2 parses");
        tr.span("probe.score.corpus_stats", || {
            side.corpus_stats(&q2).model(Normalization::Sparse)
        });
        for &(_, q, k) in &self.classes {
            tr.span("probe.collection.scan_all", || {
                evaluate(&side, q, k, &CollectionOptions::scan_all())
            });
        }
        Ok(())
    }

    fn op(&mut self, class: usize, tr: &mut Tracer) -> OpOutcome {
        let (_, q, k) = self.classes[class];
        let collection = self.collection.as_ref().expect("set up");

        let start = Instant::now();
        let root = tr.begin("bench.op");
        let pattern = tr
            .span("pattern.parse", || parse_pattern(q))
            .expect("benchmark query parses");
        let result = tr.span("core.collection.evaluate", || {
            evaluate_collection(
                collection,
                &pattern,
                &Algorithm::WhirlpoolS,
                &EvalOptions::top_k(k),
                Normalization::Sparse,
                &CollectionOptions::default(),
            )
        });
        tr.end(root);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        let ok = result.completeness.is_exact()
            && collection_answers_equivalent(&result.answers, &self.references[class], EPSILON);
        let cm = result.collection_metrics;
        let counters = [
            cm.shards_attached,
            cm.shard_evictions,
            result.metrics.server_ops,
            result.metrics.partials_created,
        ];
        self.last[class] = Some((cm, result.metrics));
        OpOutcome {
            wall_ms,
            ok,
            counters,
        }
    }

    fn layer_metrics(&self, run: &Run) -> Layers {
        let mut out = Layers::new();
        ingest_layers(&mut out, run, &self.ingested);
        let seen: Vec<&(CollectionMetrics, MetricsSnapshot)> = self.last.iter().flatten().collect();
        engine_layers(&mut out, &seen.iter().map(|m| &m.1).collect::<Vec<_>>());

        let mut put = |name: &str, v: f64| {
            out.insert(name.to_string(), v);
        };
        let shards = self.shards as f64;
        let setup = |name: &str| run.segment_span_floor(OpKind::Setup, name);
        let probe = |name: &str| run.segment_span_floor(OpKind::Probe, name);

        put(
            "index.path_synopsis_ms_per_mb",
            ratio(probe("probe.index.path_synopsis"), mb(self.probe_xml_bytes)),
        );
        put(
            "store.peek_us_per_shard",
            probe("probe.store.peek") * 1e3 / shards,
        );
        let attach_ms = probe("probe.store.attach");
        put(
            "store.attach_ms_per_mb",
            attach_ms / mb(self.ingested.wps_bytes),
        );
        put("store.attach_us_per_shard", attach_ms * 1e3 / shards);

        put(
            "pattern.parse_us",
            run.span_ms_per_op("pattern.parse") * 1e3,
        );
        put("score.corpus_stats_ms", probe("probe.score.corpus_stats"));
        put("core.collection.open_ms", setup("core.collection.open"));
        let evaluate_ms = run.span_ms_per_op("core.collection.evaluate");
        put("core.collection.evaluate_ms", evaluate_ms);

        let classes = seen.len() as f64;
        let sum =
            |f: fn(&CollectionMetrics) -> u64| seen.iter().map(|m| f(&m.0) as f64).sum::<f64>();
        let attached_per_op = ratio(sum(|m| m.shards_attached), classes);
        put(
            "core.collection.shards_visited_per_op",
            ratio(sum(|m| m.shards_visited as u64), classes),
        );
        put("core.collection.shards_attached_per_op", attached_per_op);
        put(
            "core.collection.pruned_before_attach_frac",
            ratio(
                sum(|m| m.shards_pruned_before_attach as u64),
                sum(|m| m.shards_total as u64),
            ),
        );
        put(
            "core.collection.evictions_per_op",
            ratio(sum(|m| m.shard_evictions), classes),
        );
        put(
            "core.collection.attach_share",
            ratio(attached_per_op * attach_ms / shards, evaluate_ms),
        );
        put(
            "core.collection.over_scan_all",
            ratio(evaluate_ms * classes, probe("probe.collection.scan_all")),
        );
        out
    }
}
