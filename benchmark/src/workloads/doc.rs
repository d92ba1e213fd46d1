//! `doc_s` and `doc_m2`: one 10 Mb document, fifteen query classes.
//!
//! `doc_s` evaluates over the owned `Document` + `TagIndex` with
//! Whirlpool-S; `doc_m2` over the views of the snapshot it just wrote
//! and attached, with Whirlpool-M on two threads.

use super::{
    classes_of, engine_layers, ingest, ingest_layers, labels, mb, ratio, read_references,
    IngestTotals, Reference, EPSILON, KS, Q1_TO_Q4, Q5,
};
use crate::protocol::{Config, Layers, OpKind, OpOutcome, Run, Workload};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use whirlpool_core::{
    answers_equivalent, evaluate_with_context, Algorithm, ContextOptions, EvalOptions,
    MetricsSnapshot, QueryContext, RankedAnswer,
};
use whirlpool_index::{DocView, PathSynopsis, TagIndex, TagIndexView};
use whirlpool_pattern::parse_pattern;
use whirlpool_score::{Normalization, Score, TfIdfModel};
use whirlpool_store::Snapshot;
use whirlpool_xmark::queries;
use whirlpool_xml::{parse_document, Document, NodeId};

/// The pinned point of the ROADMAP: Q2, k = 15.
const PIN_K: usize = 15;

/// The engines of the pin: name, the probe span each is timed under,
/// engine, worker threads.
const PIN: [(&str, &str, Algorithm, usize); 5] = [
    (
        "lockstep_noprune",
        "probe.engine.lockstep_noprune",
        Algorithm::LockStepNoPrune,
        1,
    ),
    ("lockstep", "probe.engine.lockstep", Algorithm::LockStep, 1),
    (
        "whirlpool_s",
        "probe.engine.whirlpool_s",
        Algorithm::WhirlpoolS,
        1,
    ),
    (
        "whirlpool_m1",
        "probe.engine.whirlpool_m1",
        Algorithm::WhirlpoolM { processors: None },
        1,
    ),
    (
        "whirlpool_m2",
        "probe.engine.whirlpool_m2",
        Algorithm::WhirlpoolM { processors: None },
        2,
    ),
];

struct State {
    /// Kept by `doc_s`, and by traced runs for the backing comparison.
    owned: Option<(Document, TagIndex)>,
    /// Kept by `doc_m2`, and by traced runs for the backing comparison.
    mapped: Option<Snapshot>,
}

/// See the module comment.
pub struct DocWorkload {
    mapped: bool,
    traced: bool,
    dir: PathBuf,
    classes: Vec<(&'static str, &'static str, usize)>,
    references: Vec<Vec<RankedAnswer>>,
    state: Option<State>,
    ingested: IngestTotals,
    /// Engine counters of the last op of each class.
    last: Vec<Option<MetricsSnapshot>>,
    m2_steal_rate: f64,
}

impl DocWorkload {
    /// `mapped` picks `doc_m2`.
    pub fn new(cfg: &Config, mapped: bool) -> Result<DocWorkload, String> {
        let classes = classes();
        let references = read_references(&cfg.dir, classes.len())?
            .into_iter()
            .map(|answers| {
                answers
                    .into_iter()
                    .map(|a| RankedAnswer {
                        root: NodeId::from_index(a.root),
                        score: Score::new(a.score),
                    })
                    .collect()
            })
            .collect();
        Ok(DocWorkload {
            mapped,
            traced: cfg.traced,
            dir: cfg.dir.clone(),
            references,
            last: vec![None; classes.len()],
            classes,
            state: None,
            ingested: IngestTotals::default(),
            m2_steal_rate: 0.0,
        })
    }

    fn wps(&self) -> PathBuf {
        self.dir.join("doc.wps")
    }

    fn engine(&self) -> (Algorithm, usize) {
        if self.mapped {
            (Algorithm::WhirlpoolM { processors: None }, 2)
        } else {
            (Algorithm::WhirlpoolS, 1)
        }
    }
}

/// {Q1..Q5} × k.
fn classes() -> Vec<(&'static str, &'static str, usize)> {
    let mut queries = Q1_TO_Q4.to_vec();
    queries.push(("Q5", Q5));
    classes_of(&queries)
}

/// `Algorithm::LockStepNoPrune` over the parsed fixture: one exhaustive
/// run per query at the largest k; a smaller k's reference is its prefix.
pub fn reference_answers(cfg: &Config) -> Result<Vec<Vec<Reference>>, String> {
    let path = cfg.dir.join("doc.xml");
    let src =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = parse_document(&src).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let index = TagIndex::build(&doc);
    let kmax = KS.into_iter().max().expect("non-empty");
    let mut by_query: BTreeMap<&str, Vec<Reference>> = BTreeMap::new();
    Ok(classes()
        .into_iter()
        .map(|(_, q, k)| {
            let full = by_query.entry(q).or_insert_with(|| {
                let pattern = parse_pattern(q).expect("benchmark query parses");
                let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
                let ctx =
                    QueryContext::new(&doc, &index, &pattern, &model, ContextOptions::default());
                evaluate_with_context(&ctx, &Algorithm::LockStepNoPrune, &EvalOptions::top_k(kmax))
                    .answers
                    .iter()
                    .map(|a| Reference {
                        shard: 0,
                        root: a.root.index(),
                        score: a.score.value(),
                    })
                    .collect()
            });
            full[..k.min(full.len())].to_vec()
        })
        .collect())
}

fn views(state: &State, mapped: bool) -> (DocView<'_>, TagIndexView<'_>) {
    if mapped {
        let s = state.mapped.as_ref().expect("snapshot attached");
        (s.doc_view(), s.index_view())
    } else {
        let (doc, index) = state.owned.as_ref().expect("document kept");
        (doc.into(), index.view())
    }
}

fn options(k: usize, threads: usize) -> EvalOptions {
    let mut o = EvalOptions::top_k(k);
    o.threads = threads;
    o
}

impl Workload for DocWorkload {
    fn classes(&self) -> Vec<String> {
        labels(&self.classes)
    }

    fn repeats(&self) -> usize {
        1
    }

    fn counters_repeat(&self) -> bool {
        // Whirlpool-M's op counts depend on the interleaving.
        !self.mapped
    }

    fn teardown(&mut self) -> Result<(), String> {
        self.state = None;
        Ok(())
    }

    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let wps = self.wps();
        let ingested = ingest(&self.dir.join("doc.xml"), &wps, tr)?;
        self.ingested = IngestTotals::default();
        self.ingested.add(&ingested);
        let owned = (ingested.doc, ingested.index);
        let state = if self.mapped {
            let snapshot = tr
                .span("store.attach", || Snapshot::attach(&wps))
                .map_err(|e| format!("attach {}: {e}", wps.display()))?;
            State {
                owned: self.traced.then_some(owned),
                mapped: Some(snapshot),
            }
        } else {
            State {
                owned: Some(owned),
                mapped: None,
            }
        };
        self.state = Some(state);
        Ok(())
    }

    fn probes(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let wps = self.wps();
        let state = self.state.as_mut().expect("set up");
        if state.mapped.is_none() {
            let snapshot = tr
                .span("probe.store.attach", || Snapshot::attach(&wps))
                .map_err(|e| format!("attach {}: {e}", wps.display()))?;
            state.mapped = Some(snapshot);
        }
        tr.span("probe.store.peek", || Snapshot::peek(&wps))
            .map_err(|e| format!("peek {}: {e}", wps.display()))?;
        let state = self.state.as_ref().expect("set up");
        let (owned_doc, _) = state.owned.as_ref().expect("traced runs keep the document");
        tr.span("probe.index.path_synopsis", || {
            PathSynopsis::build(owned_doc)
        });

        // The pin: Q2, k = 15, every engine, on this workload's backing.
        let pattern = parse_pattern(queries::Q2).expect("Q2 parses");
        let (doc, index) = views(state, self.mapped);
        let model = TfIdfModel::build_view(doc, index, &pattern, Normalization::Sparse);
        for (name, span, algorithm, threads) in PIN {
            let ctx =
                QueryContext::new_view(doc, index, &pattern, &model, ContextOptions::default());
            let result = tr.span(span, || {
                evaluate_with_context(&ctx, &algorithm, &options(PIN_K, threads))
            });
            if name == "whirlpool_m2" {
                self.m2_steal_rate = result.metrics.steal_rate();
            }
        }
        // Whirlpool-S over each backing.
        for (mapped, span) in [
            (false, "probe.backing.owned"),
            (true, "probe.backing.mapped"),
        ] {
            let (doc, index) = views(state, mapped);
            let model = TfIdfModel::build_view(doc, index, &pattern, Normalization::Sparse);
            let ctx =
                QueryContext::new_view(doc, index, &pattern, &model, ContextOptions::default());
            tr.span(span, || {
                evaluate_with_context(&ctx, &Algorithm::WhirlpoolS, &options(PIN_K, 1))
            });
        }
        Ok(())
    }

    fn op(&mut self, class: usize, tr: &mut Tracer) -> OpOutcome {
        let (_, q, k) = self.classes[class];
        let (algorithm, threads) = self.engine();
        let state = self.state.as_ref().expect("set up");
        let (doc, index) = views(state, self.mapped);

        let start = Instant::now();
        let root = tr.begin("bench.op");
        let result = {
            let pattern = tr
                .span("pattern.parse", || parse_pattern(q))
                .expect("benchmark query parses");
            let model = tr.span("score.model_build", || {
                TfIdfModel::build_view(doc, index, &pattern, Normalization::Sparse)
            });
            let ctx = tr.span("core.context_build", || {
                QueryContext::new_view(doc, index, &pattern, &model, ContextOptions::default())
            });
            let result = tr.span("core.evaluate", || {
                evaluate_with_context(&ctx, &algorithm, &options(k, threads))
            });
            // Releasing the run's pools and tables is part of the op.
            tr.span("core.release", || drop(ctx));
            result
        };
        tr.end(root);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        let ok = result.completeness.is_exact()
            && answers_equivalent(&result.answers, &self.references[class], EPSILON);
        let counters = [
            result.metrics.server_ops,
            result.metrics.partials_created,
            result.metrics.pruned,
            result.answers.len() as u64,
        ];
        self.last[class] = Some(result.metrics);
        OpOutcome {
            wall_ms,
            ok,
            counters,
        }
    }

    fn layer_metrics(&self, run: &Run) -> Layers {
        let mut out = Layers::new();
        ingest_layers(&mut out, run, &self.ingested);
        let seen: Vec<&MetricsSnapshot> = self.last.iter().flatten().collect();
        engine_layers(&mut out, &seen);

        let mut put = |name: &str, v: f64| {
            out.insert(name.to_string(), v);
        };
        let setup = |name: &str| run.segment_span_floor(OpKind::Setup, name);
        let probe = |name: &str| run.segment_span_floor(OpKind::Probe, name);

        put(
            "index.path_synopsis_ms_per_mb",
            probe("probe.index.path_synopsis") / mb(self.ingested.xml_bytes),
        );
        put("store.peek_us_per_shard", probe("probe.store.peek") * 1e3);
        let attach = if self.mapped {
            setup("store.attach")
        } else {
            probe("probe.store.attach")
        };
        put(
            "store.attach_ms_per_mb",
            attach / mb(self.ingested.wps_bytes),
        );
        put("store.attach_us_per_shard", attach * 1e3);

        let op = run.span_ms_per_op("bench.op");
        let model = run.span_ms_per_op("score.model_build");
        let evaluate = run.span_ms_per_op("core.evaluate");
        put(
            "pattern.parse_us",
            run.span_ms_per_op("pattern.parse") * 1e3,
        );
        put("score.model_build_ms", model);
        put("score.model_share", ratio(model, op));
        put(
            "core.context_build_ms",
            run.span_ms_per_op("core.context_build"),
        );
        put("core.evaluate_ms", evaluate);
        put("core.evaluate_share", ratio(evaluate, op));
        let server_ops: f64 = seen.iter().map(|m| m.server_ops as f64).sum();
        put(
            "core.ns_per_server_op",
            ratio(evaluate * seen.len() as f64 * 1e6, server_ops),
        );

        for (name, span, ..) in PIN {
            put(&format!("core.engine_ms.{name}"), probe(span));
        }
        put(
            "core.s_over_noprune",
            ratio(
                probe("probe.engine.whirlpool_s"),
                probe("probe.engine.lockstep_noprune"),
            ),
        );
        put(
            "core.m2_over_m1",
            ratio(
                probe("probe.engine.whirlpool_m2"),
                probe("probe.engine.whirlpool_m1"),
            ),
        );
        put("core.m2.steal_rate", self.m2_steal_rate);
        put(
            "core.mapped_over_owned",
            ratio(probe("probe.backing.mapped"), probe("probe.backing.owned")),
        );
        out
    }
}
