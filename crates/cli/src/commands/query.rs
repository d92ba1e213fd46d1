//! `whirlpool query` — run a top-k query against a document or a
//! multi-document collection.

use crate::args::Parsed;
use crate::commands::{is_snapshot, load_document, load_query};
use crate::CliError;
use std::io::Write;
use std::time::Duration;
use whirlpool_core::{
    evaluate_collection, evaluate_view, Algorithm, Collection, CollectionOptions, EvalOptions,
    FaultPlan, QueuePolicy, RelaxMode, RoutingStrategy,
};
use whirlpool_index::{DocView, TagIndex, TagIndexView};
use whirlpool_pattern::StaticPlan;
use whirlpool_score::{Normalization, TfIdfModel};
use whirlpool_store::Snapshot;
use whirlpool_xml::{Document, NodeId, TagId, WriteOptions};

/// How the single-document path got its corpus: parsed + indexed in
/// memory, or attached zero-copy from a snapshot.
#[allow(clippy::large_enum_variant)] // one per query invocation, never in bulk arrays
enum DocSource {
    Parsed {
        doc: Document,
        index: TagIndex,
        /// Parse + index, the cost a snapshot attach avoids.
        index_build_ms: f64,
    },
    Snapshot {
        snapshot: Snapshot,
        attach_ms: f64,
    },
}

impl DocSource {
    /// Opens `path`: snapshot files attach (mmap); anything else parses
    /// and indexes. `force_snapshot` (the `--snapshot` flag) rejects
    /// non-snapshot files instead of falling back.
    fn open(path: &str, force_snapshot: bool) -> Result<DocSource, CliError> {
        let is_snapshot = is_snapshot(path);
        if force_snapshot && !is_snapshot {
            return Err(CliError::Usage(format!(
                "--snapshot: {path} is not a snapshot \
                 (build one with `whirlpool snapshot build`)"
            )));
        }
        if is_snapshot {
            let start = std::time::Instant::now();
            let snapshot =
                Snapshot::attach(path).map_err(|e| CliError::Parse(format!("{path}: {e}")))?;
            Ok(DocSource::Snapshot {
                snapshot,
                attach_ms: start.elapsed().as_secs_f64() * 1e3,
            })
        } else {
            let start = std::time::Instant::now();
            let doc = load_document(path)?;
            let index = TagIndex::build(&doc);
            Ok(DocSource::Parsed {
                doc,
                index,
                index_build_ms: start.elapsed().as_secs_f64() * 1e3,
            })
        }
    }

    fn views(&self) -> (DocView<'_>, TagIndexView<'_>) {
        match self {
            DocSource::Parsed { doc, index, .. } => (doc.into(), index.view()),
            DocSource::Snapshot { snapshot, .. } => (snapshot.doc_view(), snapshot.index_view()),
        }
    }

    /// `("index_build_ms" | "snapshot_attach_ms", value)` — the stat
    /// the run pays at startup.
    fn prepare_stat(&self) -> (&'static str, f64) {
        match self {
            DocSource::Parsed { index_build_ms, .. } => ("index_build_ms", *index_build_ms),
            DocSource::Snapshot { attach_ms, .. } => ("snapshot_attach_ms", *attach_ms),
        }
    }
}

pub fn run(argv: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = Parsed::parse(
        argv,
        &[
            "k",
            "algorithm",
            "routing",
            "queue",
            "norm",
            "deadline-ms",
            "max-ops",
            "fault",
            "fault-seed",
            "trace-out",
            "threads",
            "collection",
            "split",
            "snapshot",
            "max-resident",
        ],
        &[
            "exact",
            "xml",
            "json",
            "stats",
            "explain",
            "no-shard-pruning",
            "no-share-threshold",
        ],
    )?;
    // Positional shapes: `<file.xml> <query>` (single document, the
    // original form), `<file.xml>... <query>` (each file one shard), or
    // `--collection <dir> <query>` (every document in the directory).
    let collection_dir = parsed.value("collection").map(str::to_string);
    let snapshot_file = parsed.value("snapshot").map(str::to_string);
    if snapshot_file.is_some() && collection_dir.is_some() {
        return Err(CliError::Usage(
            "--snapshot names a single snapshot file; it cannot combine with \
             --collection (snapshot files in a collection directory attach \
             automatically)"
                .to_string(),
        ));
    }
    let (files, query_src) = if collection_dir.is_some() || snapshot_file.is_some() {
        (Vec::new(), parsed.positional(0, "query")?.to_string())
    } else {
        let n = parsed.positional_len();
        if n < 2 {
            // Reproduce the original error messages for the 0/1 cases.
            parsed.positional(0, "file.xml")?;
            parsed.positional(1, "query")?;
            unreachable!("positional() errors when missing");
        }
        let files: Vec<String> = (0..n - 1)
            .map(|i| parsed.positional(i, "file.xml").map(str::to_string))
            .collect::<Result<_, _>>()?;
        (files, parsed.positional(n - 1, "query")?.to_string())
    };
    if collection_dir.is_some() || snapshot_file.is_some() {
        parsed.expect_positionals(1)?;
    }
    let split: Option<usize> = parsed
        .value("split")
        .map(|v| {
            v.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| CliError::Usage(format!("--split: not a positive number: {v:?}")))
        })
        .transpose()?;
    let multi_doc =
        collection_dir.is_some() || files.len() > 1 || (split.is_some() && files.len() == 1);
    if split.is_some() && (collection_dir.is_some() || files.len() > 1) {
        return Err(CliError::Usage(
            "--split applies to a single document; it cannot combine with \
             --collection or multiple files"
                .to_string(),
        ));
    }
    if snapshot_file.is_some() && split.is_some() {
        return Err(CliError::Usage(
            "--split re-shards a parsed document; it cannot combine with \
             --snapshot"
                .to_string(),
        ));
    }

    let query = load_query(&query_src)?;

    let norm = match parsed.value("norm").unwrap_or("sparse") {
        "sparse" => Normalization::Sparse,
        "dense" => Normalization::Dense,
        "none" => Normalization::None,
        other => return Err(CliError::Usage(format!("--norm: unknown {other:?}"))),
    };

    let algorithm = match parsed.value("algorithm").unwrap_or("whirlpool-s") {
        "whirlpool-s" | "s" => Algorithm::WhirlpoolS,
        "whirlpool-m" | "m" => Algorithm::WhirlpoolM { processors: None },
        "lockstep" => Algorithm::LockStep,
        "noprune" | "lockstep-noprune" => Algorithm::LockStepNoPrune,
        other => return Err(CliError::Usage(format!("--algorithm: unknown {other:?}"))),
    };
    let routing = match parsed.value("routing").unwrap_or("min-alive") {
        "min-alive" => RoutingStrategy::MinAlive,
        "max-score" => RoutingStrategy::MaxScore,
        "min-score" => RoutingStrategy::MinScore,
        "static" => RoutingStrategy::Static(StaticPlan::in_id_order(query.server_ids().count())),
        other => return Err(CliError::Usage(format!("--routing: unknown {other:?}"))),
    };
    let queue = match parsed.value("queue").unwrap_or("max-final") {
        "max-final" => QueuePolicy::MaxFinalScore,
        "max-next" => QueuePolicy::MaxNextScore,
        "current" => QueuePolicy::CurrentScore,
        "fifo" => QueuePolicy::Fifo,
        other => return Err(CliError::Usage(format!("--queue: unknown {other:?}"))),
    };

    let deadline = parsed
        .value("deadline-ms")
        .map(|v| {
            v.parse::<u64>()
                .map(Duration::from_millis)
                .map_err(|_| CliError::Usage(format!("--deadline-ms: not a number: {v:?}")))
        })
        .transpose()?;
    let max_server_ops = parsed
        .value("max-ops")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| CliError::Usage(format!("--max-ops: not a number: {v:?}")))
        })
        .transpose()?;
    let fault_seed: u64 = parsed.number("fault-seed", 0)?;
    let fault_plan = parsed
        .value("fault")
        .map(|spec| {
            FaultPlan::parse(spec, fault_seed).map_err(|e| CliError::Usage(format!("--fault: {e}")))
        })
        .transpose()?;

    let trace_out = parsed.value("trace-out").map(str::to_string);
    let explain = parsed.flag("explain");

    let options = EvalOptions {
        k: {
            let k: usize = parsed.number("k", 10)?;
            if k == 0 {
                return Err(CliError::Usage("--k must be at least 1".to_string()));
            }
            k
        },
        relax: if parsed.flag("exact") {
            RelaxMode::Exact
        } else {
            RelaxMode::Relaxed
        },
        routing,
        queue,
        deadline,
        max_server_ops,
        fault_plan,
        cancel: None,
        trace: trace_out.is_some() || explain,
        threads: {
            let threads: usize = parsed.number("threads", 1)?;
            if threads == 0 {
                return Err(CliError::Usage("--threads must be at least 1".to_string()));
            }
            threads
        },
        threshold_floor: 0.0,
    };

    if multi_doc {
        if options.fault_plan.is_some() || trace_out.is_some() || explain {
            return Err(CliError::Usage(
                "--fault, --trace-out, and --explain are per-document features; \
                 they are not supported in collection mode"
                    .to_string(),
            ));
        }
        let collection = build_collection(collection_dir.as_deref(), &files, split)?;
        if let Some(max) = parsed.value("max-resident") {
            let max: usize = max
                .parse()
                .map_err(|_| CliError::Usage(format!("--max-resident: not a number: {max:?}")))?;
            collection.set_max_resident(max);
        }
        let copts = CollectionOptions {
            shard_pruning: !parsed.flag("no-shard-pruning"),
            share_threshold: !parsed.flag("no-share-threshold"),
            threads: options.threads,
        };
        return run_collection(
            out,
            &parsed,
            &collection,
            &query,
            &algorithm,
            &options,
            norm,
            &copts,
        );
    }

    let source = match &snapshot_file {
        Some(path) => DocSource::open(path, true)?,
        None => DocSource::open(&files[0], false)?,
    };
    let (doc, index) = source.views();
    let started = std::time::Instant::now();
    let model = TfIdfModel::build_view(doc, index, &query, norm);
    let model_build_ms = started.elapsed().as_secs_f64() * 1e3;

    let result = evaluate_view(doc, index, &query, &model, &algorithm, &options);

    if let (Some(path), Some(trace)) = (&trace_out, &result.trace) {
        let mut file = std::fs::File::create(path)
            .map_err(|e| CliError::Usage(format!("--trace-out {path}: {e}")))?;
        trace
            .write_chrome_trace(&mut file)
            .map_err(|e| CliError::Usage(format!("--trace-out {path}: {e}")))?;
    }

    if parsed.flag("json") {
        // --explain is a human-readable view; it is skipped in JSON
        // mode so the output stays machine-parseable.
        let prepare = [source.prepare_stat(), ("model_build_ms", model_build_ms)];
        return write_json(out, doc, &prepare, &query, &algorithm, &result);
    }

    writeln!(out, "query:     {query}")?;
    writeln!(out, "algorithm: {}", algorithm.name())?;
    match result.completeness {
        whirlpool_core::Completeness::Exact => writeln!(out, "result:    exact")?,
        whirlpool_core::Completeness::Truncated {
            pending_matches,
            score_bound,
        } => writeln!(
            out,
            "result:    truncated ({pending_matches} matches unresolved, \
             no missing answer can score above {score_bound:.4})"
        )?,
    }
    writeln!(out, "answers:   {}", result.answers.len())?;
    let id_attr = doc.tag_id("id");
    for (rank, a) in result.answers.iter().enumerate() {
        write!(
            out,
            "  #{:<3} score {:<8.4} node {:?}",
            rank + 1,
            a.score.value(),
            a.root
        )?;
        if let Some(id) = answer_id(doc, id_attr, a.root)? {
            write!(out, "  id={id}")?;
        }
        writeln!(out)?;
        if parsed.flag("xml") {
            for line in fragment(doc, a.root)?.lines() {
                writeln!(out, "      {line}")?;
            }
        }
    }
    writeln!(
        out,
        "work:      {} server ops ({} locate batches), {} comparisons, {} matches created, \
         {} pruned, {} roots never seeded",
        result.metrics.server_ops,
        result.metrics.server_op_batches,
        result.metrics.predicate_comparisons,
        result.metrics.partials_created,
        result.metrics.pruned,
        result.metrics.roots_unseeded
    )?;
    writeln!(out, "elapsed:   {:?}", result.elapsed)?;
    if parsed.flag("stats") {
        for (stat, ms) in [source.prepare_stat(), ("model_build_ms", model_build_ms)] {
            writeln!(out, "prepare:   {stat} {ms:.3}")?;
        }
        writeln!(
            out,
            "anytime:   {} deadline hits, {} servers failed, {} matches redistributed, {} answers degraded",
            result.metrics.deadline_hits,
            result.metrics.servers_failed,
            result.metrics.matches_redistributed,
            result.metrics.answers_degraded
        )?;
    }
    if explain {
        if let Some(trace) = &result.trace {
            write_explain(out, trace)?;
        }
    }
    Ok(())
}

/// Assembles the collection: every XML/snapshot file in `--collection`'s
/// directory, the listed files (one shard each), or one document split
/// into `--split N` subtree shards.
fn build_collection(
    dir: Option<&str>,
    files: &[String],
    split: Option<usize>,
) -> Result<Collection, CliError> {
    let mut collection = Collection::new();
    if let Some(dir) = dir {
        let entries = std::fs::read_dir(dir)
            .map_err(|e| CliError::Usage(format!("--collection {dir}: {e}")))?;
        let mut paths: Vec<std::path::PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.is_file()
                    && matches!(
                        p.extension().and_then(|e| e.to_str()),
                        Some("xml") | Some("wps")
                    )
            })
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(CliError::Usage(format!(
                "--collection {dir}: no .xml or .wps files found"
            )));
        }
        for path in paths {
            add_shard(&mut collection, &path.to_string_lossy())?;
        }
    } else if let Some(n) = split {
        let doc = load_document(&files[0])?;
        collection = Collection::split_document(&doc, n);
    } else {
        for file in files {
            add_shard(&mut collection, file)?;
        }
    }
    Ok(collection)
}

/// Adds one file to the collection: snapshots go in as lazy shards —
/// only their synopses are read until a query visits them — anything
/// else parses and indexes.
fn add_shard(collection: &mut Collection, path: &str) -> Result<(), CliError> {
    if is_snapshot(path) {
        return collection
            .attach_snapshot_file(path)
            .map_err(|e| CliError::Parse(format!("{path}: {e}")));
    }
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path)
        .to_string();
    collection.add_document(name, load_document(path)?);
    Ok(())
}

/// Runs and prints a collection query (the `--json` and human forms).
#[allow(clippy::too_many_arguments)] // the single-document path's locals, bundled
fn run_collection(
    out: &mut dyn Write,
    parsed: &Parsed,
    collection: &Collection,
    query: &whirlpool_pattern::TreePattern,
    algorithm: &Algorithm,
    options: &EvalOptions,
    norm: Normalization,
    copts: &CollectionOptions,
) -> Result<(), CliError> {
    let result = evaluate_collection(collection, query, algorithm, options, norm, copts);
    let cm = &result.collection_metrics;

    if parsed.flag("json") {
        return write_collection_json(out, collection, query, algorithm, &result);
    }

    writeln!(out, "query:      {query}")?;
    writeln!(out, "algorithm:  {}", algorithm.name())?;
    writeln!(
        out,
        "collection: {} shards ({} visited, {} pruned, {} budget-skipped)",
        cm.shards_total, cm.shards_visited, cm.shards_pruned, cm.shards_skipped_budget
    )?;
    if cm.shards_pruned_before_attach > 0 || cm.shards_attached > 0 || cm.shard_evictions > 0 {
        writeln!(
            out,
            "lazy:       {} pruned before attach, {} attached ({} verified in full), {} evicted",
            cm.shards_pruned_before_attach,
            cm.shards_attached,
            cm.shards_verified,
            cm.shard_evictions
        )?;
    }
    match result.completeness {
        whirlpool_core::Completeness::Exact => writeln!(out, "result:     exact")?,
        whirlpool_core::Completeness::Truncated {
            pending_matches,
            score_bound,
        } => writeln!(
            out,
            "result:     truncated ({pending_matches} matches unresolved, \
             no missing answer can score above {score_bound:.4})"
        )?,
    }
    let texts = answer_texts(collection, &result, parsed.flag("xml"))?;
    writeln!(out, "answers:    {}", result.answers.len())?;
    for (rank, (a, (id, xml))) in result.answers.iter().zip(&texts).enumerate() {
        let shard = &collection.shards()[a.shard];
        write!(
            out,
            "  #{:<3} score {:<8.4} shard {:<12} node {:?}",
            rank + 1,
            a.score.value(),
            shard.name(),
            a.root
        )?;
        if let Some(id) = id {
            write!(out, "  id={id}")?;
        }
        writeln!(out)?;
        for line in xml.lines() {
            writeln!(out, "      {line}")?;
        }
    }
    writeln!(
        out,
        "work:       {} server ops ({} locate batches), {} comparisons, {} matches created, \
         {} pruned, {} roots never seeded",
        result.metrics.server_ops,
        result.metrics.server_op_batches,
        result.metrics.predicate_comparisons,
        result.metrics.partials_created,
        result.metrics.pruned,
        result.metrics.roots_unseeded
    )?;
    writeln!(out, "elapsed:    {:?}", result.elapsed)?;
    Ok(())
}

/// Each answer's `id` attribute and (with `xml`) its serialized
/// fragment, in rank order. Read through
/// [`Collection::visit_answers`]: an answer's shard may be lazy (and
/// even evicted since its run), and is re-attached once however the
/// answers interleave.
fn answer_texts(
    collection: &Collection,
    result: &whirlpool_core::CollectionResult,
    xml: bool,
) -> Result<Vec<(Option<String>, String)>, CliError> {
    let mut texts = vec![(None, String::new()); result.answers.len()];
    let mut failed = None;
    collection.visit_answers(result, |rank, a, doc| {
        let text = answer_id(doc, doc.tag_id("id"), a.root).and_then(|id| {
            let xml = if xml {
                fragment(doc, a.root)?
            } else {
                String::new()
            };
            Ok((id.map(str::to_string), xml))
        });
        match text {
            Ok(text) => texts[rank] = text,
            Err(e) => {
                failed.get_or_insert(e);
            }
        }
    });
    failed.map_or(Ok(texts), Err)
}

/// The answer's `id` attribute, if it has one. Stored bytes that are
/// not UTF-8 are an error, not a lossy string.
fn answer_id<'a>(
    doc: DocView<'a>,
    id_attr: Option<TagId>,
    root: NodeId,
) -> Result<Option<&'a str>, CliError> {
    let bytes = id_attr.and_then(|t| doc.attribute_bytes(root, t));
    bytes.map(std::str::from_utf8).transpose().map_err(|e| {
        CliError::Parse(format!(
            "node {}: the id attribute is not UTF-8 ({e})",
            root.index()
        ))
    })
}

/// The answer's subtree as indented XML; an error if its stored text or
/// attribute bytes are not UTF-8.
fn fragment(doc: DocView<'_>, root: NodeId) -> Result<String, CliError> {
    let opts = WriteOptions {
        indent: Some(2),
        declaration: false,
    };
    doc.write_node(root, &opts).map_err(|e| {
        CliError::Parse(format!(
            "node {}: the answer's text is not UTF-8 ({e})",
            root.index()
        ))
    })
}

/// JSON form of a collection run; answers carry their shard name.
fn write_collection_json(
    out: &mut dyn Write,
    collection: &Collection,
    query: &whirlpool_pattern::TreePattern,
    algorithm: &Algorithm,
    result: &whirlpool_core::CollectionResult,
) -> Result<(), CliError> {
    let texts = answer_texts(collection, result, false)?;
    writeln!(out, "{{")?;
    writeln!(out, "  \"query\": \"{}\",", escape(&query.to_string()))?;
    writeln!(out, "  \"algorithm\": \"{}\",", algorithm.name())?;
    writeln!(out, "  \"result\": \"{}\",", result.completeness.label())?;
    if let whirlpool_core::Completeness::Truncated {
        pending_matches,
        score_bound,
    } = result.completeness
    {
        writeln!(out, "  \"pending_matches\": {pending_matches},")?;
        writeln!(out, "  \"score_bound\": {score_bound:.6},")?;
    }
    let cm = &result.collection_metrics;
    writeln!(
        out,
        "  \"collection\": {{\"shards_total\": {}, \"shards_visited\": {}, \
         \"shards_pruned\": {}, \"shards_pruned_before_attach\": {}, \
         \"shards_skipped_budget\": {}, \"shards_attached\": {}, \
         \"shards_verified\": {}, \"shard_evictions\": {}}},",
        cm.shards_total,
        cm.shards_visited,
        cm.shards_pruned,
        cm.shards_pruned_before_attach,
        cm.shards_skipped_budget,
        cm.shards_attached,
        cm.shards_verified,
        cm.shard_evictions
    )?;
    writeln!(
        out,
        "  \"elapsed_ms\": {:.3},",
        result.elapsed.as_secs_f64() * 1e3
    )?;
    let m = &result.metrics;
    writeln!(
        out,
        "  \"metrics\": {{\"server_ops\": {}, \"predicate_comparisons\": {}, \
         \"partials_created\": {}, \"pruned\": {}, \"roots_unseeded\": {}}},",
        m.server_ops, m.predicate_comparisons, m.partials_created, m.pruned, m.roots_unseeded
    )?;
    writeln!(out, "  \"answers\": [")?;
    for (i, (a, (id, _))) in result.answers.iter().zip(&texts).enumerate() {
        let comma = if i + 1 < result.answers.len() {
            ","
        } else {
            ""
        };
        let shard = &collection.shards()[a.shard];
        let id = id
            .as_ref()
            .map(|v| format!(", \"id\": \"{}\"", escape(v)))
            .unwrap_or_default();
        writeln!(
            out,
            "    {{\"rank\": {}, \"shard\": \"{}\", \"node\": {}, \"score\": {:.6}{id}}}{comma}",
            i + 1,
            escape(shard.name()),
            a.root.index(),
            a.score.value()
        )?;
    }
    writeln!(out, "  ]")?;
    writeln!(out, "}}")?;
    Ok(())
}

/// Renders the `--explain` view: where the router sent matches and
/// why, how pruning went, and how the threshold grew.
fn write_explain(out: &mut dyn Write, trace: &whirlpool_core::TraceData) -> Result<(), CliError> {
    let s = trace.summary();
    writeln!(out, "explain:")?;
    writeln!(
        out,
        "  matches:   {} spawned = {} consumed + {} pruned + {} completed + {} abandoned{}",
        s.spawned,
        s.consumed,
        s.pruned,
        s.completed,
        s.abandoned,
        if s.balanced() { "" } else { "  (UNBALANCED)" }
    )?;
    if s.roots_unseeded > 0 {
        writeln!(
            out,
            "  unseeded:  {} root candidates never became a match",
            s.roots_unseeded
        )?;
    }
    if s.degraded_completions > 0 {
        writeln!(
            out,
            "  degraded:  {} answers completed past dead servers",
            s.degraded_completions
        )?;
    }
    writeln!(out, "  routing:   {} decisions", s.routed)?;
    for (server, st) in &s.per_server {
        writeln!(
            out,
            "    q{}: {} matches routed here, {} ops ({} extensions, mean {:.1}µs, max {}µs)",
            server.0,
            st.routed_to,
            st.ops,
            st.produced,
            st.mean_us(),
            st.max_us
        )?;
    }
    match (s.thresholds.first(), s.thresholds.last()) {
        (Some((_, first)), Some((_, last))) => {
            writeln!(
                out,
                "  threshold: {first:.4} -> {last:.4} over {} samples",
                s.thresholds.len()
            )?;
        }
        _ => writeln!(out, "  threshold: never sampled (no server operations)")?,
    }
    // A few concrete decisions, first and last, to show the adaptive
    // choice and what the alternatives scored.
    let explains: Vec<_> = trace.explains().collect();
    let shown: Vec<usize> = if explains.len() <= 4 {
        (0..explains.len()).collect()
    } else {
        vec![0, 1, explains.len() - 2, explains.len() - 1]
    };
    let mut last_printed = None;
    for i in shown {
        if last_printed == Some(i) {
            continue;
        }
        if let Some(prev) = last_printed {
            if i > prev + 1 {
                writeln!(out, "    ...")?;
            }
        }
        last_printed = Some(i);
        let x = explains[i];
        let chosen = match x.chosen {
            Some(q) => format!("q{}", q.0),
            None => "none (all dead)".to_string(),
        };
        let mut cands = String::new();
        for c in &x.candidates {
            if !cands.is_empty() {
                cands.push_str(", ");
            }
            cands.push_str(&format!(
                "q{}={:.3}{}",
                c.server.0,
                c.estimate,
                if c.eligible { "" } else { " (dead)" }
            ));
        }
        writeln!(
            out,
            "    match #{}: {} -> {chosen}  [{cands}] threshold {:.4}, queue {}",
            x.seq, x.strategy, x.threshold, x.queue_len
        )?;
    }
    Ok(())
}

/// JSON string escaping shared by the two emitters below.
fn escape(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            '\t' => o.push_str("\\t"),
            '\r' => o.push_str("\\r"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o
}

/// Minimal JSON emitter (the approved dependency set has no serde_json;
/// the output shape is small and fully controlled here).
fn write_json(
    out: &mut dyn Write,
    doc: DocView<'_>,
    prepare: &[(&str, f64)],
    query: &whirlpool_pattern::TreePattern,
    algorithm: &Algorithm,
    result: &whirlpool_core::EvalResult,
) -> Result<(), CliError> {
    let id_attr = doc.tag_id("id");
    let ids = (result.answers.iter())
        .map(|a| answer_id(doc, id_attr, a.root))
        .collect::<Result<Vec<_>, _>>()?;
    writeln!(out, "{{")?;
    writeln!(out, "  \"query\": \"{}\",", escape(&query.to_string()))?;
    writeln!(out, "  \"algorithm\": \"{}\",", algorithm.name())?;
    writeln!(out, "  \"result\": \"{}\",", result.completeness.label())?;
    for (stat, ms) in prepare {
        writeln!(out, "  \"{stat}\": {ms:.3},")?;
    }
    if let whirlpool_core::Completeness::Truncated {
        pending_matches,
        score_bound,
    } = result.completeness
    {
        writeln!(out, "  \"pending_matches\": {pending_matches},")?;
        writeln!(out, "  \"score_bound\": {score_bound:.6},")?;
    }
    writeln!(
        out,
        "  \"elapsed_ms\": {:.3},",
        result.elapsed.as_secs_f64() * 1e3
    )?;
    let m = &result.metrics;
    writeln!(
        out,
        "  \"metrics\": {{\"server_ops\": {}, \"server_op_batches\": {}, \"predicate_comparisons\": {},          \"partials_created\": {}, \"pruned\": {}, \"roots_unseeded\": {}, \"routing_decisions\": {},          \"deadline_hits\": {}, \"servers_failed\": {}, \"matches_redistributed\": {},          \"answers_degraded\": {}}},",
        m.server_ops, m.server_op_batches, m.predicate_comparisons, m.partials_created, m.pruned,
        m.roots_unseeded, m.routing_decisions, m.deadline_hits, m.servers_failed, m.matches_redistributed,
        m.answers_degraded
    )?;
    writeln!(out, "  \"answers\": [")?;
    for (i, (a, id)) in result.answers.iter().zip(ids).enumerate() {
        let comma = if i + 1 < result.answers.len() {
            ","
        } else {
            ""
        };
        let id = id
            .map(|v| format!(", \"id\": \"{}\"", escape(v)))
            .unwrap_or_default();
        writeln!(
            out,
            "    {{\"rank\": {}, \"node\": {}, \"score\": {:.6}{id}}}{comma}",
            i + 1,
            a.root.index(),
            a.score.value()
        )?;
    }
    writeln!(out, "  ]")?;
    writeln!(out, "}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_bytes_that_are_not_utf8_are_an_error_not_a_lossy_answer() {
        let doc = whirlpool_xml::parse_document("<r><a id=\"x1\">t</a></r>").unwrap();
        let (mut attrs, mut text) = (doc.view().attr_blob.to_vec(), doc.view().text_blob.to_vec());
        attrs[0] = 0xff;
        text[0] = 0xff;
        let a = NodeId::from_index(2);
        let id = doc.tag_id("id");
        assert_eq!(answer_id(doc.view(), id, a).unwrap(), Some("x1"));
        assert_eq!(fragment(doc.view(), a).unwrap(), "<a id=\"x1\">t</a>");
        let bad_id = DocView {
            attr_blob: &attrs,
            ..doc.view()
        };
        assert!(matches!(answer_id(bad_id, id, a), Err(CliError::Parse(_))));
        assert!(matches!(fragment(bad_id, a), Err(CliError::Parse(_))));
        let bad_text = DocView {
            text_blob: &text,
            ..doc.view()
        };
        assert!(matches!(fragment(bad_text, a), Err(CliError::Parse(_))));
    }
}
