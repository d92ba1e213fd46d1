//! `whirlpool query` — run a top-k query over one document or a
//! multi-document collection. Both are scopes of one collection driver
//! ([`evaluate_scope`]): the input loads into a [`Collection`], and one
//! document is a one-shard scope of it.

use crate::args::Parsed;
use crate::commands::{is_snapshot, load_document, load_query};
use crate::CliError;
use std::io::Write;
use std::time::{Duration, Instant};
use whirlpool_core::{
    evaluate_scope, Algorithm, Collection, CollectionOptions, CollectionResult, Completeness,
    EvalOptions, FaultPlan, QueuePolicy, RelaxMode, RoutingStrategy, Scope, Shard, Tracer,
};
use whirlpool_index::{DocView, TagIndex};
use whirlpool_pattern::{StaticPlan, TreePattern};
use whirlpool_score::Normalization;
use whirlpool_xml::{NodeId, TagId, WriteOptions};

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
            FaultPlan::parse(spec, fault_seed)
                .and_then(|plan| plan.check(&query).map(|()| plan))
                .map_err(|e| CliError::Usage(format!("--fault: {e}")))
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

    if multi_doc && (trace_out.is_some() || explain) {
        return Err(CliError::Usage(
            "--trace-out and --explain are per-document features; \
             they are not supported in collection mode"
                .to_string(),
        ));
    }
    if let Some(path) = snapshot_file.as_deref().filter(|p| !is_snapshot(p)) {
        return Err(CliError::Usage(format!(
            "--snapshot: {path} is not a snapshot \
             (build one with `whirlpool snapshot build`)"
        )));
    }
    // One file is a document scope, timed as it loads; anything else
    // is the corpus scope of a collection.
    let (collection, scope, prepare) = if multi_doc {
        let collection = build_collection(collection_dir.as_deref(), &files, split)?;
        (collection, Scope::Corpus, None)
    } else {
        let mut collection = Collection::new();
        let path = snapshot_file.as_ref().unwrap_or_else(|| &files[0]);
        let prepare = add_shard(&mut collection, path, false)?;
        (collection, Scope::Shard(0), Some(prepare))
    };
    if let Some(max) = parsed.value("max-resident") {
        let max: usize = max
            .parse()
            .map_err(|_| CliError::Usage(format!("--max-resident: not a number: {max:?}")))?;
        collection.set_max_resident(max);
    }
    let copts = CollectionOptions {
        shard_pruning: !parsed.flag("no-shard-pruning"),
        share_threshold: !parsed.flag("no-share-threshold"),
    };
    let mut result = evaluate_scope(
        &collection,
        scope,
        &query,
        &algorithm,
        &options,
        norm,
        &copts,
    );
    // Only a document scope records a trace (a usage check above). It
    // evaluates its one shard unless the shard provably holds no answer,
    // and then no engine ran: the trace is empty.
    let trace = options
        .trace
        .then(|| (result.traces.pop()).map_or_else(|| Tracer::new().finish(), |(_, trace)| trace));

    if let (Some(path), Some(trace)) = (&trace_out, &trace) {
        let mut file = std::fs::File::create(path)
            .map_err(|e| CliError::Usage(format!("--trace-out {path}: {e}")))?;
        trace
            .write_chrome_trace(&mut file)
            .map_err(|e| CliError::Usage(format!("--trace-out {path}: {e}")))?;
    }
    let run = Run {
        collection: &collection,
        query: &query,
        algorithm: &algorithm,
        prepare,
        result: &result,
    };
    if parsed.flag("json") {
        // --explain is a human-readable view; it is skipped in JSON
        // mode so the output stays machine-parseable.
        return write_json(out, &run);
    }
    write_human(out, &run, parsed.flag("xml"), parsed.flag("stats"))?;
    if let (true, Some(trace)) = (explain, &trace) {
        write_explain(out, trace)?;
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
            add_shard(&mut collection, &path.to_string_lossy(), true)?;
        }
    } else if let Some(n) = split {
        let doc = load_document(&files[0])?;
        collection = Collection::split_document(&doc, n);
    } else {
        for file in files {
            add_shard(&mut collection, file, true)?;
        }
    }
    Ok(collection)
}

/// Adds the file at `path` to `collection` as one shard named by its
/// file stem, and returns what preparing it cost as `(stat, ms)`.
/// Anything but a snapshot parses and indexes (`index_build_ms`). A
/// snapshot attaches (`snapshot_attach_ms`), or with `peek` goes in as a
/// lazy shard: only its synopses are read until a query visits it.
fn add_shard(
    collection: &mut Collection,
    path: &str,
    peek: bool,
) -> Result<(&'static str, f64), CliError> {
    let name = std::path::Path::new(path)
        .file_stem()
        .map_or_else(|| path.to_string(), |s| s.to_string_lossy().into_owned());
    let start = Instant::now();
    let (shard, stat) = if !is_snapshot(path) {
        let doc = load_document(path)?;
        let index = TagIndex::build(&doc);
        let stat = ("index_build_ms", ms(start.elapsed()));
        (Shard::parsed(name, doc, index), stat)
    } else {
        let shard = if peek {
            Shard::peeked(name, path)
        } else {
            Shard::attached(name, path)
        };
        let shard = shard.map_err(|e| CliError::Parse(format!("{path}: {e}")))?;
        (shard, ("snapshot_attach_ms", ms(start.elapsed())))
    };
    collection.push(shard);
    Ok(stat)
}

/// One query's run, as both renderers read it.
struct Run<'a> {
    collection: &'a Collection,
    query: &'a TreePattern,
    algorithm: &'a Algorithm,
    /// A document scope's load cost, `(stat, ms)`.
    prepare: Option<(&'static str, f64)>,
    result: &'a CollectionResult,
}

impl Run<'_> {
    /// What the run spent before its engines: the load, then the model.
    fn prepare_stats(&self) -> impl Iterator<Item = (&'static str, f64)> {
        let model = ("model_build_ms", ms(self.result.model_build));
        self.prepare.into_iter().chain([model])
    }
}

/// The human-readable form: `xml` adds each answer's fragment, `stats`
/// the prepare and anytime counters.
fn write_human(out: &mut dyn Write, run: &Run<'_>, xml: bool, stats: bool) -> Result<(), CliError> {
    let (result, cm, m) = (
        run.result,
        &run.result.collection_metrics,
        &run.result.metrics,
    );
    writeln!(out, "query:     {}", run.query)?;
    writeln!(out, "algorithm: {}", run.algorithm.name())?;
    writeln!(
        out,
        "collection: {} shard{} ({} visited, {} pruned, {} budget-skipped)",
        cm.shards_total,
        if cm.shards_total == 1 { "" } else { "s" },
        cm.shards_visited,
        cm.shards_pruned,
        cm.shards_skipped_budget
    )?;
    if cm.shards_pruned_before_attach > 0
        || cm.shards_attached > 0
        || cm.shards_attach_failed > 0
        || cm.shard_evictions > 0
    {
        writeln!(
            out,
            "lazy:      {} pruned before attach, {} attached, {} attach failed, {} evicted",
            cm.shards_pruned_before_attach,
            cm.shards_attached,
            cm.shards_attach_failed,
            cm.shard_evictions
        )?;
    }
    match result.completeness {
        Completeness::Exact => writeln!(out, "result:    exact")?,
        Completeness::Truncated {
            pending_matches,
            score_bound,
        } => writeln!(
            out,
            "result:    truncated ({pending_matches} matches unresolved, \
             no missing answer can score above {score_bound:.4})"
        )?,
    }
    let texts = answer_texts(run.collection, result, xml)?;
    writeln!(out, "answers:   {}", result.answers.len())?;
    for (rank, (a, (id, xml))) in result.answers.iter().zip(&texts).enumerate() {
        write!(
            out,
            "  #{:<3} score {:<8.4} shard {:<12} node {:?}",
            rank + 1,
            a.score.value(),
            run.collection.shards()[a.shard].name(),
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
        "work:      {} server ops ({} locate batches), {} comparisons, {} matches created, \
         {} pruned, {} roots never seeded",
        m.server_ops,
        m.server_op_batches,
        m.predicate_comparisons,
        m.partials_created,
        m.pruned,
        m.roots_unseeded
    )?;
    writeln!(out, "elapsed:   {:?}", result.elapsed)?;
    if stats {
        for (stat, ms) in run.prepare_stats() {
            writeln!(out, "prepare:   {stat} {ms:.3}")?;
        }
        writeln!(
            out,
            "prepare:   idf counted in {} shard{}",
            cm.shards_counted,
            if cm.shards_counted == 1 { "" } else { "s" }
        )?;
        writeln!(
            out,
            "anytime:   {} deadline hits, {} servers failed",
            m.deadline_hits, m.servers_failed
        )?;
    }
    Ok(())
}

/// A duration in milliseconds.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Each answer's `id` attribute and (with `xml`) its serialized
/// fragment, in rank order. Read through
/// [`Collection::visit_answers`]: an answer's shard may be lazy (and
/// even evicted since its run), and is re-attached once however the
/// answers interleave.
fn answer_texts(
    collection: &Collection,
    result: &CollectionResult,
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

/// The JSON form (a minimal emitter: the approved dependency set has
/// no serde_json, and the shape is small and fully controlled here).
/// Answers carry their shard's name.
fn write_json(out: &mut dyn Write, run: &Run<'_>) -> Result<(), CliError> {
    let (result, cm, m) = (
        run.result,
        &run.result.collection_metrics,
        &run.result.metrics,
    );
    let texts = answer_texts(run.collection, result, false)?;
    writeln!(out, "{{")?;
    writeln!(out, "  \"query\": \"{}\",", escape(&run.query.to_string()))?;
    writeln!(out, "  \"algorithm\": \"{}\",", run.algorithm.name())?;
    writeln!(out, "  \"result\": \"{}\",", result.completeness.label())?;
    for (stat, ms) in run.prepare_stats() {
        writeln!(out, "  \"{stat}\": {ms:.3},")?;
    }
    if let Completeness::Truncated {
        pending_matches,
        score_bound,
    } = result.completeness
    {
        writeln!(out, "  \"pending_matches\": {pending_matches},")?;
        writeln!(out, "  \"score_bound\": {score_bound:.6},")?;
    }
    writeln!(
        out,
        "  \"collection\": {{\"shards_total\": {}, \"shards_visited\": {}, \
         \"shards_pruned\": {}, \"shards_pruned_before_attach\": {}, \
         \"shards_skipped_budget\": {}, \"shards_attached\": {}, \
         \"shards_attach_failed\": {}, \"shard_evictions\": {}, \"shards_counted\": {}}},",
        cm.shards_total,
        cm.shards_visited,
        cm.shards_pruned,
        cm.shards_pruned_before_attach,
        cm.shards_skipped_budget,
        cm.shards_attached,
        cm.shards_attach_failed,
        cm.shard_evictions,
        cm.shards_counted
    )?;
    writeln!(out, "  \"elapsed_ms\": {:.3},", ms(result.elapsed))?;
    writeln!(
        out,
        "  \"metrics\": {{\"server_ops\": {}, \"server_op_batches\": {}, \
         \"predicate_comparisons\": {}, \"partials_created\": {}, \"pruned\": {}, \
         \"roots_unseeded\": {}, \"routing_decisions\": {}, \"deadline_hits\": {}, \
         \"servers_failed\": {}}},",
        m.server_ops,
        m.server_op_batches,
        m.predicate_comparisons,
        m.partials_created,
        m.pruned,
        m.roots_unseeded,
        m.routing_decisions,
        m.deadline_hits,
        m.servers_failed
    )?;
    writeln!(out, "  \"answers\": [")?;
    for (i, (a, (id, _))) in result.answers.iter().zip(&texts).enumerate() {
        let comma = if i + 1 < result.answers.len() {
            ","
        } else {
            ""
        };
        let id = id
            .as_ref()
            .map(|v| format!(", \"id\": \"{}\"", escape(v)))
            .unwrap_or_default();
        writeln!(
            out,
            "    {{\"rank\": {}, \"shard\": \"{}\", \"node\": {}, \"score\": {:.6}{id}}}{comma}",
            i + 1,
            escape(run.collection.shards()[a.shard].name()),
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
        let mut cands = String::new();
        for c in &x.candidates {
            if !cands.is_empty() {
                cands.push_str(", ");
            }
            cands.push_str(&format!("q{}={:.3}", c.server.0, c.estimate));
        }
        writeln!(
            out,
            "    match #{}: {} -> q{}  [{cands}] threshold {:.4}, queue {}",
            x.seq, x.strategy, x.chosen.0, x.threshold, x.queue_len
        )?;
    }
    Ok(())
}

/// JSON string escaping for [`write_json`].
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
