//! The four workloads and what they share: the query classes and the
//! ingest sequence every set-up is made of.

pub mod corpus;
pub mod doc;
pub mod serve;

use crate::fixtures::Kind;
use crate::protocol::{Config, Layers, OpKind, Run, Workload};
use crate::trace::Tracer;
use std::path::Path;
use whirlpool_core::MetricsSnapshot;
use whirlpool_index::TagIndex;
use whirlpool_store::{build_snapshot_bytes_with, save_snapshot_with, SnapshotOptions};
use whirlpool_xmark::queries;
use whirlpool_xml::{parse_document, Document};

/// Q5: a value-selective query (not in the paper; the ROADMAP's matrix
/// asks for one next to Q4's wildcard and attributes).
pub const Q5: &str = "//item[./quantity = '1' and ./mailbox/mail/text]";

/// The paper's k axis.
pub const KS: [usize; 3] = [1, 15, 75];

/// Score tolerance of every answer comparison.
pub const EPSILON: f64 = 1e-9;

/// `queries` × [`KS`], query-major: the classes of a round.
pub fn classes_of(
    queries: &[(&'static str, &'static str)],
) -> Vec<(&'static str, &'static str, usize)> {
    queries
        .iter()
        .flat_map(|&(name, q)| KS.iter().map(move |&k| (name, q, k)))
        .collect()
}

/// Q1..Q4 by name.
pub const Q1_TO_Q4: [(&str, &str); 4] = [
    ("Q1", queries::Q1),
    ("Q2", queries::Q2),
    ("Q3", queries::Q3),
    ("Q4", queries::Q4),
];

/// What ingesting one XML file produced.
pub struct Ingested {
    /// The parsed document.
    pub doc: Document,
    /// Its index.
    pub index: TagIndex,
    /// Bytes of XML read.
    pub xml_bytes: u64,
    /// Bytes of snapshot written.
    pub wps_bytes: u64,
}

/// The ingest sequence: read → `parse_document` → `TagIndex::build` →
/// `save_snapshot_with` (v3). With spans on, the save is made as its two
/// halves (encode, write) so each gets its own span.
pub fn ingest(xml: &Path, wps: &Path, tr: &mut Tracer) -> Result<Ingested, String> {
    let err = |what: &str, e: String| format!("{what} {}: {e}", xml.display());
    let src = tr
        .span("fs.read", || std::fs::read_to_string(xml))
        .map_err(|e| err("read", e.to_string()))?;
    let doc = tr
        .span("xml.parse", || parse_document(&src))
        .map_err(|e| err("parse", e.to_string()))?;
    let index = tr.span("index.build", || TagIndex::build(&doc));
    let opts = SnapshotOptions::default();
    if tr.enabled {
        let bytes = tr.span("store.encode", || {
            build_snapshot_bytes_with(&doc, &index, &opts)
        });
        tr.span("store.write", || std::fs::write(wps, bytes))
    } else {
        save_snapshot_with(&doc, &index, wps, &opts)
    }
    .map_err(|e| err("snapshot", e.to_string()))?;
    let wps_bytes = std::fs::metadata(wps)
        .map_err(|e| err("stat", e.to_string()))?
        .len();
    Ok(Ingested {
        xml_bytes: src.len() as u64,
        doc,
        index,
        wps_bytes,
    })
}

/// What a set-up ingested, summed over its files.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestTotals {
    /// Bytes of XML read.
    pub xml_bytes: u64,
    /// Bytes of snapshot written.
    pub wps_bytes: u64,
    /// Nodes parsed.
    pub nodes: usize,
}

impl IngestTotals {
    /// Adds one ingested file.
    pub fn add(&mut self, file: &Ingested) {
        self.xml_bytes += file.xml_bytes;
        self.wps_bytes += file.wps_bytes;
        self.nodes += file.doc.len();
    }
}

/// The layer metrics of [`ingest`]'s spans: floors over set-ups, per MB
/// of XML read.
pub fn ingest_layers(out: &mut Layers, run: &Run, totals: &IngestTotals) {
    let xml_mb = mb(totals.xml_bytes);
    for (metric, span) in [
        ("xml.parse_ms_per_mb", "xml.parse"),
        ("index.build_ms_per_mb", "index.build"),
        ("store.encode_ms_per_mb", "store.encode"),
        ("store.write_ms_per_mb", "store.write"),
    ] {
        let ms = run.segment_span_floor(OpKind::Setup, span);
        out.insert(metric.to_string(), ms / xml_mb);
    }
    out.insert("xml.nodes_per_mb".to_string(), totals.nodes as f64 / xml_mb);
    out.insert(
        "store.bytes_per_xml_byte".to_string(),
        totals.wps_bytes as f64 / totals.xml_bytes as f64,
    );
}

/// The engine counters of one op per class, averaged over classes.
pub fn engine_layers(out: &mut Layers, per_class: &[&MetricsSnapshot]) {
    let total = |f: fn(&MetricsSnapshot) -> u64| per_class.iter().map(|m| f(m) as f64).sum::<f64>();
    let classes = per_class.len() as f64;
    let created = total(|m| m.partials_created);
    let reused = total(|m| m.buffers_reused);
    let mut put = |name: &str, v: f64| out.insert(name.to_string(), v);
    put(
        "core.server_ops_per_op",
        ratio(total(|m| m.server_ops), classes),
    );
    put("core.partials_created_per_op", ratio(created, classes));
    put("core.pruned_frac", ratio(total(|m| m.pruned), created));
    put(
        "core.pool_hit_rate",
        ratio(reused, reused + total(|m| m.buffers_allocated)),
    );
}

/// `Q2/k=15`-style labels of `classes`.
pub fn labels(classes: &[(&'static str, &'static str, usize)]) -> Vec<String> {
    classes
        .iter()
        .map(|(name, _, k)| format!("{name}/k={k}"))
        .collect()
}

/// The files in `dir` with extension `ext`, sorted by name.
pub fn files_with_ext(dir: &Path, ext: &str) -> Result<Vec<std::path::PathBuf>, String> {
    let mut v: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    v.sort();
    Ok(v)
}

/// Bytes of `.wps` files under `dir`, at any depth.
pub fn wps_bytes_under(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                wps_bytes_under(&p)
            } else if p.extension().is_some_and(|x| x == "wps") {
                e.metadata().map_or(0, |m| m.len())
            } else {
                0
            }
        })
        .sum()
}

/// Megabytes (10^6 bytes, like the paper's "Mb").
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// `a / b`, or 0 when the layer behind `b` was never called.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One reference answer: shard (0 outside collections), node, score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    /// Index of the shard holding the answer.
    pub shard: usize,
    /// Arena index of the answer node.
    pub root: usize,
    /// Its score.
    pub score: f64,
}

fn references_file(dir: &Path) -> std::path::PathBuf {
    dir.join("references.txt")
}

/// Computes every class's reference answers from the fixtures in
/// `cfg.dir` and writes them next to the fixtures. Run by the parent
/// process, so the exhaustive reference engines never count toward the
/// measured process's time or memory.
pub fn write_references(cfg: &Config) -> Result<(), String> {
    let per_class = match cfg.kind {
        Kind::DocS | Kind::DocM2 => doc::reference_answers(cfg)?,
        Kind::CorpusLazy => corpus::reference_answers(cfg)?,
        Kind::ServeClosed => serve::reference_answers(cfg)?,
    };
    let mut text = String::new();
    for (class, answers) in per_class.iter().enumerate() {
        for a in answers {
            // Scores travel as their bits: the check is exact to EPSILON.
            text.push_str(&format!(
                "{class} {} {} {:016x}\n",
                a.shard,
                a.root,
                a.score.to_bits()
            ));
        }
    }
    let path = references_file(&cfg.dir);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Reads what [`write_references`] wrote, one list per class.
pub fn read_references(dir: &Path, classes: usize) -> Result<Vec<Vec<Reference>>, String> {
    let path = references_file(dir);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut per_class = vec![Vec::new(); classes];
    for line in text.lines() {
        let bad = || format!("{}: bad line {line:?}", path.display());
        let words: Vec<&str> = line.split_whitespace().collect();
        let [class, shard, root, bits] = words[..] else {
            return Err(bad());
        };
        let class: usize = class.parse().map_err(|_| bad())?;
        let reference = Reference {
            shard: shard.parse().map_err(|_| bad())?,
            root: root.parse().map_err(|_| bad())?,
            score: f64::from_bits(u64::from_str_radix(bits, 16).map_err(|_| bad())?),
        };
        per_class.get_mut(class).ok_or_else(bad)?.push(reference);
    }
    Ok(per_class)
}

/// Builds the workload `cfg` names over the fixtures and references in
/// `cfg.dir`.
pub fn build(cfg: &Config) -> Result<Box<dyn Workload>, String> {
    Ok(match cfg.kind {
        Kind::DocS => Box::new(doc::DocWorkload::new(cfg, false)?),
        Kind::DocM2 => Box::new(doc::DocWorkload::new(cfg, true)?),
        Kind::CorpusLazy => Box::new(corpus::CorpusWorkload::new(cfg)?),
        Kind::ServeClosed => Box::new(serve::ServeWorkload::new(cfg)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wps_bytes_are_counted_at_any_depth() {
        let base = std::env::temp_dir().join(format!("wpb-wps-{}", std::process::id()));
        std::fs::create_dir_all(base.join("shards")).unwrap();
        std::fs::write(base.join("doc.wps"), [0u8; 10]).unwrap();
        std::fs::write(base.join("shards/a.wps"), [0u8; 5]).unwrap();
        std::fs::write(base.join("shards/a.xml"), [0u8; 100]).unwrap();
        let counted = wps_bytes_under(&base);
        std::fs::remove_dir_all(&base).unwrap();
        assert_eq!(counted, 15);
    }
}
