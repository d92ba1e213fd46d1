//! Seeded fixtures, written to the workload's directory before any
//! timing. The measured process only ever sees these files.
//!
//! XMark generator seeds are `seed`, `seed + 1`, …; the decoy shards
//! come from the benchmark's own generator below.

use crate::host::xorshift;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use whirlpool_index::TagIndex;
use whirlpool_store::save_snapshot;
use whirlpool_xmark::{generate, GeneratorConfig};
use whirlpool_xml::{parse_document, write_document, WriteOptions};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One document, owned backing, Whirlpool-S.
    DocS,
    /// Same document, mapped backing, Whirlpool-M with 2 threads.
    DocM2,
    /// 64 lazy snapshot shards behind the collection driver.
    CorpusLazy,
    /// The daemon, one closed-loop client.
    ServeClosed,
}

impl Kind {
    /// All workloads in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 4] = [Kind::DocS, Kind::DocM2, Kind::CorpusLazy, Kind::ServeClosed];

    /// The name used on the command line and in every metric line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DocS => "doc_s",
            Kind::DocM2 => "doc_m2",
            Kind::CorpusLazy => "corpus_lazy",
            Kind::ServeClosed => "serve_closed",
        }
    }

    /// Inverse of [`Kind::name`].
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Fixture sizes. `full` is what the recorded numbers are measured on;
/// `smoke` is small enough that the whole benchmark runs in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Bytes of the single document of `doc_s` / `doc_m2`.
    pub doc_bytes: usize,
    /// XMark shards of `corpus_lazy`.
    pub rich_shards: usize,
    /// Bytes of each.
    pub rich_bytes: usize,
    /// Decoy shards of `corpus_lazy`.
    pub decoys: usize,
    /// Bytes of each.
    pub decoy_bytes: usize,
    /// Parsed documents in the daemon's registry.
    pub serve_docs: usize,
    /// Bytes of each.
    pub serve_doc_bytes: usize,
    /// Peeked snapshot shards in the daemon's registry.
    pub serve_shards: usize,
}

impl Scale {
    /// The sizes the issue fixes: 10 Mb document, 16 + 48 shards,
    /// 4 × 1 Mb documents + 16 shards behind the daemon.
    pub fn full() -> Scale {
        Scale {
            doc_bytes: 10_000_000,
            rich_shards: 16,
            rich_bytes: 300_000,
            decoys: 48,
            decoy_bytes: 100_000,
            serve_docs: 4,
            serve_doc_bytes: 1_000_000,
            serve_shards: 16,
        }
    }

    /// Same shape, a tenth of the data.
    pub fn smoke() -> Scale {
        Scale {
            doc_bytes: 1_000_000,
            rich_shards: 4,
            rich_bytes: 100_000,
            decoys: 12,
            decoy_bytes: 30_000,
            serve_docs: 2,
            serve_doc_bytes: 200_000,
            serve_shards: 4,
        }
    }
}

/// An XMark document of about `bytes` bytes, serialised.
pub fn xmark_xml(bytes: usize, seed: u64) -> String {
    let config = GeneratorConfig {
        target_bytes: bytes,
        seed,
        max_items: None,
    };
    write_document(&generate(&config), &WriteOptions::default())
}

const WORDS: [&str; 16] = [
    "gold", "silver", "amber", "willow", "harbour", "meadow", "lantern", "copper", "velvet",
    "orchard", "granite", "saffron", "thistle", "juniper", "marble", "cinder",
];

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        // Never zero, and consecutive seeds start far apart.
        Rng(xorshift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1))
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 = xorshift(self.0);
        self.0 % n
    }

    fn words(&mut self, out: &mut String, n: u64) {
        for i in 0..n {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(WORDS[self.below(WORDS.len() as u64) as usize]);
        }
    }
}

/// A decoy shard of about `bytes` bytes: every tag of Q1–Q4 occurs, but
/// no parent/child edge of any of them does. `description`, `parlist`,
/// `name` and `incategory` sit deeper under `item` than the queries ask
/// (so a relaxed Q1 or Q4 still has to look), while `mailbox`, `mail`,
/// `text`, `bold` and `keyword` sit outside every `item` (so the path
/// synopsis proves Q2 and Q3 cannot score well here).
pub fn decoy_xml(bytes: usize, seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut out = String::with_capacity(bytes + 1024);
    out.push_str("<site><regions><asia>");
    let mut i = 0;
    while out.len() < bytes * 3 / 4 {
        let _ = write!(out, "<item id=\"decoy{seed}_{i}\"><lot><name>");
        rng.words(&mut out, 2);
        let _ = write!(
            out,
            "</name><incategory category=\"category{}\"/></lot><lot><notes><description><note>",
            rng.below(40)
        );
        let n = 4 + rng.below(12);
        rng.words(&mut out, n);
        out.push_str("</note></description>");
        for _ in 0..rng.below(3) {
            out.push_str("<section><parlist><listitem><note>");
            let n = 2 + rng.below(6);
            rng.words(&mut out, n);
            out.push_str("</note></listitem></parlist></section>");
        }
        out.push_str("</notes></lot></item>");
        i += 1;
    }
    out.push_str("</asia></regions><archive>");
    while out.len() < bytes {
        out.push_str("<mailbox><slot><mail><env><text><span><bold>");
        rng.words(&mut out, 1);
        out.push_str("</bold></span><span><keyword>");
        rng.words(&mut out, 1);
        out.push_str("</keyword></span>");
        let n = 3 + rng.below(10);
        rng.words(&mut out, n);
        out.push_str("</text></env></mail></slot></mailbox>");
    }
    out.push_str("</archive></site>");
    out
}

/// Parses `xml`, indexes it and writes the default (v3) snapshot: how
/// the daemon's shard files are prepared.
fn write_snapshot_of(xml: &str, path: &Path) -> io::Result<()> {
    let doc = parse_document(xml).map_err(|e| io::Error::other(e.to_string()))?;
    let index = TagIndex::build(&doc);
    save_snapshot(&doc, &index, path)
}

/// Writes the fixtures of `kind` for `seed` into `dir` (created empty
/// by the caller).
pub fn write(kind: Kind, seed: u64, scale: &Scale, dir: &Path) -> io::Result<()> {
    match kind {
        Kind::DocS | Kind::DocM2 => {
            std::fs::write(dir.join("doc.xml"), xmark_xml(scale.doc_bytes, seed))?;
        }
        Kind::CorpusLazy => {
            let xml = dir.join("xml");
            std::fs::create_dir_all(&xml)?;
            for i in 0..scale.rich_shards {
                std::fs::write(
                    xml.join(format!("rich_{i:02}.xml")),
                    xmark_xml(scale.rich_bytes, seed + i as u64),
                )?;
            }
            for i in 0..scale.decoys {
                std::fs::write(
                    xml.join(format!("decoy_{i:02}.xml")),
                    decoy_xml(scale.decoy_bytes, seed + i as u64),
                )?;
            }
        }
        Kind::ServeClosed => {
            let docs = dir.join("docs");
            let shards = dir.join("shards");
            std::fs::create_dir_all(&docs)?;
            std::fs::create_dir_all(&shards)?;
            for i in 0..scale.serve_docs {
                std::fs::write(
                    docs.join(format!("doc_{i}.xml")),
                    xmark_xml(scale.serve_doc_bytes, seed + i as u64),
                )?;
            }
            for i in 0..scale.serve_shards {
                // Offset past the documents' seeds: no shard repeats one.
                let xml = xmark_xml(scale.rich_bytes, seed + 100 + i as u64);
                write_snapshot_of(&xml, &shards.join(format!("shard_{i:02}.wps")))?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use whirlpool_xml::{Document, NodeId};

    #[test]
    fn equal_seeds_give_identical_bytes_and_different_seeds_differ() {
        assert_eq!(xmark_xml(60_000, 7), xmark_xml(60_000, 7));
        assert_ne!(xmark_xml(60_000, 7), xmark_xml(60_000, 8));
        assert_eq!(decoy_xml(20_000, 7), decoy_xml(20_000, 7));
        assert_ne!(decoy_xml(20_000, 7), decoy_xml(20_000, 8));
    }

    #[test]
    fn written_fixtures_repeat_byte_for_byte() {
        let base = std::env::temp_dir().join(format!("wpb-fixtures-{}", std::process::id()));
        let mut listings = Vec::new();
        for (run, seed) in [(0, 5u64), (1, 5), (2, 6)] {
            let dir = base.join(run.to_string());
            std::fs::create_dir_all(&dir).unwrap();
            write(Kind::CorpusLazy, seed, &Scale::smoke(), &dir).unwrap();
            let mut files: Vec<_> = std::fs::read_dir(dir.join("xml"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            files.sort();
            let bytes: Vec<Vec<u8>> = files.iter().map(|p| std::fs::read(p).unwrap()).collect();
            listings.push(bytes);
        }
        std::fs::remove_dir_all(&base).unwrap();
        assert_eq!(listings[0].len(), 16);
        assert_eq!(listings[0], listings[1]);
        assert_ne!(listings[0], listings[2]);
    }

    fn child_edge_exists(doc: &Document, parent: &str, child: &str) -> bool {
        doc.elements().any(|n| {
            (parent == "*" || doc.tag_str(n) == parent)
                && doc.children(n).any(|c| doc.tag_str(c) == child)
        })
    }

    fn grandchild_exists(doc: &Document, top: &str, leaf: &str) -> bool {
        let has_leaf = |n: NodeId| doc.children(n).any(|c| doc.tag_str(c) == leaf);
        doc.elements()
            .any(|n| doc.tag_str(n) == top && doc.children(n).any(has_leaf))
    }

    #[test]
    fn decoys_hold_every_query_tag_and_none_of_the_query_paths() {
        let doc = parse_document(&decoy_xml(30_000, 11)).unwrap();
        for tag in [
            "item",
            "description",
            "parlist",
            "mailbox",
            "mail",
            "text",
            "bold",
            "keyword",
            "name",
            "incategory",
        ] {
            assert!(doc.tag_id(tag).is_some(), "decoy lacks <{tag}>");
        }
        // Every parent/child edge of Q1-Q4.
        for (parent, child) in [
            ("item", "description"),
            ("description", "parlist"),
            ("item", "mailbox"),
            ("mailbox", "mail"),
            ("mail", "text"),
            ("text", "bold"),
            ("text", "keyword"),
            ("item", "name"),
            ("item", "incategory"),
        ] {
            assert!(
                !child_edge_exists(&doc, parent, child),
                "decoy holds {parent}/{child}"
            );
        }
        // Q4's `./*/parlist`.
        assert!(!grandchild_exists(&doc, "item", "parlist"));
        // Q4's attributes are there to be looked at.
        let item = doc.elements().find(|&n| doc.tag_str(n) == "item").unwrap();
        assert!(doc.attribute(item, "id").is_some());
    }
}
