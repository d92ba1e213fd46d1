//! Daemon state shared across worker threads.
//!
//! The prepare work happens once, at load time — a full parse+index, a
//! zero-copy [`Snapshot`](whirlpool_store::Snapshot) attach, or a
//! header-only peek — and produces one [`Shard`] per document. At
//! [`start`](crate::start) the [`Registry`] freezes into a single
//! [`Collection`]: every request thereafter pins the shards it reads
//! through [`Collection::acquire`] and builds only the per-query
//! artifacts (pattern, score model, context). How documents are held,
//! attached, evicted and pruned is the collection's business, not the
//! daemon's.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;
use whirlpool_core::{Collection, Shard};
use whirlpool_index::TagIndex;
use whirlpool_store::StoreError;
use whirlpool_xml::Document;

/// How a document became queryable, and what it cost.
///
/// The two variants mirror the CLI's `--stats` line: cold starts pay
/// `index_build_ms` (the parse happened just before, at load), warm
/// starts pay `snapshot_attach_ms` (O(header) validation over a mapped
/// file). `/metrics` surfaces the cost per document so a deployment
/// can see whether its boots are warm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Prepare {
    /// Indexed in-process from a parsed document.
    Indexed {
        /// Wall time of `TagIndex::build` at load.
        ms: f64,
    },
    /// Attached zero-copy from a snapshot file.
    Attached {
        /// Wall time of `Snapshot::attach`.
        ms: f64,
    },
    /// Peeked lazily: only the snapshot's header and synopsis sections
    /// were read at load; the full attach is deferred until the first
    /// query that actually needs the document's arrays.
    Peeked {
        /// Wall time of `Snapshot::peek`.
        ms: f64,
    },
}

impl Prepare {
    /// The `/metrics` field name for this cost.
    pub fn stat_name(&self) -> &'static str {
        match self {
            Prepare::Indexed { .. } => "index_build_ms",
            Prepare::Attached { .. } => "snapshot_attach_ms",
            Prepare::Peeked { .. } => "snapshot_peek_ms",
        }
    }

    /// The `/metrics` backing label.
    pub(crate) fn backing_label(&self) -> &'static str {
        match self {
            Prepare::Indexed { .. } => "parsed",
            Prepare::Attached { .. } => "snapshot",
            Prepare::Peeked { .. } => "lazy",
        }
    }

    /// The cost in milliseconds.
    pub fn ms(&self) -> f64 {
        match self {
            Prepare::Indexed { ms } | Prepare::Attached { ms } | Prepare::Peeked { ms } => *ms,
        }
    }
}

/// One loaded document: a name, what preparing it cost, and the shard
/// the frozen collection will serve it from.
pub struct DocState {
    /// The lookup name clients use in the `doc` request field.
    pub name: String,
    /// How this document became queryable and what it cost.
    pub prepare: Prepare,
    shard: Shard,
}

impl DocState {
    /// Indexes `doc` under `name` (the cold-start path).
    pub fn new(name: impl Into<String>, doc: Document) -> DocState {
        let name = name.into();
        let start = Instant::now();
        let index = TagIndex::build(&doc);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        DocState {
            shard: Shard::parsed(name.clone(), doc, index),
            name,
            prepare: Prepare::Indexed { ms },
        }
    }

    /// Attaches a snapshot under `name` (the eager warm-start path):
    /// O(header) validation, no parse, no index build. The attachment
    /// starts resident and is evictable under
    /// [`ServeConfig::max_resident`](crate::ServeConfig::max_resident)
    /// like any other file-backed shard.
    pub fn attach(
        name: impl Into<String>,
        path: impl AsRef<std::path::Path>,
    ) -> Result<DocState, StoreError> {
        let name = name.into();
        let start = Instant::now();
        let shard = Shard::attached(name.clone(), path)?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        Ok(DocState {
            shard,
            name,
            prepare: Prepare::Attached { ms },
        })
    }

    /// Registers a snapshot under `name` *without* attaching it: only
    /// the header and synopsis sections are read. The document's
    /// arrays map in on the first query that needs them — a collection
    /// query that prunes this document off its ceiling never pays the
    /// attach at all.
    pub fn peek(
        name: impl Into<String>,
        path: impl AsRef<std::path::Path>,
    ) -> Result<DocState, StoreError> {
        let name = name.into();
        let start = Instant::now();
        let shard = Shard::peeked(name.clone(), path)?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        Ok(DocState {
            shard,
            name,
            prepare: Prepare::Peeked { ms },
        })
    }

    /// The shard this document is served from.
    pub fn shard(&self) -> &Shard {
        &self.shard
    }
}

/// The set of documents to serve, by name, until [`start`](crate::start)
/// freezes it.
#[derive(Default)]
pub struct Registry {
    docs: BTreeMap<String, DocState>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds (or replaces) a document.
    pub fn insert(&mut self, state: DocState) {
        self.docs.insert(state.name.clone(), state);
    }

    /// Looks a document up by name.
    pub fn get(&self, name: &str) -> Option<&DocState> {
        self.docs.get(name)
    }

    /// Every loaded document, in name order.
    pub fn docs(&self) -> impl Iterator<Item = &DocState> {
        self.docs.values()
    }

    /// Number of loaded documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Freezes the registry into the corpus the daemon serves: one
    /// collection shard per document, in name order.
    pub(crate) fn freeze(self) -> Corpus {
        let mut corpus = Corpus {
            collection: Collection::new(),
            by_name: HashMap::with_capacity(self.docs.len()),
            prepares: Vec::with_capacity(self.docs.len()),
        };
        for (name, state) in self.docs {
            corpus.by_name.insert(name, corpus.prepares.len());
            corpus.prepares.push(state.prepare);
            corpus.collection.push(state.shard);
        }
        corpus
    }
}

/// The frozen registry: the daemon's documents as one [`Collection`],
/// plus what the collection does not know about them — the names
/// clients address them by and what preparing each one cost.
pub(crate) struct Corpus {
    pub(crate) collection: Collection,
    /// Document name → index into `collection.shards()`.
    by_name: HashMap<String, usize>,
    /// Indexed like `collection.shards()`.
    pub(crate) prepares: Vec<Prepare>,
}

impl Corpus {
    /// The shard index of the document called `name`. An empty name
    /// resolves iff exactly one document is loaded — the common
    /// single-document deployment doesn't force clients to repeat it.
    pub(crate) fn index_of(&self, name: &str) -> Option<usize> {
        if name.is_empty() && self.prepares.len() == 1 {
            return Some(0);
        }
        self.by_name.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whirlpool_xml::parse_document;

    fn doc_state(name: &str) -> DocState {
        DocState::new(name, parse_document("<r><a/><b/></r>").unwrap())
    }

    #[test]
    fn single_document_answers_the_empty_name() {
        let mut r = Registry::new();
        r.insert(doc_state("only"));
        let corpus = r.freeze();
        assert_eq!(corpus.index_of(""), Some(0));
        assert_eq!(corpus.index_of("only"), Some(0));
        assert_eq!(corpus.index_of("other"), None);

        let mut r = Registry::new();
        r.insert(doc_state("only"));
        r.insert(doc_state("second"));
        assert_eq!(r.len(), 2);
        let corpus = r.freeze();
        assert_eq!(
            corpus.index_of(""),
            None,
            "ambiguous empty name must not guess between two documents"
        );
    }

    #[test]
    fn freeze_orders_shards_by_name_and_keeps_prepare_costs() {
        let mut r = Registry::new();
        for name in ["m", "z", "a"] {
            r.insert(doc_state(name));
        }
        r.insert(doc_state("m")); // replaces, does not duplicate
        assert_eq!(r.get("z").unwrap().name, "z");
        let corpus = r.freeze();
        let names: Vec<&str> = corpus.collection.shards().iter().map(Shard::name).collect();
        assert_eq!(names, ["a", "m", "z"]);
        assert_eq!(corpus.prepares.len(), 3);
        for (i, name) in names.iter().enumerate() {
            assert_eq!(corpus.index_of(name), Some(i));
        }
        assert_eq!(corpus.index_of("b"), None);
    }

    #[test]
    fn attached_state_serves_the_same_views_as_a_parsed_one() {
        let xml = "<shelf><book id=\"b1\"><title>dune</title></book><book/></shelf>";
        let parsed = DocState::new("s", parse_document(xml).unwrap());
        assert_eq!(parsed.prepare.stat_name(), "index_build_ms");

        let dir = std::env::temp_dir().join(format!("wp-shared-attach-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.wps");
        let (doc, index) = parsed.shard().as_parsed().unwrap();
        whirlpool_store::save_snapshot(doc, index, &path).unwrap();

        let attached = DocState::attach("s", &path).unwrap();
        assert!(attached.shard().as_parsed().is_none());
        assert_eq!(attached.prepare.stat_name(), "snapshot_attach_ms");
        assert!(attached.shard().is_resident(), "eager attach starts mapped");
        assert!(!attached.shard().admitted_by_peek());
        let peeked = DocState::peek("s", &path).unwrap();
        assert_eq!(peeked.prepare.stat_name(), "snapshot_peek_ms");
        assert!(peeked.shard().admitted_by_peek() && !peeked.shard().is_resident());
        assert_eq!(
            peeked.shard().path_synopsis(),
            attached.shard().path_synopsis()
        );

        let mut r = Registry::new();
        r.insert(parsed);
        r.insert(DocState::attach("t", &path).unwrap());
        let corpus = r.freeze();
        let (p, a) = (
            corpus.collection.acquire(0).unwrap(),
            corpus.collection.acquire(1).unwrap(),
        );
        assert_eq!(a.doc().len(), p.doc().len());
        let count = |x: &whirlpool_core::ShardAccess<'_>| {
            x.index()
                .nodes_with_tag(x.doc().tag_id("title").unwrap())
                .len()
        };
        assert_eq!(count(&a), count(&p));
        let shards = corpus.collection.shards();
        assert_eq!(
            shards[1].synopsis().tag_count("book"),
            shards[0].synopsis().tag_count("book")
        );
        drop((p, a));

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
