//! Collection-level (sharded) top-k evaluation.
//!
//! A [`Collection`] holds many documents — separate files, or subtree
//! shards split off one large document — and answers one top-k query
//! over all of them as if they were a single corpus:
//!
//! * **Corpus-level idf.** Scores come from one
//!   [`CorpusStats`]-derived weight table pooled over every shard, so
//!   an answer's score (and therefore its rank) does not depend on
//!   which shard holds it.
//! * **Global threshold sharing.** Shards are evaluated
//!   most-promising-first; each per-shard engine run is seeded with
//!   the current global k-th score as its pruning-threshold *floor*
//!   ([`EvalOptions::threshold_floor`]), so a late shard prunes
//!   against the best answers of every shard already done.
//! * **Shard pruning.** Before a shard is evaluated at all, its score
//!   *ceiling* — an upper bound taken from the shard's own Definition
//!   4.2 counts — is compared against the current top k. A shard none of
//!   whose answers the merge would keep (the ceiling is below the k-th
//!   answer, or ties it from a lower shard index, which loses the tie)
//!   is skipped without touching its postings. The ceiling never
//!   under-estimates (see [`Collection::shard_ceiling`]), so pruning
//!   never changes the answers.
//!
//! Both optimizations are individually switchable
//! ([`CollectionOptions`]); with both off the driver degrades to a
//! naive scan of every shard, which the benchmarks use as the
//! comparison baseline.
//!
//! # Disk-resident lazy collections
//!
//! [`Collection::open_dir`] builds a collection over a directory of
//! snapshot files *without attaching any of them*: each shard starts as
//! a path plus the tag-count synopsis read by the cheap
//! [`Snapshot::peek`] (header and synopsis sections only — no payload
//! mapping, no whole-file checksum pass). A query counts each shard exactly, through
//! the shard's memo of Definition 4.2's counts: the first query of a
//! shape attaches each shard once to count it, and later queries of that
//! shape read lookups. The counts then give each shard's ceiling, so a
//! shard whose ceiling cannot beat the global threshold is **pruned
//! before it is attached** for the visit. Shards the driver does visit
//! are attached on first access and detached again behind an LRU
//! holding at most [`Collection::set_max_resident`] lazy shards (`0` =
//! unlimited), so the resident set stays bounded no matter how large the
//! corpus is. A shard pinned by an in-progress evaluation is never
//! evicted — `max_resident` is a target, not a hard cap.
//!
//! A lazy shard remembers the whole-file checksum of the file its
//! synopsis came from, and an attach must verify the same one: a file
//! replaced since (another document saved over it) is refused with
//! [`StoreError::Stale`]: the shard's counts belong to the file it
//! admitted, so another payload is never counted or evaluated under
//! them. [`evaluate_collection`] accounts the refusal like any failed
//! attach: the shard is left uncounted or unevaluated, and certified by
//! its ceiling.
//!
//! Every attach verifies its file in full ([`Snapshot::attach`]): the
//! checksum, the node walk and the synopsis check run on a shard's first
//! visit and again on each re-attach after an eviction, so a file
//! changed in place since its last visit fails the attach and is
//! certified like any other failed attach.

use crate::context::{ContextOptions, QueryContext, RelaxMode};
use crate::counts::{CountMemo, QueryKeys};
use crate::engine::{evaluate_with_context, Algorithm, EvalOptions};
use crate::error::Completeness;
use crate::fault::Budget;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::trace::TraceData;
use parking_lot::Mutex;
use std::collections::hash_map::RandomState;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use whirlpool_index::{DocView, ShardSynopsis, TagIndex, TagIndexView};
use whirlpool_pattern::TreePattern;
use whirlpool_score::{tfidf, CorpusStats, Normalization, Score, ScoreModel};
use whirlpool_store::{Snapshot, StoreError};
use whirlpool_xml::{parse_document, write_node, Document, NodeId, ParseError, WriteOptions};

/// A lazy shard: a snapshot file known only by its path and peeked
/// synopsis until something actually evaluates it.
struct LazyShard {
    path: PathBuf,
    /// The whole-file checksum of the file the shard's synopsis came
    /// from. [`Collection::acquire`] refuses a re-attached file whose
    /// verified checksum differs: its synopsis and counts would be
    /// someone else's.
    /// The shard's idf counts ([`Shard`]'s memo) belong to this
    /// checksum too, so whatever comes to change it (a re-peek that
    /// admits a new file) must clear that memo.
    checksum: u64,
    /// The attached snapshot, when resident. `Arc` so an in-progress
    /// evaluation pins the mapping across a concurrent eviction.
    resident: Mutex<Option<Arc<Snapshot>>>,
}

/// How a [`Shard`] holds its document: an owned arena built by the
/// parser, or a snapshot file attached (usually mmap'd) on access and
/// evictable between accesses. Every consumer goes through the
/// [`DocView`]/[`TagIndexView`] accessors of [`Collection::acquire`],
/// so the backings are interchangeable at query time.
#[allow(clippy::large_enum_variant)] // one per document, never in bulk arrays
enum ShardBacking {
    Parsed { doc: Document, index: TagIndex },
    Lazy(LazyShard),
}

/// One member of a [`Collection`]: a document with its index and
/// synopsis, built at load time (parsed backing), or a snapshot file
/// attached at load or peeked and attached only when visited (lazy
/// backing).
pub struct Shard {
    name: String,
    backing: ShardBacking,
    synopsis: ShardSynopsis,
    /// Definition 4.2's counts of the predicates queries have asked
    /// about, so a repeated query shape builds its model and ceilings
    /// from lookups ([`Collection::scope_stats`]).
    counts: CountMemo,
}

impl Shard {
    /// A shard over a parsed document and the index built from it;
    /// builds the synopsis.
    pub fn parsed(name: impl Into<String>, doc: Document, index: TagIndex) -> Shard {
        let synopsis = ShardSynopsis::build(&doc);
        Shard {
            name: name.into(),
            backing: ShardBacking::Parsed { doc, index },
            synopsis,
            counts: CountMemo::default(),
        }
    }

    /// A *lazy* shard over the snapshot file at `path`, attached now:
    /// no parse or index build happens, the snapshot's flat arrays
    /// serve queries directly and its stored synopsis gives each
    /// query's answer population. The attachment starts resident, so
    /// the residency manager can evict it under
    /// [`Collection::set_max_resident`] pressure and re-attach it from
    /// disk when next visited.
    pub fn attached(name: impl Into<String>, path: impl AsRef<Path>) -> Result<Shard, StoreError> {
        let snapshot = Snapshot::attach(&path)?;
        Ok(Shard {
            name: name.into(),
            synopsis: snapshot.synopsis()?,
            backing: ShardBacking::Lazy(LazyShard {
                path: path.as_ref().to_path_buf(),
                checksum: snapshot.checksum(),
                resident: Mutex::new(Some(Arc::new(snapshot))),
            }),
            counts: CountMemo::default(),
        })
    }

    /// A *lazy* shard over the snapshot file at `path`: only the header
    /// and synopsis sections are read ([`Snapshot::peek`]); the payload
    /// is mapped when (if) a query first visits the shard.
    pub fn peeked(name: impl Into<String>, path: impl AsRef<Path>) -> Result<Shard, StoreError> {
        let peek = Snapshot::peek(&path)?;
        Ok(Shard {
            name: name.into(),
            backing: ShardBacking::Lazy(LazyShard {
                path: path.as_ref().to_path_buf(),
                checksum: peek.checksum,
                resident: Mutex::new(None),
            }),
            synopsis: peek.synopsis,
            counts: CountMemo::default(),
        })
    }

    /// The shard's display name (file name, or `split-NNN` for subtree
    /// shards).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The owned document and index, when this shard was parsed rather
    /// than snapshot-attached. Reference/oracle paths that need the node
    /// arena go through this.
    pub fn as_parsed(&self) -> Option<(&Document, &TagIndex)> {
        match &self.backing {
            ShardBacking::Parsed { doc, index } => Some((doc, index)),
            _ => None,
        }
    }

    /// Is this shard lazily backed by a snapshot file on disk?
    pub fn is_lazy(&self) -> bool {
        matches!(self.backing, ShardBacking::Lazy(_))
    }

    /// Is this shard's data in memory right now? A parsed shard always
    /// is; a lazy shard is resident between an attach and its
    /// eviction.
    pub fn is_resident(&self) -> bool {
        match &self.backing {
            ShardBacking::Lazy(l) => l.resident.lock().is_some(),
            _ => true,
        }
    }

    /// The shard's tag-count synopsis.
    pub fn synopsis(&self) -> &ShardSynopsis {
        &self.synopsis
    }

    /// How many predicate counts the shard keeps for later queries (at
    /// most [`COUNT_MEMO_CAP`](crate::COUNT_MEMO_CAP)).
    pub fn memoized_counts(&self) -> usize {
        self.counts.len()
    }
}

/// A pinned view of one shard's data, returned by
/// [`Collection::acquire`]. Holding it keeps a lazy shard's snapshot
/// mapped (the eviction scan skips pinned shards); dropping it makes
/// the shard evictable again.
#[allow(clippy::large_enum_variant)] // one per in-flight shard evaluation
pub enum ShardAccess<'c> {
    /// A parsed shard, borrowed straight from the collection.
    Borrowed {
        /// The shard's document view.
        doc: DocView<'c>,
        /// The shard's postings view.
        index: TagIndexView<'c>,
    },
    /// A lazy shard's attached snapshot, pinned by this handle.
    Resident(Arc<Snapshot>),
}

impl ShardAccess<'_> {
    /// The shard's document, as a view borrowed from this handle.
    pub fn doc(&self) -> DocView<'_> {
        match self {
            ShardAccess::Borrowed { doc, .. } => *doc,
            ShardAccess::Resident(s) => s.doc_view(),
        }
    }

    /// The shard's postings, as a view borrowed from this handle.
    pub fn index(&self) -> TagIndexView<'_> {
        match self {
            ShardAccess::Borrowed { index, .. } => *index,
            ShardAccess::Resident(s) => s.index_view(),
        }
    }
}

/// Residency bookkeeping for lazy shards: an MRU list (least recent
/// first) plus cumulative attach/eviction counters.
/// Counters are collection-lifetime, not per-run; the driver reports
/// per-run deltas.
#[derive(Default)]
struct Residency {
    /// Target cap on resident lazy shards; `0` = unlimited.
    max_resident: AtomicUsize,
    /// Resident lazy shard indices, least recently used first.
    mru: Mutex<Vec<usize>>,
    attached: AtomicU64,
    /// Attaches that failed: the file could not be attached, or it was
    /// not the file the shard was admitted with.
    attach_failed: AtomicU64,
    evictions: AtomicU64,
}

/// A multi-document corpus queried as one unit.
#[derive(Default)]
pub struct Collection {
    shards: Vec<Shard>,
    residency: Residency,
    /// The hash state every shard's count memo is keyed under, so one
    /// query's keys are hashed once for all of them
    /// ([`QueryKeys`](crate::counts::QueryKeys)). Drawn per collection:
    /// keys carry client-chosen values.
    count_keys: RandomState,
}

impl Collection {
    /// An empty collection.
    pub fn new() -> Self {
        Collection::default()
    }

    /// Adds an already-built shard. A lazy shard that arrives with its
    /// snapshot attached ([`Shard::attached`]) enters the residency
    /// list as most recently used and counts as one attach.
    pub fn push(&mut self, shard: Shard) {
        if shard.is_lazy() && shard.is_resident() {
            self.residency.mru.lock().push(self.shards.len());
            self.residency.attached.fetch_add(1, Ordering::Relaxed);
        }
        self.shards.push(shard);
    }

    /// Adds a parsed document as one shard, building its index and
    /// synopsis.
    pub fn add_document(&mut self, name: impl Into<String>, doc: Document) {
        let index = TagIndex::build(&doc);
        self.push(Shard::parsed(name, doc, index));
    }

    /// Attaches the snapshot file at `path` and adds it as one shard
    /// ([`Shard::attached`]).
    pub fn add_snapshot(
        &mut self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> Result<(), StoreError> {
        self.push(Shard::attached(name, path)?);
        Ok(())
    }

    /// Adds the snapshot file at `path` as one lazy shard
    /// ([`Shard::peeked`]), named by its file stem.
    pub fn attach_snapshot_file(&mut self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let path = path.as_ref();
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        self.push(Shard::peeked(name, path)?);
        Ok(())
    }

    /// Opens every `.wps` snapshot in `dir` (sorted by file name) as a
    /// lazy shard. Nothing is attached: the per-shard cost is one peek
    /// — header plus synopsis sections — so opening a directory of
    /// thousands of shards costs milliseconds and near-zero memory.
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir.as_ref())?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "wps"))
            .collect();
        paths.sort();
        let mut collection = Collection::new();
        for p in paths {
            collection.attach_snapshot_file(&p)?;
        }
        Ok(collection)
    }

    /// Caps how many *lazy* shards stay attached at once (`0` =
    /// unlimited, the default). When an attach pushes the resident
    /// count over the cap, least-recently-used unpinned shards are
    /// detached until the count fits. Shards pinned by an in-progress
    /// [`ShardAccess`] are skipped, so the cap is a target under
    /// concurrency, not a hard ceiling.
    pub fn set_max_resident(&self, max: usize) {
        self.residency.max_resident.store(max, Ordering::Relaxed);
    }

    /// How many lazy shards are attached right now.
    pub fn resident_count(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.is_lazy() && s.is_resident())
            .count()
    }

    /// Cumulative lazy-shard attaches over this collection's lifetime.
    pub fn attach_count(&self) -> u64 {
        self.residency.attached.load(Ordering::Relaxed)
    }

    /// Cumulative failed lazy-shard attaches over this collection's
    /// lifetime: a file that failed to attach, or a re-attached file
    /// refused as [`StoreError::Stale`] ([`acquire`](Self::acquire)).
    pub fn attach_failed_count(&self) -> u64 {
        self.residency.attach_failed.load(Ordering::Relaxed)
    }

    /// Cumulative lazy-shard evictions over this collection's lifetime.
    pub fn eviction_count(&self) -> u64 {
        self.residency.evictions.load(Ordering::Relaxed)
    }

    /// Pins shard `idx` and returns a view handle over its data,
    /// attaching a lazy shard from disk if it is not resident. The
    /// handle keeps the shard safe from eviction until dropped.
    ///
    /// A re-attached file must be the one the shard's synopsis came
    /// from: a file replaced since (another document saved over it)
    /// fails with [`StoreError::Stale`] and stays detached, so no
    /// caller evaluates a payload against a ceiling that was not
    /// computed from it. Every attach verifies the file in full.
    pub fn acquire(&self, idx: usize) -> Result<ShardAccess<'_>, StoreError> {
        let shard = &self.shards[idx];
        let lazy = match &shard.backing {
            ShardBacking::Parsed { doc, index } => {
                return Ok(ShardAccess::Borrowed {
                    doc: doc.into(),
                    index: index.view(),
                })
            }
            ShardBacking::Lazy(l) => l,
        };
        let arc = {
            let mut slot = lazy.resident.lock();
            match &*slot {
                Some(a) => a.clone(),
                None => {
                    let failed = |e| {
                        self.residency.attach_failed.fetch_add(1, Ordering::Relaxed);
                        e
                    };
                    let snapshot = Snapshot::attach(&lazy.path).map_err(failed)?;
                    if snapshot.checksum() != lazy.checksum {
                        return Err(failed(StoreError::Stale {
                            expected: lazy.checksum,
                            found: snapshot.checksum(),
                        }));
                    }
                    let a = Arc::new(snapshot);
                    *slot = Some(a.clone());
                    self.residency.attached.fetch_add(1, Ordering::Relaxed);
                    a
                }
            }
            // The slot lock is released before the MRU lock below is
            // taken: the eviction scan holds the MRU lock and
            // *try*-locks slots, so the two locks are never both held
            // in the attach order.
        };
        self.touch(idx);
        Ok(ShardAccess::Resident(arc))
    }

    /// Calls `visit(rank, answer, doc)` for every answer of `result`,
    /// grouped by shard: each distinct answering shard is pinned once
    /// ([`acquire`](Self::acquire)), one at a time, however its answers
    /// interleave with other shards' in rank order. Rendering a reply
    /// under `max_resident = 1` therefore re-attaches an evicted lazy
    /// shard once, not once per answer. Answers of a shard whose attach
    /// fails are not visited.
    pub fn visit_answers(
        &self,
        result: &CollectionResult,
        mut visit: impl FnMut(usize, &CollectionAnswer, DocView<'_>),
    ) {
        let mut shards: Vec<usize> = result.answers.iter().map(|a| a.shard).collect();
        shards.sort_unstable();
        shards.dedup();
        for shard in shards {
            let Ok(access) = self.acquire(shard) else {
                continue;
            };
            for (rank, a) in result.answers.iter().enumerate() {
                if a.shard == shard {
                    visit(rank, a, access.doc());
                }
            }
        }
    }

    /// Moves `idx` to the MRU tail and evicts over-cap unpinned lazy
    /// shards, least recently used first.
    fn touch(&self, idx: usize) {
        let mut mru = self.residency.mru.lock();
        mru.retain(|&i| i != idx);
        mru.push(idx);
        let max = self.residency.max_resident.load(Ordering::Relaxed);
        if max == 0 {
            return;
        }
        let mut at = 0;
        while mru.len() > max && at < mru.len() {
            let victim = mru[at];
            let ShardBacking::Lazy(l) = &self.shards[victim].backing else {
                mru.remove(at);
                continue;
            };
            // try_lock: an attach in progress holds the slot lock, and
            // blocking here while holding the MRU lock would invert the
            // `acquire` lock order. A busy slot just stays resident.
            let Some(mut slot) = l.resident.try_lock() else {
                at += 1;
                continue;
            };
            match &*slot {
                // Strong count 1 = only the residency slot holds it:
                // no ShardAccess pins this shard, safe to unmap.
                Some(a) if Arc::strong_count(a) == 1 && victim != idx => {
                    *slot = None;
                    drop(slot);
                    mru.remove(at);
                    self.residency.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // Stale entry (already detached elsewhere): drop it.
                None => {
                    drop(slot);
                    mru.remove(at);
                }
                // Pinned (or the shard just touched): keep, move on.
                _ => at += 1,
            }
        }
    }

    /// Parses `src` and adds it as one shard.
    pub fn add_source(&mut self, name: impl Into<String>, src: &str) -> Result<(), ParseError> {
        let doc = parse_document(src)?;
        self.add_document(name, doc);
        Ok(())
    }

    /// Splits one large document into (up to) `shards` subtree shards.
    ///
    /// The split point is the first element, walking down from the
    /// document element through single-child links, that has more than
    /// one child: its children are chunked contiguously, and each
    /// chunk is re-wrapped in the full chain of ancestor tags, so tag
    /// paths in the shards match the unsplit document. An XMark
    /// `<site><regions>…</regions></site>` document therefore splits
    /// at the region containers inside `<regions>`, not at `<site>`
    /// (which always has exactly one child and would yield one shard).
    /// Fewer shards come back when the split point has fewer children
    /// than requested. Attributes on the wrapper-chain elements are
    /// not carried over — patterns returning those elements themselves
    /// should query the unsplit document instead.
    pub fn split_document(doc: &Document, shards: usize) -> Self {
        let shards = shards.max(1);
        let mut collection = Collection::new();
        let root = doc.document_root();
        let Some(top) = doc.children(root).next() else {
            return collection;
        };
        // Descend through single-child links to the real fanout point,
        // recording the wrapper tags passed on the way.
        let mut chain = vec![doc.tag_str(top).to_string()];
        let mut split_at = top;
        loop {
            let mut kids = doc.children(split_at);
            match (kids.next(), kids.next()) {
                (Some(only), None) => {
                    chain.push(doc.tag_str(only).to_string());
                    split_at = only;
                }
                _ => break,
            }
        }
        let children: Vec<NodeId> = doc.children(split_at).collect();
        if children.is_empty() {
            // A childless chain end cannot be split; round-trip the
            // whole document into a single shard.
            let src = whirlpool_xml::write_document(doc, &WriteOptions::default());
            let shard_doc = parse_document(&src).expect("round-tripped document must re-parse");
            collection.add_document("split-000", shard_doc);
            return collection;
        }
        let opts = WriteOptions::default();
        let per = children.len().div_ceil(shards);
        for (i, chunk) in children.chunks(per).enumerate() {
            let mut src = String::new();
            for tag in &chain {
                src.push_str(&format!("<{tag}>"));
            }
            for &child in chunk {
                src.push_str(&write_node(doc, child, &opts).expect("a Document's text is UTF-8"));
            }
            for tag in chain.iter().rev() {
                src.push_str(&format!("</{tag}>"));
            }
            let shard_doc = parse_document(&src).expect("serialized subtree chunk must re-parse");
            collection.add_document(format!("split-{i:03}"), shard_doc);
        }
        collection
    }

    /// The shards, in insertion order. [`CollectionAnswer::shard`]
    /// indexes into this slice.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Is the collection empty?
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Pools document-frequency counts over every shard (see
    /// [`CorpusStats`]): [`scope_stats`](Self::scope_stats) of the
    /// corpus scope. Callers derive the corpus score model from the
    /// result; [`evaluate_collection`] does this internally.
    pub fn corpus_stats(&self, pattern: &TreePattern) -> CorpusStats {
        self.scope_stats(Scope::Corpus, pattern)
    }

    /// Pools Definition 4.2's counts over the shards of `scope`; the
    /// driver ([`evaluate_scope`]) derives its score model from them. A
    /// document scope ([`Scope::Shard`]) is the paper's per-document idf,
    /// the model [`TfIdfModel::build_view`] builds, and a corpus scope
    /// counts every shard the same way, however it was added: parsed,
    /// attached or peeked.
    ///
    /// [`TfIdfModel::build_view`]: whirlpool_score::TfIdfModel::build_view
    ///
    /// Counts come from each shard's memo, read under a read lock; only
    /// the predicates it lacks are counted ([`tfidf::idf_counts_sweep`]),
    /// and stored for later queries. The shard is acquired (attached, if
    /// it is lazy and evicted) only for that count, so the first query of
    /// a shape attaches each uncounted shard once and a repeated shape
    /// attaches nothing here. A shard whose synopsis lacks the answer tag
    /// has population 0 and is never attached, and a pattern without
    /// predicates takes its population from the synopses.
    ///
    /// A shard whose attach fails, or whose data holds another number of
    /// answers than its synopsis says, is left out of the pooled counts
    /// and stores nothing; a later call counts it.
    pub fn scope_stats(&self, scope: Scope, pattern: &TreePattern) -> CorpusStats {
        self.scope_counts(scope, pattern, None).stats
    }

    /// [`scope_stats`](Self::scope_stats), keeping each shard's counts.
    /// Once `budget` (a run's budget and what it has spent) is spent, a
    /// shard is counted only if that attaches nothing: from its memo, or
    /// because its data is in memory.
    ///
    /// The query's count keys are built and hashed once
    /// ([`QueryKeys`]), and each shard's counts go into one row of a
    /// flat table, so a shard whose memo holds the shape costs a probe
    /// per predicate and no allocation.
    fn scope_counts(
        &self,
        scope: Scope,
        pattern: &TreePattern,
        budget: Option<(&Budget, &Metrics)>,
    ) -> ScopeCounts {
        let answer_tag = &pattern.node(pattern.root()).tag;
        let mut stats = CorpusStats::new(pattern);
        let shards = scope.shards(self.len());
        let width = stats.predicates().len();
        let mut populations = Vec::with_capacity(shards.len());
        let mut satisfying = vec![[0, 0]; shards.len() * width];
        let mut counted = vec![false; shards.len()];
        let keys = QueryKeys::new(&self.count_keys, answer_tag, stats.predicates());
        for (at, idx) in shards.enumerate() {
            let shard = &self.shards[idx];
            if width == 0 {
                populations.push(Some(shard.synopsis.answers(answer_tag)));
                continue;
            }
            let row = &mut satisfying[at * width..][..width];
            // A shard that has counted the shape reads it; one without
            // answers was never counted and is not counted now.
            let population = match shard.counts.read(&keys, row) {
                Some(population) => Some(population),
                None if shard.synopsis.answers(answer_tag) == 0 => {
                    row.fill([0, 0]);
                    Some(0)
                }
                None => {
                    let tally: Result<_, ()> = shard.counts.counts(&keys, row, |missing| {
                        let access = if budget.is_some_and(|(b, spent)| b.exhausted(spent)) {
                            self.resident(idx).ok_or(())?
                        } else {
                            self.acquire(idx).map_err(drop)?
                        };
                        let (doc, index) = (access.doc(), access.index());
                        let counts = tfidf::idf_counts_sweep(doc, index, answer_tag, missing);
                        // A payload whose answers are not the synopsis's
                        // (a mapped file rewritten in place) is not counted.
                        if counts.0 == shard.synopsis.answers(answer_tag) {
                            Ok(counts)
                        } else {
                            Err(())
                        }
                    });
                    counted[at] = tally.is_ok_and(|t| t.counted);
                    tally.ok().map(|t| t.population)
                }
            };
            populations.push(population);
        }
        // The keys borrow `stats`' predicates; pooling writes `stats`.
        drop(keys);
        for (at, population) in populations.iter().enumerate() {
            if let Some(population) = *population {
                stats.add_counts(population, &satisfying[at * width..][..width]);
            }
        }
        ScopeCounts {
            stats,
            populations,
            satisfying,
            counted,
        }
    }

    /// The answers a model build over `scope` would still walk to count
    /// `pattern`: the answer population of each shard whose memo lacks
    /// one of the pattern's predicates. 0 once every shard of the scope
    /// has counted the shape. The pattern's count keys are hashed once,
    /// as [`scope_stats`](Self::scope_stats) hashes them.
    pub fn uncounted_answers(&self, scope: Scope, pattern: &TreePattern) -> u64 {
        let answer_tag = &pattern.node(pattern.root()).tag;
        let preds = tfidf::component_predicates(pattern);
        if preds.is_empty() {
            return 0;
        }
        let keys = QueryKeys::new(&self.count_keys, answer_tag, &preds);
        (scope.shards(self.len()))
            .map(|i| &self.shards[i])
            .filter(|s| !s.counts.holds(&keys))
            .map(|s| s.synopsis.answers(answer_tag))
            .sum()
    }

    /// The score ceiling of shard `shard_idx` for `pattern` under
    /// `model`: an upper bound on what any answer rooted in the shard
    /// can score, or `None` if the shard provably holds no answer. The
    /// shard is counted as [`scope_stats`](Self::scope_stats) counts it
    /// (from its memo once the shape is known), and the bound is
    /// arithmetic over its counts: the root's maximum, plus for each
    /// server
    ///
    /// * its exact weight, if some answer satisfies the server's
    ///   predicate exactly;
    /// * otherwise its relaxed weight, if some answer satisfies it
    ///   relaxed (in exact mode the shard holds no answer: `None`);
    /// * otherwise nothing: every answer binds the server to the
    ///   outer-join null.
    ///
    /// A shard without answer-tag elements gets `None`, and a shard that
    /// could not be counted gets every server's exact weight.
    ///
    /// The bound holds because the engines mark a binding
    /// [`MatchLevel::Exact`](whirlpool_score::MatchLevel::Exact) only
    /// where the server's exact component predicate holds for the
    /// answer, which is what the exact count counts; any binding at all
    /// lies in the answer's subtree and passes the value and attribute
    /// tests, which is what the relaxed count counts.
    pub fn shard_ceiling(
        &self,
        shard_idx: usize,
        pattern: &TreePattern,
        model: &impl ScoreModel,
        relax: RelaxMode,
    ) -> Option<Score> {
        let counts = self.scope_counts(Scope::Shard(shard_idx), pattern, None);
        ceiling(counts.shard(0), counts.stats.predicates(), model, relax)
    }

    /// Pins shard `idx` if its data is in memory, attaching nothing.
    fn resident(&self, idx: usize) -> Option<ShardAccess<'_>> {
        match &self.shards[idx].backing {
            ShardBacking::Parsed { doc, index } => Some(ShardAccess::Borrowed {
                doc: doc.into(),
                index: index.view(),
            }),
            ShardBacking::Lazy(l) => l.resident.lock().clone().map(ShardAccess::Resident),
        }
    }
}

/// Definition 4.2's counts of one query over the shards of a scope.
struct ScopeCounts {
    /// The counts pooled over the shards that were counted.
    stats: CorpusStats,
    /// Each shard's answer population, in scope order: `None` for a
    /// shard that could not be counted (its attach failed, or the budget
    /// was spent before it).
    populations: Vec<Option<u64>>,
    /// Each shard's `[exact, relaxed]` satisfying answers, a row of one
    /// pair per predicate, the rows in scope order.
    satisfying: Vec<[u64; 2]>,
    /// Whether each shard, in scope order, counted some predicate rather
    /// than reading every one from its memo. A lazy shard that did was
    /// attached for it, unless it was resident already.
    counted: Vec<bool>,
}

impl ScopeCounts {
    /// The population and satisfying row of the scope's `at`-th shard,
    /// or `None` if it could not be counted.
    fn shard(&self, at: usize) -> Option<(u64, &[[u64; 2]])> {
        let width = self.stats.predicates().len();
        (self.populations[at]).map(|population| {
            let row = &self.satisfying[at * width..][..width];
            (population, row)
        })
    }
}

/// The ceiling of a shard with `counts` (population and satisfying row)
/// of `preds` under `model` ([`Collection::shard_ceiling`]); `None`
/// counts are a shard that could not be counted.
fn ceiling(
    counts: Option<(u64, &[[u64; 2]])>,
    preds: &[tfidf::ComponentPredicate],
    model: &impl ScoreModel,
    relax: RelaxMode,
) -> Option<Score> {
    let mut total = model.max_root_contribution();
    let Some((population, satisfying)) = counts else {
        for pred in preds {
            total += model.max_contribution(pred.qnode);
        }
        return Some(Score::new(total));
    };
    if population == 0 {
        return None;
    }
    for (pred, &[exact, relaxed]) in preds.iter().zip(satisfying) {
        if exact > 0 {
            total += model.max_contribution(pred.qnode);
        } else if relax == RelaxMode::Exact {
            return None;
        } else if relaxed > 0 {
            total += model.max_relaxed_contribution(pred.qnode);
        }
    }
    Some(Score::new(total))
}

/// Collection-driver knobs, on top of the per-shard [`EvalOptions`].
#[derive(Debug, Clone)]
pub struct CollectionOptions {
    /// Skip shards none of whose answers could enter the global top k,
    /// judged by their ceilings.
    pub shard_pruning: bool,
    /// Seed each shard run's pruning threshold with the current global
    /// k-th score.
    pub share_threshold: bool,
}

impl Default for CollectionOptions {
    /// Both optimizations on.
    fn default() -> Self {
        CollectionOptions {
            shard_pruning: true,
            share_threshold: true,
        }
    }
}

impl CollectionOptions {
    /// The naive baseline: every shard visited, no threshold sharing.
    pub fn scan_all() -> Self {
        CollectionOptions {
            shard_pruning: false,
            share_threshold: false,
        }
    }
}

/// The shards one query runs over: a document, or the whole corpus.
/// Both run through one driver ([`evaluate_scope`]); they differ only
/// in which shards it visits and in how it counts idf
/// ([`Collection::scope_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every shard of the collection.
    Corpus,
    /// One shard, by its index into [`Collection::shards`]: a document
    /// query.
    Shard(usize),
}

impl Scope {
    /// The indices of the scope's shards in a collection of `len`.
    pub fn shards(self, len: usize) -> std::ops::Range<usize> {
        match self {
            Scope::Corpus => 0..len,
            Scope::Shard(idx) => idx..idx + 1,
        }
    }
}

/// One answer of a collection query: which shard, which node, what
/// score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectionAnswer {
    /// Index into [`Collection::shards`].
    pub shard: usize,
    /// The answer node, in its shard's id space.
    pub root: NodeId,
    /// The corpus-model score.
    pub score: Score,
}

/// Shard-level accounting of one collection run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectionMetrics {
    /// Shards in the query's scope.
    pub shards_total: usize,
    /// Shards actually evaluated.
    pub shards_visited: usize,
    /// Shards skipped because no answer their ceiling allows could enter
    /// the global top k (or they provably held no answer).
    pub shards_pruned: usize,
    /// The subset of `shards_pruned` that were lazy, not resident when
    /// pruned, and not attached by this run to be counted: shards whose
    /// payload this run **never read from disk** — the whole point of
    /// attach-on-visit.
    pub shards_pruned_before_attach: usize,
    /// Shards left unevaluated: the corpus budget (deadline, op budget
    /// or cancel token) was spent before they were counted or claimed,
    /// or their attach failed.
    pub shards_skipped_budget: usize,
    /// Lazy-shard attaches performed during this run: to count a shard
    /// or to visit it.
    pub shards_attached: u64,
    /// Lazy-shard attaches that failed during this run: the file could
    /// not be attached, or it was not the file the shard was admitted
    /// with ([`StoreError::Stale`]).
    pub shards_attach_failed: u64,
    /// Shards whose idf counts ran in this run, for some predicate its
    /// memo lacked; the other shards of the scope read every count from
    /// their memo, held no answer, or could not be counted
    /// ([`Collection::scope_stats`]).
    pub shards_counted: usize,
    /// Lazy-shard evictions performed during this run.
    pub shard_evictions: u64,
}

/// The outcome of one collection query.
#[derive(Debug, Clone)]
pub struct CollectionResult {
    /// Top-k answers across all shards, best first.
    pub answers: Vec<CollectionAnswer>,
    /// Exact, or an anytime prefix (deadline expiry inside or between
    /// shards). Shard pruning alone never truncates a result.
    pub completeness: Completeness,
    /// Shard-level accounting.
    pub collection_metrics: CollectionMetrics,
    /// Engine counters summed over every visited shard.
    pub metrics: MetricsSnapshot,
    /// Wall-clock time of counting idf and deriving the score model,
    /// the first phase of the run (included in `elapsed`).
    pub model_build: Duration,
    /// Under [`EvalOptions::trace`], each evaluated shard's trace, by
    /// shard index, in the order the runs finished; empty otherwise.
    pub traces: Vec<(usize, TraceData)>,
    /// Wall-clock time of the whole collection run.
    pub elapsed: Duration,
}

/// The cross-shard top-k: the best `k` answers so far, keyed by shard so
/// node ids from different documents cannot collide.
struct GlobalTopK {
    k: usize,
    /// (score, shard, root), ascending.
    ordered: BTreeSet<(Score, usize, NodeId)>,
}

impl GlobalTopK {
    fn new(k: usize) -> Self {
        GlobalTopK {
            k,
            ordered: BTreeSet::new(),
        }
    }

    /// The global k-th score (zero until k answers exist). It never
    /// falls.
    fn threshold(&self) -> Score {
        match self.ordered.first() {
            Some(&(score, _, _)) if self.ordered.len() == self.k => score,
            _ => Score::new(0.0),
        }
    }

    /// Could an answer of `shard` scoring at most `ceiling` enter the
    /// set? Always while it holds fewer than k answers; then only if it
    /// would rank above the weakest member, by score and then by shard.
    /// The weakest member only rises, so a `false` stays `false`.
    fn admits(&self, ceiling: Score, shard: usize) -> bool {
        self.ordered.len() < self.k
            || (self.ordered.first())
                .is_some_and(|&(score, weakest, _)| (ceiling, shard) > (score, weakest))
    }

    /// Merges one shard's ranked answers.
    fn merge(&mut self, shard: usize, answers: &[crate::topk::RankedAnswer]) {
        for a in answers {
            self.ordered.insert((a.score, shard, a.root));
            if self.ordered.len() > self.k {
                self.ordered.pop_first();
            }
        }
    }

    fn into_ranked(self) -> Vec<CollectionAnswer> {
        (self.ordered.into_iter().rev())
            .map(|(score, shard, root)| CollectionAnswer { shard, root, score })
            .collect()
    }
}

/// Evaluates `pattern` over every shard of `collection` and returns the
/// corpus-wide top-k: [`evaluate_scope`] over [`Scope::Corpus`].
pub fn evaluate_collection(
    collection: &Collection,
    pattern: &TreePattern,
    algorithm: &Algorithm,
    options: &EvalOptions,
    normalization: Normalization,
    copts: &CollectionOptions,
) -> CollectionResult {
    evaluate_scope(
        collection,
        Scope::Corpus,
        pattern,
        algorithm,
        options,
        normalization,
        copts,
    )
}

/// Evaluates `pattern` over the shards of `scope` and returns their
/// top-k. A document scope is a one-shard run of the same driver, so a
/// document query and a corpus query differ only in the shards they
/// count and visit.
///
/// Scores come from the scope's model ([`Collection::scope_stats`])
/// built with `normalization`, and each shard's ceiling
/// ([`Collection::shard_ceiling`]) from the same counts. Shards
/// are visited one at a time, ceiling-descending, the higher index first
/// among equal ceilings; `options` configures the per-shard engine runs
/// (its `k`, `relax`, `threads`, deadline, etc.; `threshold_floor` is
/// owned by the driver). The deadline, op budget and cancel token in
/// `options` bound the *whole* collection run as one corpus-level
/// [`Budget`]: it is checked before a shard is counted, pruned or
/// attached, each visited shard is granted what is left and charged for
/// the server operations it spent, and shards the budget overruns are
/// accounted into the truncation certificate by their ceilings. So is a
/// shard that could not be counted: it is left out of the model and
/// never evaluated under it.
///
/// Concurrent calls over one collection (the daemon's workers) share
/// its shards, their count memos and its residency; each call keeps
/// its own top k.
pub fn evaluate_scope(
    collection: &Collection,
    scope: Scope,
    pattern: &TreePattern,
    algorithm: &Algorithm,
    options: &EvalOptions,
    normalization: Normalization,
    copts: &CollectionOptions,
) -> CollectionResult {
    let start = Instant::now();
    let budget =
        Budget::new(options.deadline, options.max_server_ops).with_cancel(options.cancel.clone());
    // Only `server_ops` is charged: it is what the budget reads.
    let spent = Metrics::new();
    let attached_before = collection.attach_count();
    let attach_failed_before = collection.attach_failed_count();
    let evictions_before = collection.eviction_count();
    let counts = collection.scope_counts(scope, pattern, Some((&budget, &spent)));
    let model = counts.stats.model(normalization);
    let model_build = start.elapsed();

    // Ceiling-descending visit order: rich shards first, so the global
    // threshold rises as fast as possible. `None` ceilings (provably
    // answer-free shards) sort last. Among equal ceilings the higher
    // shard index goes first: the merge ranks ties by shard, so once k
    // answers tie a ceiling, a later shard of that ceiling could only
    // lose to them.
    let preds = counts.stats.predicates();
    let mut order: Vec<(usize, Option<Score>, bool)> = (scope.shards(collection.len()))
        .enumerate()
        .map(|(at, i)| {
            let c = counts.shard(at);
            (i, ceiling(c, preds, &model, options.relax), c.is_some())
        })
        .collect();
    order.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));

    let mut global = GlobalTopK::new(options.k);
    let mut metrics = CollectionMetrics {
        shards_total: order.len(),
        shards_counted: counts.counted.iter().filter(|&&c| c).count(),
        ..CollectionMetrics::default()
    };
    let mut truncated = TruncationFold::default();
    let mut engine_metrics = MetricsSnapshot::default();
    let mut traces = Vec::new();

    let first = scope.shards(collection.len()).start;
    let answer_tag = &pattern.node(pattern.root()).tag;
    for &(shard_idx, ceiling, has_counts) in &order {
        // A shard left unevaluated is certified by its ceiling: whatever
        // it could have held scores no higher.
        let mut skip_unevaluated = || {
            metrics.shards_skipped_budget += 1;
            truncated.expired(1, ceiling.map_or(0.0, |c| c.value()));
        };

        // A shard left out of the model is not evaluated under it.
        // Then budget, before anything touches the shard: once the
        // deadline, the op budget or the cancel token is spent, no
        // further shard is attached.
        if !has_counts || budget.exhausted(&spent) {
            skip_unevaluated();
            continue;
        }

        // Skipped only if the merge would reject every answer the shard
        // can hold, so pruning never changes the answers of a visit
        // order. A shard this run acquired to count was not pruned
        // before attach, even if it has been evicted since.
        if copts.shard_pruning && !ceiling.is_some_and(|c| global.admits(c, shard_idx)) {
            metrics.shards_pruned += 1;
            let shard = &collection.shards()[shard_idx];
            if shard.is_lazy() && !shard.is_resident() && !counts.counted[shard_idx - first] {
                metrics.shards_pruned_before_attach += 1;
            }
            continue;
        }

        // An attach failure (file vanished, corrupted on disk) is
        // accounted like a budget skip.
        let Ok(access) = collection.acquire(shard_idx) else {
            skip_unevaluated();
            continue;
        };
        // So is a payload whose answer population is not the synopsis's
        // (a mapped file rewritten in place): the counts the model holds
        // for it may be another file's.
        if tfidf::answer_population(access.doc(), access.index(), answer_tag)
            != collection.shards()[shard_idx]
                .synopsis()
                .answers(answer_tag)
        {
            skip_unevaluated();
            continue;
        }
        let mut shard_opts = options.clone();
        (shard_opts.deadline, shard_opts.max_server_ops) = budget.remaining(&spent);
        if copts.share_threshold {
            shard_opts.threshold_floor = global.threshold().value();
        }
        let ctx = QueryContext::new_view(
            access.doc(),
            access.index(),
            pattern,
            &model,
            ContextOptions {
                relax: options.relax,
            },
        );
        let mut result = evaluate_with_context(&ctx, algorithm, &shard_opts);
        if let Some(trace) = result.trace.take() {
            traces.push((shard_idx, trace));
        }
        metrics.shards_visited += 1;
        spent
            .server_ops
            .fetch_add(result.metrics.server_ops, Ordering::Relaxed);
        global.merge(shard_idx, &result.answers);
        engine_metrics.absorb(&result.metrics);
        if let Completeness::Truncated {
            pending_matches,
            score_bound,
        } = result.completeness
        {
            truncated.expired(pending_matches, score_bound);
        }
    }

    let answers = global.into_ranked();
    metrics.shards_attached = collection.attach_count() - attached_before;
    metrics.shards_attach_failed = collection.attach_failed_count() - attach_failed_before;
    metrics.shard_evictions = collection.eviction_count() - evictions_before;
    CollectionResult {
        completeness: truncated.finish(&answers),
        answers,
        collection_metrics: metrics,
        metrics: engine_metrics,
        model_build,
        traces,
        elapsed: start.elapsed(),
    }
}

/// Folds per-shard truncation certificates (and budget-skipped shard
/// ceilings) into one collection-level [`Completeness`].
#[derive(Default)]
struct TruncationFold {
    truncated: bool,
    pending: u64,
    bound: f64,
}

impl TruncationFold {
    fn expired(&mut self, pending: u64, bound: f64) {
        self.truncated = true;
        self.pending += pending;
        self.bound = self.bound.max(bound);
    }

    fn finish(self, answers: &[CollectionAnswer]) -> Completeness {
        if !self.truncated {
            return Completeness::Exact;
        }
        let mut bound = self.bound;
        if let Some(best) = answers.first() {
            bound = bound.max(best.score.value());
        }
        Completeness::Truncated {
            pending_matches: self.pending,
            score_bound: bound,
        }
    }
}

/// Are two collection answer lists equivalent as top-k results? The
/// cross-shard analog of
/// [`answers_equivalent`](crate::answers_equivalent): score vectors
/// must agree pairwise within `epsilon`, interior tie groups must hold
/// the same `(shard, root)` sets, and a tie group cut off by the k
/// boundary may resolve to different members.
pub fn collection_answers_equivalent(
    a: &[CollectionAnswer],
    b: &[CollectionAnswer],
    epsilon: f64,
) -> bool {
    crate::topk::tie_equivalent(a, b, epsilon, |r| r.score.value(), |r| (r.shard, r.root))
}

#[cfg(test)]
mod tests {
    use super::*;

    const RICH: &str = "<shelf>\
        <book><title>dune</title><isbn>1</isbn><price>9</price></book>\
        <book><title>atlas</title><isbn>2</isbn><price>7</price></book>\
        <book><title>hyperion</title><isbn>3</isbn></book>\
        </shelf>";
    const MID: &str = "<shelf>\
        <book><title>solaris</title><isbn>4</isbn></book>\
        <book><title>ubik</title></book>\
        </shelf>";
    /// Books without isbn or price: ceiling below any full match.
    const POOR: &str = "<shelf>\
        <book><title>void</title></book>\
        <book><title>blank</title></book>\
        <book><title>empty</title></book>\
        </shelf>";
    /// No books at all: provably answer-free.
    const EMPTY: &str = "<shelf><cd><title>x</title></cd></shelf>";

    const QUERY: &str = "//book[./title and ./isbn and ./price]";

    fn sample() -> Collection {
        let mut c = Collection::new();
        c.add_source("rich", RICH).unwrap();
        c.add_source("mid", MID).unwrap();
        c.add_source("poor", POOR).unwrap();
        c.add_source("empty", EMPTY).unwrap();
        c
    }

    fn q() -> TreePattern {
        whirlpool_pattern::parse_pattern(QUERY).unwrap()
    }

    #[test]
    fn ceiling_drops_absent_servers_and_never_underestimates() {
        let c = sample();
        let pattern = q();
        let model = c.corpus_stats(&pattern).model(Normalization::None);
        let full = c
            .shard_ceiling(0, &pattern, &model, RelaxMode::Relaxed)
            .unwrap();
        let poor = c
            .shard_ceiling(2, &pattern, &model, RelaxMode::Relaxed)
            .unwrap();
        assert!(poor < full, "missing isbn+price must lower the ceiling");
        // No book node anywhere: provably answer-free.
        assert_eq!(
            c.shard_ceiling(3, &pattern, &model, RelaxMode::Relaxed),
            None
        );
        // Exact mode: a missing server tag empties the shard outright.
        assert_eq!(c.shard_ceiling(2, &pattern, &model, RelaxMode::Exact), None);
        // The ceiling dominates every actually-achieved score.
        let result = evaluate_collection(
            &c,
            &pattern,
            &Algorithm::WhirlpoolS,
            &EvalOptions::top_k(10),
            Normalization::None,
            &CollectionOptions::scan_all(),
        );
        for a in &result.answers {
            let ceil = c
                .shard_ceiling(a.shard, &pattern, &model, RelaxMode::Relaxed)
                .expect("answer-bearing shard has a ceiling");
            assert!(a.score <= ceil, "{:?} above ceiling {ceil:?}", a);
        }
    }

    #[test]
    fn uncounted_answers_fall_to_zero_once_a_shape_is_counted() {
        let c = sample();
        let pattern = q();
        // 3 + 2 + 3 books; the shard without books has none to count.
        assert_eq!(c.uncounted_answers(Scope::Corpus, &pattern), 8);
        c.corpus_stats(&pattern);
        assert_eq!(c.uncounted_answers(Scope::Corpus, &pattern), 0);
        // One new predicate makes every shard walk its answers again.
        let wider = whirlpool_pattern::parse_pattern("//book[./title and ./author]").unwrap();
        assert_eq!(c.uncounted_answers(Scope::Shard(0), &wider), 3);
        let bare = whirlpool_pattern::parse_pattern("//book").unwrap();
        assert_eq!(c.uncounted_answers(Scope::Corpus, &bare), 0);
    }

    #[test]
    fn pruned_run_matches_scan_all() {
        let c = sample();
        let pattern = q();
        for algorithm in [
            Algorithm::LockStep,
            Algorithm::WhirlpoolS,
            Algorithm::WhirlpoolM { processors: None },
        ] {
            let naive = evaluate_collection(
                &c,
                &pattern,
                &algorithm,
                &EvalOptions::top_k(3),
                Normalization::Sparse,
                &CollectionOptions::scan_all(),
            );
            let pruned = evaluate_collection(
                &c,
                &pattern,
                &algorithm,
                &EvalOptions::top_k(3),
                Normalization::Sparse,
                &CollectionOptions::default(),
            );
            assert!(
                collection_answers_equivalent(&naive.answers, &pruned.answers, 1e-9),
                "{algorithm:?}: {:?} vs {:?}",
                naive.answers,
                pruned.answers,
            );
            assert_eq!(naive.collection_metrics.shards_visited, 4);
            assert_eq!(naive.collection_metrics.shards_pruned, 0);
            // The answer-free shard is always pruned; with k=3 filled
            // by rich answers the poor shard should fall too.
            assert!(pruned.collection_metrics.shards_pruned >= 1);
            let m = &pruned.collection_metrics;
            assert_eq!(m.shards_visited + m.shards_pruned, m.shards_total, "{m:?}");
            assert!(matches!(naive.completeness, Completeness::Exact));
            assert!(matches!(pruned.completeness, Completeness::Exact));
        }
    }

    /// Shards whose answers can only tie the k-th one lose those ties
    /// to the shard visited first, so they are skipped, and the answers
    /// are the scan's, member for member.
    #[test]
    fn shards_that_can_only_lose_a_tie_are_skipped() {
        let mut c = Collection::new();
        for i in 0..4 {
            c.add_source(format!("copy{i}"), RICH).unwrap();
        }
        let pattern = q();
        let run = |copts: &CollectionOptions| {
            evaluate_collection(
                &c,
                &pattern,
                &Algorithm::WhirlpoolS,
                &EvalOptions::top_k(2),
                Normalization::Sparse,
                copts,
            )
        };
        let naive = run(&CollectionOptions::scan_all());
        let pruned = run(&CollectionOptions::default());
        assert_eq!(pruned.answers, naive.answers);
        assert!(pruned.answers.iter().all(|a| a.shard == 3));
        let m = &pruned.collection_metrics;
        assert_eq!((m.shards_visited, m.shards_pruned), (1, 3), "{m:?}");
        assert!(matches!(pruned.completeness, Completeness::Exact));
    }

    #[test]
    fn a_traced_run_carries_each_visited_shards_trace() {
        let c = sample();
        let pattern = q();
        let run = |trace: bool, scope: Scope| {
            let options = EvalOptions {
                trace,
                ..EvalOptions::top_k(3)
            };
            evaluate_scope(
                &c,
                scope,
                &pattern,
                &Algorithm::WhirlpoolS,
                &options,
                Normalization::Sparse,
                &CollectionOptions::default(),
            )
        };
        let traced = run(true, Scope::Corpus);
        let mut shards: Vec<usize> = traced.traces.iter().map(|(s, _)| *s).collect();
        shards.sort_unstable();
        shards.dedup();
        assert_eq!(shards.len(), traced.collection_metrics.shards_visited);
        assert!(traced.model_build <= traced.elapsed);
        assert!(run(false, Scope::Corpus).traces.is_empty());
        let one = run(true, Scope::Shard(1));
        assert_eq!(one.collection_metrics.shards_total, 1);
        assert_eq!(one.traces.len(), 1);
        assert_eq!(one.traces[0].0, 1);
        assert!(one.answers.iter().all(|a| a.shard == 1));
    }

    #[test]
    fn split_document_covers_the_original() {
        let doc = parse_document(RICH).unwrap();
        let c = Collection::split_document(&doc, 2);
        assert_eq!(c.len(), 2);
        assert_eq!(
            c.shards()
                .iter()
                .map(|s| s.synopsis().tag_count("book"))
                .sum::<u64>(),
            3
        );
        let pattern = q();
        let split_run = evaluate_collection(
            &c,
            &pattern,
            &Algorithm::WhirlpoolS,
            &EvalOptions::top_k(3),
            Normalization::None,
            &CollectionOptions::default(),
        );
        // The unsplit document under its own (per-document == corpus,
        // single doc) model gives the same score vector.
        let mut whole = Collection::new();
        whole.add_document("whole", doc);
        let whole_run = evaluate_collection(
            &whole,
            &pattern,
            &Algorithm::WhirlpoolS,
            &EvalOptions::top_k(3),
            Normalization::None,
            &CollectionOptions::scan_all(),
        );
        let a: Vec<f64> = split_run.answers.iter().map(|r| r.score.value()).collect();
        let b: Vec<f64> = whole_run.answers.iter().map(|r| r.score.value()).collect();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn oversplit_clamps_to_child_count() {
        let doc = parse_document(MID).unwrap();
        let c = Collection::split_document(&doc, 64);
        assert_eq!(c.len(), 2, "one shard per child, no empties");
    }

    #[test]
    fn split_descends_through_single_child_wrappers() {
        // XMark shape: the document element has exactly one child, and
        // the real fanout sits a level below. The split must happen at
        // the fanout point, with every shard re-wrapped in the full
        // <site><regions> chain so tag paths are unchanged.
        let doc = parse_document(
            "<site><regions>\
             <namerica><item><name>a</name></item></namerica>\
             <europe><item><name>b</name></item></europe>\
             <asia><item><name>c</name></item></asia>\
             </regions></site>",
        )
        .unwrap();
        let c = Collection::split_document(&doc, 3);
        assert_eq!(c.len(), 3, "split at the fanout level, not at <site>");
        for shard in c.shards() {
            assert_eq!(shard.synopsis().tag_count("site"), 1);
            assert_eq!(shard.synopsis().tag_count("regions"), 1);
            assert_eq!(shard.synopsis().tag_count("item"), 1);
        }
        let pattern = whirlpool_pattern::parse_pattern("//item[./name]").unwrap();
        let run = evaluate_collection(
            &c,
            &pattern,
            &Algorithm::WhirlpoolS,
            &EvalOptions::top_k(10),
            Normalization::None,
            &CollectionOptions::default(),
        );
        assert_eq!(run.answers.len(), 3, "all items survive the split");
    }

    #[test]
    fn zero_deadline_truncates_and_certifies() {
        let c = sample();
        let pattern = q();
        let mut options = EvalOptions::top_k(3);
        options.deadline = Some(Duration::ZERO);
        let result = evaluate_collection(
            &c,
            &pattern,
            &Algorithm::WhirlpoolS,
            &options,
            Normalization::Sparse,
            &CollectionOptions::scan_all(),
        );
        assert!(result.answers.is_empty());
        assert_eq!(result.collection_metrics.shards_visited, 0);
        assert_eq!(result.collection_metrics.shards_skipped_budget, 4);
        match result.completeness {
            Completeness::Truncated {
                pending_matches,
                score_bound,
            } => {
                assert_eq!(pending_matches, 4);
                assert!(score_bound > 0.0, "skipped ceilings certify the bound");
            }
            c => panic!("expected truncation, got {c:?}"),
        }
    }

    /// `books` books; every third holds a full match, the rest a title.
    fn shelf(books: usize) -> String {
        let mut src = String::from("<shelf>");
        for i in 0..books {
            src.push_str("<book><title>t</title>");
            if i % 3 == 0 {
                src.push_str("<isbn>1</isbn><price>2</price>");
            }
            src.push_str("</book>");
        }
        src.push_str("</shelf>");
        src
    }

    #[test]
    fn op_budget_bounds_the_whole_run_not_each_shard() {
        let mut c = Collection::new();
        for i in 0..4 {
            c.add_source(format!("s{i}"), &shelf(600)).unwrap();
        }
        let pattern = q();
        // k above every shard's 600 roots: nothing is ever pruned, so
        // the corpus needs exactly 4 × 600 × 3 operations.
        let run = |max_server_ops| {
            let mut options = EvalOptions::top_k(2_000);
            options.max_server_ops = max_server_ops;
            evaluate_collection(
                &c,
                &pattern,
                &Algorithm::WhirlpoolS,
                &options,
                Normalization::Sparse,
                &CollectionOptions::scan_all(),
            )
        };
        let full = run(None);
        assert!(matches!(full.completeness, Completeness::Exact));
        assert_eq!(full.collection_metrics.shards_visited, 4);

        // A third of the work: more than any one shard needs (so a
        // per-shard budget of this size would never bind), less than
        // the corpus needs.
        let n = full.metrics.server_ops / 3;
        let allowance = n + crate::INTERRUPT_SPAN as u64;
        assert!(full.metrics.server_ops > allowance, "fixture too small");
        let cut = run(Some(n));
        assert!(
            cut.metrics.server_ops <= allowance,
            "{} ops spent under a corpus budget of {n}",
            cut.metrics.server_ops
        );
        let m = &cut.collection_metrics;
        assert!(m.shards_skipped_budget >= 1, "{m:?}");
        assert_eq!(m.shards_visited + m.shards_skipped_budget, 4, "{m:?}");
        let Completeness::Truncated { score_bound, .. } = cut.completeness else {
            panic!("a spent op budget must truncate: {:?}", cut.completeness)
        };
        for a in &full.answers {
            let returned = cut
                .answers
                .iter()
                .any(|b| (b.shard, b.root) == (a.shard, a.root));
            assert!(
                returned || a.score.value() <= score_bound + 1e-9,
                "missing answer {a:?} scores above the certified bound {score_bound}"
            );
        }
    }

    #[test]
    fn cancelled_run_attaches_nothing() {
        let dir = snapshot_dir(
            "cancel",
            &[("s0", RICH), ("s1", MID), ("s2", POOR), ("s3", MISMATCH)],
        );
        let c = Collection::open_dir(&dir).unwrap();
        let pattern = q();
        let token = crate::CancelToken::new();
        token.cancel();
        let mut options = EvalOptions::top_k(3);
        options.cancel = Some(token);
        let run = evaluate_collection(
            &c,
            &pattern,
            &Algorithm::WhirlpoolS,
            &options,
            Normalization::Sparse,
            &CollectionOptions::default(),
        );
        let m = &run.collection_metrics;
        assert_eq!(m.shards_attached, 0, "a tripped token must not map shards");
        assert_eq!(c.resident_count(), 0);
        assert_eq!(m.shards_skipped_budget, 4, "{m:?}");
        assert!(run.answers.is_empty());
        // Nothing was counted, so the run's model is the empty corpus's,
        // and every shard is certified by its uncounted ceiling.
        assert_eq!(m.shards_counted, 0);
        let model = CorpusStats::new(&pattern).model(Normalization::Sparse);
        let top_ceiling = (0..c.len())
            .filter_map(|i| c.shard_ceiling(i, &pattern, &model, RelaxMode::Relaxed))
            .max()
            .unwrap();
        match run.completeness {
            Completeness::Truncated {
                pending_matches,
                score_bound,
            } => {
                assert_eq!(pending_matches, 4);
                assert_eq!(score_bound, top_ceiling.value());
            }
            c => panic!("expected truncation, got {c:?}"),
        }
    }

    /// All of RICH's tags, none of its arrangement: isbn and price
    /// live under <archive>, never under a <book>. Tag counts cannot
    /// tell this shard from RICH; the idf counts can.
    const MISMATCH: &str = "<shelf>\
        <book><title>husk</title></book>\
        <archive><isbn>8</isbn><price>5</price></archive>\
        </shelf>";

    /// A fresh directory under the system temp dir, removed when the
    /// guard drops: at the end of a test, or as a failing one unwinds.
    struct TempDir(PathBuf);

    impl std::ops::Deref for TempDir {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<Path> for TempDir {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Writes each source as a snapshot `<name>.wps` under a fresh
    /// temp dir.
    fn snapshot_dir(tag: &str, sources: &[(&str, &str)]) -> TempDir {
        let dir =
            TempDir(std::env::temp_dir().join(format!("wp-lazy-{tag}-{}", std::process::id())));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (name, src) in sources {
            let doc = parse_document(src).unwrap();
            let index = TagIndex::build(&doc);
            whirlpool_store::save_snapshot(&doc, &index, dir.join(format!("{name}.wps"))).unwrap();
        }
        dir
    }

    #[test]
    fn count_ceiling_prunes_arrangement_mismatch() {
        let mut c = Collection::new();
        c.add_source("rich", RICH).unwrap();
        c.add_source("mismatch", MISMATCH).unwrap();
        let pattern = q();
        let model = c.corpus_stats(&pattern).model(Normalization::None);
        // No book holds an isbn or a price, even as a descendant: only
        // the title's weight is left.
        let rich = c.shard_ceiling(0, &pattern, &model, RelaxMode::Relaxed);
        let mismatch = c.shard_ceiling(1, &pattern, &model, RelaxMode::Relaxed);
        let title = pattern.server_ids().next().unwrap();
        assert_eq!(mismatch, Some(Score::new(model.max_contribution(title))));
        assert!(mismatch < rich, "{mismatch:?} vs {rich:?}");
        // Exact mode: no book ever has an isbn child — provably empty.
        assert_eq!(c.shard_ceiling(1, &pattern, &model, RelaxMode::Exact), None);
        // And it still dominates every achieved score.
        let run = evaluate_collection(
            &c,
            &pattern,
            &Algorithm::WhirlpoolS,
            &EvalOptions::top_k(10),
            Normalization::None,
            &CollectionOptions::scan_all(),
        );
        for a in &run.answers {
            let ceil = c
                .shard_ceiling(a.shard, &pattern, &model, RelaxMode::Relaxed)
                .expect("answer-bearing shard has a ceiling");
            assert!(a.score <= ceil, "{a:?} above ceiling {ceil:?}");
        }
    }

    /// Where a predicate's tag sits below the answer but never at the
    /// exact depth, the shard's ceiling takes the relaxed weight.
    #[test]
    fn a_shard_without_an_exact_witness_adds_the_relaxed_weight() {
        let mut c = Collection::new();
        c.add_source("rich", RICH).unwrap();
        c.add_source(
            "deep",
            "<shelf><book><info><title>t</title></info></book></shelf>",
        )
        .unwrap();
        let pattern = whirlpool_pattern::parse_pattern("//book[./title]").unwrap();
        let model = c.corpus_stats(&pattern).model(Normalization::None);
        let title = pattern.server_ids().next().unwrap();
        let [exact, relaxed] = model.weights(title);
        assert!(relaxed < exact, "{exact} vs {relaxed}");
        let ceiling = |i, relax| c.shard_ceiling(i, &pattern, &model, relax);
        assert_eq!(ceiling(0, RelaxMode::Relaxed), Some(Score::new(exact)));
        assert_eq!(ceiling(1, RelaxMode::Relaxed), Some(Score::new(relaxed)));
        assert_eq!(ceiling(1, RelaxMode::Exact), None);
    }

    #[test]
    fn lazy_open_dir_prunes_before_attach_and_matches_eager() {
        let dir = snapshot_dir(
            "prune",
            &[
                ("a-rich", RICH),
                ("b-mid", MID),
                ("c-mismatch0", MISMATCH),
                ("d-mismatch1", MISMATCH),
                ("e-mismatch2", MISMATCH),
            ],
        );
        let c = Collection::open_dir(&dir).unwrap();
        assert_eq!(c.len(), 5);
        assert_eq!(c.resident_count(), 0, "open_dir attaches nothing");
        assert!(c.shards().iter().all(Shard::is_lazy));

        let pattern = q();
        c.set_max_resident(1);
        let run = || {
            evaluate_collection(
                &c,
                &pattern,
                &Algorithm::WhirlpoolS,
                &EvalOptions::top_k(2),
                Normalization::Sparse,
                &CollectionOptions::default(),
            )
        };
        // The shape's first query attaches each shard once to count it.
        let first = run();
        assert_eq!(first.collection_metrics.shards_counted, 5);
        // A repeat reads the counts from the memo.
        let pruned = run();
        let m = &pruned.collection_metrics;
        assert_eq!(m.shards_counted, 0, "{m:?}");
        assert!(
            m.shards_pruned_before_attach >= 3,
            "mismatch shards must fall to their ceilings without touching disk: {m:?}"
        );
        assert!(m.shards_attached as usize <= m.shards_visited, "{m:?}");
        assert_eq!(m.shards_visited + m.shards_pruned, m.shards_total, "{m:?}");
        assert_eq!(pruned.answers, first.answers);

        // The same collection scanned exhaustively (same model: the
        // same counts) agrees.
        let eager = evaluate_collection(
            &c,
            &pattern,
            &Algorithm::WhirlpoolS,
            &EvalOptions::top_k(2),
            Normalization::Sparse,
            &CollectionOptions::scan_all(),
        );
        assert_eq!(eager.collection_metrics.shards_visited, 5);
        assert!(
            collection_answers_equivalent(&pruned.answers, &eager.answers, 1e-9),
            "{:?} vs {:?}",
            pruned.answers,
            eager.answers
        );
    }

    /// A shape's first query attaches every shard with answers to count
    /// it, so the only shards it prunes before attach are the ones
    /// without answers; a repeat reads the memo and prunes the rest
    /// unread too.
    #[test]
    fn a_shard_attached_to_count_is_not_pruned_before_attach() {
        let dir = snapshot_dir(
            "counted-prune",
            &[
                ("a-rich", RICH),
                ("b-poor", POOR),
                ("c-mismatch0", MISMATCH),
                ("d-mismatch1", MISMATCH),
                ("e-empty", EMPTY),
            ],
        );
        let c = Collection::open_dir(&dir).unwrap();
        c.set_max_resident(1);
        let pattern = q();
        let run = || {
            let run = evaluate_collection(
                &c,
                &pattern,
                &Algorithm::WhirlpoolS,
                &EvalOptions::top_k(1),
                Normalization::Sparse,
                &CollectionOptions::default(),
            );
            run.collection_metrics
        };
        let first = run();
        assert_eq!(first.shards_counted, 4, "{first:?}");
        assert_eq!(first.shards_pruned, 4, "{first:?}");
        assert_eq!(
            first.shards_pruned_before_attach, 1,
            "only the answer-free shard was never attached: {first:?}"
        );
        let repeat = run();
        assert_eq!(repeat.shards_counted, 0, "{repeat:?}");
        assert_eq!(repeat.shards_pruned, 4, "{repeat:?}");
        assert_eq!(
            (repeat.shards_visited, repeat.shards_attached),
            (1, 0),
            "the first query left the rich shard resident: {repeat:?}"
        );
        assert_eq!(repeat.shards_pruned_before_attach, 4, "{repeat:?}");
    }

    /// A document scope prunes and certifies by the ceiling a corpus
    /// scope uses.
    #[test]
    fn a_document_scope_still_prunes_and_certifies_by_its_ceiling() {
        let pattern = q();
        let run = |c: &Collection, idx, relax, deadline| {
            let mut options = EvalOptions::top_k(3);
            (options.relax, options.deadline) = (relax, deadline);
            let (algorithm, copts) = (Algorithm::WhirlpoolS, CollectionOptions::default());
            let scope = Scope::Shard(idx);
            evaluate_scope(
                c,
                scope,
                &pattern,
                &algorithm,
                &options,
                Normalization::Sparse,
                &copts,
            )
        };
        // No book, or in exact mode no isbn: pruned, an exact and empty
        // reply.
        let c = sample();
        for (idx, relax) in [
            (3, RelaxMode::Relaxed),
            (3, RelaxMode::Exact),
            (2, RelaxMode::Exact),
        ] {
            let result = run(&c, idx, relax, None);
            assert!(result.answers.is_empty());
            assert_eq!(result.completeness, Completeness::Exact);
            assert_eq!(result.collection_metrics.shards_pruned, 1);
        }
        // Shard 0 left unevaluated, out of budget or because its file
        // was replaced after the peek (then it is not counted either),
        // is certified by its ceiling.
        let dir = snapshot_dir("scope-ceiling", &[("s0", RICH)]);
        let replaced = Collection::open_dir(&dir).unwrap();
        let doc = parse_document(MID).unwrap();
        whirlpool_store::save_snapshot(&doc, &TagIndex::build(&doc), dir.join("s0.wps")).unwrap();
        for (c, deadline) in [(&c, Some(Duration::ZERO)), (&replaced, None)] {
            let result = run(c, 0, RelaxMode::Relaxed, deadline);
            let model = c.scope_stats(Scope::Shard(0), &pattern);
            let model = model.model(Normalization::Sparse);
            let ceiling = c.shard_ceiling(0, &pattern, &model, RelaxMode::Relaxed);
            let score_bound = ceiling.unwrap().value();
            let certified = Completeness::Truncated {
                pending_matches: 1,
                score_bound,
            };
            assert_eq!(result.completeness, certified);
        }
    }

    #[test]
    fn a_shard_file_replaced_after_its_peek_is_refused_and_certified() {
        let dir = snapshot_dir("replaced", &[("s0", RICH), ("s1", MID), ("s2", RICH)]);
        let save = |src: &str| {
            let doc = parse_document(src).unwrap();
            let index = TagIndex::build(&doc);
            whirlpool_store::save_snapshot(&doc, &index, dir.join("s0.wps")).unwrap();
        };
        let pattern = q();
        let run = |c: &Collection| {
            evaluate_collection(
                c,
                &pattern,
                &Algorithm::WhirlpoolS,
                &EvalOptions::top_k(3),
                Normalization::Sparse,
                &CollectionOptions::default(),
            )
        };

        // Another document is saved over s0 (tmp + rename) after its
        // synopses were peeked: the visit refuses it, and the reply is
        // certified by s0's ceiling instead of ranked on a stale one.
        let c = Collection::open_dir(&dir).unwrap();
        c.set_max_resident(1);
        save(MID);
        let stale = run(&c);
        let m = &stale.collection_metrics;
        assert_eq!(m.shards_skipped_budget, 1, "{m:?}");
        let model = c.corpus_stats(&pattern).model(Normalization::Sparse);
        let s0_ceiling = c
            .shard_ceiling(0, &pattern, &model, RelaxMode::Relaxed)
            .unwrap();
        match stale.completeness {
            Completeness::Truncated { score_bound, .. } => {
                assert!(score_bound >= s0_ceiling.value(), "{score_bound}");
            }
            Completeness::Exact => panic!("a stale shard must not be answered as exact"),
        }
        assert!(matches!(c.acquire(0), Err(StoreError::Stale { .. })));
        assert!(!c.shards()[0].is_resident());

        // The same document saved again is the same file: exact, and
        // the answers of a collection that never saw the swap.
        save(RICH);
        let again = run(&c);
        assert!(matches!(again.completeness, Completeness::Exact));
        let control = run(&Collection::open_dir(&dir).unwrap());
        assert!(collection_answers_equivalent(
            &again.answers,
            &control.answers,
            1e-9
        ));
    }

    /// Two shards, s0 and s1, after one exact run, with s0 evicted.
    fn evicted_pair(tag: &str) -> (TempDir, Collection) {
        let dir = snapshot_dir(tag, &[("s0", RICH), ("s1", MID)]);
        let c = Collection::open_dir(&dir).unwrap();
        c.set_max_resident(1);
        let first = lazy_run(&c);
        assert!(matches!(first.completeness, Completeness::Exact));
        drop(c.acquire(1).unwrap());
        assert!(!c.shards()[0].is_resident());
        (dir, c)
    }

    fn lazy_run(c: &Collection) -> CollectionResult {
        evaluate_collection(
            c,
            &q(),
            &Algorithm::WhirlpoolS,
            &EvalOptions::top_k(3),
            Normalization::Sparse,
            &CollectionOptions::default(),
        )
    }

    /// Asserts that `run` left s0 unevaluated and certified the reply
    /// by s0's ceiling.
    fn assert_certified_without_s0(c: &Collection, run: &CollectionResult) {
        let m = &run.collection_metrics;
        assert_eq!((m.shards_visited, m.shards_skipped_budget), (1, 1), "{m:?}");
        assert!(
            run.answers.iter().all(|a| a.shard == 1),
            "{:?}",
            run.answers
        );
        let model = c.corpus_stats(&q()).model(Normalization::Sparse);
        let s0_ceiling = c
            .shard_ceiling(0, &q(), &model, RelaxMode::Relaxed)
            .unwrap();
        match run.completeness {
            Completeness::Truncated { score_bound, .. } => {
                assert!(score_bound >= s0_ceiling.value(), "{score_bound}");
            }
            Completeness::Exact => panic!("a changed file must not be answered as exact"),
        }
    }

    #[test]
    fn a_same_size_forgery_written_in_place_is_refused_and_certified() {
        use std::io::Write;
        let (dir, c) = evicted_pair("forged-in-place");
        let s0 = dir.join("s0.wps");
        // Another valid snapshot of exactly the same size, written over
        // s0's bytes in place: same path, same inode, no rename.
        let doc = parse_document(&RICH.replace("dune", "dusk")).unwrap();
        let forged = whirlpool_store::build_snapshot_bytes(&doc, &TagIndex::build(&doc));
        let original = std::fs::read(&s0).unwrap();
        assert_eq!(forged.len(), original.len());
        assert_ne!(forged, original);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&s0)
            .unwrap()
            .write_all(&forged)
            .unwrap();

        let run = lazy_run(&c);
        assert_certified_without_s0(&c, &run);
        assert_eq!(run.collection_metrics.shards_attach_failed, 1);
        assert!(matches!(c.acquire(0), Err(StoreError::Stale { .. })));
        assert_eq!(
            c.attach_failed_count(),
            2,
            "a refused file is a failed attach"
        );
        assert!(!c.shards()[0].is_resident());
    }

    /// Flips one bit of the middle byte of the file at `path` in place:
    /// same path, inode and size, no rename.
    fn flip_a_byte_in_place(path: &Path) {
        use std::io::{Seek, SeekFrom, Write};
        let bytes = std::fs::read(path).unwrap();
        let at = bytes.len() / 2;
        let mut file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        file.seek(SeekFrom::Start(at as u64)).unwrap();
        file.write_all(&[bytes[at] ^ 0x10]).unwrap();
    }

    #[test]
    fn a_bit_flipped_in_place_fails_attach_and_is_never_evaluated() {
        let (dir, c) = evicted_pair("flipped-in-place");
        flip_a_byte_in_place(&dir.join("s0.wps"));

        assert_eq!(c.attach_failed_count(), 0);

        let run = lazy_run(&c);
        assert_certified_without_s0(&c, &run);
        assert_eq!(run.collection_metrics.shards_attach_failed, 1);
        assert!(matches!(c.acquire(0), Err(StoreError::Corrupt(_))));
        assert_eq!(c.attach_failed_count(), 2, "every failed attach is counted");
        assert!(!c.shards()[0].is_resident());
    }

    /// The file of an evicted shard is changed in place, with no pause
    /// after its last attach: the next visit attaches it again, checks
    /// it and fails, the reply is certified by a bound that covers the
    /// answers the shard held, and a rebuilt file answers as before.
    #[test]
    fn a_byte_flipped_in_an_evicted_file_truncates_until_it_is_rebuilt() {
        let (dir, c) = evicted_pair("flip-rebuild");
        let clean = lazy_run(&c);
        assert!(matches!(clean.completeness, Completeness::Exact));
        let s0_best = (clean.answers.iter())
            .filter(|a| a.shard == 0)
            .map(|a| a.score.value())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(s0_best.is_finite(), "{:?}", clean.answers);
        drop(c.acquire(1).unwrap());
        assert!(!c.shards()[0].is_resident());

        let s0 = dir.join("s0.wps");
        flip_a_byte_in_place(&s0);
        let tampered = lazy_run(&c);
        assert_eq!(tampered.collection_metrics.shards_attach_failed, 1);
        assert!(!c.shards()[0].is_resident());
        assert!(tampered.answers.iter().all(|a| a.shard == 1));
        match tampered.completeness {
            Completeness::Truncated { score_bound, .. } => {
                assert!(score_bound >= s0_best, "{score_bound} < {s0_best}");
            }
            Completeness::Exact => panic!("a flipped file must not be answered as exact"),
        }

        let doc = parse_document(RICH).unwrap();
        whirlpool_store::save_snapshot(&doc, &TagIndex::build(&doc), &s0).unwrap();
        let rebuilt = lazy_run(&c);
        assert_eq!(rebuilt.collection_metrics.shards_attach_failed, 0);
        assert!(matches!(rebuilt.completeness, Completeness::Exact));
        assert_eq!(rebuilt.answers, clean.answers);
    }

    #[test]
    fn max_resident_caps_attachments_and_evicts_lru() {
        let dir = snapshot_dir(
            "evict",
            &[("s0", RICH), ("s1", MID), ("s2", RICH), ("s3", MID)],
        );
        let c = Collection::open_dir(&dir).unwrap();
        c.set_max_resident(1);
        let pattern = q();
        let scan = || {
            evaluate_collection(
                &c,
                &pattern,
                &Algorithm::WhirlpoolS,
                &EvalOptions::top_k(3),
                Normalization::Sparse,
                &CollectionOptions::scan_all(),
            )
        };
        // The shape's first query attaches each shard to count it, then
        // again to visit it.
        let first = scan();
        let m = &first.collection_metrics;
        assert_eq!((m.shards_counted, m.shards_attached), (4, 8), "{m:?}");
        // A repeat only visits.
        let run = scan();
        assert_eq!(run.collection_metrics.shards_visited, 4);
        assert_eq!(run.collection_metrics.shards_attached, 4);
        assert!(
            run.collection_metrics.shard_evictions >= 3,
            "visiting 4 shards under max_resident=1 must evict: {:?}",
            run.collection_metrics
        );
        assert!(c.resident_count() <= 1);

        // Re-running re-attaches evicted shards and still answers.
        assert!(collection_answers_equivalent(
            &first.answers,
            &run.answers,
            1e-9
        ));
    }

    #[test]
    fn visit_answers_pins_each_answering_shard_once() {
        let dir = snapshot_dir("visit", &[("s0", RICH), ("s1", RICH)]);
        let c = Collection::open_dir(&dir).unwrap();
        c.set_max_resident(1);
        let mut run = evaluate_collection(
            &c,
            &q(),
            &Algorithm::WhirlpoolS,
            &EvalOptions::top_k(6),
            Normalization::Sparse,
            &CollectionOptions::scan_all(),
        );
        // Alternate the two shards' answers in rank order: the worst
        // case for a per-answer acquire under a one-shard cap.
        run.answers.sort_by_key(|a| (a.root, a.shard));
        let shards: Vec<usize> = run.answers.iter().map(|a| a.shard).collect();
        assert_eq!(shards, [0, 1, 0, 1, 0, 1]);

        let before = c.attach_count();
        let mut titles = vec![String::new(); run.answers.len()];
        c.visit_answers(&run, |rank, a, doc| {
            assert_eq!(run.answers[rank], *a);
            // Pre-order ids: a book's first child is its title.
            let title = NodeId::from_index(a.root.index() + 1);
            titles[rank] = doc.text(title).unwrap().to_string();
        });
        assert_eq!(
            titles,
            ["dune", "dune", "atlas", "atlas", "hyperion", "hyperion"]
        );
        assert!(
            c.attach_count() - before <= 2,
            "two answering shards, {} attaches",
            c.attach_count() - before
        );
    }

    /// Four threads querying one lazy collection at once, as the
    /// daemon's workers do: they race to count each shard into its memo
    /// on the first query, and to attach and evict under the residency
    /// cap on both. Every run answers as one thread alone does.
    #[test]
    fn lazy_multi_worker_whirlpool_m_matches_single() {
        let dir = snapshot_dir(
            "multiworker",
            &[
                ("s0", RICH),
                ("s1", MID),
                ("s2", RICH),
                ("s3", MID),
                ("s4", POOR),
                ("s5", MISMATCH),
            ],
        );
        let pattern = q();
        let run = |c: &Collection| {
            let result = evaluate_collection(
                c,
                &pattern,
                &Algorithm::WhirlpoolM { processors: None },
                &EvalOptions::top_k(4),
                Normalization::Sparse,
                &CollectionOptions::default(),
            );
            assert_eq!(result.completeness, Completeness::Exact);
            result.answers
        };
        let single = run(&Collection::open_dir(&dir).unwrap());
        for max_resident in [1, 4, 0] {
            let c = Collection::open_dir(&dir).unwrap();
            c.set_max_resident(max_resident);
            let barrier = std::sync::Barrier::new(4);
            let runs: Vec<Vec<Vec<CollectionAnswer>>> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..4)
                    .map(|_| {
                        let (c, barrier, run) = (&c, &barrier, &run);
                        scope.spawn(move || {
                            barrier.wait();
                            vec![run(c), run(c)]
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            for (t, answers) in runs.iter().enumerate() {
                for (i, got) in answers.iter().enumerate() {
                    assert_eq!(
                        *got, single,
                        "max_resident={max_resident}, thread {t}, query {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn add_snapshot_is_evictable() {
        let dir = snapshot_dir("addsnap", &[("only", RICH)]);
        let mut c = Collection::new();
        c.add_snapshot("only", dir.join("only.wps")).unwrap();
        assert!(c.shards()[0].is_lazy(), "an attached snapshot is lazy");
        assert!(c.shards()[0].is_resident(), "and starts resident");
        assert_eq!(c.resident_count(), 1);
        // Evictable: attach another shard under a cap of 1.
        std::fs::copy(dir.join("only.wps"), dir.join("other.wps")).unwrap();
        c.attach_snapshot_file(dir.join("other.wps")).unwrap();
        c.set_max_resident(1);
        // A pinned shard is not a victim: the cap is a target.
        let pin = c.acquire(0).unwrap();
        let access = c.acquire(1).unwrap();
        assert!(c.shards()[0].is_resident(), "pinned shards stay mapped");
        assert_eq!(c.eviction_count(), 0);
        drop((pin, access));
        let access = c.acquire(1).unwrap();
        drop(access);
        assert!(!c.shards()[0].is_resident(), "LRU shard 0 was evicted");
        assert_eq!(c.eviction_count(), 1);
        // And comes back on demand.
        let access = c.acquire(0).unwrap();
        assert_eq!(
            access.doc().len(),
            c.shards()[0].synopsis().elements() as usize + 1
        );
    }

    #[test]
    fn equivalence_is_shard_aware() {
        let a = vec![
            CollectionAnswer {
                shard: 0,
                root: NodeId::from_index(1),
                score: Score::new(2.0),
            },
            CollectionAnswer {
                shard: 1,
                root: NodeId::from_index(1),
                score: Score::new(1.0),
            },
        ];
        // Same node ids, different shard assignment in the interior:
        // not equivalent.
        let mut b = a.clone();
        b[0].shard = 1;
        b[1].shard = 0;
        assert!(!collection_answers_equivalent(&a, &b, 1e-9));
        assert!(collection_answers_equivalent(&a, &a.clone(), 1e-9));
        // Tail tie may swap members.
        let mut c = a.clone();
        c[1] = CollectionAnswer {
            shard: 3,
            root: NodeId::from_index(9),
            score: Score::new(1.0),
        };
        assert!(collection_answers_equivalent(&a, &c, 1e-9));
    }
}
