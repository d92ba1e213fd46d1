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
//!   *ceiling* — an upper bound derived from the per-shard
//!   [`ShardSynopsis`] — is compared against the global threshold. A
//!   shard whose ceiling cannot beat the current k-th answer is
//!   skipped without touching its postings. The ceiling never
//!   under-estimates (see [`Collection::shard_ceiling`]), so pruning
//!   never drops a true top-k answer.
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
//! a path plus the synopses read by the cheap [`Snapshot::peek`]
//! (header and synopsis sections only — no payload mapping, no
//! whole-file checksum pass). Ceilings, visit order, and the corpus
//! score model all come from the peeked synopses, so a shard whose
//! ceiling cannot beat the global threshold is **pruned before it is
//! ever attached**. Shards the driver does visit are attached on first
//! access and detached again behind an LRU holding at most
//! [`Collection::set_max_resident`] lazy shards (`0` = unlimited), so
//! the resident set stays bounded no matter how large the corpus is.
//! A shard pinned by an in-progress evaluation is never evicted —
//! `max_resident` is a target, not a hard cap.
//!
//! A lazy shard remembers the whole-file checksum of the file its
//! synopses came from, and an attach must verify the same one: a file
//! replaced since (another document saved over it) is refused with
//! [`StoreError::Stale`], so its payload is never evaluated under
//! ceilings computed from someone else's synopses.
//! [`evaluate_collection`] accounts the refusal like any failed attach:
//! the shard is left unevaluated and certified by its ceiling.
//!
//! A lazy shard also keeps the record of the last full verification of
//! its file ([`Verification`]): the file's identity (device, inode,
//! size, `mtime`, `ctime`), the checksum, and when verifying started.
//! A re-attach `fstat`s the opened file, and if a trusted record
//! vouches for that identity, it maps the file and runs only the
//! checks the mapped views' memory safety needs, skipping the
//! whole-file checksum, the node walk and the synopsis check. A file
//! is verified in full on its first visit, after any change to its
//! identity (a rename over it, a write in place), and on every visit
//! while its `ctime` is within [`TRUST_MARGIN`](whirlpool_store::TRUST_MARGIN)
//! of the verification (git's racy-clean rule). So an unchanged file is
//! hashed once, however often it is evicted and re-attached;
//! [`Collection::verify_count`] and [`CollectionMetrics::shards_verified`]
//! count the full verifications.

use crate::context::{ContextOptions, QueryContext, RelaxMode};
use crate::engine::{evaluate_with_context, Algorithm, EvalOptions};
use crate::error::Completeness;
use crate::fault::Budget;
use crate::metrics::{Metrics, MetricsSnapshot};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use whirlpool_index::{DocView, PathAxis, PathSynopsis, ShardSynopsis, TagIndex, TagIndexView};
use whirlpool_pattern::{Axis, QNodeId, TreePattern, WILDCARD};
use whirlpool_score::{CorpusStats, Normalization, Score, TfIdfModel};
use whirlpool_store::{Snapshot, SnapshotFile, StoreError, Verification};
use whirlpool_xml::{parse_document, write_node, Document, NodeId, ParseError, WriteOptions};

/// A lazy shard: a snapshot file known only by its path and peeked
/// synopses until something actually evaluates it.
struct LazyShard {
    path: PathBuf,
    /// The whole-file checksum of the file the shard's synopses came
    /// from. [`Collection::acquire`] refuses a re-attached file whose
    /// verified checksum differs: its synopses would be someone else's.
    checksum: u64,
    /// The attached snapshot, when resident. `Arc` so an in-progress
    /// evaluation pins the mapping across a concurrent eviction.
    resident: Mutex<Option<Arc<Snapshot>>>,
    /// The last full verification of a file this shard accepted. A
    /// re-attach of a file it vouches for skips the checksum, the node
    /// walk and the synopsis check ([`SnapshotFile::attach`]). Locked
    /// only while `resident` is held.
    verified: Mutex<Option<Verification>>,
    /// Whether this shard entered the collection through a peek
    /// ([`Collection::attach_snapshot_file`]) rather than with its
    /// payload in hand ([`Collection::add_snapshot`]). Immutable after
    /// construction; decides the corpus-stats source (see
    /// [`Collection::corpus_stats`]) independently of residency.
    peeked: bool,
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
/// synopses, built at load time (parsed backing), or a snapshot file
/// attached at load or peeked and attached only when visited (lazy
/// backing).
pub struct Shard {
    name: String,
    backing: ShardBacking,
    synopsis: ShardSynopsis,
    paths: PathSynopsis,
}

impl Shard {
    /// A shard over a parsed document and the index built from it;
    /// builds the synopsis and path synopsis.
    pub fn parsed(name: impl Into<String>, doc: Document, index: TagIndex) -> Shard {
        let synopsis = ShardSynopsis::build(&doc);
        let paths = PathSynopsis::build(&doc);
        Shard {
            name: name.into(),
            backing: ShardBacking::Parsed { doc, index },
            synopsis,
            paths,
        }
    }

    /// A *lazy* shard over the snapshot file at `path`, attached now:
    /// no parse or index build happens, the snapshot's flat arrays
    /// serve queries directly and its stored synopses drive shard
    /// pruning. The attachment starts resident, so the residency
    /// manager can evict it under [`Collection::set_max_resident`]
    /// pressure and re-attach it from disk when next visited.
    pub fn attached(name: impl Into<String>, path: impl AsRef<Path>) -> Result<Shard, StoreError> {
        let snapshot = Snapshot::attach(&path)?;
        let (synopsis, paths) = snapshot.synopses();
        Ok(Shard {
            name: name.into(),
            synopsis,
            paths,
            backing: ShardBacking::Lazy(LazyShard {
                path: path.as_ref().to_path_buf(),
                checksum: snapshot.checksum(),
                verified: Mutex::new(snapshot.verification()),
                resident: Mutex::new(Some(Arc::new(snapshot))),
                peeked: false,
            }),
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
                verified: Mutex::new(None),
                peeked: true,
            }),
            synopsis: peek.synopsis,
            paths: peek.paths,
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

    /// Did this shard enter the collection through a peek — header and
    /// synopses only, payload never seen — rather than with its
    /// payload in hand? Fixed at insertion, so the corpus-stats source
    /// it selects ([`Collection::corpus_stats`]) cannot drift with
    /// residency.
    pub fn admitted_by_peek(&self) -> bool {
        matches!(&self.backing, ShardBacking::Lazy(l) if l.peeked)
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

    /// The shard's pruning synopsis.
    pub fn synopsis(&self) -> &ShardSynopsis {
        &self.synopsis
    }

    /// The shard's path synopsis: stored in its snapshot, or built at
    /// parse time. Drives the path-aware ceiling refinement in
    /// [`shard_ceiling_with_paths`].
    pub fn path_synopsis(&self) -> &PathSynopsis {
        &self.paths
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
/// first) plus cumulative attach/verification/eviction counters.
/// Counters are collection-lifetime, not per-run; the driver reports
/// per-run deltas.
#[derive(Default)]
struct Residency {
    /// Target cap on resident lazy shards; `0` = unlimited.
    max_resident: AtomicUsize,
    /// Resident lazy shard indices, least recently used first.
    mru: Mutex<Vec<usize>>,
    attached: AtomicU64,
    verified: AtomicU64,
    evictions: AtomicU64,
}

/// A multi-document corpus queried as one unit.
#[derive(Default)]
pub struct Collection {
    shards: Vec<Shard>,
    residency: Residency,
}

impl Collection {
    /// An empty collection.
    pub fn new() -> Self {
        Collection::default()
    }

    /// Adds an already-built shard. A lazy shard that arrives with its
    /// snapshot attached ([`Shard::attached`]) enters the residency
    /// list as most recently used and counts as one attach and one
    /// full verification.
    pub fn push(&mut self, shard: Shard) {
        if shard.is_lazy() && shard.is_resident() {
            self.residency.mru.lock().push(self.shards.len());
            self.residency.attached.fetch_add(1, Ordering::Relaxed);
            self.residency.verified.fetch_add(1, Ordering::Relaxed);
        }
        self.shards.push(shard);
    }

    /// Adds a parsed document as one shard, building its index,
    /// synopsis, and path synopsis.
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

    /// The current lazy-resident cap (`0` = unlimited).
    pub fn max_resident(&self) -> usize {
        self.residency.max_resident.load(Ordering::Relaxed)
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

    /// Cumulative full verifications of lazy-shard files over this
    /// collection's lifetime: attaches that checksummed and walked the
    /// file instead of trusting an earlier verification of the same
    /// file identity, failed ones included.
    pub fn verify_count(&self) -> u64 {
        self.residency.verified.load(Ordering::Relaxed)
    }

    /// Cumulative lazy-shard evictions over this collection's lifetime.
    pub fn eviction_count(&self) -> u64 {
        self.residency.evictions.load(Ordering::Relaxed)
    }

    /// Pins shard `idx` and returns a view handle over its data,
    /// attaching a lazy shard from disk if it is not resident. The
    /// handle keeps the shard safe from eviction until dropped.
    ///
    /// A re-attached file must be the one the shard's synopses came
    /// from: a file replaced since (another document saved over it)
    /// fails with [`StoreError::Stale`] and stays detached, so no
    /// caller evaluates a payload against a ceiling that was not
    /// computed from it. A file whose identity the shard's last full
    /// verification vouches for is the file verified, so its re-attach
    /// skips the expensive checks; any other file is verified in full.
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
                    let file = SnapshotFile::open(&lazy.path)?;
                    let mut verified = lazy.verified.lock();
                    let trusted = verified.filter(|r| r.vouches_for(&file));
                    if trusted.is_none() {
                        self.residency.verified.fetch_add(1, Ordering::Relaxed);
                    }
                    let snapshot = file.attach(trusted.as_ref())?;
                    if snapshot.checksum() != lazy.checksum {
                        return Err(StoreError::Stale {
                            expected: lazy.checksum,
                            found: snapshot.checksum(),
                        });
                    }
                    if let Some(record) = snapshot.verification() {
                        *verified = Some(record);
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
                src.push_str(&write_node(doc, child, &opts));
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
    /// [`CorpusStats`]). Callers derive the corpus score model from the
    /// result; [`evaluate_collection`] does this internally.
    ///
    /// When *any* shard was [admitted by peek](Shard::admitted_by_peek)
    /// — its payload never read — **every** shard contributes
    /// synopsis-derived estimates ([`CorpusStats::add_shard_synopsis`])
    /// instead of exact postings walks: attaching each shard just to
    /// count document frequencies would defeat lazy opening, and mixing
    /// exact with estimated counts would skew the model toward whichever
    /// shards happened to arrive with payloads. Collections whose every
    /// shard was inserted *with* its payload ([`Self::add_document`],
    /// [`Self::add_snapshot`]) keep exact counts — re-acquiring an
    /// evicted [`Self::add_snapshot`] shard if needed — so their scores
    /// match the equivalent all-parsed collection exactly. The choice is
    /// keyed on how shards were inserted, which never changes, not on
    /// what is resident, which does; the same collection always scores
    /// under the same model.
    pub fn corpus_stats(&self, pattern: &TreePattern) -> CorpusStats {
        let answer_tag = &pattern.node(pattern.root()).tag;
        let mut stats = CorpusStats::new(pattern);
        if self.shards.iter().any(Shard::admitted_by_peek) {
            for shard in &self.shards {
                stats.add_shard_synopsis(&shard.synopsis, answer_tag);
            }
        } else {
            for (idx, shard) in self.shards.iter().enumerate() {
                match self.acquire(idx) {
                    Ok(access) => {
                        stats.add_shard_view(access.doc(), access.index(), answer_tag);
                    }
                    // Unreachable short of the shard's backing file
                    // vanishing between eviction and this re-acquire;
                    // the synopsis estimate keeps stats total rather
                    // than failing the whole corpus for one shard.
                    Err(_) => stats.add_shard_synopsis(&shard.synopsis, answer_tag),
                }
            }
        }
        stats
    }

    /// The score ceiling of shard `shard_idx` for `pattern` under
    /// `model` — see [`shard_ceiling_with_paths`], which this delegates
    /// to with the shard's own synopses.
    pub fn shard_ceiling(
        &self,
        shard_idx: usize,
        pattern: &TreePattern,
        model: &TfIdfModel,
        relax: RelaxMode,
    ) -> Option<Score> {
        self.ceiling_of(shard_idx, &CeilingQuery::new(pattern), model, relax)
    }

    /// [`shard_ceiling`](Self::shard_ceiling) over a query resolved
    /// once for every shard.
    fn ceiling_of(
        &self,
        shard_idx: usize,
        query: &CeilingQuery<'_>,
        model: &TfIdfModel,
        relax: RelaxMode,
    ) -> Option<Score> {
        let shard = &self.shards[shard_idx];
        let definitive = Some(&shard.paths).filter(|p| p.is_definitive());
        query.ceiling(&shard.synopsis, definitive, model, relax)
    }
}

/// The score *ceiling* of a shard summarized by `synopsis`, for
/// `pattern` under `model`: an upper bound on what any answer rooted in
/// the shard can score. `None` means the shard provably holds no answer
/// at all (its ceiling is −∞, so it can always be skipped).
///
/// The bound mirrors the engines' initial `max_final`
/// (root maximum plus the sum of per-server maxima) with one
/// synopsis-driven improvement: a server whose tag has **zero**
/// elements in the shard can only ever bind the outer-join null,
/// contributing zero, so its maximum drops out of the sum.
/// Wildcard servers always count. This never under-estimates —
/// every term kept is a true per-server upper bound and every term
/// dropped is exactly zero in this shard — which is the invariant
/// shard pruning relies on.
///
/// In exact mode a server with an absent tag cannot bind anything
/// (inner-join semantics), so *any* absent server tag — not just
/// the answer tag — empties the shard.
///
/// This is the tag-count bound alone — [`shard_ceiling_with_paths`]
/// without its path tests — which the path-aware ceiling the driver
/// uses must never exceed.
pub fn shard_ceiling(
    synopsis: &ShardSynopsis,
    pattern: &TreePattern,
    model: &TfIdfModel,
    relax: RelaxMode,
) -> Option<Score> {
    CeilingQuery::new(pattern).ceiling(synopsis, None, model, relax)
}

/// Maps a pattern axis onto the (dependency-free) path-synopsis axis.
fn path_axis(axis: Axis) -> PathAxis {
    match axis {
        Axis::Child => PathAxis::Child,
        Axis::Descendant => PathAxis::Descendant,
    }
}

/// A root-to-node chain of path-synopsis steps.
type QueryPath<'p> = Vec<(PathAxis, &'p str)>;

/// The literal root-to-`to` chain of `pattern` as path-synopsis steps:
/// every pattern node from the root down to `to`, each with its own
/// axis (the root carries the axis from the synthetic document root).
fn literal_steps(pattern: &TreePattern, to: QNodeId) -> QueryPath<'_> {
    let mut rev = Vec::new();
    let mut cur = to;
    loop {
        let node = pattern.node(cur);
        rev.push((path_axis(node.axis), node.tag.as_str()));
        match node.parent {
            Some(p) => cur = p,
            None => break,
        }
    }
    rev.reverse();
    rev
}

/// [`shard_ceiling`] refined by the shard's path synopsis, when that
/// is definitive (untruncated).
///
/// Tag counts alone cannot tell *arrangement*: a shard can hold every
/// tag the query names and still hold no answer because the tags never
/// nest the way the pattern requires. The path synopsis closes that
/// gap, and the refinement stays an upper bound — the invariant shard
/// pruning relies on — because each test below only asserts a server's
/// contribution is *exactly zero*:
///
/// * **Exact mode** requires every pattern edge to be realized
///   literally, so an exact match embeds each root-to-server chain as
///   a document path honoring the literal axes. If the synopsis (a
///   complete digest of every root-to-element path) realizes no such
///   chain for the answer root or for any server, the shard holds no
///   exact answer at all: ceiling `None`.
/// * **Relaxed mode** can generalize every edge to descendant and
///   promote subtrees, but a server binding always stays inside its
///   answer root's subtree. The weakest realizable requirement is
///   therefore *"some server-tag element lies below some answer-tag
///   element"* — the two-step descendant chain tested below. When even
///   that fails, every candidate answer binds the server to the
///   outer-join null, contributing exactly zero, so the server's
///   maximum drops out of the sum.
///
/// A truncated synopsis digests only *some* paths, so "no stored path
/// matches" stops being a proof of absence; in that case the tag-count
/// bound is used unrefined.
pub fn shard_ceiling_with_paths(
    synopsis: &ShardSynopsis,
    paths: &PathSynopsis,
    pattern: &TreePattern,
    model: &TfIdfModel,
    relax: RelaxMode,
) -> Option<Score> {
    let definitive = Some(paths).filter(|p| p.is_definitive());
    CeilingQuery::new(pattern).ceiling(synopsis, definitive, model, relax)
}

/// What a shard ceiling reads of the pattern, resolved once per
/// collection query rather than once per shard: the answer tag, its
/// literal chain, and each server's tag and literal chain.
struct CeilingQuery<'p> {
    answer_tag: &'p str,
    root_steps: QueryPath<'p>,
    servers: Vec<(QNodeId, &'p str, QueryPath<'p>)>,
}

impl<'p> CeilingQuery<'p> {
    fn new(pattern: &'p TreePattern) -> Self {
        CeilingQuery {
            answer_tag: pattern.node(pattern.root()).tag.as_str(),
            root_steps: literal_steps(pattern, pattern.root()),
            servers: (pattern.server_ids())
                .map(|s| (s, pattern.node(s).tag.as_str(), literal_steps(pattern, s)))
                .collect(),
        }
    }

    /// The ceiling both public forms compute: the tag-count bound,
    /// refined by `paths` when given.
    fn ceiling(
        &self,
        synopsis: &ShardSynopsis,
        paths: Option<&PathSynopsis>,
        model: &TfIdfModel,
        relax: RelaxMode,
    ) -> Option<Score> {
        use whirlpool_score::ScoreModel;
        let answer_tag = self.answer_tag;
        if answer_tag != WILDCARD && !synopsis.has_tag(answer_tag) {
            return None;
        }
        if let Some(ps) = paths {
            if relax == RelaxMode::Exact && !ps.matches_query_path(&self.root_steps) {
                return None;
            }
        }
        let mut total = model.max_root_contribution();
        for &(s, tag, ref steps) in &self.servers {
            if tag != WILDCARD && !synopsis.has_tag(tag) {
                if relax == RelaxMode::Exact {
                    return None;
                }
                continue;
            }
            if let Some(ps) = paths {
                match relax {
                    RelaxMode::Exact => {
                        if !ps.matches_query_path(steps) {
                            return None;
                        }
                    }
                    RelaxMode::Relaxed => {
                        // Wildcards (either end) make the descendant
                        // chain vacuous — fall back to tag presence,
                        // which held.
                        if answer_tag != WILDCARD
                            && tag != WILDCARD
                            && !ps.matches_query_path(&[
                                (PathAxis::Descendant, answer_tag),
                                (PathAxis::Descendant, tag),
                            ])
                        {
                            continue;
                        }
                    }
                }
            }
            total += model.max_contribution(s);
        }
        Some(Score::new(total))
    }
}

/// Collection-driver knobs, on top of the per-shard [`EvalOptions`].
#[derive(Debug, Clone)]
pub struct CollectionOptions {
    /// Skip shards whose ceiling cannot beat the global threshold.
    pub shard_pruning: bool,
    /// Seed each shard run's pruning threshold with the current global
    /// k-th score.
    pub share_threshold: bool,
    /// Shard-level worker threads. Workers claim shards from a shared
    /// cursor (most-promising-first); per-shard engine runs are forced
    /// to a single thread when this exceeds one, so the two levels of
    /// parallelism do not oversubscribe.
    pub threads: usize,
}

impl Default for CollectionOptions {
    /// Both optimizations on, single-threaded.
    fn default() -> Self {
        CollectionOptions {
            shard_pruning: true,
            share_threshold: true,
            threads: 1,
        }
    }
}

impl CollectionOptions {
    /// The naive baseline: every shard visited, no threshold sharing.
    pub fn scan_all() -> Self {
        CollectionOptions {
            shard_pruning: false,
            share_threshold: false,
            threads: 1,
        }
    }

    /// Sets the shard-level worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
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
    /// Shards in the collection.
    pub shards_total: usize,
    /// Shards actually evaluated.
    pub shards_visited: usize,
    /// Shards skipped because their ceiling could not beat the global
    /// threshold (or they provably held no answer).
    pub shards_pruned: usize,
    /// The subset of `shards_pruned` that were lazy and not resident
    /// when pruned: shards whose payload was **never read from disk** —
    /// the whole point of attach-on-visit.
    pub shards_pruned_before_attach: usize,
    /// Shards left unevaluated: the corpus budget (deadline, op budget
    /// or cancel token) was spent before they were claimed, or their
    /// attach failed.
    pub shards_skipped_budget: usize,
    /// Lazy-shard attaches performed during this run.
    pub shards_attached: u64,
    /// Full verifications among this run's attaches, failed ones
    /// included: the rest trusted an earlier verification of the same
    /// file identity ([`Collection::verify_count`]).
    pub shards_verified: u64,
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
    /// Wall-clock time of the whole collection run.
    pub elapsed: Duration,
}

/// The cross-shard top-k: best-per-(shard, root) scoreboard plus a
/// lock-free threshold snapshot, mirroring
/// [`SharedTopK`](crate::SharedTopK) but keyed by shard so node ids
/// from different documents cannot collide.
struct GlobalTopK {
    k: usize,
    /// (score, shard, root), ascending.
    ordered: Mutex<BTreeSet<(Score, usize, NodeId)>>,
    /// `f64::to_bits` of the last published threshold (monotone).
    threshold_bits: AtomicU64,
}

impl GlobalTopK {
    fn new(k: usize) -> Self {
        GlobalTopK {
            k,
            ordered: Mutex::new(BTreeSet::new()),
            threshold_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// The last published global k-th score (zero until k answers
    /// exist). Monotone non-decreasing, so stale reads are
    /// conservative — exactly like the engine-level snapshot.
    fn threshold(&self) -> Score {
        Score::new(f64::from_bits(self.threshold_bits.load(Ordering::Relaxed)))
    }

    /// Merges one shard's ranked answers, then publishes the new
    /// threshold.
    fn merge(&self, shard: usize, answers: &[crate::topk::RankedAnswer]) {
        let mut set = self.ordered.lock();
        for a in answers {
            set.insert((a.score, shard, a.root));
            if set.len() > self.k {
                let weakest = *set.iter().next().expect("non-empty");
                set.remove(&weakest);
            }
        }
        if set.len() == self.k {
            if let Some(&(s, _, _)) = set.iter().next() {
                self.threshold_bits
                    .store(s.value().to_bits(), Ordering::Release);
            }
        }
    }

    fn into_ranked(self) -> Vec<CollectionAnswer> {
        self.ordered
            .into_inner()
            .into_iter()
            .rev()
            .map(|(score, shard, root)| CollectionAnswer { shard, root, score })
            .collect()
    }
}

/// Evaluates `pattern` over every shard of `collection` and returns the
/// corpus-wide top-k.
///
/// Scores come from the corpus-level model
/// ([`Collection::corpus_stats`]) built with `normalization`. Shards
/// are visited ceiling-descending; `options` configures the per-shard
/// engine runs (its `k`, `relax`, deadline, etc. — `threads` is
/// overridden per [`CollectionOptions::threads`], and
/// `threshold_floor` is owned by the driver). The deadline, op budget
/// and cancel token in `options` bound the *whole* collection run as
/// one corpus-level [`Budget`]: it is checked before a shard is pruned
/// or attached, each visited shard is granted what is left and charged
/// for the server operations it spent, and shards the budget overruns
/// are accounted into the truncation certificate by their ceilings.
/// (With several shard-level workers, shards in flight at once are each
/// granted the remainder as of their claim.)
pub fn evaluate_collection(
    collection: &Collection,
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
    let model = collection.corpus_stats(pattern).model(normalization);

    // Ceiling-descending visit order: rich shards first, so the global
    // threshold rises as fast as possible. `None` ceilings (provably
    // answer-free shards) sort last.
    let query = CeilingQuery::new(pattern);
    let mut order: Vec<(usize, Option<Score>)> = (0..collection.len())
        .map(|i| (i, collection.ceiling_of(i, &query, &model, options.relax)))
        .collect();
    order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let global = GlobalTopK::new(options.k);
    let cursor = AtomicUsize::new(0);
    let pruned = AtomicUsize::new(0);
    let pruned_cold = AtomicUsize::new(0);
    let visited = AtomicUsize::new(0);
    let budget_skipped = AtomicUsize::new(0);
    let truncated = Mutex::new(TruncationFold::default());
    let metrics = Mutex::new(MetricsSnapshot::default());
    let attached_before = collection.attach_count();
    let verified_before = collection.verify_count();
    let evictions_before = collection.eviction_count();

    let workers = copts.threads.max(1).min(collection.len().max(1));

    // A shard left unevaluated is certified by its ceiling: whatever
    // it could have held scores no higher.
    let skip_unevaluated = |ceiling: Option<Score>| {
        budget_skipped.fetch_add(1, Ordering::Relaxed);
        truncated
            .lock()
            .expired(1, ceiling.map_or(0.0, |c| c.value()));
    };

    // A worker claims shards from the cursor until none is left, then
    // returns.
    let worker = || {
        loop {
            let at = cursor.fetch_add(1, Ordering::Relaxed);
            if at >= order.len() {
                break;
            }
            let (shard_idx, ceiling) = order[at];

            // Budget first, before anything touches the shard: once the
            // deadline, the op budget or the cancel token is spent, no
            // further shard is attached.
            if budget.exhausted(&spent) {
                skip_unevaluated(ceiling);
                continue;
            }

            if copts.shard_pruning {
                // Strict `<`: a shard that can only tie the k-th answer
                // is still visited (the engines cut such ties inside a
                // shard; cutting them here waits on the benchmark's
                // host factor, see ROADMAP item 1).
                let skip = match ceiling {
                    None => true,
                    Some(c) => c < global.threshold(),
                };
                if skip {
                    pruned.fetch_add(1, Ordering::Relaxed);
                    let shard = &collection.shards()[shard_idx];
                    if shard.is_lazy() && !shard.is_resident() {
                        pruned_cold.fetch_add(1, Ordering::Relaxed);
                    }
                    continue;
                }
            }

            let access = match collection.acquire(shard_idx) {
                Ok(a) => a,
                // An attach failure (file vanished, corrupted on disk)
                // is accounted like a budget skip.
                Err(_) => {
                    skip_unevaluated(ceiling);
                    continue;
                }
            };
            let mut shard_opts = options.clone();
            (shard_opts.deadline, shard_opts.max_server_ops) = budget.remaining(&spent);
            shard_opts.trace = false;
            if workers > 1 {
                shard_opts.threads = 1;
            }
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
            let result = evaluate_with_context(&ctx, algorithm, &shard_opts);
            visited.fetch_add(1, Ordering::Relaxed);
            spent
                .server_ops
                .fetch_add(result.metrics.server_ops, Ordering::Relaxed);
            global.merge(shard_idx, &result.answers);
            metrics.lock().absorb(&result.metrics);
            if let Completeness::Truncated {
                pending_matches,
                score_bound,
            } = result.completeness
            {
                truncated.lock().expired(pending_matches, score_bound);
            }
        }
    };

    if workers <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(worker);
            }
        });
    }

    let answers = global.into_ranked();
    let completeness = truncated.into_inner().finish(&answers);
    CollectionResult {
        answers,
        completeness,
        collection_metrics: CollectionMetrics {
            shards_total: collection.len(),
            shards_visited: visited.into_inner(),
            shards_pruned: pruned.into_inner(),
            shards_pruned_before_attach: pruned_cold.into_inner(),
            shards_skipped_budget: budget_skipped.into_inner(),
            shards_attached: collection.attach_count() - attached_before,
            shards_verified: collection.verify_count() - verified_before,
            shard_evictions: collection.eviction_count() - evictions_before,
        },
        metrics: metrics.into_inner(),
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
    if a.len() != b.len() {
        return false;
    }
    for (x, y) in a.iter().zip(b) {
        if (x.score.value() - y.score.value()).abs() > epsilon {
            return false;
        }
    }
    let mut i = 0;
    while i < a.len() {
        let mut j = i + 1;
        while j < a.len() && (a[j].score.value() - a[i].score.value()).abs() <= epsilon {
            j += 1;
        }
        if j < a.len() {
            let mut ra: Vec<(usize, NodeId)> = a[i..j].iter().map(|r| (r.shard, r.root)).collect();
            let mut rb: Vec<(usize, NodeId)> = b[i..j].iter().map(|r| (r.shard, r.root)).collect();
            ra.sort_unstable();
            rb.sort_unstable();
            if ra != rb {
                return false;
            }
        }
        i = j;
    }
    true
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

    #[test]
    fn multi_worker_matches_single_worker() {
        let c = sample();
        let pattern = q();
        let single = evaluate_collection(
            &c,
            &pattern,
            &Algorithm::WhirlpoolS,
            &EvalOptions::top_k(4),
            Normalization::Sparse,
            &CollectionOptions::default(),
        );
        for threads in [2, 4, 8] {
            let multi = evaluate_collection(
                &c,
                &pattern,
                &Algorithm::WhirlpoolS,
                &EvalOptions::top_k(4),
                Normalization::Sparse,
                &CollectionOptions::default().with_threads(threads),
            );
            assert!(
                collection_answers_equivalent(&single.answers, &multi.answers, 1e-9),
                "threads={threads}: {:?} vs {:?}",
                single.answers,
                multi.answers,
            );
        }
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
        let model = c.corpus_stats(&pattern).model(Normalization::Sparse);
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
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// All of RICH's tags, none of its arrangement: isbn and price
    /// live under <archive>, never under a <book>. Tag-count ceilings
    /// cannot tell this shard from RICH; path ceilings can.
    const MISMATCH: &str = "<shelf>\
        <book><title>husk</title></book>\
        <archive><isbn>8</isbn><price>5</price></archive>\
        </shelf>";

    /// Writes each source as a snapshot `<name>.wps` under a fresh
    /// temp dir.
    fn snapshot_dir(tag: &str, sources: &[(&str, &str)]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wp-lazy-{tag}-{}", std::process::id()));
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
    fn path_ceiling_prunes_arrangement_mismatch() {
        let mut c = Collection::new();
        c.add_source("rich", RICH).unwrap();
        c.add_source("mismatch", MISMATCH).unwrap();
        let pattern = q();
        let model = c.corpus_stats(&pattern).model(Normalization::None);
        // Tag counts alone see every query tag in both shards: without
        // paths the two ceilings are upper-bounded the same way.
        let tag_only = shard_ceiling(
            c.shards()[1].synopsis(),
            &pattern,
            &model,
            RelaxMode::Relaxed,
        )
        .unwrap();
        let with_paths = c
            .shard_ceiling(1, &pattern, &model, RelaxMode::Relaxed)
            .unwrap();
        assert!(
            with_paths < tag_only,
            "isbn/price outside <book> must drop out of the path-aware bound"
        );
        // Exact mode: no book ever has an isbn child — provably empty.
        assert_eq!(c.shard_ceiling(1, &pattern, &model, RelaxMode::Exact), None);
        // The rich shard's bound is unchanged by the refinement.
        assert_eq!(
            c.shard_ceiling(0, &pattern, &model, RelaxMode::Relaxed)
                .unwrap(),
            shard_ceiling(
                c.shards()[0].synopsis(),
                &pattern,
                &model,
                RelaxMode::Relaxed
            )
            .unwrap()
        );
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
        assert!(c.shards()[0].path_synopsis().is_definitive());

        let pattern = q();
        let pruned = evaluate_collection(
            &c,
            &pattern,
            &Algorithm::WhirlpoolS,
            &EvalOptions::top_k(2),
            Normalization::Sparse,
            &CollectionOptions::default(),
        );
        let m = &pruned.collection_metrics;
        assert!(
            m.shards_pruned_before_attach >= 3,
            "mismatch shards must fall to path ceilings without touching disk: {m:?}"
        );
        assert_eq!(m.shards_attached as usize, m.shards_visited);
        assert_eq!(m.shards_visited + m.shards_pruned, m.shards_total, "{m:?}");

        // The same collection scanned exhaustively (same model — the
        // corpus stats are synopsis-based either way) agrees.
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
        let _ = std::fs::remove_dir_all(&dir);
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
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sleeps until a file that last changed before this call is older
    /// than the trust margin that applies to it.
    #[cfg(unix)]
    fn sleep_past_the_margin(path: &Path) {
        use std::os::unix::fs::MetadataExt;
        let whole_seconds = std::fs::metadata(path).unwrap().ctime_nsec() == 0;
        let margin = if whole_seconds {
            whirlpool_store::WHOLE_SECOND_TRUST_MARGIN
        } else {
            whirlpool_store::TRUST_MARGIN
        };
        std::thread::sleep(margin + Duration::from_millis(20));
    }

    #[test]
    #[cfg(unix)]
    fn an_unchanged_file_is_verified_once_and_a_racy_rewrite_on_every_visit() {
        let dir = snapshot_dir("verify-once", &[("s0", RICH), ("s1", MID)]);
        let s0 = dir.join("s0.wps");
        sleep_past_the_margin(&s0);
        let c = Collection::open_dir(&dir).unwrap();
        c.set_max_resident(1);
        // Under a cap of one, each visit evicts the other shard, so
        // every visit attaches.
        let cycles = |n: usize| {
            for _ in 0..n {
                drop(c.acquire(0).unwrap());
                drop(c.acquire(1).unwrap());
            }
        };
        cycles(4);
        assert_eq!((c.attach_count(), c.eviction_count()), (8, 7));
        assert_eq!(c.verify_count(), 2, "each unchanged file is verified once");

        // s0 saved again: a new identity (a rename), the same bytes. Its
        // record is made inside the margin, so it is not trusted and
        // every visit verifies again...
        let doc = parse_document(RICH).unwrap();
        let index = TagIndex::build(&doc);
        let rewritten = Instant::now();
        whirlpool_store::save_snapshot(&doc, &index, &s0).unwrap();
        cycles(3);
        let racy = c.verify_count() - 2;
        // Half the margin leaves room for the file clock's coarse ticks.
        if rewritten.elapsed() < whirlpool_store::TRUST_MARGIN / 2 {
            assert_eq!(
                racy, 3,
                "a file inside the margin is verified on every visit"
            );
        } else {
            assert!((1..=3).contains(&racy), "{racy}");
        }

        // ...until the margin has passed: one more verification, then
        // trust.
        sleep_past_the_margin(&s0);
        let before = c.verify_count();
        cycles(3);
        assert_eq!(c.verify_count() - before, 1);
        assert_eq!(c.attach_count(), 20);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two shards, s0 and s1, whose files are older than the trust
    /// margin, after one exact run that recorded a trusted
    /// verification of each, with s0 evicted.
    #[cfg(unix)]
    fn trusted_pair(tag: &str) -> (PathBuf, Collection) {
        let dir = snapshot_dir(tag, &[("s0", RICH), ("s1", MID)]);
        sleep_past_the_margin(&dir.join("s0.wps"));
        let c = Collection::open_dir(&dir).unwrap();
        c.set_max_resident(1);
        let first = lazy_run(&c);
        assert!(matches!(first.completeness, Completeness::Exact));
        drop(c.acquire(1).unwrap());
        assert!(!c.shards()[0].is_resident());
        // Both records are trusted: a re-attach verifies nothing.
        let before = c.verify_count();
        drop(c.acquire(0).unwrap());
        drop(c.acquire(1).unwrap());
        assert_eq!(c.verify_count(), before);
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
        assert!(m.shards_verified >= 1, "{m:?}");
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
    #[cfg(unix)]
    fn a_same_size_forgery_written_in_place_is_refused_and_certified() {
        use std::io::Write;
        let (dir, c) = trusted_pair("forged-in-place");
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
        assert!(matches!(c.acquire(0), Err(StoreError::Stale { .. })));
        assert!(!c.shards()[0].is_resident());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg(unix)]
    fn a_bit_flipped_in_place_fails_attach_and_is_never_evaluated() {
        use std::io::{Seek, SeekFrom, Write};
        let (dir, c) = trusted_pair("flipped-in-place");
        let s0 = dir.join("s0.wps");
        let bytes = std::fs::read(&s0).unwrap();
        let at = bytes.len() / 2;
        let mut file = std::fs::OpenOptions::new().write(true).open(&s0).unwrap();
        file.seek(SeekFrom::Start(at as u64)).unwrap();
        file.write_all(&[bytes[at] ^ 0x10]).unwrap();
        drop(file);

        let run = lazy_run(&c);
        assert_certified_without_s0(&c, &run);
        assert!(matches!(c.acquire(0), Err(StoreError::Corrupt(_))));
        assert!(!c.shards()[0].is_resident());
        let _ = std::fs::remove_dir_all(&dir);
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
        let run = evaluate_collection(
            &c,
            &pattern,
            &Algorithm::WhirlpoolS,
            &EvalOptions::top_k(3),
            Normalization::Sparse,
            &CollectionOptions::scan_all(),
        );
        assert_eq!(run.collection_metrics.shards_visited, 4);
        assert_eq!(run.collection_metrics.shards_attached, 4);
        assert!(
            run.collection_metrics.shard_evictions >= 3,
            "visiting 4 shards under max_resident=1 must evict: {:?}",
            run.collection_metrics
        );
        assert!(c.resident_count() <= 1);

        // Re-running re-attaches evicted shards and still answers.
        let again = evaluate_collection(
            &c,
            &pattern,
            &Algorithm::WhirlpoolS,
            &EvalOptions::top_k(3),
            Normalization::Sparse,
            &CollectionOptions::scan_all(),
        );
        assert!(collection_answers_equivalent(
            &run.answers,
            &again.answers,
            1e-9
        ));
        let _ = std::fs::remove_dir_all(&dir);
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
        let _ = std::fs::remove_dir_all(&dir);
    }

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
        let c = Collection::open_dir(&dir).unwrap();
        let pattern = q();
        let single = evaluate_collection(
            &c,
            &pattern,
            &Algorithm::WhirlpoolM { processors: None },
            &EvalOptions::top_k(4),
            Normalization::Sparse,
            &CollectionOptions::default(),
        );
        for threads in [2, 4] {
            for max_resident in [1, 4, 0] {
                c.set_max_resident(max_resident);
                let multi = evaluate_collection(
                    &c,
                    &pattern,
                    &Algorithm::WhirlpoolM { processors: None },
                    &EvalOptions::top_k(4),
                    Normalization::Sparse,
                    &CollectionOptions::default().with_threads(threads),
                );
                assert!(
                    collection_answers_equivalent(&single.answers, &multi.answers, 1e-9),
                    "threads={threads} max_resident={max_resident}: {:?} vs {:?}",
                    single.answers,
                    multi.answers,
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
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
        let _ = std::fs::remove_dir_all(&dir);
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
