//! Shared, immutable evaluation state plus the server operation itself.

use crate::fault::{OpInterrupt, INTERRUPT_SPAN};
use crate::metrics::Metrics;
use crate::partial::{Binding, PartialMatch};
use crate::selectivity::server_fractions;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use whirlpool_index::{mask_count, DocView, RangeCursor, TagIndex, TagIndexView};
use whirlpool_pattern::{
    compile_servers, AttrTest, Direction, QNodeId, ServerSpec, TreePattern, WILDCARD,
};
use whirlpool_score::{MatchLevel, Score, ScoreModel};
use whirlpool_xml::{Document, NodeId, TagId};

/// Whether relaxations are admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RelaxMode {
    /// Only exact matches: every structural predicate must hold in its
    /// original form; a server with no valid candidate kills the match
    /// (inner-join semantics).
    Exact,
    /// The paper's approximate evaluation: relaxations are encoded in
    /// the plan; any tag/value-compatible descendant of the root match
    /// is a candidate, predicates decide the *score level*, and a
    /// server with no candidate emits a null (leaf deletion) extension
    /// (outer-join semantics).
    #[default]
    Relaxed,
}

/// How a server's candidate universe resolves against the document.
enum ServerRange<'a> {
    /// The tag never occurs: the server always takes the null path.
    Absent,
    /// The wildcard: every descendant of the root match is a candidate —
    /// an id-contiguous range, scanned without materializing anything.
    Any,
    /// A normal tag's posting list, resolved once at construction (a
    /// value test filters the located range at the gather). `finger`
    /// is the range the last locate at this server returned
    /// (`lo << 32 | hi`): the next one gallops from there, so a
    /// document-order batch is one merge pass over `list` and a root
    /// visited again (exact mode) costs O(1). It is a search hint
    /// only — any value, from any thread, gives the same ranges.
    Postings {
        list: &'a [NodeId],
        finger: AtomicU64,
    },
}

/// One match's candidate range at a server, resolved ahead of
/// evaluation: the *locate* half of the split server operation.
///
/// Produced by [`QueryContext::locate_batch_at_server`] (one galloping
/// cursor sweep per document-order batch) and consumed by
/// [`QueryContext::process_located_at_server_interruptible`] (the
/// columnar predicate kernel). Plain index pairs, so a batch plan is a
/// flat `Vec<Located>` with no borrows into the context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Located {
    /// The server's tag never occurs in the document: the evaluation
    /// half goes straight to the outer-join null path.
    Absent,
    /// Wildcard universe: the raw node-id range `[lo, hi)` under the
    /// match's root.
    Any(u32, u32),
    /// The sub-slice `[lo, hi)` of the server's posting list holding
    /// the root's proper descendants.
    Slice(u32, u32),
}

/// Outcome of one interruptible server operation.
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    /// Extensions pushed onto `out` (including the outer-join null,
    /// when that path was taken); at most one in relaxed mode.
    pub produced: usize,
    /// The operation stopped at a mid-kernel [`OpInterrupt`] check
    /// before exhausting its candidate range. The extensions already
    /// produced are valid; the caller must account the match's
    /// `max_final` into the run's truncation certificate to cover the
    /// unproduced tail.
    pub interrupted: bool,
}

/// A server's candidate stream for one match: either a posting
/// sub-slice or the raw subtree id range (wildcard). Iterating
/// allocates nothing.
enum Candidates<'s> {
    Slice(std::slice::Iter<'s, NodeId>),
    Range(u32, u32),
}

impl Iterator for Candidates<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        match self {
            Candidates::Slice(it) => it.next().copied(),
            Candidates::Range(lo, hi) => {
                if lo < hi {
                    let n = NodeId::from_index(*lo as usize);
                    *lo += 1;
                    Some(n)
                } else {
                    None
                }
            }
        }
    }
}

/// Everything the engines share for one query evaluation: the document
/// and index, compiled server specs, the score model, the router's
/// per-server estimates, and the metric counters. Immutable after
/// construction (counters are atomic), hence freely shared across
/// threads.
pub struct QueryContext<'a> {
    /// The document under evaluation — owned arena or mapped snapshot
    /// behind one accessor surface.
    pub doc: DocView<'a>,
    /// Its tag postings, same two backings.
    pub index: TagIndexView<'a>,
    /// The query.
    pub pattern: &'a TreePattern,
    /// Per-binding score contributions.
    pub model: &'a dyn ScoreModel,
    /// Exact or relaxed evaluation.
    pub relax: RelaxMode,
    /// Shared work counters.
    pub metrics: Metrics,
    /// Compiled spec for each server; `servers[i]` serves `QNodeId(i+1)`.
    servers: Vec<ServerSpec>,
    /// Resolved candidate universe per server.
    server_ranges: Vec<ServerRange<'a>>,
    /// Each server's attribute-test names, resolved to tag ids (`None`:
    /// the document has no such name).
    server_attr_tags: Vec<Vec<Option<TagId>>>,
    /// `[exact, relaxed]` satisfying fraction per server (same indexing
    /// as `servers`): the router's estimates.
    fractions: Vec<[f64; 2]>,
    /// Max possible contribution per query node (indexed by QNodeId).
    max_contrib: Vec<f64>,
    /// Sum of all servers' max contributions.
    total_server_max: f64,
    /// Candidate bindings for the pattern root, in document order:
    /// the tag's own postings when the root carries no further test.
    root_candidates: Cow<'a, [NodeId]>,
    full_mask: u64,
    seq: AtomicU64,
}

/// Do `n`'s attributes pass every test? `tags` holds the tests' names,
/// resolved against `doc` once per query.
fn attrs_hold(doc: DocView<'_>, attrs: &[AttrTest], tags: &[Option<TagId>], n: NodeId) -> bool {
    (attrs.iter().zip(tags)).all(|(a, t)| a.matches(t.and_then(|t| doc.attribute_bytes(n, t))))
}

/// Construction-time options for [`QueryContext::new`].
#[derive(Debug, Clone, Default)]
pub struct ContextOptions {
    /// Exact or relaxed evaluation.
    pub relax: RelaxMode,
}

impl<'a> QueryContext<'a> {
    /// Compiles the query against the document: resolves server tags,
    /// collects root candidates, reads the router's estimates, and
    /// precomputes the per-server maximum contributions.
    pub fn new(
        doc: &'a Document,
        index: &'a TagIndex,
        pattern: &'a TreePattern,
        model: &'a dyn ScoreModel,
        options: ContextOptions,
    ) -> Self {
        Self::new_view(doc.into(), index.view(), pattern, model, options)
    }

    /// [`new`](QueryContext::new) over borrowed views — the entry point
    /// for snapshot-attached evaluation, where no owned [`Document`] or
    /// [`TagIndex`] exists. All engines and kernels run identically on
    /// either backing.
    pub fn new_view(
        doc: DocView<'a>,
        index: TagIndexView<'a>,
        pattern: &'a TreePattern,
        model: &'a dyn ScoreModel,
        options: ContextOptions,
    ) -> Self {
        let servers = compile_servers(pattern);
        let root_node = pattern.node(pattern.root());
        let unfiltered = root_node.axis == whirlpool_pattern::Axis::Descendant
            && root_node.value.is_none()
            && root_node.attrs.is_empty();
        let root_universe: Cow<'a, [NodeId]> = if root_node.tag == WILDCARD {
            doc.elements().collect()
        } else {
            doc.tag_id(&root_node.tag)
                .map_or(Cow::Borrowed(&[][..]), |tag| {
                    index.nodes_with_tag(tag).into()
                })
        };
        let attr_tags = |attrs: &[AttrTest]| -> Vec<Option<TagId>> {
            attrs.iter().map(|a| doc.tag_id(&a.name)).collect()
        };
        let root_attr_tags = attr_tags(&root_node.attrs);
        let root_candidates = if unfiltered {
            root_universe
        } else {
            root_universe
                .iter()
                .copied()
                .filter(|&n| match root_node.axis {
                    // `/tag`: a top-level element.
                    whirlpool_pattern::Axis::Child => doc.depth(n) == 1,
                    // `//tag`: anywhere.
                    whirlpool_pattern::Axis::Descendant => true,
                })
                .filter(|&n| {
                    root_node
                        .value
                        .as_ref()
                        .map_or(true, |v| v.matches(doc.text_bytes(n)))
                })
                .filter(|&n| attrs_hold(doc, &root_node.attrs, &root_attr_tags, n))
                .collect()
        };
        let server_attr_tags = servers.iter().map(|s| attr_tags(&s.attrs)).collect();

        // Resolve each server's tag postings once. A root's range
        // within them is located when a match reaches the server; its
        // value test, if any, filters that range at the gather.
        let server_ranges = servers
            .iter()
            .map(|s| {
                if s.tag == WILDCARD {
                    return ServerRange::Any;
                }
                let Some(tag) = doc.tag_id(&s.tag) else {
                    return ServerRange::Absent;
                };
                ServerRange::Postings {
                    list: index.nodes_with_tag(tag),
                    finger: AtomicU64::new(0),
                }
            })
            .collect();

        let fractions = server_fractions(doc, index, pattern, model, &servers);

        let mut max_contrib = vec![0.0; pattern.len()];
        max_contrib[0] = model.max_contribution(QNodeId::ROOT);
        for s in &servers {
            max_contrib[s.qnode.index()] = model.max_contribution(s.qnode);
        }
        let total_server_max = servers.iter().map(|s| max_contrib[s.qnode.index()]).sum();

        QueryContext {
            doc,
            index,
            pattern,
            model,
            relax: options.relax,
            metrics: Metrics::new(),
            servers,
            server_ranges,
            server_attr_tags,
            fractions,
            max_contrib,
            total_server_max,
            root_candidates,
            full_mask: PartialMatch::full_mask(pattern.len()),
            seq: AtomicU64::new(0),
        }
    }

    // -- accessors -------------------------------------------------------

    /// The non-root query nodes, i.e. the server ids.
    pub fn server_ids(&self) -> Vec<QNodeId> {
        self.servers.iter().map(|s| s.qnode).collect()
    }

    /// The compiled Algorithm-1 spec of a server.
    pub fn server_spec(&self, server: QNodeId) -> &ServerSpec {
        &self.servers[server.index() - 1]
    }

    /// The router's estimates for a server: the `[exact, relaxed]`
    /// fractions of the scope's answers that satisfy its component
    /// predicate (Definition 4.2's counts over the population). The
    /// rest, `1 - relaxed`, bind it to the outer-join null; a server
    /// whose tag the document lacks reads `[0, 0]`.
    pub fn fractions_of(&self, server: QNodeId) -> [f64; 2] {
        self.fractions[server.index() - 1]
    }

    /// The server's maximum possible contribution.
    pub fn max_contribution(&self, q: QNodeId) -> f64 {
        self.max_contrib[q.index()]
    }

    /// The visited bitmask of a complete match.
    pub fn full_mask(&self) -> u64 {
        self.full_mask
    }

    /// Candidate bindings for the pattern root, in document order.
    pub fn root_candidates(&self) -> &[NodeId] {
        &self.root_candidates
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    // -- match generation -------------------------------------------------

    /// Reserves one sequence number per root candidate and returns the
    /// first: seed `i` of the run is created with `first + i`, whenever
    /// it is materialised, so arrival order and every tie-break are
    /// those of seeding every root up front.
    pub(crate) fn reserve_seed_seqs(&self) -> u64 {
        self.seq
            .fetch_add(self.root_candidates.len() as u64, Ordering::Relaxed)
    }

    /// `(max_final, score)` no root match can exceed: the model's
    /// maximum root contribution, plus every server's for the ceiling.
    /// With a per-node model a root may start lower, never higher.
    pub(crate) fn seed_ceiling(&self) -> (Score, Score) {
        let root = Score::new(self.max_contrib[0]);
        (root.plus(self.total_server_max), root)
    }

    /// The root server's output for candidate `i`: its initial partial
    /// match ("the book server ... generates candidate matches to the
    /// root of the XPath query, which initializes the set of partial
    /// matches", §5.1). Counting it as created is the caller's job.
    pub(crate) fn seed(&self, i: usize, seq: u64) -> PartialMatch {
        let node = self.root_candidates[i];
        PartialMatch::new_root(
            seq,
            self.pattern.len(),
            node,
            self.model
                .contribution(QNodeId::ROOT, node, MatchLevel::Exact),
            self.total_server_max,
        )
    }

    /// Every root match at once, in document order: what the lock-step
    /// engines, which visit every root anyway, start from.
    pub fn make_root_matches(&self) -> Vec<PartialMatch> {
        let first = self.reserve_seed_seqs();
        let roots: Vec<_> = (0..self.root_candidates.len())
            .map(|i| self.seed(i, first + i as u64))
            .collect();
        self.metrics.add_created(roots.len() as u64);
        roots
    }

    /// One server operation: extends `m` at `server` — exact mode with
    /// every valid candidate, relaxed mode with the one dominant
    /// candidate (or the outer-join null) — pushing the extensions onto
    /// `out`. Returns the number of extensions produced.
    ///
    /// This is Algorithm 1's runtime half: candidates are located with
    /// an index range scan on the relaxed root predicate, then compared
    /// against the bound part of the match through the conditional
    /// predicate sequence, exact forms first.
    ///
    /// The engines split the two halves ([`locate_batch_at_server`]
    /// then [`process_located_at_server_interruptible`]) so a whole
    /// drained batch is located in one sweep.
    ///
    /// [`locate_batch_at_server`]: Self::locate_batch_at_server
    /// [`process_located_at_server_interruptible`]: Self::process_located_at_server_interruptible
    pub fn process_at_server(
        &self,
        server: QNodeId,
        m: &PartialMatch,
        out: &mut Vec<PartialMatch>,
    ) -> usize {
        let loc = self.locate_one(server, m.root());
        self.process_located_at_server_interruptible(server, m, loc, out, None)
            .produced
    }

    /// Resolves one match root's candidate range at `server`: the
    /// *locate* half of a server operation, a pure function of the
    /// root (no metrics, no extensions). Two searches over the server's
    /// postings, galloping from where the previous locate ended.
    fn locate_one(&self, server: QNodeId, root: NodeId) -> Located {
        let end = self.index.subtree_end(root).index() as u32;
        match &self.server_ranges[server.index() - 1] {
            ServerRange::Absent => Located::Absent,
            ServerRange::Any => Located::Any(root.index() as u32 + 1, end),
            ServerRange::Postings { list, finger } => {
                let last = finger.load(Ordering::Relaxed);
                let mut cursor =
                    RangeCursor::resume(list, ((last >> 32) as usize, last as u32 as usize));
                let (lo, hi) = cursor.bounds(root, end);
                finger.store((lo as u64) << 32 | hi as u64, Ordering::Relaxed);
                Located::Slice(lo as u32, hi as u32)
            }
        }
    }

    /// Locates the candidate ranges of a whole batch of matches bound
    /// for `server`, given their roots in the engine's processing
    /// order. The plan is written into `plan` (cleared first), aligned
    /// with `roots`.
    ///
    /// The roots are visited in document order — as given when they
    /// already are (a lock-step frontier, a single root), through a
    /// sorted copy otherwise — so the batch is one galloping
    /// [`RangeCursor`] pass over the server's postings, never a full
    /// binary search per match.
    ///
    /// Locating is a pure function of each root, so the plan is
    /// insensitive to batch order and the evaluation half can run in
    /// whatever priority order the engine chooses.
    pub fn locate_batch_at_server(
        &self,
        server: QNodeId,
        roots: &[NodeId],
        plan: &mut Vec<Located>,
    ) {
        plan.clear();
        self.metrics.add_server_op_batch();
        if roots.windows(2).all(|w| w[0] <= w[1]) {
            plan.extend(roots.iter().map(|&r| self.locate_one(server, r)));
        } else {
            let mut order: Vec<(NodeId, u32)> = roots.iter().copied().zip(0..).collect();
            order.sort_unstable();
            plan.resize(roots.len(), Located::Absent);
            for (r, i) in order {
                plan[i as usize] = self.locate_one(server, r);
            }
        }
    }

    /// The *evaluate* half of a server operation: extends `m` from its
    /// pre-located candidate range `loc`.
    /// Exact mode emits one extension per valid candidate (its
    /// conditional predicates are real joins). Relaxed mode emits
    /// exactly one: the candidate with the highest
    /// [`ScoreModel::contribution`], or the outer-join null for an empty
    /// range — an answer is `(root, score)`, levels are root-relative,
    /// and nothing downstream reads the binding, so the root's best
    /// tuple is the per-server best and every other candidate is
    /// dominated.
    ///
    /// The candidate range is evaluated *columnar*: candidate ids are
    /// gathered into a flat scratch vector (a straight copy unless the
    /// spec carries value/attribute tests, which are filtered scalar
    /// first — they touch strings, not columns), then every structural
    /// predicate runs as a branch-free
    /// [`KERNEL_LANE`](whirlpool_index::KERNEL_LANE)-chunked byte-mask
    /// sweep over the flat
    /// [`ColumnsView`](whirlpool_index::ColumnsView): one
    /// level sweep for the root predicate, then one refining sweep per
    /// bound conditional predicate. Per-candidate branching only
    /// returns for the survivors' scoring. Comparison counts
    /// replicate the scalar loop exactly (the root sweep costs one
    /// comparison per candidate; each conditional sweep costs one per
    /// candidate still alive when it runs, which is precisely the
    /// scalar early-break).
    ///
    /// With `interrupt` present, the kernel runs in segments of
    /// [`INTERRUPT_SPAN`] candidates and consults
    /// [`OpInterrupt::tripped`] between segments (and every span of a
    /// filtered gather), so one oversized operation overshoots a
    /// deadline — or outlives a cancelled client — by at most one
    /// span's work instead of the whole candidate range.
    ///
    /// With `interrupt` absent (or never tripped) the extensions,
    /// comparison counts, and lane counts are those of one unsegmented
    /// sweep: segment boundaries are lane-aligned and every predicate is
    /// still evaluated per candidate in the same order. A tripped check
    /// stops the kernel before its next segment; extensions of the
    /// candidates already swept are valid, no outer-join null is emitted
    /// for the aborted tail, and [`OpOutcome::interrupted`] tells the
    /// caller to account the match into the truncation certificate.
    pub fn process_located_at_server_interruptible(
        &self,
        server: QNodeId,
        m: &PartialMatch,
        loc: Located,
        out: &mut Vec<PartialMatch>,
        interrupt: Option<&OpInterrupt>,
    ) -> OpOutcome {
        debug_assert!(!m.has_visited(server));
        self.metrics.add_server_op();

        let spec = self.server_spec(server);
        let root = m.root();
        let server_max = self.max_contrib[server.index()];
        let before = out.len();
        let columns = self.index.columns();

        let mut comparisons = 0u64;
        let mut lanes = 0u64;
        let mut interrupted = false;
        // Relaxed mode's one extension: (contribution, binding) of the
        // best candidate seen so far.
        let mut dominant: Option<(f64, Binding)> = None;
        KERNEL_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            let ids = &mut scratch.ids;
            ids.clear();

            // Gather: candidate raw ids surviving the (scalar) value
            // and attribute prefilters, in range order. With neither
            // test present — the common case — this is a bulk copy.
            let value_test = spec.value.as_ref();
            let candidates = match loc {
                Located::Absent => Candidates::Slice([].iter()),
                Located::Any(lo, hi) => Candidates::Range(lo, hi),
                Located::Slice(lo, hi) => {
                    let ServerRange::Postings { list, .. } =
                        &self.server_ranges[server.index() - 1]
                    else {
                        unreachable!("Located::Slice at a server without postings");
                    };
                    Candidates::Slice(list[lo as usize..hi as usize].iter())
                }
            };
            if value_test.is_none() && spec.attrs.is_empty() {
                match candidates {
                    Candidates::Slice(it) => ids.extend(it.map(|n| n.index() as u32)),
                    Candidates::Range(lo, hi) => ids.extend(lo..hi),
                }
            } else {
                // The filtered gather touches strings per candidate, so
                // it gets the same span-periodic interruption check as
                // the sweeps below; a trip truncates the gather and
                // skips the kernel entirely.
                let mut since_check = 0usize;
                for cand in candidates {
                    if let Some(i) = interrupt {
                        since_check += 1;
                        if since_check >= INTERRUPT_SPAN {
                            since_check = 0;
                            if i.tripped() {
                                interrupted = true;
                                break;
                            }
                        }
                    }
                    if let Some(v) = value_test {
                        comparisons += 1;
                        if !v.matches(self.doc.text_bytes(cand)) {
                            continue;
                        }
                    }
                    if !spec.attrs.is_empty() {
                        comparisons += spec.attrs.len() as u64;
                        let tags = &self.server_attr_tags[server.index() - 1];
                        if !attrs_hold(self.doc, &spec.attrs, tags, cand) {
                            continue;
                        }
                    }
                    ids.push(cand.index() as u32);
                }
            }

            // Root predicate: the exact composed form decides the score
            // level; the relaxed form (ad) holds by construction of the
            // range scan, so the columnar in-range sweep suffices (pc
            // is one parent compare, depth-bounded chains one depth
            // compare, per lane element). Scoring is *root-relative*
            // (the component predicates of Definition 4.1 all relate
            // the returned node to the server node), which keeps a
            // tuple's score independent of the order servers ran in — a
            // property the engine-equivalence guarantees rely on.
            //
            // The sweeps run in lane-aligned segments: one segment of
            // everything without an interrupt, INTERRUPT_SPAN
            // candidates per segment with one. Refinement is
            // per-candidate, so segmentation changes neither the
            // extensions nor the comparison/lane counts.
            let ids: &[u32] = ids;
            let span = if interrupt.is_some() {
                INTERRUPT_SPAN
            } else {
                usize::MAX
            };
            let level = &mut scratch.level;
            level.clear();
            level.resize(ids.len(), 0);
            let alive = &mut scratch.alive;
            if self.relax == RelaxMode::Exact {
                alive.clear();
                alive.resize(ids.len(), 0);
            }
            let mut seg = 0usize;
            while seg < ids.len() && !interrupted {
                let end = seg.saturating_add(span).min(ids.len());
                let seg_ids = &ids[seg..end];
                let seg_level = &mut level[seg..end];
                comparisons += seg_ids.len() as u64;
                lanes += columns.sweep_in_range(spec.root_exact, root, seg_ids, seg_level);

                if self.relax == RelaxMode::Exact {
                    // Exact mode: non-exact candidates die at the root
                    // predicate, then the conditional predicate
                    // sequence refines the alive mask against bound
                    // neighbours. These are *join* predicates — every
                    // pair of related query nodes is checked exactly
                    // once, at whichever of the two servers runs
                    // second, so validity is order-independent too.
                    let seg_alive = &mut alive[seg..end];
                    seg_alive.copy_from_slice(seg_level);
                    for cp in &spec.conditional {
                        let Binding::Matched { node: other, .. } = m.bindings[cp.other.index()]
                        else {
                            continue;
                        };
                        let alive_now = mask_count(seg_alive);
                        if alive_now == 0 {
                            break;
                        }
                        comparisons += alive_now;
                        lanes += match cp.direction {
                            Direction::FromAncestor => columns
                                .sweep_refine_from_ancestor(cp.exact, other, seg_ids, seg_alive),
                            Direction::ToDescendant => columns
                                .sweep_refine_to_descendant(cp.exact, other, seg_ids, seg_alive),
                        };
                    }
                    for (&c, &ok) in seg_ids.iter().zip(seg_alive.iter()) {
                        if ok == 0 {
                            continue;
                        }
                        let cand = NodeId::from_index(c as usize);
                        let level = MatchLevel::Exact;
                        let contribution = self.model.contribution(server, cand, level);
                        out.push(m.extend(
                            self.next_seq(),
                            server,
                            Binding::Matched { node: cand, level },
                            contribution,
                            server_max,
                        ));
                    }
                } else {
                    // Relaxed mode: every candidate in the (ad)
                    // universe is valid — subtree promotion and edge
                    // generalization have already weakened every
                    // conditional predicate — and the level mask
                    // decides the score level. Only the highest
                    // contribution can be part of the root's best
                    // tuple: keep that one candidate, the first in
                    // document order among equals.
                    for (&c, &exact) in seg_ids.iter().zip(seg_level.iter()) {
                        let cand = NodeId::from_index(c as usize);
                        let level = if exact != 0 {
                            MatchLevel::Exact
                        } else {
                            MatchLevel::Relaxed
                        };
                        let contribution = self.model.contribution(server, cand, level);
                        if dominant.map_or(true, |(best, _)| contribution > best) {
                            dominant = Some((contribution, Binding::Matched { node: cand, level }));
                        }
                    }
                }

                seg = end;
                if seg < ids.len() {
                    if let Some(i) = interrupt {
                        if i.tripped() {
                            interrupted = true;
                        }
                    }
                }
            }
        });

        self.metrics.add_comparisons(comparisons);
        if lanes > 0 {
            self.metrics.add_kernel_lanes(lanes);
        }

        // Relaxed mode emits its dominant extension, or — outer-join
        // semantics — one null extension (the leaf-deletion relaxation)
        // when there was no candidate. In exact mode the match simply
        // dies. An interrupted kernel emits the best candidate it saw
        // but no null — the match is accounted into the truncation
        // certificate instead, so the unexplored candidates are never
        // misrepresented as absent.
        if self.relax == RelaxMode::Relaxed {
            if !interrupted {
                dominant = dominant.or(Some((0.0, Binding::Null)));
            }
            if let Some((contribution, binding)) = dominant {
                out.push(m.extend(self.next_seq(), server, binding, contribution, server_max));
            }
        }

        let produced = out.len() - before;
        self.metrics.add_created(produced as u64);
        OpOutcome {
            produced,
            interrupted,
        }
    }
}

/// Reusable per-thread buffers for the columnar evaluate kernel:
/// gathered candidate ids plus the level/alive byte masks. Thread-local
/// so the kernel allocates nothing per operation after warm-up, on any
/// engine's worker threads, without widening the `QueryContext` sharing
/// contract.
struct KernelScratch {
    ids: Vec<u32>,
    level: Vec<u8>,
    alive: Vec<u8>,
}

thread_local! {
    static KERNEL_SCRATCH: std::cell::RefCell<KernelScratch> =
        const {
            std::cell::RefCell::new(KernelScratch {
                ids: Vec::new(),
                level: Vec::new(),
                alive: Vec::new(),
            })
        };
}

#[cfg(test)]
mod tests {
    use super::*;
    use whirlpool_pattern::parse_pattern;
    use whirlpool_score::{Normalization, TfIdfModel};
    use whirlpool_xml::parse_document;

    struct Fixture {
        doc: Document,
        index: TagIndex,
        pattern: TreePattern,
        model: TfIdfModel,
    }

    impl Fixture {
        fn new(src: &str, query: &str) -> Self {
            let doc = parse_document(src).unwrap();
            let index = TagIndex::build(&doc);
            let pattern = parse_pattern(query).unwrap();
            let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
            Fixture {
                doc,
                index,
                pattern,
                model,
            }
        }

        fn ctx(&self, relax: RelaxMode) -> QueryContext<'_> {
            QueryContext::new(
                &self.doc,
                &self.index,
                &self.pattern,
                &self.model,
                ContextOptions { relax },
            )
        }
    }

    const BOOKS: &str = "<shelf>\
        <book><title>wodehouse</title><info><isbn>1</isbn></info></book>\
        <book><reviews><title>wodehouse</title></reviews></book>\
        <book><name/></book>\
        </shelf>";

    #[test]
    fn root_candidates_respect_axis_and_depth() {
        let f = Fixture::new(BOOKS, "//book[./title]");
        let ctx = f.ctx(RelaxMode::Relaxed);
        assert_eq!(ctx.root_candidates().len(), 3);

        // `/book` requires top-level books; here books are under shelf.
        let f2 = Fixture::new(BOOKS, "/book[./title]");
        let ctx2 = f2.ctx(RelaxMode::Relaxed);
        assert_eq!(ctx2.root_candidates().len(), 0);

        let f3 = Fixture::new("<book/><book/>", "/book");
        let ctx3 = f3.ctx(RelaxMode::Relaxed);
        assert_eq!(ctx3.root_candidates().len(), 2);
    }

    #[test]
    fn root_matches_carry_max_final() {
        let f = Fixture::new(BOOKS, "//book[./title and ./info/isbn]");
        let ctx = f.ctx(RelaxMode::Relaxed);
        let roots = ctx.make_root_matches();
        assert_eq!(roots.len(), 3);
        for m in &roots {
            // Sparse normalization: each of 3 servers can contribute 1.0.
            assert!((m.max_final.value() - 3.0).abs() < 1e-9);
            assert_eq!(m.score.value(), 0.0);
        }
        assert_eq!(ctx.metrics.snapshot().partials_created, 3);
    }

    #[test]
    fn server_op_exact_vs_relaxed_levels() {
        let f = Fixture::new(BOOKS, "//book[./title]");
        let ctx = f.ctx(RelaxMode::Relaxed);
        let roots = ctx.make_root_matches();
        let title = QNodeId(1);

        // Book 0: direct title child → exact level.
        let mut out = Vec::new();
        ctx.process_at_server(title, &roots[0], &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0].bindings[1],
            Binding::Matched {
                level: MatchLevel::Exact,
                ..
            }
        ));

        // Book 1: title under reviews → relaxed level, lower score.
        let mut out1 = Vec::new();
        ctx.process_at_server(title, &roots[1], &mut out1);
        assert_eq!(out1.len(), 1);
        assert!(matches!(
            out1[0].bindings[1],
            Binding::Matched {
                level: MatchLevel::Relaxed,
                ..
            }
        ));
        assert!(out1[0].score < out[0].score);

        // Book 2: no title → null extension with zero score.
        let mut out2 = Vec::new();
        ctx.process_at_server(title, &roots[2], &mut out2);
        assert_eq!(out2.len(), 1);
        assert_eq!(out2[0].bindings[1], Binding::Null);
        assert_eq!(out2[0].score.value(), 0.0);
        // A complete match's max_final equals its score.
        assert_eq!(out2[0].max_final, out2[0].score);
    }

    #[test]
    fn exact_mode_kills_non_exact_candidates() {
        let f = Fixture::new(BOOKS, "//book[./title]");
        let ctx = f.ctx(RelaxMode::Exact);
        let roots = ctx.make_root_matches();
        let title = QNodeId(1);

        let mut out = Vec::new();
        ctx.process_at_server(title, &roots[0], &mut out);
        assert_eq!(out.len(), 1, "exact child match survives");

        let mut out1 = Vec::new();
        ctx.process_at_server(title, &roots[1], &mut out1);
        assert!(out1.is_empty(), "descendant-only match dies in exact mode");

        let mut out2 = Vec::new();
        ctx.process_at_server(title, &roots[2], &mut out2);
        assert!(out2.is_empty(), "no null extensions in exact mode");
    }

    #[test]
    fn composed_root_predicates_decide_levels() {
        // publisher bound under info exactly vs promoted elsewhere: the
        // component predicate p(book, publisher) composes to
        // book/*/publisher (ChildChain(2)), which only book 0 satisfies.
        let src = "<shelf>\
            <book><info><publisher><name>psmith</name></publisher></info></book>\
            <book><publisher><name>psmith</name></publisher><info/></book>\
            </shelf>";
        let f = Fixture::new(src, "//book[./info/publisher/name]");
        let ctx = f.ctx(RelaxMode::Relaxed);
        let roots = ctx.make_root_matches();
        // Server ids: info=1, publisher=2, name=3.
        let info = QNodeId(1);
        let publisher = QNodeId(2);

        for (i, expect_exact) in [(0usize, true), (1usize, false)] {
            let mut after_info = Vec::new();
            ctx.process_at_server(info, &roots[i], &mut after_info);
            assert_eq!(after_info.len(), 1);
            let mut after_pub = Vec::new();
            ctx.process_at_server(publisher, &after_info[0], &mut after_pub);
            assert_eq!(after_pub.len(), 1);
            let level_is_exact = matches!(
                after_pub[0].bindings[2],
                Binding::Matched {
                    level: MatchLevel::Exact,
                    ..
                }
            );
            assert_eq!(
                level_is_exact, expect_exact,
                "book {i}: publisher level; info binding {:?}",
                after_info[0].bindings[1]
            );
        }
    }

    #[test]
    fn multiple_candidates_fan_out() {
        let src = "<r><item><name>a</name><x><name>b</name></x><name>c</name></item></r>";
        let f = Fixture::new(src, "//item[./name]");

        // Exact mode fans out over every valid candidate (here the two
        // `name` children; the nested one dies at the root predicate).
        let ctx = f.ctx(RelaxMode::Exact);
        let roots = ctx.make_root_matches();
        let mut out = Vec::new();
        let produced = ctx.process_at_server(QNodeId(1), &roots[0], &mut out);
        assert_eq!(produced, 2);
        assert_eq!(ctx.metrics.snapshot().partials_created, 1 + 2);

        // Relaxed mode sweeps the same three candidates and emits the
        // dominant one alone: the first in document order among those
        // reaching the best level.
        let ctx = f.ctx(RelaxMode::Relaxed);
        let roots = ctx.make_root_matches();
        let mut out = Vec::new();
        let produced = ctx.process_at_server(QNodeId(1), &roots[0], &mut out);
        assert_eq!(produced, 1);
        let Binding::Matched { node, level } = out[0].bindings[1] else {
            panic!("dominant extension is a match: {:?}", out[0].bindings[1]);
        };
        assert_eq!(level, MatchLevel::Exact);
        assert_eq!(f.doc.text(node), Some("a"));
        let snapshot = ctx.metrics.snapshot();
        assert_eq!(snapshot.server_ops, 1);
        assert_eq!(snapshot.partials_created, 1 + 1);
        assert!(snapshot.predicate_comparisons >= 3);
    }

    /// The dominant candidate is the one the *model* scores highest —
    /// computed per candidate, so per-node models stay correct — not
    /// the first exact one.
    #[test]
    fn dominant_extension_follows_the_score_model() {
        let src = "<r><item><name>a</name><name>b</name><name>c</name></item></r>";
        let f = Fixture::new(src, "//item[./name]");
        let names: Vec<NodeId> = f
            .doc
            .elements()
            .filter(|&n| f.doc.tag_str(n) == "name")
            .collect();
        let model = whirlpool_score::FixedScores::new(
            2,
            &[
                (QNodeId(1), names[0], 0.2),
                (QNodeId(1), names[1], 0.9),
                (QNodeId(1), names[2], 0.9),
            ],
        );
        let ctx = QueryContext::new(
            &f.doc,
            &f.index,
            &f.pattern,
            &model,
            ContextOptions::default(),
        );
        let roots = ctx.make_root_matches();
        let mut out = Vec::new();
        ctx.process_at_server(QNodeId(1), &roots[0], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bindings[1].node(), Some(names[1]));
        assert_eq!(out[0].score.value(), 0.9);
    }

    #[test]
    fn value_eq_uses_index_postings() {
        let f = Fixture::new(BOOKS, "//book[./title = 'wodehouse']");
        let ctx = f.ctx(RelaxMode::Relaxed);
        let roots = ctx.make_root_matches();
        let mut out = Vec::new();
        ctx.process_at_server(QNodeId(1), &roots[0], &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].bindings[1].node().is_some());
    }

    /// An `=` server keeps exactly its tag's descendants whose direct
    /// text equals the value, on an owned and a snapshot backing alike:
    /// a value that also occurs under another tag, a multi-byte value,
    /// `''` (which `<b/>` has no text to equal) and an absent value.
    #[test]
    fn eq_servers_keep_exactly_the_text_matches() {
        let src = "<r>\
            <a><b>x</b><c>x</c><d><b>x</b></d><b>xx</b></a>\
            <a><c>x</c><b>中文</b><b/><b>x</b></a>\
            <a><b>中文</b><d><b>中文</b></d></a>\
            </r>";
        let doc = parse_document(src).unwrap();
        let index = TagIndex::build(&doc);
        let snap = whirlpool_store::Snapshot::from_bytes(&whirlpool_store::build_snapshot_bytes(
            &doc, &index,
        ))
        .unwrap();
        let b = doc.tag_id("b").unwrap();
        for value in ["x", "中文", "", "zz"] {
            // `.//b`: every candidate is exact, so exact mode binds each
            // one the server keeps.
            let pattern = parse_pattern(&format!("//a[.//b = '{value}']")).unwrap();
            let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
            for (backing, dv, iv) in [
                ("owned", doc.view(), index.view()),
                ("snapshot", snap.doc_view(), snap.index_view()),
            ] {
                let options = ContextOptions {
                    relax: RelaxMode::Exact,
                };
                let ctx = QueryContext::new_view(dv, iv, &pattern, &model, options);
                for root in ctx.make_root_matches() {
                    let mut out = Vec::new();
                    ctx.process_at_server(QNodeId(1), &root, &mut out);
                    let kept: Vec<NodeId> =
                        out.iter().filter_map(|m| m.bindings[1].node()).collect();
                    let brute: Vec<NodeId> = (doc.descendants_or_self(root.root()).skip(1))
                        .filter(|&n| doc.tag(n) == b && doc.text(n) == Some(value))
                        .collect();
                    assert_eq!(kept, brute, "{backing}: '{value}' under {:?}", root.root());
                }
            }
        }
    }

    #[test]
    fn missing_tag_takes_null_path() {
        let f = Fixture::new(BOOKS, "//book[./nosuchtag]");
        let ctx = f.ctx(RelaxMode::Relaxed);
        let roots = ctx.make_root_matches();
        let mut out = Vec::new();
        ctx.process_at_server(QNodeId(1), &roots[0], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bindings[1], Binding::Null);
    }

    /// Locate against the definition — a root's range holds exactly the
    /// server's postings strictly inside its subtree — for every
    /// element of the document as a root, in any batch order: wherever
    /// the previous batch left the server's finger, document-order
    /// batches sweep forward from it and the others are sorted first.
    #[test]
    fn batch_locate_agrees_with_per_match_locate_in_any_order() {
        let src = "<lib><shelf>\
            <book><title>a</title><info><isbn>1</isbn><title>x</title></info></book>\
            <box><book><title>b</title></book><title>c</title></box>\
            </shelf><title>d</title><book><isbn>2</isbn></book></lib>";
        // Servers: title (postings), isbn = '1' (postings, text-filtered),
        // * (wildcard), nosuchtag (absent).
        let f = Fixture::new(
            src,
            "//book[./title and ./info/isbn = '1' and ./* and ./nosuchtag]",
        );
        let ctx = f.ctx(RelaxMode::Relaxed);
        let all: Vec<NodeId> = f.doc.elements().collect();
        assert!(all.len() > ctx.root_candidates().len());
        let n = all.len();
        let strided: Vec<NodeId> = (0..n).map(|i| all[(i * 5 + 3) % n]).collect();
        assert_eq!(n, 14, "the stride must stay coprime to the element count");
        let reversed: Vec<NodeId> = all.iter().rev().copied().collect();

        for server in ctx.server_ids() {
            let mut plan = Vec::new();
            for roots in [&all, &reversed, &strided] {
                ctx.locate_batch_at_server(server, roots, &mut plan);
                assert_eq!(plan.len(), roots.len());
                for (&root, &loc) in roots.iter().zip(&plan) {
                    assert_eq!(loc, ctx.locate_one(server, root), "{server:?} {root:?}");
                    let end = f.index.view().subtree_end(root);
                    match (&ctx.server_ranges[server.index() - 1], loc) {
                        (ServerRange::Absent, Located::Absent) => {}
                        (ServerRange::Any, Located::Any(lo, hi)) => {
                            assert_eq!((lo, hi), (root.index() as u32 + 1, end.index() as u32));
                        }
                        (ServerRange::Postings { list, .. }, Located::Slice(lo, hi)) => {
                            let inside: Vec<NodeId> = list
                                .iter()
                                .copied()
                                .filter(|&c| c > root && c < end)
                                .collect();
                            assert_eq!(&list[lo as usize..hi as usize], &inside[..]);
                        }
                        (_, loc) => panic!("{server:?}: {loc:?} at the wrong kind of server"),
                    }
                }
            }
        }
    }

    /// Builds one root with `children` direct `<c/>` children so a
    /// single server op has a candidate population far larger than one
    /// interrupt span.
    fn wide_fixture(children: usize) -> Fixture {
        let mut src = String::with_capacity(children * 4 + 16);
        src.push_str("<r>");
        for _ in 0..children {
            src.push_str("<c/>");
        }
        src.push_str("</r>");
        Fixture::new(&src, "//r[./c]")
    }

    #[test]
    fn tripped_interrupt_stops_within_one_span() {
        let total = INTERRUPT_SPAN * 4;
        let f = wide_fixture(total);
        let ctx = f.ctx(RelaxMode::Relaxed);
        let roots = ctx.make_root_matches();
        let mut out = Vec::new();

        let token = crate::fault::CancelToken::new();
        token.cancel();
        let control = crate::fault::RunControl::new(
            crate::fault::Budget::new(None, None).with_cancel(Some(token)),
            None,
            f.pattern.len(),
        );
        let o = ctx.process_located_at_server_interruptible(
            QNodeId(1),
            &roots[0],
            ctx.locate_one(QNodeId(1), roots[0].root()),
            &mut out,
            control.op_interrupt(),
        );

        assert!(o.interrupted);
        assert_eq!(o.produced, out.len());
        // The trip is detected at segment boundaries, so an op can
        // overshoot by at most one span — never by the whole candidate
        // population — and the relaxed arm still emits the best of the
        // span it did sweep (and no null for the tail it did not).
        assert_eq!(
            ctx.metrics.snapshot().predicate_comparisons,
            INTERRUPT_SPAN as u64
        );
        assert_eq!(o.produced, 1);
        assert!(out[0].bindings[1].node().is_some());

        // Exact mode keeps its fan-out, cut at the same boundary.
        let ctx = f.ctx(RelaxMode::Exact);
        let roots = ctx.make_root_matches();
        let mut out = Vec::new();
        let o = ctx.process_located_at_server_interruptible(
            QNodeId(1),
            &roots[0],
            ctx.locate_one(QNodeId(1), roots[0].root()),
            &mut out,
            control.op_interrupt(),
        );
        assert!(o.interrupted);
        assert_eq!(o.produced, INTERRUPT_SPAN);
        assert!(o.produced < total);
    }

    #[test]
    fn untripped_interrupt_leaves_the_kernel_bit_identical() {
        // Deliberately not a multiple of the span or the lane width, so
        // the segmented sweep exercises a ragged tail.
        let total = INTERRUPT_SPAN * 2 + 37;
        for relax in [RelaxMode::Exact, RelaxMode::Relaxed] {
            let f = wide_fixture(total);

            let plain_ctx = f.ctx(relax);
            let roots = plain_ctx.make_root_matches();
            let mut plain_out = Vec::new();
            let produced_plain = plain_ctx.process_at_server(QNodeId(1), &roots[0], &mut plain_out);

            let seg_ctx = f.ctx(relax);
            let seg_roots = seg_ctx.make_root_matches();
            let token = crate::fault::CancelToken::new();
            let control = crate::fault::RunControl::new(
                crate::fault::Budget::new(None, None).with_cancel(Some(token)),
                None,
                f.pattern.len(),
            );
            let mut seg_out = Vec::new();
            let o = seg_ctx.process_located_at_server_interruptible(
                QNodeId(1),
                &seg_roots[0],
                seg_ctx.locate_one(QNodeId(1), seg_roots[0].root()),
                &mut seg_out,
                control.op_interrupt(),
            );

            assert!(!o.interrupted);
            assert_eq!(o.produced, produced_plain);
            match relax {
                RelaxMode::Exact => assert_eq!(o.produced, total),
                RelaxMode::Relaxed => assert_eq!(o.produced, 1),
            }
            let bindings =
                |v: &Vec<PartialMatch>| v.iter().map(|m| m.bindings.clone()).collect::<Vec<_>>();
            assert_eq!(bindings(&seg_out), bindings(&plain_out));

            // Work accounting must not drift either: the segmented
            // sweep does the same comparisons over the same lanes.
            let plain = plain_ctx.metrics.snapshot();
            let seg = seg_ctx.metrics.snapshot();
            assert_eq!(seg.predicate_comparisons, plain.predicate_comparisons);
            assert_eq!(seg.kernel_lanes, plain.kernel_lanes);
            assert_eq!(seg.partials_created, plain.partials_created);
        }
    }
}
