//! Flat per-node structural columns.
//!
//! The scoring model only ever needs *root-relative* structural facts
//! about a candidate — parent-of, depth delta, containment (paper
//! Definitions 4.1–4.4). All three are O(1) lookups against flat
//! arrays indexed by [`NodeId`], so the server-op hot loop never walks
//! parent links (an O(depth) climb per candidate). They are the
//! document's own `parent`, `depth` and `subtree_end` arrays, written
//! by the parser, copied by [`TagIndex::build`](crate::TagIndex::build)
//! and stored by a snapshot as they are.

use whirlpool_pattern::ComposedAxis;
use whirlpool_xml::NodeId;

/// Sentinel parent value for the synthetic document root.
const NO_PARENT: u32 = u32::MAX;

/// Fixed lane width of the branch-free batch sweeps: candidate ids are
/// processed in chunks of this many elements, each chunk a straight-
/// line loop with no data-dependent branches, so the compiler can
/// autovectorize the compares against the flat columns.
pub const KERNEL_LANE: usize = 16;

/// Lanes needed to sweep `n` candidates (the unit of the
/// `kernel_lanes` metric): `ceil(n / KERNEL_LANE)`.
#[inline]
pub fn lanes_for(n: usize) -> u64 {
    n.div_ceil(KERNEL_LANE) as u64
}

/// Number of set entries in a 0/1 byte mask.
#[inline]
pub fn mask_count(mask: &[u8]) -> u64 {
    mask.iter().map(|&b| b as u64).sum()
}

/// Applies `f` to every candidate id, writing a 0/1 byte per element:
/// full [`KERNEL_LANE`]-wide chunks run as fixed-width inner loops, the
/// tail element-wise. Returns the lanes swept.
#[inline]
fn sweep_map(cands: &[u32], out: &mut [u8], f: impl Fn(u32) -> u8) -> u64 {
    debug_assert_eq!(cands.len(), out.len());
    let mut cs = cands.chunks_exact(KERNEL_LANE);
    let mut os = out.chunks_exact_mut(KERNEL_LANE);
    for (c, o) in (&mut cs).zip(&mut os) {
        for i in 0..KERNEL_LANE {
            o[i] = f(c[i]);
        }
    }
    for (c, o) in cs.remainder().iter().zip(os.into_remainder()) {
        *o = f(*c);
    }
    lanes_for(cands.len())
}

/// [`sweep_map`], but ANDing into an existing alive mask
/// (`alive[i] &= f(cands[i])`). Returns the lanes swept.
#[inline]
fn sweep_refine(cands: &[u32], alive: &mut [u8], f: impl Fn(u32) -> u8) -> u64 {
    debug_assert_eq!(cands.len(), alive.len());
    let mut cs = cands.chunks_exact(KERNEL_LANE);
    let mut os = alive.chunks_exact_mut(KERNEL_LANE);
    for (c, o) in (&mut cs).zip(&mut os) {
        for i in 0..KERNEL_LANE {
            o[i] &= f(c[i]);
        }
    }
    for (c, o) in cs.remainder().iter().zip(os.into_remainder()) {
        *o &= f(*c);
    }
    lanes_for(cands.len())
}

/// Borrowed structural columns: the slice triple every structural
/// predicate and batch sweep is defined on.
///
/// Because node ids are assigned in pre-order, containment is the pure
/// integer test `a < b && b < subtree_end[a]`, and the composed
/// structural predicates of the compiled plan reduce to one or two
/// integer comparisons (see [`ColumnsView::holds`]). Assembled by
/// [`ColumnsView::from_raw`] over an in-memory index's arrays or a
/// memory-mapped snapshot's — the engines cannot tell the difference,
/// which is what makes snapshot attach zero-copy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ColumnsView<'a> {
    parent: &'a [u32],
    depth: &'a [u16],
    subtree_end: &'a [u32],
}

impl<'a> ColumnsView<'a> {
    /// Assembles a view over raw column slices (all indexed by raw node
    /// id, all the same length). The caller is responsible for the
    /// structural invariants — snapshot attach validates them before
    /// ever constructing a view.
    ///
    /// # Panics
    /// Panics if the slice lengths disagree.
    pub fn from_raw(parent: &'a [u32], depth: &'a [u16], subtree_end: &'a [u32]) -> Self {
        assert_eq!(parent.len(), depth.len());
        assert_eq!(parent.len(), subtree_end.len());
        ColumnsView {
            parent,
            depth,
            subtree_end,
        }
    }

    /// Number of nodes covered (including the synthetic root).
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the columns cover no nodes at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The parent of `n`, `None` for the document root.
    #[inline]
    pub fn parent_of(&self, n: NodeId) -> Option<NodeId> {
        match self.parent[n.index()] {
            NO_PARENT => None,
            p => Some(NodeId::from_index(p as usize)),
        }
    }

    /// The depth of `n`; the document root has depth 0.
    #[inline]
    pub fn depth_of(&self, n: NodeId) -> usize {
        self.depth[n.index()] as usize
    }

    /// One past the last descendant of `n`, as a raw id.
    #[inline]
    pub fn subtree_end_raw(&self, n: NodeId) -> u32 {
        self.subtree_end[n.index()]
    }

    /// True iff `ancestor` is a *proper* ancestor of `descendant`:
    /// with pre-order ids, `a < d && d < subtree_end[a]`.
    #[inline]
    pub fn contains(&self, ancestor: NodeId, descendant: NodeId) -> bool {
        ancestor < descendant && (descendant.index() as u32) < self.subtree_end[ancestor.index()]
    }

    /// True iff `parent` is the parent of `child`.
    #[inline]
    pub fn is_parent(&self, parent: NodeId, child: NodeId) -> bool {
        self.parent[child.index()] == parent.index() as u32
    }

    /// Does the composed structural predicate hold between two
    /// arbitrary nodes?
    ///
    /// * `ChildChain(1)` (pc) — one parent lookup;
    /// * `ChildChain(n)` — containment plus a depth delta;
    /// * `Descendant` (ad) — containment.
    #[inline]
    pub fn holds(&self, axis: ComposedAxis, ancestor: NodeId, descendant: NodeId) -> bool {
        match axis {
            ComposedAxis::ChildChain(1) => self.is_parent(ancestor, descendant),
            ComposedAxis::ChildChain(n) => {
                self.contains(ancestor, descendant)
                    && self.depth[descendant.index()] as u32
                        == self.depth[ancestor.index()] as u32 + n
            }
            ComposedAxis::Descendant => self.contains(ancestor, descendant),
        }
    }

    /// [`holds`](Self::holds) for a `descendant` already known to be a
    /// proper descendant of `ancestor` (the range-scan invariant of the
    /// server-op candidate loop): containment needs no re-check, so
    /// `Descendant` is free and `ChildChain(n)` is one depth compare.
    #[inline]
    pub fn holds_in_range(&self, axis: ComposedAxis, ancestor: NodeId, descendant: NodeId) -> bool {
        debug_assert!(self.contains(ancestor, descendant));
        match axis {
            ComposedAxis::ChildChain(1) => self.is_parent(ancestor, descendant),
            ComposedAxis::ChildChain(n) => {
                self.depth[descendant.index()] as u32 == self.depth[ancestor.index()] as u32 + n
            }
            ComposedAxis::Descendant => true,
        }
    }

    /// Batch form of [`holds_in_range`](Self::holds_in_range): writes
    /// `out[i] = holds_in_range(axis, ancestor, cands[i])` as 0/1
    /// bytes, one branch-free [`KERNEL_LANE`]-chunked sweep per axis
    /// shape (the axis dispatch is hoisted out of the loop). Every
    /// `cands[i]` must already lie in `ancestor`'s subtree range.
    /// Returns the lanes swept.
    pub fn sweep_in_range(
        &self,
        axis: ComposedAxis,
        ancestor: NodeId,
        cands: &[u32],
        out: &mut [u8],
    ) -> u64 {
        match axis {
            ComposedAxis::ChildChain(1) => {
                let p = ancestor.index() as u32;
                sweep_map(cands, out, |c| (self.parent[c as usize] == p) as u8)
            }
            ComposedAxis::ChildChain(n) => {
                let want = self.depth[ancestor.index()] as u32 + n;
                sweep_map(cands, out, |c| {
                    (self.depth[c as usize] as u32 == want) as u8
                })
            }
            ComposedAxis::Descendant => {
                out.fill(1);
                lanes_for(cands.len())
            }
        }
    }

    /// Batch conditional-predicate sweep, ancestor fixed: ANDs
    /// `holds(axis, ancestor, cands[i])` into `alive[i]` for every
    /// candidate (no range precondition — containment is re-checked
    /// branch-free). Returns the lanes swept.
    pub fn sweep_refine_from_ancestor(
        &self,
        axis: ComposedAxis,
        ancestor: NodeId,
        cands: &[u32],
        alive: &mut [u8],
    ) -> u64 {
        let a = ancestor.index() as u32;
        match axis {
            ComposedAxis::ChildChain(1) => {
                sweep_refine(cands, alive, |c| (self.parent[c as usize] == a) as u8)
            }
            ComposedAxis::ChildChain(n) => {
                let end = self.subtree_end[a as usize];
                let want = self.depth[a as usize] as u32 + n;
                sweep_refine(cands, alive, |c| {
                    ((a < c) & (c < end) & (self.depth[c as usize] as u32 == want)) as u8
                })
            }
            ComposedAxis::Descendant => {
                let end = self.subtree_end[a as usize];
                sweep_refine(cands, alive, |c| ((a < c) & (c < end)) as u8)
            }
        }
    }

    /// Batch conditional-predicate sweep, descendant fixed: ANDs
    /// `holds(axis, cands[i], descendant)` into `alive[i]` for every
    /// candidate. Returns the lanes swept.
    pub fn sweep_refine_to_descendant(
        &self,
        axis: ComposedAxis,
        descendant: NodeId,
        cands: &[u32],
        alive: &mut [u8],
    ) -> u64 {
        let d = descendant.index() as u32;
        match axis {
            ComposedAxis::ChildChain(1) => {
                let p = self.parent[d as usize];
                sweep_refine(cands, alive, |c| (c == p) as u8)
            }
            ComposedAxis::ChildChain(n) => {
                let d_depth = self.depth[d as usize] as u32;
                sweep_refine(cands, alive, |c| {
                    ((c < d)
                        & (d < self.subtree_end[c as usize])
                        & (d_depth == self.depth[c as usize] as u32 + n)) as u8
                })
            }
            ComposedAxis::Descendant => sweep_refine(cands, alive, |c| {
                ((c < d) & (d < self.subtree_end[c as usize])) as u8
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whirlpool_xml::{parse_document, Document};

    fn columns(src: &str) -> (Document, crate::TagIndex) {
        let doc = parse_document(src).unwrap();
        let index = crate::TagIndex::build(&doc);
        (doc, index)
    }

    /// `y`'s proper ancestors, nearest first, by parent hops.
    fn ancestors(doc: &Document, y: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(doc.parent(y), |&p| doc.parent(p))
    }

    /// The reference the columns are checked against, from parent links
    /// alone: `ChildChain(n)` holds iff `n` parent hops from `y` reach
    /// `x`, `Descendant` iff some number of hops does.
    fn by_parent_hops(doc: &Document, axis: ComposedAxis, x: NodeId, y: NodeId) -> bool {
        let mut hops = ancestors(doc, y);
        match axis {
            ComposedAxis::ChildChain(n) => hops.nth(n as usize - 1) == Some(x),
            ComposedAxis::Descendant => hops.any(|p| p == x),
        }
    }

    #[test]
    fn parent_and_depth_match_document() {
        let (doc, cols) = columns("<a><b><c/><d/></b><e/></a>");
        let cols = cols.view().columns();
        for id in doc.all_nodes() {
            assert_eq!(cols.parent_of(id), doc.parent(id), "{id:?}");
            assert_eq!(cols.depth_of(id), ancestors(&doc, id).count(), "{id:?}");
        }
        assert_eq!(cols.parent_of(doc.document_root()), None);
    }

    #[test]
    fn containment_matches_parent_links() {
        let (doc, cols) = columns("<a><b><c/><d/></b><e/></a><a><b/></a>");
        let cols = cols.view().columns();
        for x in doc.all_nodes() {
            for y in doc.all_nodes() {
                let expected = by_parent_hops(&doc, ComposedAxis::Descendant, x, y);
                assert_eq!(cols.contains(x, y), expected, "{x:?} {y:?}");
                assert_eq!(doc.is_ancestor(x, y), expected, "{x:?} {y:?}");
                assert_eq!(cols.is_parent(x, y), doc.is_parent(x, y), "{x:?} {y:?}");
            }
        }
    }

    #[test]
    fn lane_sweeps_match_scalar_predicates() {
        // Deep + wide enough to cross the KERNEL_LANE chunk boundary.
        let mut src = String::from("<a><b>");
        for _ in 0..(3 * KERNEL_LANE) {
            src.push_str("<c><d/></c>");
        }
        src.push_str("</b><c/></a>");
        let (doc, cols) = columns(&src);
        let cols = cols.view().columns();
        let axes = [
            ComposedAxis::ChildChain(1),
            ComposedAxis::ChildChain(2),
            ComposedAxis::ChildChain(3),
            ComposedAxis::Descendant,
        ];
        for fixed in doc.all_nodes() {
            // In-range sweep: candidates are `fixed`'s proper subtree.
            let lo = fixed.index() as u32 + 1;
            let hi = cols.subtree_end_raw(fixed);
            let in_range: Vec<u32> = (lo..hi).collect();
            let every: Vec<u32> = doc.all_nodes().map(|n| n.index() as u32).collect();
            for axis in axes {
                let mut mask = vec![0u8; in_range.len()];
                let lanes = cols.sweep_in_range(axis, fixed, &in_range, &mut mask);
                assert_eq!(lanes, lanes_for(in_range.len()));
                for (i, &c) in in_range.iter().enumerate() {
                    let cand = NodeId::from_index(c as usize);
                    assert_eq!(
                        mask[i] != 0,
                        cols.holds_in_range(axis, fixed, cand),
                        "in-range {axis:?} {fixed:?} {cand:?}"
                    );
                }

                let mut alive = vec![1u8; every.len()];
                cols.sweep_refine_from_ancestor(axis, fixed, &every, &mut alive);
                for (i, &c) in every.iter().enumerate() {
                    let cand = NodeId::from_index(c as usize);
                    assert_eq!(
                        alive[i] != 0,
                        cols.holds(axis, fixed, cand),
                        "from-ancestor {axis:?} {fixed:?} {cand:?}"
                    );
                }

                let mut alive = vec![1u8; every.len()];
                cols.sweep_refine_to_descendant(axis, fixed, &every, &mut alive);
                for (i, &c) in every.iter().enumerate() {
                    let cand = NodeId::from_index(c as usize);
                    assert_eq!(
                        alive[i] != 0,
                        cols.holds(axis, cand, fixed),
                        "to-descendant {axis:?} {cand:?} {fixed:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn refine_sweeps_only_clear_bits() {
        let (doc, cols) = columns("<a><b><c/></b><b/></a>");
        let cols = cols.view().columns();
        let every: Vec<u32> = doc.all_nodes().map(|n| n.index() as u32).collect();
        let root = doc.all_nodes().next().unwrap();
        let mut alive = vec![0u8; every.len()];
        cols.sweep_refine_from_ancestor(ComposedAxis::Descendant, root, &every, &mut alive);
        assert!(alive.iter().all(|&b| b == 0), "refine set a dead bit");
        assert_eq!(mask_count(&alive), 0);
    }

    #[test]
    fn composed_axes_match_parent_hops() {
        let (doc, cols) = columns("<a><b><c><d/></c></b><c/></a>");
        let cols = cols.view().columns();
        for axis in [
            ComposedAxis::ChildChain(1),
            ComposedAxis::ChildChain(2),
            ComposedAxis::ChildChain(3),
            ComposedAxis::Descendant,
        ] {
            for x in doc.all_nodes() {
                for y in doc.all_nodes() {
                    let expected = by_parent_hops(&doc, axis, x, y);
                    assert_eq!(cols.holds(axis, x, y), expected, "{axis:?} {x:?} {y:?}");
                    if cols.contains(x, y) {
                        assert_eq!(
                            cols.holds_in_range(axis, x, y),
                            expected,
                            "in-range {axis:?} {x:?} {y:?}"
                        );
                    }
                }
            }
        }
    }
}
