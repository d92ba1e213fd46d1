//! Amortized descendant-range scans over sorted posting lists.
//!
//! [`TagIndexView::descendants_with_tag`](crate::TagIndexView::descendants_with_tag)
//! answers each query with two binary searches over the full posting
//! list. When a caller scans *many* ancestors in ascending document
//! order — exactly what happens when a query context resolves every
//! root candidate against a server's postings — the binary searches
//! re-cover the same prefix over and over. A [`RangeCursor`] remembers
//! where the previous range ended and *gallops* (exponential search)
//! forward from there, so a full merge pass over `r` ancestors and an
//! `n`-element posting list costs `O(n + r)` amortized instead of
//! `O(r log n)`. Non-monotone queries are still answered correctly via
//! a binary-search fallback.
//!
//! The engines' batched locate uses it to resolve match roots against a
//! server's postings; it serves nothing else. Roots can nest (an `item`
//! inside an `item`); a nested root lies inside the previous range, so
//! its gallop starts at that range's lower bound rather than past its
//! end.

use whirlpool_xml::NodeId;

/// A stateful scanner over one sorted posting list (see module docs).
///
/// The cursor never mutates the list; it only caches the bounds of the
/// previous query as galloping start points.
pub struct RangeCursor<'a> {
    list: &'a [NodeId],
    /// `[pos, end)` is the range the previous `bounds` call returned;
    /// every id before `pos` was `<=` that call's ancestor.
    pos: usize,
    end: usize,
}

impl<'a> RangeCursor<'a> {
    /// A cursor over `list`, which must be sorted ascending (posting
    /// lists from [`TagIndexView`](crate::TagIndexView) always are).
    pub fn new(list: &'a [NodeId]) -> Self {
        debug_assert!(
            list.windows(2).all(|w| w[0] < w[1]),
            "posting list not sorted"
        );
        Self::resume(list, (0, 0))
    }

    /// A cursor over `list` that gallops from `hint` — the
    /// [`hint`](RangeCursor::hint) of an earlier cursor over the same
    /// list. Any value is safe: it only chooses where the first search
    /// starts.
    pub fn resume(list: &'a [NodeId], hint: (usize, usize)) -> Self {
        let pos = hint.0.min(list.len());
        RangeCursor {
            list,
            pos,
            end: hint.1.clamp(pos, list.len()),
        }
    }

    /// The range the previous [`bounds`](RangeCursor::bounds) call
    /// returned: where the next search starts.
    pub fn hint(&self) -> (usize, usize) {
        (self.pos, self.end)
    }

    /// The `[lo, hi)` index range of ids in the half-open id interval
    /// `(ancestor, end)` — i.e. `ancestor`'s proper descendants when
    /// `end` is its subtree end. Galloping starts past the previous
    /// range when `ancestor` lies beyond it (the document-order scan:
    /// one probe when nothing sits between two ancestors), at its lower
    /// bound when `ancestor` is inside it (nested, or the same one
    /// again), and gives way to a binary search when `ancestor` lies
    /// before it.
    pub fn bounds(&mut self, ancestor: NodeId, end: u32) -> (usize, usize) {
        let behind = |i: usize| i == 0 || self.list[i - 1] <= ancestor;
        let lo = if behind(self.end) {
            gallop_past(self.list, self.end, |n| n <= ancestor)
        } else if behind(self.pos) {
            gallop_past(self.list, self.pos, |n| n <= ancestor)
        } else {
            self.list.partition_point(|&n| n <= ancestor)
        };
        let hi = gallop_past(self.list, lo, |n| (n.index() as u32) < end);
        (self.pos, self.end) = (lo, hi);
        (lo, hi)
    }

    /// The sub-slice of ids in `(ancestor, end)`.
    pub fn range(&mut self, ancestor: NodeId, end: u32) -> &'a [NodeId] {
        let (lo, hi) = self.bounds(ancestor, end);
        &self.list[lo..hi]
    }
}

/// First index `>= start` whose element fails `pred`, assuming `pred`
/// is monotone (true then false) over `list[start..]`: exponential
/// probe doubling outward from `start`, then a binary search inside the
/// bracketed window.
fn gallop_past(list: &[NodeId], start: usize, pred: impl Fn(NodeId) -> bool) -> usize {
    let mut step = 1usize;
    let mut lo = start;
    let mut probe = start;
    while probe < list.len() && pred(list[probe]) {
        lo = probe + 1;
        probe += step;
        step <<= 1;
    }
    let hi = probe.min(list.len());
    lo + list[lo..hi].partition_point(|&n| pred(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TagIndex;
    use whirlpool_xml::parse_document;

    fn ids(indices: &[usize]) -> Vec<NodeId> {
        indices.iter().map(|&i| NodeId::from_index(i)).collect()
    }

    /// Reference implementation: the two binary searches.
    fn naive(list: &[NodeId], ancestor: NodeId, end: u32) -> (usize, usize) {
        let lo = list.partition_point(|&n| n <= ancestor);
        let hi = list.partition_point(|&n| (n.index() as u32) < end);
        (lo, hi)
    }

    #[test]
    fn ascending_queries_match_binary_search() {
        let list = ids(&[2, 3, 5, 8, 13, 21, 34, 55]);
        let mut cursor = RangeCursor::new(&list);
        for (anc, end) in [(1, 4), (3, 9), (3, 60), (20, 40), (55, 100), (90, 95)] {
            let a = NodeId::from_index(anc);
            assert_eq!(
                cursor.bounds(a, end),
                naive(&list, a, end),
                "anc {anc} end {end}"
            );
        }
    }

    #[test]
    fn regressing_queries_fall_back_correctly() {
        let list = ids(&[2, 3, 5, 8, 13, 21, 34, 55]);
        let mut cursor = RangeCursor::new(&list);
        for (anc, end) in [(30, 60), (1, 9), (20, 40), (0, 100), (55, 56)] {
            let a = NodeId::from_index(anc);
            assert_eq!(
                cursor.bounds(a, end),
                naive(&list, a, end),
                "anc {anc} end {end}"
            );
        }
    }

    #[test]
    fn resumed_cursors_agree_from_any_hint() {
        let list = ids(&[2, 3, 5, 8, 13, 21, 34, 55]);
        let queries = [(1, 4), (3, 9), (3, 9), (4, 9), (20, 40), (0, 100), (55, 56)];
        for pos in 0..=list.len() + 1 {
            for end in 0..=list.len() + 1 {
                let mut hint = (pos, end);
                for (anc, e) in queries {
                    // One cursor per query, carrying only the hint over.
                    let mut cursor = RangeCursor::resume(&list, hint);
                    let a = NodeId::from_index(anc);
                    assert_eq!(cursor.bounds(a, e), naive(&list, a, e), "hint {hint:?}");
                    hint = cursor.hint();
                }
            }
        }
    }

    #[test]
    fn empty_list_yields_empty_ranges() {
        let list: Vec<NodeId> = Vec::new();
        let mut cursor = RangeCursor::new(&list);
        assert_eq!(cursor.bounds(NodeId::from_index(3), 10), (0, 0));
        assert!(cursor.range(NodeId::from_index(4), 10).is_empty());
    }

    #[test]
    fn merge_pass_equals_descendant_scans() {
        let doc = whirlpool_xmark::generate(&whirlpool_xmark::GeneratorConfig::items(60));
        let index = TagIndex::build(&doc);
        let index = index.view();
        let item = doc.tag_id("item").unwrap();
        for tag_name in ["parlist", "keyword", "quantity", "bold"] {
            let Some(tag) = doc.tag_id(tag_name) else {
                continue;
            };
            let mut cursor = RangeCursor::new(index.nodes_with_tag(tag));
            // Roots in document order: exactly the context's merge pass.
            for &root in index.nodes_with_tag(item) {
                let end = index.subtree_end(root).index() as u32;
                assert_eq!(
                    cursor.range(root, end),
                    index.descendants_with_tag(root, tag),
                    "tag {tag_name} root {root:?}"
                );
            }
        }
    }

    #[test]
    fn nested_ancestors_stay_consistent() {
        // Nested same-tag roots: the next ancestor can sit *inside* the
        // previous range; the gallop must still find the right bounds.
        let doc = parse_document("<r><a><b/><a><b/><b/></a><b/></a><a><b/></a></r>").unwrap();
        let index = TagIndex::build(&doc);
        let index = index.view();
        let a = doc.tag_id("a").unwrap();
        let b = doc.tag_id("b").unwrap();
        let mut cursor = RangeCursor::new(index.nodes_with_tag(b));
        for &root in index.nodes_with_tag(a) {
            let end = index.subtree_end(root).index() as u32;
            assert_eq!(cursor.range(root, end), index.descendants_with_tag(root, b));
        }
    }
}
