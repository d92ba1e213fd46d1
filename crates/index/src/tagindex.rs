//! Tag postings with subtree range scans, in one flat layout: the
//! arrays a snapshot stores, built in memory by [`TagIndex::build`] or
//! borrowed out of a mapped file.

use crate::columns::ColumnsView;
use whirlpool_xml::{Document, NodeId, TagId};

/// Postings for every tag of a document, in document order, plus the
/// document's structural columns.
///
/// The index owns exactly the flat arrays a snapshot stores, so
/// [`TagIndex::view`] and a mapped snapshot's index view are the same
/// [`TagIndexView`] over different memory, and a snapshot writer copies
/// the arrays as they are. Value tests have no postings of their own:
/// a reader filters a tag's postings by the document's text.
pub struct TagIndex {
    /// `post_offsets[t]..post_offsets[t+1]` brackets tag `t`'s postings
    /// in `post_ids` (`tag_count + 1` entries).
    post_offsets: Vec<u32>,
    /// Every element id, grouped by tag, ascending within a tag.
    post_ids: Vec<u32>,
    /// The document's `parent`, `depth` and `subtree_end` arrays,
    /// copied (see [`ColumnsView`]).
    parent: Vec<u32>,
    depth: Vec<u16>,
    subtree_end: Vec<u32>,
}

impl TagIndex {
    /// Builds the index: one counting pass sizes every tag's postings
    /// and a second pass fills them in document order. The structural
    /// columns are the document's own, copied.
    pub fn build(doc: &Document) -> Self {
        let doc = doc.view();
        let tag_count = doc.tag_count();
        let mut post_offsets = vec![0u32; tag_count + 1];
        for id in doc.elements() {
            post_offsets[doc.tag(id).index() + 1] += 1;
        }
        for t in 0..tag_count {
            post_offsets[t + 1] += post_offsets[t];
        }
        let mut next = post_offsets[..tag_count].to_vec();
        let mut post_ids = vec![0u32; doc.len() - 1];
        for id in doc.elements() {
            let slot = &mut next[doc.tag(id).index()];
            post_ids[*slot as usize] = id.index() as u32;
            *slot += 1;
        }

        TagIndex {
            post_offsets,
            post_ids,
            parent: doc.parent.to_vec(),
            depth: doc.depth.to_vec(),
            subtree_end: doc.subtree_end.to_vec(),
        }
    }

    /// This index as a borrowed [`TagIndexView`] — the surface every
    /// reader goes through.
    pub fn view(&self) -> TagIndexView<'_> {
        TagIndexView::from_raw(
            ColumnsView::from_raw(&self.parent, &self.depth, &self.subtree_end),
            &self.post_offsets,
            &self.post_ids,
        )
    }
}

/// A borrowed tag index: per-tag postings and the structural columns,
/// as flat slices of either a [`TagIndex`] or a mapped snapshot.
/// `Copy`, so contexts and kernels pass it by value, and every accessor
/// returns data with the backing's lifetime.
///
/// [`from_raw`](TagIndexView::from_raw) does no validation: it trusts
/// the slices it is given. `whirlpool-store` checksums and structurally
/// validates a snapshot before assembling a view, which is what keeps
/// the accessors' plain indexing panic-free.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TagIndexView<'a> {
    columns: ColumnsView<'a>,
    post_offsets: &'a [u32],
    post_ids: &'a [u32],
}

impl<'a> TagIndexView<'a> {
    /// Assembles a view over the index arrays (see [`TagIndex`] for
    /// their layout).
    ///
    /// # Panics
    /// Panics on gross shape mismatches; finer invariants (sortedness,
    /// ids in range) are the snapshot validator's job.
    pub fn from_raw(
        columns: ColumnsView<'a>,
        post_offsets: &'a [u32],
        post_ids: &'a [u32],
    ) -> Self {
        assert!(!post_offsets.is_empty());
        assert_eq!(*post_offsets.last().unwrap() as usize, post_ids.len());
        TagIndexView {
            columns,
            post_offsets,
            post_ids,
        }
    }

    /// The document's structural columns.
    #[inline]
    pub fn columns(&self) -> ColumnsView<'a> {
        self.columns
    }

    /// The raw posting arrays `(post_offsets, post_ids)`.
    pub fn postings_raw(&self) -> (&'a [u32], &'a [u32]) {
        (self.post_offsets, self.post_ids)
    }

    /// All nodes with `tag`, in document order.
    pub fn nodes_with_tag(&self, tag: TagId) -> &'a [NodeId] {
        let t = tag.index();
        if t + 1 >= self.post_offsets.len() {
            return &[];
        }
        let lo = self.post_offsets[t] as usize;
        let hi = self.post_offsets[t + 1] as usize;
        self.post_ids
            .get(lo..hi)
            .map_or(&[], NodeId::slice_from_raw)
    }

    /// Raw subtree extent of `node`.
    #[inline]
    fn extent(&self, node: NodeId) -> u32 {
        self.columns.subtree_end_raw(node)
    }

    /// One past the last descendant of `node` in id order. Because
    /// [`NodeId`]s are assigned in pre-order, the descendants of `node`
    /// are exactly the ids in `(node, subtree_end(node))`, so
    /// intersecting that interval with a sorted posting list is two
    /// binary searches.
    #[inline]
    pub fn subtree_end(&self, node: NodeId) -> NodeId {
        NodeId::from_index(self.extent(node) as usize)
    }

    /// All proper descendants of `ancestor` (any tag), as the
    /// contiguous node-id range `(ancestor, subtree_end)`. Wildcard
    /// node tests scan this directly.
    pub fn descendants_any(&self, ancestor: NodeId) -> impl Iterator<Item = NodeId> {
        let start = ancestor.index() as u32 + 1;
        let end = self.extent(ancestor);
        (start..end).map(|i| NodeId::from_index(i as usize))
    }

    /// Nodes with `tag` that are proper descendants of `ancestor` — a
    /// contiguous slice of the tag's postings, found by two binary
    /// searches.
    pub fn descendants_with_tag(&self, ancestor: NodeId, tag: TagId) -> &'a [NodeId] {
        let list = self.nodes_with_tag(tag);
        let end = self.extent(ancestor);
        let lo = list.partition_point(|&n| n <= ancestor);
        let hi = list.partition_point(|&n| (n.index() as u32) < end);
        &list[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whirlpool_xml::parse_document;

    fn doc_and_index(src: &str) -> (Document, TagIndex) {
        let doc = parse_document(src).unwrap();
        let index = TagIndex::build(&doc);
        (doc, index)
    }

    #[test]
    fn postings_are_sorted_and_complete() {
        let (doc, index) = doc_and_index("<a><b/><c><b/><b/></c></a>");
        let b = doc.tag_id("b").unwrap();
        let bs = index.view().nodes_with_tag(b);
        assert_eq!(bs.len(), 3);
        assert!(bs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn descendant_scan_matches_naive() {
        let (doc, index) = doc_and_index("<a><b/><c><b/><d><b/></d></c></a><a><b/></a>");
        let a_tag = doc.tag_id("a").unwrap();
        let b_tag = doc.tag_id("b").unwrap();
        for a in doc.elements().filter(|&n| doc.tag(n) == a_tag) {
            let scanned: Vec<_> = index.view().descendants_with_tag(a, b_tag).to_vec();
            let naive: Vec<_> = doc
                .descendants_or_self(a)
                .skip(1)
                .filter(|&n| doc.tag(n) == b_tag)
                .collect();
            assert_eq!(scanned, naive);
        }
    }

    #[test]
    fn self_is_not_its_own_descendant() {
        let (doc, index) = doc_and_index("<a><a/></a>");
        let a_tag = doc.tag_id("a").unwrap();
        let outer = doc.children(doc.document_root()).next().unwrap();
        let inner: Vec<_> = index.view().descendants_with_tag(outer, a_tag).to_vec();
        assert_eq!(inner.len(), 1);
        assert_ne!(inner[0], outer);
    }

    #[test]
    fn subtree_end_brackets_descendants() {
        let (doc, index) = doc_and_index("<a><b><c/><d/></b><e/></a>");
        let a = doc.children(doc.document_root()).next().unwrap();
        let b = doc.children(a).next().unwrap();
        // b's subtree = {b, c, d}; e is outside.
        let end = index.view().subtree_end(b);
        let e = doc.children(a).nth(1).unwrap();
        assert_eq!(end, e);
        for n in doc.descendants_or_self(b) {
            assert!(n < end);
        }
    }

    #[test]
    fn unknown_tag_is_empty() {
        let (doc, index) = doc_and_index("<a/>");
        let a = doc.children(doc.document_root()).next().unwrap();
        // Interning a tag the index was not built with would be a logic
        // error; the public API takes TagIds so this can't happen, but
        // empty postings for an in-range tag must work:
        let a_tag = doc.tag_id("a").unwrap();
        assert!(index.view().descendants_with_tag(a, a_tag).is_empty());
        assert!(index
            .view()
            .nodes_with_tag(TagId::from_index(doc.view().tag_count()))
            .is_empty());
    }

    #[test]
    fn large_document_scan_consistency() {
        let doc = whirlpool_xmark::generate(&whirlpool_xmark::GeneratorConfig::items(100));
        let index = TagIndex::build(&doc);
        let index = index.view();
        let item = doc.tag_id("item").unwrap();
        let parlist = doc.tag_id("parlist").unwrap();
        for n in index.nodes_with_tag(item).iter().copied().take(25) {
            let scanned = index.descendants_with_tag(n, parlist).len();
            let naive = doc
                .descendants_or_self(n)
                .skip(1)
                .filter(|&x| doc.tag(x) == parlist)
                .count();
            assert_eq!(scanned, naive);
        }
    }
}
