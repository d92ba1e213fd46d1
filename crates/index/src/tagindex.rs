//! Tag and tag+value postings with subtree range scans, in one flat
//! layout: the arrays a snapshot stores, built in memory by
//! [`TagIndex::build`] or borrowed out of a mapped file.

use crate::columns::ColumnsView;
use whirlpool_xml::{Document, NodeId, TagId};

/// `u32`s per value-posting group: tag id, value offset, value length,
/// ids offset, ids length.
pub const VALUE_GROUP_STRIDE: usize = 5;

/// Postings for every tag (and every `(tag, text value)` pair) of a
/// document, in document order, plus the document's structural columns.
///
/// The index owns exactly the flat arrays a snapshot stores, so
/// [`TagIndex::view`] and a mapped snapshot's index view are the same
/// [`TagIndexView`] over different memory, and a snapshot writer copies
/// the arrays as they are.
pub struct TagIndex {
    /// `post_offsets[t]..post_offsets[t+1]` brackets tag `t`'s postings
    /// in `post_ids` (`tag_count + 1` entries).
    post_offsets: Vec<u32>,
    /// Every element id, grouped by tag, ascending within a tag.
    post_ids: Vec<u32>,
    /// Value-posting groups, [`VALUE_GROUP_STRIDE`] `u32`s each, sorted
    /// by `(tag id, value bytes)` for binary search.
    value_groups: Vec<u32>,
    /// The groups' values, concatenated in group order.
    value_blob: String,
    /// The groups' ids, concatenated in group order, ascending within a
    /// group.
    value_ids: Vec<u32>,
    /// The document's `parent`, `depth` and `subtree_end` arrays,
    /// copied (see [`ColumnsView`]).
    parent: Vec<u32>,
    depth: Vec<u16>,
    subtree_end: Vec<u32>,
}

fn as_u32(len: usize, what: &str) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| panic!("{what} exceeds u32 range ({len})"))
}

impl TagIndex {
    /// Builds the index: one counting pass sizes every tag's postings,
    /// a second pass fills them in document order and gathers the
    /// direct-text values, and one sort groups those by `(tag, value)`.
    /// The structural columns are the document's own, copied.
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
        // (tag, value prefix, value, id) per element with text. The
        // prefix is the value's first eight bytes, zero-padded, as a
        // big-endian integer: a smaller prefix means a smaller value, so
        // most comparisons of the sort never read a string, and equal
        // prefixes fall through to the value. Sorting the whole tuple
        // keeps each group's ids ascending.
        let mut texts: Vec<(u32, u64, &str, u32)> = Vec::new();
        for id in doc.elements() {
            let tag = doc.tag(id).index();
            let slot = &mut next[tag];
            post_ids[*slot as usize] = id.index() as u32;
            *slot += 1;
            if let Some(text) = doc.text(id) {
                let mut prefix = [0u8; 8];
                let n = text.len().min(8);
                prefix[..n].copy_from_slice(&text.as_bytes()[..n]);
                texts.push((
                    tag as u32,
                    u64::from_be_bytes(prefix),
                    text,
                    id.index() as u32,
                ));
            }
        }
        texts.sort_unstable();

        let mut value_groups = Vec::new();
        let mut value_blob = String::new();
        let mut value_ids = Vec::with_capacity(texts.len());
        let mut rest = &texts[..];
        while let Some(&(tag, _, value, _)) = rest.first() {
            let len = rest
                .iter()
                .take_while(|&&(t, _, v, _)| (t, v) == (tag, value))
                .count();
            value_groups.extend([
                tag,
                as_u32(value_blob.len(), "value blob"),
                as_u32(value.len(), "value"),
                as_u32(value_ids.len(), "value postings"),
                as_u32(len, "value posting list"),
            ]);
            value_blob.push_str(value);
            value_ids.extend(rest[..len].iter().map(|&(_, _, _, id)| id));
            rest = &rest[len..];
        }

        TagIndex {
            post_offsets,
            post_ids,
            value_groups,
            value_blob,
            value_ids,
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
            &self.value_groups,
            &self.value_blob,
            &self.value_ids,
        )
    }
}

/// A borrowed tag index: per-tag postings, per-`(tag, value)` postings
/// and the structural columns, as flat slices of either a [`TagIndex`]
/// or a mapped snapshot. `Copy`, so contexts and kernels pass it by
/// value, and every accessor returns data with the backing's lifetime.
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
    value_groups: &'a [u32],
    value_blob: &'a str,
    value_ids: &'a [u32],
}

/// The `[lo, hi)` sub-slice of a sorted posting list falling inside the
/// id interval `(ancestor, end)` — the shared descendant-range scan.
fn range_slice(list: &[NodeId], ancestor: NodeId, end: u32) -> &[NodeId] {
    let lo = list.partition_point(|&n| n <= ancestor);
    let hi = list.partition_point(|&n| (n.index() as u32) < end);
    &list[lo..hi]
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
        value_groups: &'a [u32],
        value_blob: &'a str,
        value_ids: &'a [u32],
    ) -> Self {
        assert!(!post_offsets.is_empty());
        assert_eq!(*post_offsets.last().unwrap() as usize, post_ids.len());
        assert_eq!(value_groups.len() % VALUE_GROUP_STRIDE, 0);
        TagIndexView {
            columns,
            post_offsets,
            post_ids,
            value_groups,
            value_blob,
            value_ids,
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

    /// The raw value-posting arrays `(value_groups, value_blob,
    /// value_ids)`.
    pub fn values_raw(&self) -> (&'a [u32], &'a str, &'a [u32]) {
        (self.value_groups, self.value_blob, self.value_ids)
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

    /// The `(tag, value)` key of group `g`.
    #[inline]
    fn group_key(&self, g: usize) -> (u32, &'a str) {
        let e = &self.value_groups[g * VALUE_GROUP_STRIDE..];
        let value = self
            .value_blob
            .get(e[1] as usize..(e[1] + e[2]) as usize)
            .unwrap_or("");
        (e[0], value)
    }

    /// All nodes with `tag` whose direct text equals `value` — a binary
    /// search over the sorted group table, then an id slice.
    pub fn nodes_with_tag_value(&self, tag: TagId, value: &str) -> &'a [NodeId] {
        let want = (tag.index() as u32, value);
        let groups = self.value_groups.len() / VALUE_GROUP_STRIDE;
        let (mut lo, mut hi) = (0usize, groups);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.group_key(mid) < want {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo >= groups || self.group_key(lo) != want {
            return &[];
        }
        let e = &self.value_groups[lo * VALUE_GROUP_STRIDE..];
        self.value_ids
            .get(e[3] as usize..(e[3] + e[4]) as usize)
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
    /// contiguous slice of the tag's postings.
    pub fn descendants_with_tag(&self, ancestor: NodeId, tag: TagId) -> &'a [NodeId] {
        range_slice(self.nodes_with_tag(tag), ancestor, self.extent(ancestor))
    }

    /// Nodes with `tag` and direct text `value` that are proper
    /// descendants of `ancestor`.
    pub fn descendants_with_tag_value(
        &self,
        ancestor: NodeId,
        tag: TagId,
        value: &str,
    ) -> &'a [NodeId] {
        range_slice(
            self.nodes_with_tag_value(tag, value),
            ancestor,
            self.extent(ancestor),
        )
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
    fn value_postings() {
        let (doc, index) = doc_and_index("<r><t>x</t><t>y</t><s><t>x</t></s></r>");
        let index = index.view();
        let t = doc.tag_id("t").unwrap();
        assert_eq!(index.nodes_with_tag_value(t, "x").len(), 2);
        assert_eq!(index.nodes_with_tag_value(t, "y").len(), 1);
        assert_eq!(index.nodes_with_tag_value(t, "z").len(), 0);
        let s = doc.elements().find(|&n| doc.tag_str(n) == "s").unwrap();
        assert_eq!(index.descendants_with_tag_value(s, t, "x").len(), 1);
    }

    /// The value groups are the `(tag, value)`-sorted grouping of every
    /// element's direct text, each group's ids ascending.
    #[test]
    fn value_groups_are_sorted_and_complete() {
        let doc = whirlpool_xmark::generate(&whirlpool_xmark::GeneratorConfig::items(40));
        let index = TagIndex::build(&doc);
        let (groups, blob, ids) = index.view().values_raw();
        let mut expected: Vec<(u32, &str, u32)> = doc
            .elements()
            .filter_map(|n| Some((doc.tag(n).index() as u32, doc.text(n)?, n.index() as u32)))
            .collect();
        expected.sort_unstable();
        let mut flat = Vec::new();
        for g in groups.chunks_exact(VALUE_GROUP_STRIDE) {
            let value = &blob[g[1] as usize..(g[1] + g[2]) as usize];
            let span = &ids[g[3] as usize..(g[3] + g[4]) as usize];
            flat.extend(span.iter().map(|&id| (g[0], value, id)));
        }
        assert_eq!(flat, expected);
        let keys: Vec<_> = groups
            .chunks_exact(VALUE_GROUP_STRIDE)
            .map(|g| (g[0], &blob[g[1] as usize..(g[1] + g[2]) as usize]))
            .collect();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "groups not strictly sorted"
        );
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
