//! Borrowed views over document + index state: one accessor layer,
//! two backings.
//!
//! Everything the engines read at query time — postings, structural
//! columns, tag table, text and attribute payloads — is exposed here
//! through [`DocView`] and [`TagIndexView`], each an enum over
//!
//! * the **owned** backing ([`Document`] / [`TagIndex`], built by
//!   parsing XML), and
//! * the **mapped** backing ([`MappedDoc`] / [`MappedIndex`], raw
//!   little-endian flat arrays borrowed straight out of a memory-mapped
//!   version-2 snapshot file from `whirlpool-store`).
//!
//! The views are `Copy` (a handful of slice pointers) and every
//! accessor returns data with the *backing's* lifetime, so a query
//! context holding views runs the identical batch kernels over either
//! backing — attaching to a prebuilt corpus costs a header read, not a
//! rebuild.
//!
//! The mapped structs do **no** validation: they trust the slices they
//! are constructed over. `whirlpool-store` checksums and structurally
//! validates a snapshot *before* assembling views, which is what keeps
//! the accessors' plain indexing panic-free.

use crate::columns::ColumnsView;
use crate::tagindex::TagIndex;
use crate::RangeCursor;
use whirlpool_xml::{Document, NodeId, TagId, WriteOptions};

/// `u32`s per value-posting group in a mapped index: tag id, value
/// offset, value length, ids offset, ids length.
pub const VALUE_GROUP_STRIDE: usize = 5;

/// `u32`s per attribute entry in a mapped document: name tag id, value
/// offset, value length.
pub const ATTR_ENTRY_STRIDE: usize = 3;

// -------------------------------------------------------------------
// Mapped document payload
// -------------------------------------------------------------------

/// Document-level payload borrowed from a mapped snapshot: tag table,
/// per-node tags, direct-text values, and attributes — everything
/// answer serialization and value predicates need, without a node
/// arena.
#[derive(Clone, Copy)]
pub struct MappedDoc<'a> {
    columns: ColumnsView<'a>,
    /// `tag_offsets[t]..tag_offsets[t+1]` brackets tag `t`'s name in
    /// `tag_blob` (`tag_count + 1` entries).
    tag_offsets: &'a [u32],
    tag_blob: &'a str,
    /// `tag_of[n]` = raw tag id of node `n`.
    tag_of: &'a [u32],
    /// `text_offsets[n]..text_offsets[n+1]` brackets node `n`'s direct
    /// text in `text_blob`; an empty range means "no text" (parsing
    /// trims, so no element ever carries empty text).
    text_offsets: &'a [u32],
    text_blob: &'a str,
    /// `attr_offsets[n]..attr_offsets[n+1]` brackets node `n`'s
    /// attribute *entries* (each [`ATTR_ENTRY_STRIDE`] `u32`s in
    /// `attr_entries`, values in `attr_blob`).
    attr_offsets: &'a [u32],
    attr_entries: &'a [u32],
    attr_blob: &'a str,
}

impl<'a> MappedDoc<'a> {
    /// Assembles a mapped document view over pre-validated slices (see
    /// the module docs for who validates).
    ///
    /// # Panics
    /// Panics on gross shape mismatches (offset-table lengths); the
    /// finer invariants are the validator's job.
    #[allow(clippy::too_many_arguments)] // one slice per snapshot section
    pub fn from_raw(
        columns: ColumnsView<'a>,
        tag_offsets: &'a [u32],
        tag_blob: &'a str,
        tag_of: &'a [u32],
        text_offsets: &'a [u32],
        text_blob: &'a str,
        attr_offsets: &'a [u32],
        attr_entries: &'a [u32],
        attr_blob: &'a str,
    ) -> Self {
        let n = columns.len();
        assert_eq!(tag_of.len(), n);
        assert_eq!(text_offsets.len(), n + 1);
        assert_eq!(attr_offsets.len(), n + 1);
        assert!(!tag_offsets.is_empty());
        assert_eq!(attr_entries.len() % ATTR_ENTRY_STRIDE, 0);
        MappedDoc {
            columns,
            tag_offsets,
            tag_blob,
            tag_of,
            text_offsets,
            text_blob,
            attr_offsets,
            attr_entries,
            attr_blob,
        }
    }

    /// Total nodes, synthetic root included.
    #[inline]
    pub fn len(&self) -> usize {
        self.tag_of.len()
    }

    /// True when only the synthetic root exists.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Distinct tags in the tag table.
    #[inline]
    pub fn tag_count(&self) -> usize {
        self.tag_offsets.len() - 1
    }

    /// The structural columns the payload was mapped alongside.
    #[inline]
    pub fn columns(&self) -> ColumnsView<'a> {
        self.columns
    }

    /// The node's interned tag.
    #[inline]
    pub fn tag(&self, n: NodeId) -> TagId {
        TagId::from_index(self.tag_of[n.index()] as usize)
    }

    /// The tag string for an id.
    #[inline]
    pub fn tag_name(&self, tag: TagId) -> &'a str {
        let t = tag.index();
        let lo = self.tag_offsets[t] as usize;
        let hi = self.tag_offsets[t + 1] as usize;
        self.tag_blob.get(lo..hi).unwrap_or("")
    }

    /// The node's tag as a string.
    #[inline]
    pub fn tag_str(&self, n: NodeId) -> &'a str {
        self.tag_name(self.tag(n))
    }

    /// Resolves a tag name to its id — a linear scan over the (small)
    /// tag table, mirroring the owned interner's lookup. Callers on hot
    /// paths resolve once per query, not per node.
    pub fn tag_id(&self, name: &str) -> Option<TagId> {
        (0..self.tag_count())
            .find(|&t| self.tag_name(TagId::from_index(t)) == name)
            .map(TagId::from_index)
    }

    /// The node's direct text value, if any.
    #[inline]
    pub fn text(&self, n: NodeId) -> Option<&'a str> {
        let i = n.index();
        let lo = self.text_offsets[i] as usize;
        let hi = self.text_offsets[i + 1] as usize;
        match self.text_blob.get(lo..hi) {
            Some("") | None => None,
            some => some,
        }
    }

    /// The value of attribute `name` on `n`, if present.
    pub fn attribute(&self, n: NodeId, name: &str) -> Option<&'a str> {
        let want = self.tag_id(name)?.index() as u32;
        let i = n.index();
        let lo = self.attr_offsets[i] as usize * ATTR_ENTRY_STRIDE;
        let hi = self.attr_offsets[i + 1] as usize * ATTR_ENTRY_STRIDE;
        let entries = self.attr_entries.get(lo..hi)?;
        entries.chunks_exact(ATTR_ENTRY_STRIDE).find_map(|e| {
            if e[0] == want {
                self.attr_blob.get(e[1] as usize..(e[1] + e[2]) as usize)
            } else {
                None
            }
        })
    }

    /// The attributes of `n` as `(name, value)` pairs, in source order.
    pub fn attributes(&self, n: NodeId) -> impl Iterator<Item = (&'a str, &'a str)> + '_ {
        let i = n.index();
        let lo = self.attr_offsets[i] as usize * ATTR_ENTRY_STRIDE;
        let hi = self.attr_offsets[i + 1] as usize * ATTR_ENTRY_STRIDE;
        self.attr_entries[lo..hi]
            .chunks_exact(ATTR_ENTRY_STRIDE)
            .map(|e| {
                let name = self.tag_name(TagId::from_index(e[0] as usize));
                let value = self
                    .attr_blob
                    .get(e[1] as usize..(e[1] + e[2]) as usize)
                    .unwrap_or("");
                (name, value)
            })
    }
}

// -------------------------------------------------------------------
// Mapped index payload
// -------------------------------------------------------------------

/// Index payload borrowed from a mapped snapshot: per-tag postings,
/// per-`(tag, value)` postings, and the structural columns.
#[derive(Clone, Copy)]
pub struct MappedIndex<'a> {
    columns: ColumnsView<'a>,
    /// `post_offsets[t]..post_offsets[t+1]` brackets tag `t`'s postings
    /// in `post_ids` (`tag_count + 1` entries).
    post_offsets: &'a [u32],
    post_ids: &'a [u32],
    /// Value-posting groups, [`VALUE_GROUP_STRIDE`] `u32`s each, sorted
    /// by `(tag id, value bytes)` for binary search.
    value_groups: &'a [u32],
    value_blob: &'a str,
    value_ids: &'a [u32],
}

impl<'a> MappedIndex<'a> {
    /// Assembles a mapped index view over pre-validated slices.
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
        MappedIndex {
            columns,
            post_offsets,
            post_ids,
            value_groups,
            value_blob,
            value_ids,
        }
    }

    /// The structural columns.
    #[inline]
    pub fn columns(&self) -> ColumnsView<'a> {
        self.columns
    }

    /// All nodes with `tag`, in document order — a zero-copy slice of
    /// the mapped file.
    pub fn nodes_with_tag(&self, tag: TagId) -> &'a [NodeId] {
        let t = tag.index();
        if t + 1 >= self.post_offsets.len() {
            return &[];
        }
        let lo = self.post_offsets[t] as usize;
        let hi = self.post_offsets[t + 1] as usize;
        match self.post_ids.get(lo..hi) {
            Some(raw) => NodeId::slice_from_raw(raw),
            None => &[],
        }
    }

    /// Number of value-posting groups.
    #[inline]
    fn group_count(&self) -> usize {
        self.value_groups.len() / VALUE_GROUP_STRIDE
    }

    /// The `(tag, value)` key of group `g`.
    #[inline]
    fn group_key(&self, g: usize) -> (u32, &'a str) {
        let e = &self.value_groups[g * VALUE_GROUP_STRIDE..(g + 1) * VALUE_GROUP_STRIDE];
        let value = self
            .value_blob
            .get(e[1] as usize..(e[1] + e[2]) as usize)
            .unwrap_or("");
        (e[0], value)
    }

    /// All nodes with `tag` whose direct text equals `value` — binary
    /// search over the sorted group table, then a zero-copy id slice.
    pub fn nodes_with_tag_value(&self, tag: TagId, value: &str) -> &'a [NodeId] {
        let want = (tag.index() as u32, value);
        let (mut lo, mut hi) = (0usize, self.group_count());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.group_key(mid) < want {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo >= self.group_count() || self.group_key(lo) != want {
            return &[];
        }
        let e = &self.value_groups[lo * VALUE_GROUP_STRIDE..(lo + 1) * VALUE_GROUP_STRIDE];
        match self.value_ids.get(e[3] as usize..(e[3] + e[4]) as usize) {
            Some(raw) => NodeId::slice_from_raw(raw),
            None => &[],
        }
    }
}

// -------------------------------------------------------------------
// The unified views
// -------------------------------------------------------------------

/// A borrowed document: owned arena or mapped snapshot payload behind
/// one accessor surface. `Copy`, so contexts and kernels pass it by
/// value.
#[derive(Clone, Copy)]
pub enum DocView<'a> {
    /// Backed by a parsed [`Document`].
    Owned(&'a Document),
    /// Backed by a mapped snapshot's flat arrays.
    Mapped(MappedDoc<'a>),
}

impl<'a> From<&'a Document> for DocView<'a> {
    fn from(doc: &'a Document) -> Self {
        DocView::Owned(doc)
    }
}

impl<'a> DocView<'a> {
    /// Total nodes, synthetic root included.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            DocView::Owned(d) => d.len(),
            DocView::Mapped(m) => m.len(),
        }
    }

    /// True when only the synthetic root exists.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// The synthetic document root (always node 0).
    #[inline]
    pub fn document_root(&self) -> NodeId {
        NodeId::from_index(0)
    }

    /// All *element* ids (everything but the synthetic root) in
    /// document order.
    pub fn elements(&self) -> impl Iterator<Item = NodeId> {
        (1..self.len()).map(NodeId::from_index)
    }

    /// The node's interned tag.
    #[inline]
    pub fn tag(&self, n: NodeId) -> TagId {
        match self {
            DocView::Owned(d) => d.tag(n),
            DocView::Mapped(m) => m.tag(n),
        }
    }

    /// The node's tag as a string.
    #[inline]
    pub fn tag_str(&self, n: NodeId) -> &'a str {
        match self {
            DocView::Owned(d) => d.tag_str(n),
            DocView::Mapped(m) => m.tag_str(n),
        }
    }

    /// Resolves a tag name to its id, if the document uses it.
    #[inline]
    pub fn tag_id(&self, name: &str) -> Option<TagId> {
        match self {
            DocView::Owned(d) => d.tag_id(name),
            DocView::Mapped(m) => m.tag_id(name),
        }
    }

    /// The tag string for an id.
    #[inline]
    pub fn tag_name(&self, tag: TagId) -> &'a str {
        match self {
            DocView::Owned(d) => d.tag_name(tag),
            DocView::Mapped(m) => m.tag_name(tag),
        }
    }

    /// The node's direct text value, if any.
    #[inline]
    pub fn text(&self, n: NodeId) -> Option<&'a str> {
        match self {
            DocView::Owned(d) => d.text(n),
            DocView::Mapped(m) => m.text(n),
        }
    }

    /// The value of attribute `name` on `n`, if present.
    #[inline]
    pub fn attribute(&self, n: NodeId, name: &str) -> Option<&'a str> {
        match self {
            DocView::Owned(d) => d.attribute(n, name),
            DocView::Mapped(m) => m.attribute(n, name),
        }
    }

    /// Depth of a node; the document root has depth 0.
    #[inline]
    pub fn depth(&self, n: NodeId) -> usize {
        match self {
            DocView::Owned(d) => d.depth(n),
            DocView::Mapped(m) => m.columns().depth_of(n),
        }
    }

    /// Serializes the subtree rooted at `node`, over either backing —
    /// same output as [`whirlpool_xml::write_node`] on the owned
    /// document.
    pub fn write_node(&self, node: NodeId, opts: &WriteOptions) -> String {
        match self {
            DocView::Owned(d) => whirlpool_xml::write_node(d, node, opts),
            DocView::Mapped(m) => {
                let mut out = String::new();
                write_mapped_node(m, node, opts, 0, &mut out);
                out
            }
        }
    }
}

/// The mapped-backing arm of [`DocView::write_node`]: recursion over
/// subtree extents (child of `n` = next unconsumed id before `n`'s
/// subtree end) instead of arena child lists.
fn write_mapped_node(
    doc: &MappedDoc<'_>,
    node: NodeId,
    opts: &WriteOptions,
    depth: usize,
    out: &mut String,
) {
    use std::fmt::Write as _;
    let columns = doc.columns();
    let tag = doc.tag_str(node);
    if let Some(indent) = opts.indent {
        if !out.is_empty() && !out.ends_with('\n') {
            out.push('\n');
        }
        out.extend(std::iter::repeat(' ').take(indent * depth));
    }
    out.push('<');
    out.push_str(tag);
    for (name, value) in doc.attributes(node) {
        let _ = write!(out, " {name}=\"");
        escape_into(value, true, out);
        out.push('"');
    }
    let end = columns.subtree_end_raw(node) as usize;
    let mut child = node.index() + 1;
    let has_children = child < end;
    let text = doc.text(node);
    if !has_children && text.is_none() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    if let Some(text) = text {
        escape_into(text, false, out);
    }
    while child < end {
        let c = NodeId::from_index(child);
        write_mapped_node(doc, c, opts, depth + 1, out);
        child = columns.subtree_end_raw(c) as usize;
    }
    if let Some(indent) = opts.indent {
        if has_children {
            out.push('\n');
            out.extend(std::iter::repeat(' ').take(indent * depth));
        }
    }
    out.push_str("</");
    out.push_str(tag);
    out.push('>');
}

/// XML special-character escaping, matching the owned writer's rules.
fn escape_into(text: &str, in_attribute: bool, out: &mut String) {
    for c in text.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' if in_attribute => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

/// A borrowed tag index: owned [`TagIndex`] or mapped snapshot payload
/// behind one accessor surface. `Copy`, so contexts and kernels pass it
/// by value.
#[derive(Clone, Copy)]
pub enum TagIndexView<'a> {
    /// Backed by a [`TagIndex`] built in memory.
    Owned(&'a TagIndex),
    /// Backed by a mapped snapshot's flat arrays.
    Mapped(MappedIndex<'a>),
}

impl<'a> From<&'a TagIndex> for TagIndexView<'a> {
    fn from(index: &'a TagIndex) -> Self {
        TagIndexView::Owned(index)
    }
}

/// The `[lo, hi)` sub-slice of a sorted posting list falling inside the
/// id interval `(ancestor, end)` — the shared descendant-range scan.
fn range_slice(list: &[NodeId], ancestor: NodeId, end: u32) -> &[NodeId] {
    let lo = list.partition_point(|&n| n <= ancestor);
    let hi = list.partition_point(|&n| (n.index() as u32) < end);
    &list[lo..hi]
}

impl<'a> TagIndexView<'a> {
    /// The document's structural columns.
    #[inline]
    pub fn columns(&self) -> ColumnsView<'a> {
        match self {
            TagIndexView::Owned(i) => i.columns().view(),
            TagIndexView::Mapped(m) => m.columns(),
        }
    }

    /// All nodes with `tag`, in document order.
    #[inline]
    pub fn nodes_with_tag(&self, tag: TagId) -> &'a [NodeId] {
        match self {
            TagIndexView::Owned(i) => i.nodes_with_tag(tag),
            TagIndexView::Mapped(m) => m.nodes_with_tag(tag),
        }
    }

    /// All nodes with `tag` whose direct text equals `value`.
    #[inline]
    pub fn nodes_with_tag_value(&self, tag: TagId, value: &str) -> &'a [NodeId] {
        match self {
            TagIndexView::Owned(i) => i.nodes_with_tag_value(tag, value),
            TagIndexView::Mapped(m) => m.nodes_with_tag_value(tag, value),
        }
    }

    /// Raw subtree extent of `node`.
    #[inline]
    fn extent(&self, node: NodeId) -> u32 {
        self.columns().subtree_end_raw(node)
    }

    /// One past the last descendant of `node` in id order.
    #[inline]
    pub fn subtree_end(&self, node: NodeId) -> NodeId {
        NodeId::from_index(self.extent(node) as usize)
    }

    /// All proper descendants of `ancestor` (any tag), as the
    /// contiguous node-id range `(ancestor, subtree_end)`.
    pub fn descendants_any(&self, ancestor: NodeId) -> impl Iterator<Item = NodeId> {
        let start = ancestor.index() as u32 + 1;
        let end = self.extent(ancestor);
        (start..end).map(|i| NodeId::from_index(i as usize))
    }

    /// Number of proper descendants of `ancestor`.
    #[inline]
    pub fn count_descendants_any(&self, ancestor: NodeId) -> usize {
        (self.extent(ancestor) as usize).saturating_sub(ancestor.index() + 1)
    }

    /// Nodes with `tag` that are proper descendants of `ancestor`.
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

    /// Number of `tag` descendants of `ancestor`.
    #[inline]
    pub fn count_descendants_with_tag(&self, ancestor: NodeId, tag: TagId) -> usize {
        self.descendants_with_tag(ancestor, tag).len()
    }

    /// A [`RangeCursor`] over the postings of `tag`.
    pub fn tag_cursor(&self, tag: TagId) -> RangeCursor<'a> {
        RangeCursor::new(self.nodes_with_tag(tag))
    }

    /// A [`RangeCursor`] over the `(tag, value)` postings.
    pub fn tag_value_cursor(&self, tag: TagId, value: &str) -> RangeCursor<'a> {
        RangeCursor::new(self.nodes_with_tag_value(tag, value))
    }

    /// The owned [`TagIndex`], when this view has one.
    #[inline]
    pub fn as_index(&self) -> Option<&'a TagIndex> {
        match self {
            TagIndexView::Owned(i) => Some(i),
            TagIndexView::Mapped(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whirlpool_xml::parse_document;

    #[test]
    fn owned_views_mirror_their_backing() {
        let doc = parse_document("<r><t a=\"1\">x</t><t>y</t><s><t>x</t></s></r>").unwrap();
        let index = TagIndex::build(&doc);
        let dv = DocView::from(&doc);
        let iv = TagIndexView::from(&index);

        assert_eq!(dv.len(), doc.len());
        let t = doc.tag_id("t").unwrap();
        assert_eq!(iv.nodes_with_tag(t), index.nodes_with_tag(t));
        assert_eq!(
            iv.nodes_with_tag_value(t, "x"),
            index.nodes_with_tag_value(t, "x")
        );
        for n in doc.elements() {
            assert_eq!(dv.tag(n), doc.tag(n));
            assert_eq!(dv.tag_str(n), doc.tag_str(n));
            assert_eq!(dv.text(n), doc.text(n));
            assert_eq!(dv.attribute(n, "a"), doc.attribute(n, "a"));
            assert_eq!(dv.depth(n), doc.depth(n));
            assert_eq!(iv.subtree_end(n), index.subtree_end(n));
            assert_eq!(
                iv.descendants_with_tag(n, t),
                index.descendants_with_tag(n, t)
            );
        }
        assert!(iv.as_index().is_some());
    }
}
