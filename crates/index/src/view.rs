//! Borrowed documents: one accessor layer over two backings.
//!
//! Everything the engines read of a document at query time — tag
//! table, per-node tags, text and attribute payloads, depths — goes
//! through [`DocView`], an enum over
//!
//! * the **owned** backing, a [`Document`] built by parsing XML, and
//! * the **mapped** backing, [`MappedDoc`]: raw little-endian flat
//!   arrays borrowed straight out of a memory-mapped snapshot file from
//!   `whirlpool-store`.
//!
//! The index side needs no such enum: a [`TagIndex`](crate::TagIndex)
//! already holds the snapshot's flat arrays, so one
//! [`TagIndexView`](crate::TagIndexView) serves both backings.
//!
//! The views are `Copy` (a handful of slice pointers) and every
//! accessor returns data with the *backing's* lifetime, so a query
//! context holding views runs the identical batch kernels over either
//! backing — attaching to a prebuilt corpus costs a header read, not a
//! rebuild.
//!
//! [`MappedDoc`] does **no** validation: it trusts the slices it is
//! constructed over. `whirlpool-store` checksums and structurally
//! validates a snapshot *before* assembling views, which is what keeps
//! the accessors' plain indexing panic-free.

use crate::columns::ColumnsView;
use whirlpool_xml::{Document, NodeId, TagId, WriteOptions, XmlSource};

/// `u32`s per attribute entry in a mapped document: name tag id, value
/// offset, value length.
pub const ATTR_ENTRY_STRIDE: usize = 3;

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
}

/// The serializer's reads, with children found by subtree extents (the
/// child after `c` is the first id past `c`'s subtree) instead of arena
/// child lists.
impl XmlSource for MappedDoc<'_> {
    fn tag_str(&self, n: NodeId) -> &str {
        MappedDoc::tag_str(self, n)
    }

    fn attributes(&self, n: NodeId) -> impl Iterator<Item = (&str, &str)> {
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

    fn text(&self, n: NodeId) -> Option<&str> {
        MappedDoc::text(self, n)
    }

    fn children(&self, n: NodeId) -> impl Iterator<Item = NodeId> {
        let columns = self.columns;
        let end = columns.subtree_end_raw(n);
        let mut next = n.index() as u32 + 1;
        std::iter::from_fn(move || {
            let child = NodeId::from_index(next as usize);
            (next < end).then(|| {
                next = columns.subtree_end_raw(child);
                child
            })
        })
    }
}

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

    /// Serializes the subtree rooted at `node`, over either backing,
    /// with [`whirlpool_xml::write_node`].
    pub fn write_node(&self, node: NodeId, opts: &WriteOptions) -> String {
        match self {
            DocView::Owned(d) => whirlpool_xml::write_node(*d, node, opts),
            DocView::Mapped(m) => whirlpool_xml::write_node(m, node, opts),
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
        let dv = DocView::from(&doc);
        assert_eq!(dv.len(), doc.len());
        assert_eq!(dv.tag_id("t"), doc.tag_id("t"));
        for n in doc.elements() {
            assert_eq!(dv.tag(n), doc.tag(n));
            assert_eq!(dv.tag_str(n), doc.tag_str(n));
            assert_eq!(dv.text(n), doc.text(n));
            assert_eq!(dv.attribute(n, "a"), doc.attribute(n, "a"));
            assert_eq!(dv.depth(n), doc.depth(n));
        }
    }
}
