//! The borrowed document: one struct of flat slices over either backing.
//!
//! A [`Document`](crate::Document) owns its arrays as `Vec`s; a mapped
//! snapshot serves the same arrays straight out of its file. Either way
//! every reader goes through [`DocView`], a `Copy` struct of those
//! slices whose accessors return data with the backing's lifetime.

use crate::node::NodeId;
use crate::tags::TagId;
use crate::writer::{write_node_into, WriteOptions};
use std::ops::Range;
use std::str::Utf8Error;

/// `u32`s per attribute entry: name tag id, value offset, value length.
pub const ATTR_ENTRY_STRIDE: usize = 3;

/// `parent` of the synthetic document root.
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// A document as flat arrays indexed by raw node id (pre-order, the
/// synthetic root at 0): the layout a parser appends and a snapshot
/// stores, section for section.
///
/// The fields are the arrays themselves. A [`Document`](crate::Document)
/// builds them consistent; `whirlpool-store` checks a snapshot's shapes,
/// tag names and structure before assembling a view, and on a full
/// verification its text and attribute bytes too. The accessors do not
/// rely on the second kind of check: text and attribute values are
/// bytes, every span and entry read is checked, and a bad offset or
/// entry reads as an empty value. Only an accessor that hands out
/// `&str` checks UTF-8, and only of the span it returns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DocView<'a> {
    /// `tag_offsets[t]..tag_offsets[t+1]` brackets tag `t`'s name in
    /// `tag_blob` (tag count + 1 entries).
    pub tag_offsets: &'a [u32],
    /// Every tag and attribute name, concatenated in id order.
    pub tag_blob: &'a str,
    /// `tag_of[n]` = raw tag id of node `n`.
    pub tag_of: &'a [u32],
    /// `parent[n]` = raw id of `n`'s parent; `u32::MAX` for the root.
    pub parent: &'a [u32],
    /// `depth[n]` = depth of `n`; the root has depth 0.
    pub depth: &'a [u16],
    /// `subtree_end[n]` = one past the last descendant of `n`.
    pub subtree_end: &'a [u32],
    /// `text_offsets[n]..text_offsets[n+1]` brackets node `n`'s direct
    /// text in `text_blob`; an empty span means "no text" (text is
    /// trimmed, so no element carries empty text).
    pub text_offsets: &'a [u32],
    /// Every node's direct text, concatenated in node order: UTF-8 as
    /// written, bytes as read.
    pub text_blob: &'a [u8],
    /// `attr_offsets[n]..attr_offsets[n+1]` brackets node `n`'s
    /// attribute *entries* in `attr_entries`.
    pub attr_offsets: &'a [u32],
    /// [`ATTR_ENTRY_STRIDE`] `u32`s per attribute, in node then source
    /// order: name tag id, value offset and value length in `attr_blob`.
    pub attr_entries: &'a [u32],
    /// Every attribute value, concatenated in entry order: UTF-8 as
    /// written, bytes as read.
    pub attr_blob: &'a [u8],
}

/// `offsets[i]..offsets[i+1]`, if both exist.
#[inline]
fn span(offsets: &[u32], i: usize) -> Option<Range<usize>> {
    match offsets.get(i..)? {
        [lo, hi, ..] => Some(*lo as usize..*hi as usize),
        _ => None,
    }
}

impl<'a> DocView<'a> {
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

    /// All *element* ids (everything but the synthetic root) in
    /// document order.
    pub fn elements(&self) -> impl Iterator<Item = NodeId> {
        (1..self.len()).map(NodeId::from_index)
    }

    /// Distinct names in the tag table.
    #[inline]
    pub fn tag_count(&self) -> usize {
        self.tag_offsets.len().saturating_sub(1)
    }

    /// The node's interned tag.
    #[inline]
    pub fn tag(&self, n: NodeId) -> TagId {
        TagId(self.tag_of[n.index()])
    }

    /// The name for a tag id; empty if the tag table has no such span.
    #[inline]
    pub fn tag_name(&self, tag: TagId) -> &'a str {
        span(self.tag_offsets, tag.index())
            .and_then(|r| self.tag_blob.get(r))
            .unwrap_or("")
    }

    /// The node's tag as a string.
    #[inline]
    pub fn tag_str(&self, n: NodeId) -> &'a str {
        self.tag_name(self.tag(n))
    }

    /// Resolves a name to its id — a linear scan over the (small) tag
    /// table. Callers on hot paths resolve once per query, not per node.
    pub fn tag_id(&self, name: &str) -> Option<TagId> {
        (0..self.tag_count())
            .map(TagId::from_index)
            .find(|&t| self.tag_name(t) == name)
    }

    /// The node's direct text as bytes, if any: what value tests
    /// compare.
    #[inline]
    pub fn text_bytes(&self, n: NodeId) -> Option<&'a [u8]> {
        span(self.text_offsets, n.index())
            .and_then(|r| self.text_blob.get(r))
            .filter(|t| !t.is_empty())
    }

    /// The node's direct text value, if any and if it is UTF-8.
    #[inline]
    pub fn text(&self, n: NodeId) -> Option<&'a str> {
        self.text_bytes(n).and_then(|t| std::str::from_utf8(t).ok())
    }

    /// The node's attribute entries, [`ATTR_ENTRY_STRIDE`] `u32`s each;
    /// none if its span is out of bounds.
    #[inline]
    fn attr_entries_of(&self, n: NodeId) -> &'a [u32] {
        span(self.attr_offsets, n.index())
            .and_then(|r| {
                let lo = r.start.checked_mul(ATTR_ENTRY_STRIDE)?;
                self.attr_entries
                    .get(lo..r.end.checked_mul(ATTR_ENTRY_STRIDE)?)
            })
            .unwrap_or(&[])
    }

    /// The value bytes of one attribute entry; empty if its span is out
    /// of bounds.
    #[inline]
    fn attr_value(&self, entry: &[u32]) -> &'a [u8] {
        let (off, len) = (entry[1], entry[2]);
        (off.checked_add(len))
            .and_then(|end| self.attr_blob.get(off as usize..end as usize))
            .unwrap_or(&[])
    }

    /// The node's attributes as `(name, value bytes)`, in source order.
    pub fn attributes(&self, n: NodeId) -> impl Iterator<Item = (TagId, &'a [u8])> {
        let view = *self;
        (self.attr_entries_of(n).chunks_exact(ATTR_ENTRY_STRIDE))
            .map(move |e| (TagId(e[0]), view.attr_value(e)))
    }

    /// The bytes of the attribute named by tag id `name` on `n`, if
    /// present: what attribute tests compare.
    #[inline]
    pub fn attribute_bytes(&self, n: NodeId, name: TagId) -> Option<&'a [u8]> {
        let mut entries = self.attr_entries_of(n).chunks_exact(ATTR_ENTRY_STRIDE);
        entries.find(|e| e[0] == name.0).map(|e| self.attr_value(e))
    }

    /// The value of the attribute named by tag id `name` on `n`, if
    /// present and UTF-8.
    #[inline]
    pub fn attribute(&self, n: NodeId, name: TagId) -> Option<&'a str> {
        self.attribute_bytes(n, name)
            .and_then(|v| std::str::from_utf8(v).ok())
    }

    /// The node's parent, `None` for the document root.
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        match self.parent[n.index()] {
            NO_PARENT => None,
            p => Some(NodeId(p)),
        }
    }

    /// Depth of a node; the document root has depth 0.
    #[inline]
    pub fn depth(&self, n: NodeId) -> usize {
        self.depth[n.index()] as usize
    }

    /// The subtree rooted at `n`, `n` included: the id range
    /// `n..subtree_end[n]`, in document order.
    pub fn descendants_or_self(&self, n: NodeId) -> impl Iterator<Item = NodeId> {
        (n.0..self.subtree_end[n.index()]).map(NodeId)
    }

    /// The node's children in document order: the first id past `n`,
    /// then the first id past each child's subtree.
    pub fn children(&self, n: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        let (subtree_end, end) = (self.subtree_end, self.subtree_end[n.index()]);
        let mut next = n.0 + 1;
        std::iter::from_fn(move || {
            let child = next;
            (child < end).then(|| {
                next = subtree_end[child as usize];
                NodeId(child)
            })
        })
    }

    /// True iff `ancestor` is a proper ancestor of `descendant`: with
    /// pre-order ids, `a < d && d < subtree_end[a]`.
    #[inline]
    pub fn is_ancestor(&self, ancestor: NodeId, descendant: NodeId) -> bool {
        ancestor < descendant && descendant.0 < self.subtree_end[ancestor.index()]
    }

    /// True iff `parent` is the parent of `child`.
    #[inline]
    pub fn is_parent(&self, parent: NodeId, child: NodeId) -> bool {
        self.parent[child.index()] == parent.0
    }

    /// Serializes the subtree rooted at `node`. The text and attribute
    /// bytes are checked as UTF-8 once, in the output: a failure is an
    /// error, never a lossy or unchecked string.
    pub fn write_node(&self, node: NodeId, opts: &WriteOptions) -> Result<String, Utf8Error> {
        let mut out = Vec::new();
        write_node_into(*self, node, opts, 0, &mut out);
        String::from_utf8(out).map_err(|e| e.utf8_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_document;

    #[test]
    fn owned_views_mirror_their_backing() {
        // Nodes: 0 root, 1 r, 2 t, 3 t, 4 s, 5 t.
        let doc = parse_document("<r><t a=\"1\">x</t><t>y</t><s><t>x</t></s></r>").unwrap();
        let dv = doc.view();
        assert_eq!(dv, DocView::from(&doc));
        assert_eq!(dv.tag_blob, "#doc-rootrtas");
        assert_eq!(dv.tag_of, [0, 1, 2, 2, 4, 2]);
        assert_eq!(dv.parent, [NO_PARENT, 0, 1, 1, 1, 4]);
        assert_eq!(dv.depth, [0, 1, 2, 2, 2, 3]);
        assert_eq!(dv.subtree_end, [6, 6, 3, 4, 6, 6]);
        assert_eq!(
            (dv.text_offsets, dv.text_blob),
            (&[0, 0, 0, 1, 2, 2, 3][..], &b"xyx"[..])
        );
        assert_eq!(dv.attr_offsets, [0, 0, 0, 1, 1, 1, 1]);
        assert_eq!((dv.attr_entries, dv.attr_blob), (&[3, 0, 1][..], &b"1"[..]));

        let (r, s) = (NodeId(1), NodeId(4));
        assert_eq!(dv.children(r).collect::<Vec<_>>(), [2, 3, 4].map(NodeId));
        assert_eq!(
            dv.descendants_or_self(s).collect::<Vec<_>>(),
            [4, 5].map(NodeId)
        );
        let a = dv.tag_id("a").unwrap();
        assert_eq!(dv.attribute(NodeId(2), a), Some("1"));
        assert_eq!(dv.attribute(NodeId(3), a), None);
        for n in doc.all_nodes() {
            assert_eq!(dv.tag_str(n), doc.tag_str(n));
            assert_eq!(dv.text(n), doc.text(n));
            assert_eq!(dv.attribute(n, a), doc.attribute(n, "a"));
        }
    }
}
