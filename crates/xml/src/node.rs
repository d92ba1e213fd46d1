//! The owned document: the snapshot's document arrays, as `Vec`s.

use crate::tags::TagId;
use crate::view::{DocView, NO_PARENT};
use std::fmt;

/// Index of a node within its [`Document`].
///
/// Nodes are numbered in document (pre-)order, so `NodeId` order
/// coincides with document order — a property the engine's indexes rely
/// on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw node index, usable as a dense array key.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a `NodeId` from a raw index (e.g. a computed range
    /// endpoint). Only meaningful for indexes obtained from the same
    /// document.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(u32::try_from(index).expect("node index exceeds u32"))
    }

    /// Reinterprets a raw `u32` slice as node ids without copying.
    ///
    /// Sound because `NodeId` is `#[repr(transparent)]` over `u32`;
    /// this is what lets memory-mapped posting lists be served as
    /// `&[NodeId]` with zero copies. The ids are only meaningful
    /// against the document whose snapshot the slice came from.
    pub fn slice_from_raw(raw: &[u32]) -> &[NodeId] {
        // SAFETY: NodeId is repr(transparent) over u32, so the two
        // slice types have identical layout and validity.
        unsafe { std::slice::from_raw_parts(raw.as_ptr().cast::<NodeId>(), raw.len()) }
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({})", self.0)
    }
}

/// An XML document: a node-labelled tree rooted at a synthetic document
/// root whose children are the top-level elements (so a *forest*, as in
/// the paper's data model, is representable too).
///
/// The nodes are flat arrays in pre-order — exactly the document
/// sections of a snapshot, read through [`Document::view`]. The parser
/// and [`DocumentBuilder`](crate::DocumentBuilder) append to them.
pub struct Document {
    pub(crate) tag_offsets: Vec<u32>,
    pub(crate) tag_blob: String,
    pub(crate) tag_of: Vec<u32>,
    pub(crate) parent: Vec<u32>,
    pub(crate) depth: Vec<u16>,
    pub(crate) subtree_end: Vec<u32>,
    pub(crate) text_offsets: Vec<u32>,
    pub(crate) text_blob: String,
    pub(crate) attr_offsets: Vec<u32>,
    pub(crate) attr_entries: Vec<u32>,
    pub(crate) attr_blob: String,
}

impl Document {
    /// Tag reserved for the synthetic document root. The paper's scoring
    /// function refers to it as `doc-root` (e.g. the component predicate
    /// `a[parent::doc-root]`).
    pub const DOC_ROOT_TAG: &'static str = "#doc-root";

    /// Creates an empty document containing only the synthetic root.
    pub fn new() -> Self {
        Document {
            tag_offsets: vec![0, Self::DOC_ROOT_TAG.len() as u32],
            tag_blob: Self::DOC_ROOT_TAG.into(),
            tag_of: vec![0],
            parent: vec![NO_PARENT],
            depth: vec![0],
            subtree_end: vec![1],
            text_offsets: vec![0, 0],
            text_blob: String::new(),
            attr_offsets: vec![0, 0],
            attr_entries: Vec::new(),
            attr_blob: String::new(),
        }
    }

    /// The document's arrays as a borrowed [`DocView`].
    pub fn view(&self) -> DocView<'_> {
        DocView {
            tag_offsets: &self.tag_offsets,
            tag_blob: &self.tag_blob,
            tag_of: &self.tag_of,
            parent: &self.parent,
            depth: &self.depth,
            subtree_end: &self.subtree_end,
            text_offsets: &self.text_offsets,
            text_blob: self.text_blob.as_bytes(),
            attr_offsets: &self.attr_offsets,
            attr_entries: &self.attr_entries,
            attr_blob: self.attr_blob.as_bytes(),
        }
    }

    /// The synthetic document root (depth 0). Top-level elements are its
    /// children.
    pub fn document_root(&self) -> NodeId {
        NodeId(0)
    }

    /// Total number of nodes, including the synthetic root.
    pub fn len(&self) -> usize {
        self.tag_of.len()
    }

    /// True when the document holds no elements (only the synthetic root).
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// The node's interned tag.
    pub fn tag(&self, id: NodeId) -> TagId {
        self.view().tag(id)
    }

    /// The node's tag as a string.
    pub fn tag_str(&self, id: NodeId) -> &str {
        self.view().tag_str(id)
    }

    /// The node's direct text value, if any.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        self.view().text(id)
    }

    /// The node's parent, `None` for the document root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.view().parent(id)
    }

    /// The node's children in document order.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.view().children(id)
    }

    /// The value of attribute `name` on `id`, if present.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        self.view().attribute(id, self.tag_id(name)?)
    }

    /// Resolves a tag or attribute name to its id.
    pub fn tag_id(&self, name: &str) -> Option<TagId> {
        self.view().tag_id(name)
    }

    /// The name for a tag id.
    pub fn tag_name(&self, id: TagId) -> &str {
        self.view().tag_name(id)
    }

    /// Iterates over all node ids in document (pre-)order, including the
    /// synthetic root.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len() as u32).map(NodeId)
    }

    /// Iterates over all *element* node ids (everything but the synthetic
    /// root) in document order.
    pub fn elements(&self) -> impl Iterator<Item = NodeId> {
        self.view().elements()
    }

    /// Depth of a node; the document root has depth 0.
    pub fn depth(&self, id: NodeId) -> usize {
        self.view().depth(id)
    }

    /// True iff `ancestor` is a proper ancestor of `descendant`.
    pub fn is_ancestor(&self, ancestor: NodeId, descendant: NodeId) -> bool {
        self.view().is_ancestor(ancestor, descendant)
    }

    /// True iff `parent` is the parent of `child`.
    pub fn is_parent(&self, parent: NodeId, child: NodeId) -> bool {
        self.view().is_parent(parent, child)
    }

    /// The subtree rooted at `id` (including `id` itself), in document
    /// order.
    pub fn descendants_or_self(&self, id: NodeId) -> impl Iterator<Item = NodeId> {
        self.view().descendants_or_self(id)
    }
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> From<&'a Document> for DocView<'a> {
    fn from(doc: &'a Document) -> Self {
        doc.view()
    }
}

impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Document")
            .field("nodes", &self.len())
            .field("tags", &self.view().tag_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DocumentBuilder;

    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        // <book><title>wodehouse</title><info/></book>
        let mut b = DocumentBuilder::new();
        let book = b.open("book");
        let title = b.leaf("title", "wodehouse");
        let info = b.empty("info");
        b.close();
        (b.finish(), book, title, info)
    }

    #[test]
    fn structure_is_consistent() {
        let (doc, book, title, info) = sample();
        assert_eq!(doc.parent(book), Some(doc.document_root()));
        assert_eq!(doc.parent(title), Some(book));
        assert_eq!(doc.children(book).collect::<Vec<_>>(), vec![title, info]);
        assert_eq!(doc.tag_str(book), "book");
        assert_eq!(doc.text(title), Some("wodehouse"));
        assert_eq!(doc.text(info), None);
        assert_eq!(doc.len(), 4);
    }

    #[test]
    fn depth_and_ancestry_match_structure() {
        let (doc, book, title, info) = sample();
        let root = doc.document_root();
        assert_eq!(doc.depth(root), 0);
        assert_eq!(doc.depth(book), 1);
        assert_eq!(doc.depth(title), 2);
        assert_eq!(doc.depth(info), 2);
        assert!(doc.is_parent(book, title));
        assert!(doc.is_ancestor(root, info));
        assert!(doc.is_ancestor(book, info));
        assert!(!doc.is_ancestor(title, info));
        assert!(!doc.is_ancestor(book, book));
        assert!(!doc.is_ancestor(info, book));
    }

    #[test]
    fn node_ids_are_preorder() {
        let (doc, book, title, info) = sample();
        assert!(book < title && title < info);
        let order: Vec<_> = doc.descendants_or_self(book).collect();
        assert_eq!(order, vec![book, title, info]);
    }

    #[test]
    fn text_accumulates_across_mixed_content() {
        let mut b = DocumentBuilder::new();
        let p = b.open("p");
        b.text("  hello ");
        b.text("\n\t ");
        b.text("world");
        b.close();
        assert_eq!(b.finish().text(p), Some("hello world"));
    }

    #[test]
    fn attributes_are_retrievable() {
        let mut b = DocumentBuilder::new();
        let item = b.open("item");
        b.attribute("id", "item42");
        b.close();
        let doc = b.finish();
        assert_eq!(doc.attribute(item, "id"), Some("item42"));
        assert_eq!(doc.attribute(item, "missing"), None);
    }
}
