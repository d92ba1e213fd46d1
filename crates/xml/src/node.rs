//! Arena-backed document tree.

use crate::tags::{TagId, TagInterner};
use std::fmt;

/// Index of a node within its [`Document`]'s arena.
///
/// Nodes are allocated in document (pre-)order, so `NodeId` order
/// coincides with document order — a property the engine's indexes rely
/// on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw arena index, usable as a dense array key.
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

/// Per-node storage.
#[derive(Debug, Clone)]
pub struct NodeData {
    /// Interned element tag. The synthetic document root carries the
    /// reserved tag [`Document::DOC_ROOT_TAG`].
    pub tag: TagId,
    /// Parent node; `None` only for the document root.
    pub parent: Option<NodeId>,
    /// Children in document order.
    pub children: Vec<NodeId>,
    /// Concatenation of the element's *direct* text children, trimmed.
    /// `None` when the element has no non-whitespace direct text. The
    /// relative order of text and element children is not preserved —
    /// the query model only ever tests an element's direct text value.
    pub text: Option<Box<str>>,
    /// Attributes as `(interned name, value)` pairs, in source order.
    pub attributes: Vec<(TagId, Box<str>)>,
    /// Depth of the node; the document root has depth 0.
    pub depth: u32,
}

/// An XML document: a node-labelled tree rooted at a synthetic document
/// root whose children are the top-level elements (so a *forest*, as in
/// the paper's data model, is representable too).
pub struct Document {
    nodes: Vec<NodeData>,
    tags: TagInterner,
}

impl Document {
    /// Tag reserved for the synthetic document root. The paper's scoring
    /// function refers to it as `doc-root` (e.g. the component predicate
    /// `a[parent::doc-root]`).
    pub const DOC_ROOT_TAG: &'static str = "#doc-root";

    /// Creates an empty document containing only the synthetic root.
    pub fn new() -> Self {
        let mut tags = TagInterner::new();
        let root_tag = tags.intern(Self::DOC_ROOT_TAG);
        Document {
            nodes: vec![NodeData {
                tag: root_tag,
                parent: None,
                children: Vec::new(),
                text: None,
                attributes: Vec::new(),
                depth: 0,
            }],
            tags,
        }
    }

    /// The synthetic document root (depth 0). Top-level elements are its
    /// children.
    pub fn document_root(&self) -> NodeId {
        NodeId(0)
    }

    /// Total number of nodes, including the synthetic root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the document holds no elements (only the synthetic root).
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Borrow a node's storage.
    pub fn node(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()]
    }

    /// The node's interned tag.
    pub fn tag(&self, id: NodeId) -> TagId {
        self.nodes[id.index()].tag
    }

    /// The node's tag as a string.
    pub fn tag_str(&self, id: NodeId) -> &str {
        self.tags.name(self.nodes[id.index()].tag)
    }

    /// The node's direct text value, if any.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        self.nodes[id.index()].text.as_deref()
    }

    /// The node's parent, `None` for the document root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// The node's children in document order.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes[id.index()].children.iter().copied()
    }

    /// The value of attribute `name` on `id`, if present.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        let name_id = self.tags.get(name)?;
        self.nodes[id.index()]
            .attributes
            .iter()
            .find(|(n, _)| *n == name_id)
            .map(|(_, v)| v.as_ref())
    }

    /// The interner mapping tags to ids.
    pub fn tags(&self) -> &TagInterner {
        &self.tags
    }

    /// Resolves a tag name to its id without interning.
    pub fn tag_id(&self, name: &str) -> Option<TagId> {
        self.tags.get(name)
    }

    /// The tag string for an id.
    pub fn tag_name(&self, id: TagId) -> &str {
        self.tags.name(id)
    }

    /// Iterates over all node ids in document (pre-)order, including the
    /// synthetic root.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over all *element* node ids (everything but the synthetic
    /// root) in document order.
    pub fn elements(&self) -> impl Iterator<Item = NodeId> {
        (1..self.nodes.len() as u32).map(NodeId)
    }

    /// Depth of a node; the document root has depth 0.
    pub fn depth(&self, id: NodeId) -> usize {
        self.nodes[id.index()].depth as usize
    }

    /// True iff `ancestor` is a proper ancestor of `descendant`: the
    /// parent links climbed from `descendant` to `ancestor`'s depth land
    /// on `ancestor`.
    pub fn is_ancestor(&self, ancestor: NodeId, descendant: NodeId) -> bool {
        let target = self.nodes[ancestor.index()].depth;
        let mut node = &self.nodes[descendant.index()];
        if node.depth <= target {
            return false;
        }
        while node.depth > target + 1 {
            node = &self.nodes[node.parent.expect("non-root node without a parent").index()];
        }
        node.parent == Some(ancestor)
    }

    /// True iff `parent` is the parent of `child`.
    pub fn is_parent(&self, parent: NodeId, child: NodeId) -> bool {
        self.nodes[child.index()].parent == Some(parent)
    }

    /// Pre-order depth-first traversal of the subtree rooted at `id`
    /// (including `id` itself).
    pub fn descendants_or_self(&self, id: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            stack: vec![id],
        }
    }

    // -- mutation (used by the parser and builder) ----------------------

    pub(crate) fn intern_tag(&mut self, name: &str) -> TagId {
        self.tags.intern(name)
    }

    /// Appends a fresh child element under `parent` and returns its id.
    pub(crate) fn push_child(&mut self, parent: NodeId, tag: TagId) -> NodeId {
        let depth = self.nodes[parent.index()].depth + 1;
        let id = NodeId(u32::try_from(self.nodes.len()).expect("more than u32::MAX nodes"));
        self.nodes.push(NodeData {
            tag,
            parent: Some(parent),
            children: Vec::new(),
            text: None,
            attributes: Vec::new(),
            depth,
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    pub(crate) fn append_text(&mut self, id: NodeId, text: &str) {
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return;
        }
        let node = &mut self.nodes[id.index()];
        match &mut node.text {
            Some(existing) => {
                let mut s = String::with_capacity(existing.len() + 1 + trimmed.len());
                s.push_str(existing);
                s.push(' ');
                s.push_str(trimmed);
                node.text = Some(s.into_boxed_str());
            }
            None => node.text = Some(trimmed.into()),
        }
    }

    pub(crate) fn push_attribute(&mut self, id: NodeId, name: TagId, value: Box<str>) {
        self.nodes[id.index()].attributes.push((name, value));
    }
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Document")
            .field("nodes", &self.nodes.len())
            .field("tags", &self.tags.len())
            .finish()
    }
}

/// Iterator returned by [`Document::descendants_or_self`].
pub struct Descendants<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        // Push children in reverse so the traversal is document order.
        let children = &self.doc.nodes[id.index()].children;
        self.stack.extend(children.iter().rev().copied());
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        // <book><title>wodehouse</title><info/></book>
        let mut doc = Document::new();
        let book_tag = doc.intern_tag("book");
        let title_tag = doc.intern_tag("title");
        let info_tag = doc.intern_tag("info");
        let book = doc.push_child(doc.document_root(), book_tag);
        let title = doc.push_child(book, title_tag);
        doc.append_text(title, "wodehouse");
        let info = doc.push_child(book, info_tag);
        (doc, book, title, info)
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
        let mut doc = Document::new();
        let t = doc.intern_tag("p");
        let p = doc.push_child(doc.document_root(), t);
        doc.append_text(p, "  hello ");
        doc.append_text(p, "\n\t ");
        doc.append_text(p, "world");
        assert_eq!(doc.text(p), Some("hello world"));
    }

    #[test]
    fn attributes_are_retrievable() {
        let mut doc = Document::new();
        let t = doc.intern_tag("item");
        let a = doc.intern_tag("id");
        let item = doc.push_child(doc.document_root(), t);
        doc.push_attribute(item, a, "item42".into());
        assert_eq!(doc.attribute(item, "id"), Some("item42"));
        assert_eq!(doc.attribute(item, "missing"), None);
    }
}
