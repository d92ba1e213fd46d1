//! Pre-order document construction: the one place nodes are appended.

use crate::node::{Document, NodeId};
use crate::tags::{TagId, TagInterner};
use crate::view::ATTR_ENTRY_STRIDE;

fn as_u32(len: usize, what: &str) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| panic!("{what} exceeds u32 range ({len})"))
}

/// A push-style builder over [`Document`], used by the parser, the
/// synthetic data generators and tests. Nodes are appended in
/// pre-order: `open` writes a node's tag, parent and depth, `close`
/// its subtree extent.
///
/// # Example
///
/// ```
/// use whirlpool_xml::DocumentBuilder;
///
/// let mut b = DocumentBuilder::new();
/// b.open("book");
/// b.open("title");
/// b.text("wodehouse");
/// b.close(); // title
/// b.close(); // book
/// let doc = b.finish();
/// assert_eq!(doc.len(), 3); // root + book + title
/// ```
pub struct DocumentBuilder {
    pub(crate) doc: Document,
    tags: TagInterner,
    /// Open elements, innermost last.
    pub(crate) stack: Vec<NodeId>,
    /// Text that reached an element after its first child, in arrival
    /// order. The text blob is in node order, so these pieces are
    /// spliced in once, by [`finish`](Self::finish).
    late_text: Vec<(NodeId, String)>,
}

impl DocumentBuilder {
    /// Creates a builder over a fresh, empty document.
    pub fn new() -> Self {
        let mut tags = TagInterner::default();
        tags.by_name.insert(Document::DOC_ROOT_TAG.into(), TagId(0));
        DocumentBuilder {
            doc: Document::new(),
            tags,
            stack: Vec::new(),
            late_text: Vec::new(),
        }
    }

    fn intern(&mut self, name: &str) -> TagId {
        let doc = &mut self.doc;
        self.tags
            .intern(name, &mut doc.tag_offsets, &mut doc.tag_blob)
    }

    /// Opens a new element under the current one (or under the document
    /// root) and makes it current. Returns its id.
    ///
    /// # Panics
    /// Panics past 65 535 levels of nesting (depths are `u16`).
    pub fn open(&mut self, tag: &str) -> NodeId {
        let tag = self.intern(tag);
        let doc = &mut self.doc;
        let id = NodeId(as_u32(doc.len(), "node count"));
        doc.tag_of.push(tag.0);
        doc.parent.push(self.stack.last().map_or(0, |p| p.0));
        let depth = u16::try_from(self.stack.len() + 1).expect("document deeper than u16::MAX");
        doc.depth.push(depth);
        doc.subtree_end.push(id.0 + 1);
        doc.text_offsets.push(as_u32(doc.text_blob.len(), "text"));
        let entries = doc.attr_entries.len() / ATTR_ENTRY_STRIDE;
        doc.attr_offsets.push(as_u32(entries, "attributes"));
        self.stack.push(id);
        id
    }

    /// Closes the current element.
    ///
    /// # Panics
    /// Panics if no element is open.
    pub fn close(&mut self) {
        let id = self.stack.pop().expect("close() with no open element");
        self.doc.subtree_end[id.index()] = self.doc.len() as u32;
    }

    /// Appends text to the current element: trimmed, and joined to text
    /// it already has with one space. Whitespace-only text is dropped.
    ///
    /// # Panics
    /// Panics if no element is open.
    pub fn text(&mut self, text: &str) {
        let current = *self.stack.last().expect("text() with no open element");
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return;
        }
        if current.index() + 1 < self.doc.len() {
            self.late_text.push((current, trimmed.to_owned()));
            return;
        }
        let doc = &mut self.doc;
        if (doc.text_offsets[current.index()] as usize) < doc.text_blob.len() {
            doc.text_blob.push(' ');
        }
        doc.text_blob.push_str(trimmed);
        *doc.text_offsets.last_mut().expect("n + 1 offsets") = as_u32(doc.text_blob.len(), "text");
    }

    /// Adds an attribute to the current element.
    ///
    /// # Panics
    /// Panics if no element is open, or if the current element already
    /// has a child (attributes belong to the open tag).
    pub fn attribute(&mut self, name: &str, value: &str) {
        let current = *self.stack.last().expect("attribute() with no open element");
        assert_eq!(
            current.index() + 1,
            self.doc.len(),
            "attribute() after a child element"
        );
        let name = self.intern(name);
        let doc = &mut self.doc;
        let offset = as_u32(doc.attr_blob.len(), "attribute blob");
        doc.attr_entries
            .extend([name.0, offset, as_u32(value.len(), "attribute value")]);
        doc.attr_blob.push_str(value);
        *doc.attr_offsets.last_mut().expect("n + 1 offsets") += 1;
    }

    /// Convenience: `open(tag)`, `text(value)`, `close()`.
    pub fn leaf(&mut self, tag: &str, value: &str) -> NodeId {
        let id = self.open(tag);
        self.text(value);
        self.close();
        id
    }

    /// Convenience: an empty element.
    pub fn empty(&mut self, tag: &str) -> NodeId {
        let id = self.open(tag);
        self.close();
        id
    }

    /// Depth of the currently open element stack.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Finishes the build: closes the synthetic root and splices in any
    /// text that arrived after an element's first child.
    ///
    /// # Panics
    /// Panics if elements are still open, which always indicates a bug in
    /// the generator driving the builder.
    pub fn finish(mut self) -> Document {
        assert!(
            self.stack.is_empty(),
            "finish() with {} unclosed element(s)",
            self.stack.len()
        );
        let doc = &mut self.doc;
        doc.subtree_end[0] = doc.len() as u32;
        if self.late_text.is_empty() {
            return self.doc;
        }
        // One pass rebuilds the blob in node order: each node's own
        // text, then its late pieces in arrival order.
        self.late_text.sort_by_key(|&(id, _)| id);
        let late: usize = self.late_text.iter().map(|(_, t)| t.len() + 1).sum();
        let mut blob = String::with_capacity(doc.text_blob.len() + late);
        let mut pieces = self.late_text.iter().peekable();
        for i in 0..doc.len() {
            let start = blob.len();
            blob.push_str(
                &doc.text_blob[doc.text_offsets[i] as usize..doc.text_offsets[i + 1] as usize],
            );
            while let Some((_, piece)) = pieces.next_if(|(id, _)| id.index() == i) {
                if blob.len() > start {
                    blob.push(' ');
                }
                blob.push_str(piece);
            }
            doc.text_offsets[i] = start as u32;
        }
        *doc.text_offsets.last_mut().expect("n + 1 offsets") = as_u32(blob.len(), "text");
        doc.text_blob = blob;
        self.doc
    }
}

impl Default for DocumentBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;
    use crate::writer::{write_document, WriteOptions};

    #[test]
    fn builder_matches_parser() {
        let mut b = DocumentBuilder::new();
        b.open("book");
        b.attribute("id", "b1");
        b.leaf("title", "wodehouse");
        b.open("info");
        b.leaf("isbn", "1234");
        b.close();
        b.close();
        let built = b.finish();

        let parsed = parse_document(
            r#"<book id="b1"><title>wodehouse</title><info><isbn>1234</isbn></info></book>"#,
        )
        .unwrap();

        let opts = WriteOptions::default();
        assert_eq!(
            write_document(&built, &opts),
            write_document(&parsed, &opts)
        );
        assert_eq!(built.view(), parsed.view());
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn finish_panics_on_open_elements() {
        let mut b = DocumentBuilder::new();
        b.open("a");
        let _ = b.finish();
    }

    #[test]
    fn empty_and_leaf_helpers() {
        let mut b = DocumentBuilder::new();
        b.open("r");
        let e = b.empty("x");
        let l = b.leaf("y", "v");
        b.close();
        let doc = b.finish();
        assert_eq!(doc.text(e), None);
        assert_eq!(doc.text(l), Some("v"));
    }
}
