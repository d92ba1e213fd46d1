//! Pre-order document construction: the one place nodes are appended,
//! and where a piece of a document parsed on its own is stitched on.

use crate::node::{Document, NodeId};
use crate::parser::MAX_DEPTH;
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
    /// Added to every depth `open` writes: 0, except in a piece, whose
    /// depths start at `MAX_DEPTH` and drop by one per orphan close.
    pub(crate) base: usize,
}

/// A piece of a document, parsed on its own from a `<` boundary.
pub(crate) struct Piece<'a> {
    /// Its nodes, numbered from 1 after a placeholder root, with depths
    /// biased as [`DocumentBuilder::base`] says.
    pub(crate) builder: DocumentBuilder,
    /// What reached outside its own elements, in document order.
    pub(crate) orphans: Vec<Orphan<'a>>,
}

/// A piece's reach into the elements open where it starts. `at` is the
/// number of the piece's nodes before it.
pub(crate) enum Orphan<'a> {
    /// A closing tag with no open element of the piece's own.
    Close { name: &'a str, at: u32 },
    /// Non-blank text outside the piece's own elements, trimmed.
    Text { text: String, at: u32 },
}

impl Piece<'_> {
    /// What the piece adds to the columns a stitch reserves: nodes,
    /// text bytes, attribute entry words and attribute value bytes.
    fn extent(&self) -> [usize; 4] {
        let doc = &self.builder.doc;
        [
            doc.len() - 1,
            doc.text_blob.len(),
            doc.attr_entries.len(),
            doc.attr_blob.len(),
        ]
    }
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
            base: 0,
        }
    }

    pub(crate) fn intern(&mut self, name: &str) -> TagId {
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
        let depth =
            u16::try_from(self.base + self.stack.len() + 1).expect("document deeper than u16::MAX");
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
        let name = self.intern(name);
        self.attribute_tag(name, value);
    }

    /// [`attribute`](Self::attribute) with the name already interned.
    pub(crate) fn attribute_tag(&mut self, name: TagId, value: &str) {
        let current = *self.stack.last().expect("attribute() with no open element");
        assert_eq!(
            current.index() + 1,
            self.doc.len(),
            "attribute() after a child element"
        );
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

    /// Appends `pieces` in order after the last node, each as the
    /// sequential parse would have built it, and returns how many it
    /// took. It stops, touching nothing of that piece, at the first one
    /// that is missing or does not continue the document: an orphan
    /// close that names another element than the one open at that
    /// point, orphan text with no element open, or a node deeper than
    /// `MAX_DEPTH`. Each column is reserved to its final length once and
    /// a piece's column is dropped as soon as it is appended, so at no
    /// point is a second copy of the document live.
    pub(crate) fn stitch(&mut self, pieces: Vec<Option<Piece<'_>>>) -> usize {
        // Column lengths of this piece and every later one up to a
        // missing piece, where the stitch stops.
        let mut later = vec![[0; 4]; pieces.len() + 1];
        for (k, piece) in pieces.iter().enumerate().rev() {
            if let Some(piece) = piece {
                let extent = piece.extent();
                later[k] = std::array::from_fn(|c| later[k + 1][c] + extent[c]);
            }
        }
        for (k, piece) in pieces.into_iter().enumerate() {
            match piece {
                Some(piece) if self.continues_with(&piece) => self.append(piece, later[k]),
                _ => return k,
            }
        }
        later.len() - 1
    }

    /// Whether `piece`, appended now, builds what the sequential parse
    /// would have built.
    fn continues_with(&self, piece: &Piece<'_>) -> bool {
        let open = self.stack.len();
        let mut closes = 0;
        for orphan in &piece.orphans {
            let Some(outer) = open.checked_sub(closes + 1) else {
                return false;
            };
            if let Orphan::Close { name, .. } = orphan {
                if self.doc.tag_str(self.stack[outer]) != *name {
                    return false;
                }
                closes += 1;
            }
        }
        (piece.builder.doc.depth[1..].iter()).all(|&d| usize::from(d) + open <= 2 * MAX_DEPTH)
    }

    /// Appends a piece [`continues_with`](Self::continues_with) accepted,
    /// reserving each column for `later`, the lengths this piece and the
    /// ones after it add.
    fn append(&mut self, piece: Piece<'_>, later: [usize; 4]) {
        let Piece { builder, orphans } = piece;
        let DocumentBuilder {
            doc: part,
            late_text,
            stack,
            ..
        } = builder;
        let [nodes, text, entries, values] = later;
        let base = as_u32(self.doc.len() - 1, "node count");
        as_u32(self.doc.len() + part.len() - 1, "node count");
        let outer = self.stack.clone();
        let open = outer.len();

        // The piece's names in its own id order: first occurrences stay
        // in document order, so ids match the sequential parse.
        let tags: Vec<u32> = (0..part.view().tag_count())
            .map(|t| match t {
                0 => 0,
                t => self.intern(part.tag_name(TagId::from_index(t))).0,
            })
            .collect();

        for orphan in orphans {
            match orphan {
                Orphan::Close { at, .. } => {
                    let closed = self.stack.pop().expect("checked by continues_with");
                    self.doc.subtree_end[closed.index()] = base + 1 + at;
                }
                // Before the piece's first node the element may still
                // take text in place; `text` decides, as it would have.
                Orphan::Text { text, at: 0 } => self.text(&text),
                Orphan::Text { text, .. } => {
                    let target = *self.stack.last().expect("checked by continues_with");
                    self.late_text.push((target, text));
                }
            }
        }
        self.late_text.extend(
            late_text
                .into_iter()
                .map(|(id, text)| (NodeId(base + id.0), text)),
        );
        self.stack
            .extend(stack.into_iter().map(|id| NodeId(base + id.0)));

        let Document {
            tag_of,
            parent,
            depth,
            subtree_end,
            text_offsets,
            text_blob,
            attr_offsets,
            attr_entries,
            attr_blob,
            ..
        } = &mut self.doc;
        let text_base = as_u32(text_blob.len(), "text");
        as_u32(text_blob.len() + part.text_blob.len(), "text");
        let value_base = as_u32(attr_blob.len(), "attribute blob");
        as_u32(attr_blob.len() + part.attr_blob.len(), "attribute blob");
        let entry_base = as_u32(attr_entries.len() / ATTR_ENTRY_STRIDE, "attributes");
        let rebase = |d: u16| (usize::from(d) + open - MAX_DEPTH) as u16;
        tag_of.reserve_exact(nodes);
        tag_of.extend(part.tag_of[1..].iter().map(|&t| tags[t as usize]));
        drop(part.tag_of);
        // A top-level node of the piece hangs under the element open at
        // the depth above it.
        parent.reserve_exact(nodes);
        parent.extend(
            (part.parent[1..].iter().zip(&part.depth[1..])).map(|(&p, &d)| match p {
                0 => (usize::from(rebase(d)).checked_sub(2)).map_or(0, |i| outer[i].0),
                p => base + p,
            }),
        );
        drop(part.parent);
        depth.reserve_exact(nodes);
        depth.extend(part.depth[1..].iter().map(|&d| rebase(d)));
        drop(part.depth);
        subtree_end.reserve_exact(nodes);
        subtree_end.extend(part.subtree_end[1..].iter().map(|&end| base + end));
        drop(part.subtree_end);
        text_offsets.reserve_exact(nodes);
        text_offsets.extend(part.text_offsets[2..].iter().map(|&o| text_base + o));
        drop(part.text_offsets);
        text_blob.reserve_exact(text);
        text_blob.push_str(&part.text_blob);
        drop(part.text_blob);
        attr_offsets.reserve_exact(nodes);
        attr_offsets.extend(part.attr_offsets[2..].iter().map(|&o| entry_base + o));
        drop(part.attr_offsets);
        attr_entries.reserve_exact(entries);
        attr_entries.extend(
            (part.attr_entries.chunks_exact(ATTR_ENTRY_STRIDE))
                .flat_map(|e| [tags[e[0] as usize], value_base + e[1], e[2]]),
        );
        drop(part.attr_entries);
        attr_blob.reserve_exact(values);
        attr_blob.push_str(&part.attr_blob);
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
