//! Document serialization.
//!
//! Used for document-size accounting in the experiments (the paper
//! reports document sizes in megabytes of serialized XML), for parser
//! round-trip tests, and to render answers. One serializer reads a
//! [`DocView`], so a parsed [`Document`] and a mapped snapshot share it.
//! It writes bytes; a mapped snapshot's output is checked as UTF-8 once
//! at the end ([`DocView::write_node`]).

use crate::node::{Document, NodeId};
use crate::view::DocView;
use std::str::Utf8Error;

/// Serialization options.
#[derive(Debug, Clone, Default)]
pub struct WriteOptions {
    /// Pretty-print with this many spaces per depth level; `None` writes
    /// compact output.
    pub indent: Option<usize>,
    /// Emit an `<?xml version="1.0"?>` declaration.
    pub declaration: bool,
}

/// Serializes a whole document (the children of the synthetic root).
pub fn write_document(doc: &Document, opts: &WriteOptions) -> String {
    let mut out = Vec::new();
    if opts.declaration {
        out.extend_from_slice(b"<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        if opts.indent.is_some() {
            out.push(b'\n');
        }
    }
    for child in doc.children(doc.document_root()) {
        write_node_into(doc.view(), child, opts, 0, &mut out);
    }
    // The names, text and values of a `Document` are `String`s, cut
    // only between whole pushes, and the writer adds ASCII.
    String::from_utf8(out).expect("a Document's blobs are UTF-8")
}

/// Serializes the subtree rooted at `node` of a [`Document`] or a
/// [`DocView`]: [`DocView::write_node`].
pub fn write_node<'a>(
    doc: impl Into<DocView<'a>>,
    node: NodeId,
    opts: &WriteOptions,
) -> Result<String, Utf8Error> {
    doc.into().write_node(node, opts)
}

/// Appends the subtree rooted at `node`. Bytes are copied as they are:
/// markup is ASCII, and escaping replaces ASCII bytes only, which never
/// occur inside a multi-byte UTF-8 sequence.
pub(crate) fn write_node_into(
    doc: DocView<'_>,
    node: NodeId,
    opts: &WriteOptions,
    depth: usize,
    out: &mut Vec<u8>,
) {
    let tag = doc.tag_str(node).as_bytes();
    if let Some(indent) = opts.indent {
        if !out.is_empty() && !out.ends_with(b"\n") {
            out.push(b'\n');
        }
        out.resize(out.len() + indent * depth, b' ');
    }
    out.push(b'<');
    out.extend_from_slice(tag);
    for (name, value) in doc.attributes(node) {
        out.push(b' ');
        out.extend_from_slice(doc.tag_name(name).as_bytes());
        out.extend_from_slice(b"=\"");
        escape_into(value, true, out);
        out.push(b'"');
    }
    let text = doc.text_bytes(node);
    let mut children = doc.children(node).peekable();
    let has_children = children.peek().is_some();
    if !has_children && text.is_none() {
        out.extend_from_slice(b"/>");
        return;
    }
    out.push(b'>');
    if let Some(text) = text {
        escape_into(text, false, out);
    }
    for child in children {
        write_node_into(doc, child, opts, depth + 1, out);
    }
    if let Some(indent) = opts.indent {
        if has_children {
            out.push(b'\n');
            out.resize(out.len() + indent * depth, b' ');
        }
    }
    out.extend_from_slice(b"</");
    out.extend_from_slice(tag);
    out.push(b'>');
}

fn escape_into(text: &[u8], in_attribute: bool, out: &mut Vec<u8>) {
    for &b in text {
        match b {
            b'<' => out.extend_from_slice(b"&lt;"),
            b'>' => out.extend_from_slice(b"&gt;"),
            b'&' => out.extend_from_slice(b"&amp;"),
            b'"' if in_attribute => out.extend_from_slice(b"&quot;"),
            _ => out.push(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    #[test]
    fn writes_compact_xml() {
        let doc = parse_document("<a x=\"1\"><b>t</b><c/></a>").unwrap();
        let out = write_document(&doc, &WriteOptions::default());
        assert_eq!(out, "<a x=\"1\"><b>t</b><c/></a>");
    }

    #[test]
    fn escapes_special_characters() {
        let doc = parse_document("<a y=\"&quot;q&quot;\">x &lt; &amp; y</a>").unwrap();
        let out = write_document(&doc, &WriteOptions::default());
        assert_eq!(out, "<a y=\"&quot;q&quot;\">x &lt; &amp; y</a>");
    }

    #[test]
    fn round_trip_is_stable() {
        let src = "<site><item id=\"i0\"><name>n &amp; m</name><incategory/></item></site>";
        let doc = parse_document(src).unwrap();
        let once = write_document(&doc, &WriteOptions::default());
        let doc2 = parse_document(&once).unwrap();
        let twice = write_document(&doc2, &WriteOptions::default());
        assert_eq!(once, twice);
        assert_eq!(once, src);
    }

    #[test]
    fn pretty_print_indents() {
        let doc = parse_document("<a><b><c/></b></a>").unwrap();
        let out = write_document(
            &doc,
            &WriteOptions {
                indent: Some(2),
                declaration: true,
            },
        );
        assert!(out.starts_with("<?xml"));
        assert!(out.contains("\n  <b>"));
        assert!(out.contains("\n    <c/>"));
    }

    #[test]
    fn write_node_serializes_subtree_only() {
        let doc = parse_document("<a><b>t</b><c/></a>").unwrap();
        let a = doc.children(doc.document_root()).next().unwrap();
        let b = doc.children(a).next().unwrap();
        assert_eq!(
            write_node(&doc, b, &WriteOptions::default()).as_deref(),
            Ok("<b>t</b>")
        );
    }
}
