//! Document serialization.
//!
//! Used for document-size accounting in the experiments (the paper
//! reports document sizes in megabytes of serialized XML), for parser
//! round-trip tests, and to render answers. One serializer reads a
//! [`DocView`], so a parsed [`Document`] and a mapped snapshot share it.

use crate::node::{Document, NodeId};
use crate::view::DocView;
use std::fmt::Write as _;

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
    let mut out = String::new();
    if opts.declaration {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        if opts.indent.is_some() {
            out.push('\n');
        }
    }
    for child in doc.children(doc.document_root()) {
        write_node_into(doc.view(), child, opts, 0, &mut out);
    }
    out
}

/// Serializes the subtree rooted at `node` of a [`Document`] or a
/// [`DocView`]: [`DocView::write_node`].
pub fn write_node<'a>(doc: impl Into<DocView<'a>>, node: NodeId, opts: &WriteOptions) -> String {
    doc.into().write_node(node, opts)
}

pub(crate) fn write_node_into(
    doc: DocView<'_>,
    node: NodeId,
    opts: &WriteOptions,
    depth: usize,
    out: &mut String,
) {
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
        let _ = write!(out, " {}=\"", doc.tag_name(name));
        escape_into(value, true, out);
        out.push('"');
    }
    let text = doc.text(node);
    let mut children = doc.children(node).peekable();
    let has_children = children.peek().is_some();
    if !has_children && text.is_none() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    if let Some(text) = text {
        escape_into(text, false, out);
    }
    for child in children {
        write_node_into(doc, child, opts, depth + 1, out);
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
        assert_eq!(write_node(&doc, b, &WriteOptions::default()), "<b>t</b>");
    }
}
