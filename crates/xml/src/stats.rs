//! Document statistics.
//!
//! Used by the data generator to hit target document sizes and by the
//! experiment harness to report workload characteristics.

use crate::node::Document;
use crate::tags::TagId;
use std::collections::HashMap;

/// Aggregate statistics over a [`Document`].
#[derive(Debug, Clone)]
pub struct DocumentStats {
    /// Element count (excludes the synthetic root).
    pub element_count: usize,
    /// Elements per tag.
    pub tag_counts: HashMap<TagId, usize>,
    /// Maximum element depth (document root = 0).
    pub max_depth: usize,
    /// Mean number of children over elements that have children.
    pub mean_fanout: f64,
    /// Total bytes of direct text content.
    pub text_bytes: usize,
    /// Serialized size in bytes (compact form).
    pub serialized_bytes: usize,
}

impl DocumentStats {
    /// Computes statistics in a single pass plus one serialization.
    pub fn compute(doc: &Document) -> Self {
        let view = doc.view();
        let mut tag_counts: HashMap<TagId, usize> = HashMap::new();
        let mut max_depth = 0usize;
        let mut parents = 0usize;
        for id in view.elements() {
            *tag_counts.entry(view.tag(id)).or_insert(0) += 1;
            max_depth = max_depth.max(view.depth(id));
            // In pre-order a first child directly follows its parent.
            parents += usize::from(view.parent[id.index()] as usize == id.index() - 1);
        }
        let serialized =
            crate::writer::write_document(doc, &crate::writer::WriteOptions::default());
        let element_count = doc.len().saturating_sub(1);
        DocumentStats {
            element_count,
            tag_counts,
            max_depth,
            mean_fanout: if parents == 0 {
                0.0
            } else {
                element_count as f64 / parents as f64
            },
            text_bytes: view.text_blob.len(),
            serialized_bytes: serialized.len(),
        }
    }

    /// Count of elements with the given tag name.
    pub fn count_for(&self, doc: &Document, tag: &str) -> usize {
        doc.tag_id(tag)
            .and_then(|id| self.tag_counts.get(&id))
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    #[test]
    fn counts_are_correct() {
        let doc = parse_document("<a><b>xy</b><b><c>z</c></b></a>").unwrap();
        let stats = DocumentStats::compute(&doc);
        assert_eq!(stats.element_count, 4);
        assert_eq!(stats.count_for(&doc, "b"), 2);
        assert_eq!(stats.count_for(&doc, "a"), 1);
        assert_eq!(stats.count_for(&doc, "nope"), 0);
        assert_eq!(stats.max_depth, 3);
        assert_eq!(stats.text_bytes, 3);
        assert!(stats.serialized_bytes > 0);
    }

    #[test]
    fn empty_document() {
        let doc = Document::new();
        let stats = DocumentStats::compute(&doc);
        assert_eq!(stats.element_count, 0);
        assert_eq!(stats.max_depth, 0);
        assert_eq!(stats.mean_fanout, 0.0);
    }
}
