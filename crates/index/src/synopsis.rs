//! Per-shard synopses: what a collection knows of a shard before it
//! attaches the payload.
//!
//! A [`ShardSynopsis`] is a flat tag-name → element-count table built
//! once per shard, next to its [`TagIndex`](crate::TagIndex), and stored
//! in the shard's snapshot.
//! Tag *names* (not per-document `TagId`s) key the table because tag
//! interning is per-document — a synopsis has to answer questions posed
//! by a query compiled against a different shard's interner.

use std::collections::HashMap;
use whirlpool_xml::Document;

/// Cheap per-shard summary: element counts per tag name.
///
/// The collection driver reads a query's answer population from this
/// before any payload is attached: a shard without an element of the
/// answer tag holds no answer and is never attached, and the daemon
/// prices admission off the populations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardSynopsis {
    tag_counts: HashMap<Box<str>, u64>,
    elements: u64,
}

impl ShardSynopsis {
    /// Builds the synopsis with one pass over the document's elements.
    pub fn build(doc: &Document) -> ShardSynopsis {
        let mut tag_counts: HashMap<Box<str>, u64> = HashMap::new();
        let mut elements = 0u64;
        for n in doc.elements() {
            elements += 1;
            *tag_counts.entry(doc.tag_str(n).into()).or_insert(0) += 1;
        }
        ShardSynopsis {
            tag_counts,
            elements,
        }
    }

    /// Rebuilds a synopsis from `(tag, count)` pairs plus the total
    /// element count — the snapshot-attach path, where the counts were
    /// flattened into the file at build time. The table is tiny (one
    /// entry per distinct tag), so this stays O(tags), not O(corpus).
    pub fn from_counts(counts: impl IntoIterator<Item = (Box<str>, u64)>, elements: u64) -> Self {
        ShardSynopsis {
            tag_counts: counts.into_iter().collect(),
            elements,
        }
    }

    /// Elements carrying `tag` in the shard (0 for unknown tags).
    pub fn tag_count(&self, tag: &str) -> u64 {
        self.tag_counts.get(tag).copied().unwrap_or(0)
    }

    /// The elements a pattern whose answer node tests `answer_tag` ranges
    /// over: those carrying the tag, or every element for the wildcard
    /// `*`. This is the answer population of Definition 4.2.
    pub fn answers(&self, answer_tag: &str) -> u64 {
        if answer_tag == whirlpool_pattern::WILDCARD {
            self.elements
        } else {
            self.tag_count(answer_tag)
        }
    }

    /// Does any element in the shard carry `tag`?
    pub fn has_tag(&self, tag: &str) -> bool {
        self.tag_count(tag) > 0
    }

    /// Total element count of the shard.
    pub fn elements(&self) -> u64 {
        self.elements
    }

    /// Distinct tag names in the shard.
    pub fn distinct_tags(&self) -> usize {
        self.tag_counts.len()
    }

    /// Iterates `(tag, count)` pairs in arbitrary order.
    pub fn tags(&self) -> impl Iterator<Item = (&str, u64)> {
        self.tag_counts.iter().map(|(t, &c)| (t.as_ref(), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whirlpool_xml::parse_document;

    #[test]
    fn counts_match_the_document() {
        let doc = parse_document(
            "<shelf><book><title>t</title></book><book/><cd><title>x</title></cd></shelf>",
        )
        .unwrap();
        let s = ShardSynopsis::build(&doc);
        assert_eq!(s.tag_count("book"), 2);
        assert_eq!(s.tag_count("title"), 2);
        assert_eq!(s.tag_count("cd"), 1);
        assert_eq!(s.tag_count("shelf"), 1);
        assert_eq!(s.tag_count("nosuch"), 0);
        assert!(s.has_tag("book"));
        assert!(!s.has_tag("nosuch"));
        assert_eq!(s.elements(), 6);
        assert_eq!((s.answers("book"), s.answers("*")), (2, 6));
        assert_eq!(s.distinct_tags(), 4);
        assert_eq!(s.tags().map(|(_, c)| c).sum::<u64>(), s.elements());
    }

    #[test]
    fn empty_document_is_empty() {
        let doc = parse_document("<r/>").unwrap();
        let s = ShardSynopsis::build(&doc);
        assert_eq!(s.elements(), 1);
        assert_eq!(s.tag_count("r"), 1);
    }
}
