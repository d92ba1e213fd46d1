#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! Node indexes for structural joins.
//!
//! "When a query is executed on an XML document, the document is parsed
//! and nodes involved in the query are stored in indexes along with
//! their Dewey encoding" (paper §6.2.1). This reproduction numbers nodes
//! by pre-order + subtree extent instead, the interval scheme that
//! answers the same structural questions with integer compares. This
//! crate provides:
//!
//! * [`TagIndex`] — per-tag postings in document order plus the
//!   structural columns, held as the flat arrays a snapshot stores.
//!   Every reader goes through [`TagIndexView`], one `Copy` struct of
//!   slices over either an in-memory index or a mapped snapshot, with
//!   O(log n) *descendant range scans*: all nodes with a given tag
//!   inside a subtree form a contiguous posting range because node ids
//!   are assigned in pre-order. A value test (`title = 'x'`) has no
//!   postings of its own; it filters the tag's range by
//!   [`DocView::text`], as the paper's servers find candidates with a
//!   range scan on the tag.
//! * [`RangeCursor`] — a reusable scanner over one posting list that
//!   answers ascending descendant-range queries by galloping forward
//!   from the previous answer, turning a per-root pair of binary
//!   searches into one amortized merge pass.
//! * [`ColumnsView`] — the document's flat per-node
//!   `parent`/`depth`/`subtree_end` columns (copied into the index,
//!   read through [`TagIndexView::columns`]), turning the compiled
//!   structural predicates (pc, ad, depth-bounded chains) into one or
//!   two integer comparisons so the server-op hot loop never walks
//!   parent links.
//! * [`DocView`] — the document side, re-exported from `whirlpool-xml`:
//!   one `Copy` struct of slices over a parsed `Document` or a mapped
//!   snapshot.
//! * [`ShardSynopsis`] — a per-shard tag-count summary, read before a
//!   shard is attached: a query's answer population comes from it, and
//!   a shard without the answer tag is never attached.
//! * [`PathSynopsis`] — a bounded strong dataguide (distinct
//!   root-to-node tag paths with counts and max same-parent
//!   multiplicity) that the snapshot writer stores next to the tag
//!   counts. Nothing reads it back yet.

mod columns;
mod cursor;
mod paths;
mod synopsis;
mod tagindex;

pub use columns::{lanes_for, mask_count, ColumnsView, KERNEL_LANE};
pub use cursor::RangeCursor;
pub use paths::{PathEntry, PathSynopsis, MAX_PATH_STEPS, PATH_COUNT_CAP, PATH_DEPTH_CAP};
pub use synopsis::ShardSynopsis;
pub use tagindex::{TagIndex, TagIndexView};
pub use whirlpool_xml::DocView;
