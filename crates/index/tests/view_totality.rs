//! A tag index view over arbitrary posting arrays never panics.
//!
//! A snapshot's posting arrays and columns are mapped bytes: attach
//! checks them, but a file rewritten in place afterwards changes them
//! under a resident view. Every [`TagIndexView`] accessor must then
//! answer wrong postings, not panic, whatever the offsets, ids and
//! subtree ends say.

use proptest::prelude::*;
use whirlpool_index::{ColumnsView, TagIndexView};
use whirlpool_xml::{Document, DocumentBuilder, NodeId, TagId};

/// A random document over three tags, up to 8 deep, as a stream of
/// opens (a tag) and closes.
fn doc_strategy() -> impl Strategy<Value = Document> {
    prop::collection::vec(0usize..5, 0..60).prop_map(|ops| {
        let mut b = DocumentBuilder::new();
        let mut depth = 0;
        for op in ops {
            if op < 3 && depth < 8 {
                b.open(["a", "b", "c"][op]);
                depth += 1;
            } else if depth > 0 {
                b.close();
                depth -= 1;
            }
        }
        for _ in 0..depth {
            b.close();
        }
        b.finish()
    })
}

/// One value in nine anywhere in `u32`, the rest below `bound`.
fn mostly_below(bound: u32) -> impl Strategy<Value = u32> {
    (0u32..9, 0..bound, any::<u32>())
        .prop_map(|(pick, near, far)| if pick < 8 { near } else { far })
}

/// Posting arrays: ids mostly near the document's node ids, offsets
/// anywhere, and half the time offsets that end at the ids' length (the
/// shape `from_raw` takes as postings), so unsorted and out-of-range
/// ids reach the searches.
fn postings_strategy() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    (
        prop::collection::vec(mostly_below(24), 0..8),
        prop::collection::vec(mostly_below(80), 0..24),
        any::<bool>(),
    )
        .prop_map(|(mut offsets, ids, bracketed)| {
            if bracketed {
                offsets.push(ids.len() as u32);
            }
            (offsets, ids)
        })
}

proptest! {
    #[test]
    fn index_views_are_total_over_arbitrary_postings(
        doc in doc_strategy(),
        postings in postings_strategy(),
        ends in prop::collection::vec(mostly_below(80), 1..24),
    ) {
        let (post_offsets, post_ids) = postings;
        let view = doc.view();
        // The document's parents and depths, and arbitrary subtree ends
        // in the column's shape.
        let subtree_end: Vec<u32> = ends.iter().copied().cycle().take(view.len()).collect();
        let columns = ColumnsView::from_raw(view.parent, view.depth, &subtree_end);
        let view = TagIndexView::from_raw(columns, &post_offsets, &post_ids);
        let (offsets, ids) = view.postings_raw();
        prop_assert_eq!(offsets.last().map(|&end| end as usize), Some(ids.len()));
        prop_assert_eq!(view.columns(), columns);
        let tags = doc.view().tag_count() + 2;
        for t in (0..tags).map(TagId::from_index) {
            let _ = view.nodes_with_tag(t);
        }
        for node in (0..columns.len()).map(NodeId::from_index) {
            let _ = view.subtree_end(node);
            let _ = view.descendants_any(node).take(4).count();
            for t in (0..tags).map(TagId::from_index) {
                let _ = view.descendants_with_tag(node, t);
            }
        }
    }
}
