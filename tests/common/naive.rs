//! A naive tree-pattern evaluator, used as the differential-testing
//! oracle for the engines' *exact* mode. It lives with the tests, not in
//! `whirlpool-core`: no production path calls it.
//!
//! Straightforward recursive embedding search with no indexes, no
//! scores and no pruning — slow but obviously correct.

use whirlpool_pattern::{Axis, QNodeId, TreePattern};
use whirlpool_xml::{Document, NodeId};

/// The document nodes that root at least one *exact* embedding of the
/// pattern, in document order.
pub fn exact_match_roots(doc: &Document, pattern: &TreePattern) -> Vec<NodeId> {
    let root_q = pattern.root();
    let root_spec = pattern.node(root_q);
    doc.elements()
        .filter(|&n| {
            // Root axis from the synthetic document root.
            match root_spec.axis {
                Axis::Child => doc.depth(n) == 1,
                Axis::Descendant => true,
            }
        })
        .filter(|&n| embeds(doc, pattern, root_q, n))
        .collect()
}

/// Can `qnode` embed at `node` (tag, value, and all pattern children
/// recursively)?
fn embeds(doc: &Document, pattern: &TreePattern, qnode: QNodeId, node: NodeId) -> bool {
    count_limited(doc, pattern, qnode, node, 1) > 0
}

/// Counts embeddings of the subtree rooted at `qnode` onto `node`,
/// stopping early once `limit` is reached.
fn count_limited(
    doc: &Document,
    pattern: &TreePattern,
    qnode: QNodeId,
    node: NodeId,
    limit: usize,
) -> usize {
    let spec = pattern.node(qnode);
    if !pattern.tag_matches(qnode, doc.tag_str(node)) {
        return 0;
    }
    if let Some(v) = &spec.value {
        if !v.matches(doc.text(node)) {
            return 0;
        }
    }
    if !spec
        .attrs
        .iter()
        .all(|a| a.matches(doc.attribute(node, &a.name)))
    {
        return 0;
    }
    let mut total = 1usize;
    for &child_q in &spec.children {
        let axis = pattern.node(child_q).axis;
        let mut ways = 0usize;
        match axis {
            Axis::Child => {
                for c in doc.children(node) {
                    ways = ways.saturating_add(count_limited(doc, pattern, child_q, c, limit));
                    if ways >= limit {
                        break;
                    }
                }
            }
            Axis::Descendant => {
                for c in doc.descendants_or_self(node).skip(1) {
                    ways = ways.saturating_add(count_limited(doc, pattern, child_q, c, limit));
                    if ways >= limit {
                        break;
                    }
                }
            }
        }
        if ways == 0 {
            return 0;
        }
        total = total.saturating_mul(ways);
        if total >= limit {
            total = limit;
        }
    }
    total
}
