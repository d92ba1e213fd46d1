//! Property tests: the index's structural columns must agree with the
//! structural relations read off parent links on arbitrary documents.
//!
//! The columns are what the engines' hot path decides structure with,
//! so every relation they answer — parent, depth, containment, and the
//! compiled [`ComposedAxis`] predicates — is checked pairwise against a
//! reference built here from [`Document::parent`] alone (depth counted
//! in hops, never read from the node), on both randomized element trees
//! and seeded XMark-like documents.

use proptest::prelude::*;
use whirlpool_index::TagIndex;
use whirlpool_pattern::ComposedAxis;
use whirlpool_xmark::{generate, GeneratorConfig};
use whirlpool_xml::{Document, DocumentBuilder, NodeId};

const TAGS: [&str; 4] = ["a", "b", "c", "d"];

#[derive(Debug, Clone)]
struct RandTree {
    tag: usize,
    children: Vec<RandTree>,
}

fn tree_strategy() -> impl Strategy<Value = RandTree> {
    let leaf = (0usize..TAGS.len()).prop_map(|tag| RandTree {
        tag,
        children: vec![],
    });
    leaf.prop_recursive(5, 48, 4, |inner| {
        (0usize..TAGS.len(), prop::collection::vec(inner, 0..4))
            .prop_map(|(tag, children)| RandTree { tag, children })
    })
}

fn build_doc(trees: &[RandTree]) -> Document {
    fn rec(t: &RandTree, b: &mut DocumentBuilder) {
        b.open(TAGS[t.tag]);
        for c in &t.children {
            rec(c, b);
        }
        b.close();
    }
    let mut b = DocumentBuilder::new();
    for t in trees {
        rec(t, &mut b);
    }
    b.finish()
}

/// `m`'s proper ancestors, nearest first, by parent hops.
fn ancestors(doc: &Document, m: NodeId) -> impl Iterator<Item = NodeId> + '_ {
    std::iter::successors(doc.parent(m), |&p| doc.parent(p))
}

/// The parent-link reference: `ChildChain(k)` holds iff `k` parent hops
/// from `m` reach `n`; `Descendant` is [`Document::is_ancestor`].
fn reference_holds(doc: &Document, axis: ComposedAxis, n: NodeId, m: NodeId) -> bool {
    match axis {
        ComposedAxis::ChildChain(k) => ancestors(doc, m).nth(k as usize - 1) == Some(n),
        ComposedAxis::Descendant => doc.is_ancestor(n, m),
    }
}

/// Pairwise agreement between the columns and the parent-link reference.
fn assert_columns_agree(doc: &Document) {
    let index = TagIndex::build(doc);
    let columns = index.view().columns();
    let axes = [
        ComposedAxis::ChildChain(1),
        ComposedAxis::ChildChain(2),
        ComposedAxis::ChildChain(3),
        ComposedAxis::Descendant,
    ];
    for n in doc.all_nodes() {
        assert_eq!(columns.parent_of(n), doc.parent(n), "parent of {n:?}");
        let depth = ancestors(doc, n).count();
        assert_eq!(columns.depth_of(n), depth, "depth of {n:?}");
        assert_eq!(doc.depth(n), depth, "Document::depth of {n:?}");
        for m in doc.all_nodes() {
            assert_eq!(
                columns.contains(n, m),
                ancestors(doc, m).any(|a| a == n),
                "containment {n:?} -> {m:?}"
            );
            for axis in axes {
                assert_eq!(
                    columns.holds(axis, n, m),
                    reference_holds(doc, axis, n, m),
                    "{axis:?} {n:?} -> {m:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn columns_agree_with_parent_links_on_random_trees(
        trees in prop::collection::vec(tree_strategy(), 1..4),
    ) {
        assert_columns_agree(&build_doc(&trees));
    }

    #[test]
    fn columns_agree_with_parent_links_on_xmark_documents(seed in 0u64..1000) {
        let doc = generate(&GeneratorConfig {
            target_bytes: 4_000,
            seed,
            max_items: None,
        });
        assert_columns_agree(&doc);
    }
}
