//! Property-based tests for the XML substrate: tree-encoding laws
//! (parent links, depths, pre-order ids) and parser/writer round-trips
//! over generated documents.

use proptest::prelude::*;
use whirlpool_xml::{
    parse_document, write_document, Document, DocumentBuilder, NodeId, WriteOptions,
};

// ---------------------------------------------------------------------
// Random document generation for parser round-trips.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Tree {
    Node {
        tag: usize,
        text: Option<String>,
        children: Vec<Tree>,
    },
}

fn tree_strategy() -> impl Strategy<Value = Tree> {
    let leaf =
        (0usize..8, prop::option::of("[a-z <>&\"']{0,12}")).prop_map(|(tag, text)| Tree::Node {
            tag,
            text,
            children: vec![],
        });
    leaf.prop_recursive(4, 32, 4, |inner| {
        (
            0usize..8,
            prop::option::of("[a-z <>&\"']{0,12}"),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(tag, text, children)| Tree::Node {
                tag,
                text,
                children,
            })
    })
}

const TAGS: [&str; 8] = ["a", "b", "c", "item", "name", "text", "bold", "keyword"];

fn build(tree: &Tree, b: &mut DocumentBuilder) {
    let Tree::Node {
        tag,
        text,
        children,
    } = tree;
    b.open(TAGS[*tag]);
    if let Some(t) = text {
        b.text(t);
    }
    for c in children {
        build(c, b);
    }
    b.close();
}

fn doc_strategy() -> impl Strategy<Value = Document> {
    tree_strategy().prop_map(|tree| {
        let mut builder = DocumentBuilder::new();
        build(&tree, &mut builder);
        builder.finish()
    })
}

/// `id`'s proper ancestors, nearest first, by parent hops.
fn ancestors(doc: &Document, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
    std::iter::successors(doc.parent(id), |&p| doc.parent(p))
}

proptest! {
    /// Ancestry is antisymmetric and consistent with document order: an
    /// ancestor always precedes its descendants.
    #[test]
    fn ancestor_precedes_descendant(doc in doc_strategy()) {
        for a in doc.all_nodes() {
            for b in doc.all_nodes() {
                if doc.is_ancestor(a, b) {
                    prop_assert!(a < b);
                    prop_assert!(!doc.is_ancestor(b, a));
                }
            }
        }
    }

    /// parent-child implies ancestor-descendant with depth difference 1.
    #[test]
    fn parent_is_ancestor(doc in doc_strategy()) {
        for a in doc.all_nodes() {
            for b in doc.all_nodes() {
                if doc.is_parent(a, b) {
                    prop_assert!(doc.is_ancestor(a, b));
                    prop_assert_eq!(doc.depth(b), doc.depth(a) + 1);
                    prop_assert_eq!(doc.parent(b), Some(a));
                }
            }
        }
    }

    /// `is_ancestor` is "some number of parent hops", and the stored
    /// depth is the number of hops to the document root.
    #[test]
    fn ancestor_at_depth_consistency(doc in doc_strategy()) {
        for b in doc.all_nodes() {
            prop_assert_eq!(doc.depth(b), ancestors(&doc, b).count());
            for a in doc.all_nodes() {
                prop_assert_eq!(doc.is_ancestor(a, b), ancestors(&doc, b).any(|p| p == a));
            }
        }
    }

    /// Every descendant falls strictly inside the pre-order interval
    /// (self, self + subtree size), and non-descendants fall outside.
    #[test]
    fn descendant_range_is_tight(doc in doc_strategy()) {
        for a in doc.all_nodes() {
            let end = a.index() + doc.descendants_or_self(a).count();
            for b in doc.all_nodes() {
                let in_range = a < b && b.index() < end;
                prop_assert_eq!(doc.is_ancestor(a, b), in_range);
            }
        }
    }

    /// Every child's parent link points back at the node that lists it.
    #[test]
    fn child_parent_roundtrip(doc in doc_strategy()) {
        for a in doc.all_nodes() {
            for c in doc.children(a) {
                prop_assert_eq!(doc.parent(c), Some(a));
            }
        }
    }
}

proptest! {
    /// write → parse → write is a fixpoint for any generated document,
    /// including text needing entity escaping.
    #[test]
    fn writer_parser_roundtrip(tree in tree_strategy()) {
        let mut builder = DocumentBuilder::new();
        build(&tree, &mut builder);
        let doc = builder.finish();
        let opts = WriteOptions::default();
        let first = write_document(&doc, &opts);
        let reparsed = parse_document(&first).unwrap();
        let second = write_document(&reparsed, &opts);
        prop_assert_eq!(first, second);
    }

    /// Parsed documents give every element a parent one level up, and
    /// NodeId order is document (pre-)order.
    #[test]
    fn parsed_tree_invariants(tree in tree_strategy()) {
        let mut builder = DocumentBuilder::new();
        build(&tree, &mut builder);
        let doc = parse_document(&write_document(&builder.finish(), &WriteOptions::default()))
            .unwrap();
        for id in doc.elements() {
            let parent = doc.parent(id).unwrap();
            prop_assert!(doc.children(parent).any(|c| c == id));
            prop_assert_eq!(doc.depth(id), doc.depth(parent) + 1);
            prop_assert!(parent < id, "parents precede children in NodeId order");
        }
        // A pre-order walk visits the nodes in NodeId order.
        let order: Vec<NodeId> = doc.descendants_or_self(doc.document_root()).collect();
        prop_assert_eq!(order, doc.all_nodes().collect::<Vec<_>>());
    }
}
