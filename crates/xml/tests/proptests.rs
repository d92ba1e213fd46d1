//! Property-based tests for the XML substrate: tree-encoding laws
//! (parent links, depths, pre-order ids) and parser/writer round-trips
//! over generated documents.

use proptest::prelude::*;
use whirlpool_pattern::{AttrTest, ValueTest};
use whirlpool_xml::{
    parse_document, write_document, DocView, Document, DocumentBuilder, NodeId, TagId,
    WriteOptions, ATTR_ENTRY_STRIDE,
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

/// Offsets: mostly near the blobs, one in four anywhere.
fn offsets() -> impl Strategy<Value = Vec<u32>> {
    let offset = any::<u32>().prop_map(|x| if x % 4 == 0 { x } else { x % 48 });
    prop::collection::vec(offset, 1..40)
}

/// What a view can hold besides its structure: names, offsets,
/// attribute entries and blob bytes, all arbitrary.
#[derive(Debug)]
struct Content {
    tag_offsets: Vec<u32>,
    tag_blob: String,
    text_offsets: Vec<u32>,
    text_blob: Vec<u8>,
    attr_offsets: Vec<u32>,
    attr_entries: Vec<u32>,
    attr_blob: Vec<u8>,
}

fn content_strategy() -> impl Strategy<Value = Content> {
    let bytes = || prop::collection::vec(any::<u8>(), 0..48);
    (
        (offsets(), ".{0,24}"),
        (offsets(), bytes()),
        (offsets(), offsets(), bytes()),
    )
        .prop_map(|((to, tb), (xo, xb), (ao, ae, ab))| Content {
            tag_offsets: to,
            tag_blob: tb,
            text_offsets: xo,
            text_blob: xb,
            attr_offsets: ao,
            attr_entries: ae,
            attr_blob: ab,
        })
}

/// `values` repeated or cut to `len`: arbitrary content in the shape a
/// snapshot's section table enforces.
fn fit(values: &[u32], len: usize) -> Vec<u32> {
    values.iter().copied().cycle().take(len).collect()
}

proptest! {
    /// The view is total over any content of the right shapes: no
    /// accessor, value test or serialization panics, whatever the
    /// offsets, entries and bytes say: a mapped file whose bytes change
    /// after its attach checked them still reads safely.
    #[test]
    fn views_are_total_over_arbitrary_content(doc in doc_strategy(), c in content_strategy()) {
        let owned = doc.view();
        let (n, tags) = (owned.len(), owned.tag_count());
        let entries = c.attr_entries.len() / ATTR_ENTRY_STRIDE * ATTR_ENTRY_STRIDE;
        let (tag_offsets, text_offsets) = (fit(&c.tag_offsets, tags + 1), fit(&c.text_offsets, n + 1));
        let attr_offsets = fit(&c.attr_offsets, n + 1);
        let dv = DocView {
            tag_offsets: &tag_offsets,
            tag_blob: &c.tag_blob,
            text_offsets: &text_offsets,
            text_blob: &c.text_blob,
            attr_offsets: &attr_offsets,
            attr_entries: &c.attr_entries[..entries],
            attr_blob: &c.attr_blob,
            ..owned
        };
        let eq = ValueTest::Eq("a".into());
        let contains = ValueTest::Contains("b".into());
        let attr_test = AttrTest { name: "k".into(), value: Some("v".into()) };
        for t in 0..tags + 2 {
            let _ = dv.tag_name(TagId::from_index(t));
        }
        for n in dv.elements() {
            let _ = dv.tag_str(n);
            let text = dv.text_bytes(n);
            prop_assert_eq!(
                dv.text(n).map(str::as_bytes),
                text.filter(|t| std::str::from_utf8(t).is_ok())
            );
            let _ = (eq.matches(text), contains.matches(text));
            for (name, value) in dv.attributes(n) {
                let _ = (dv.tag_name(name), attr_test.matches(Some(value)));
                prop_assert!(dv.attribute_bytes(n, name).is_some());
                let _ = dv.attribute(n, name);
            }
            // A span can cut a character of a blob that is UTF-8 as a
            // whole, so either outcome is possible; neither panics.
            if let Ok(xml) = dv.write_node(n, &WriteOptions::default()) {
                prop_assert!(xml.starts_with('<'));
            }
        }
    }
}
