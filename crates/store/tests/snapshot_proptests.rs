//! Property-based tests for the snapshot format: round trips, and
//! corruption.
//!
//! The attach path promises: any truncated, bit-flipped, byte-mangled,
//! or mis-sized snapshot yields a clean [`StoreError`] — never a panic,
//! never an out-of-bounds read, never a silently wrong view. These
//! properties drive arbitrary documents *and* arbitrary corruptions
//! through `Snapshot::from_bytes` (the same validator `attach` uses).

use proptest::prelude::*;
use whirlpool_index::TagIndex;
use whirlpool_store::{build_snapshot_bytes, Snapshot};
use whirlpool_xml::{write_node, Document, DocumentBuilder, WriteOptions};

const TAGS: [&str; 6] = ["a", "b", "c", "item", "text", "name"];

#[derive(Debug, Clone)]
struct Tree {
    tag: usize,
    text: Option<String>,
    attrs: Vec<(usize, String)>,
    children: Vec<Tree>,
}

fn tree_strategy() -> impl Strategy<Value = Tree> {
    let attr = (0usize..TAGS.len(), "[a-z0-9 ]{0,8}");
    let leaf = (
        0usize..TAGS.len(),
        prop::option::of("[a-z <>&\"é0-9]{0,12}"),
        prop::collection::vec(attr.clone(), 0..2),
    )
        .prop_map(|(tag, text, attrs)| Tree {
            tag,
            text,
            attrs,
            children: vec![],
        });
    leaf.prop_recursive(4, 40, 4, move |inner| {
        (
            0usize..TAGS.len(),
            prop::option::of("[a-z <>&\"é0-9]{0,12}"),
            prop::collection::vec((0usize..TAGS.len(), "[a-z0-9 ]{0,8}"), 0..2),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(tag, text, attrs, children)| Tree {
                tag,
                text,
                attrs,
                children,
            })
    })
}

fn build(tree: &Tree, b: &mut DocumentBuilder) {
    b.open(TAGS[tree.tag]);
    let mut used = [false; TAGS.len()];
    for (name, value) in &tree.attrs {
        if !used[*name] {
            used[*name] = true;
            b.attribute(TAGS[*name], value);
        }
    }
    if let Some(t) = &tree.text {
        b.text(t);
    }
    for c in &tree.children {
        build(c, b);
    }
    b.close();
}

fn build_doc(trees: &[Tree]) -> Document {
    let mut builder = DocumentBuilder::new();
    for t in trees {
        build(t, &mut builder);
    }
    builder.finish()
}

fn snapshot_bytes(trees: &[Tree]) -> Vec<u8> {
    let doc = build_doc(trees);
    build_snapshot_bytes(&doc, &TagIndex::build(&doc))
}

/// The format, pinned: the snapshot of a fixed generated document has a
/// fixed length and a fixed trailing checksum.
#[test]
fn snapshot_bytes_are_pinned() {
    let doc = whirlpool_xmark::generate(&whirlpool_xmark::GeneratorConfig::items(100));
    assert_eq!(doc.len(), 2_877);
    let bytes = build_snapshot_bytes(&doc, &TagIndex::build(&doc));
    assert_eq!(bytes.len(), 108_800);
    let checksum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    assert_eq!(checksum, 0x7f87_7a16_695f_ebfa);
}

/// A document parsed in pieces is the document parsed on one thread,
/// down to the snapshot's bytes: a 4 MB XMark document cut at the first
/// `<` after each quarter and parsed whole give one file.
#[test]
fn split_parse_writes_the_sequential_bytes() {
    let doc = whirlpool_xmark::generate(&whirlpool_xmark::GeneratorConfig::megabytes(4));
    let xml = whirlpool_xml::write_document(&doc, &WriteOptions::default());
    drop(doc);
    let cuts = [1, 2, 3].map(|k| {
        let from = xml.len() * k / 4;
        from + xml[from..].find('<').unwrap()
    });
    let bytes = |cuts: &[usize]| {
        let doc = whirlpool_xml::parse_document_split(&xml, cuts).unwrap();
        build_snapshot_bytes(&doc, &TagIndex::build(&doc))
    };
    let sequential = bytes(&[]);
    assert!(sequential.len() > 4_000_000, "{} bytes", sequential.len());
    assert!(sequential == bytes(&cuts));
}

proptest! {
    /// Snapshot → views → rebuilt document is lossless for arbitrary
    /// documents (checked via canonical XML serialization).
    #[test]
    fn snapshot_roundtrip_is_lossless(trees in prop::collection::vec(tree_strategy(), 1..4)) {
        let doc = build_doc(&trees);
        let index = TagIndex::build(&doc);
        let bytes = build_snapshot_bytes(&doc, &index);

        let snap = Snapshot::from_bytes(&bytes).unwrap();
        prop_assert_eq!(snap.node_count(), doc.len());
        let opts = WriteOptions::default();
        for top in doc.children(doc.document_root()) {
            prop_assert_eq!(
                write_node(&doc, top, &opts),
                snap.doc_view().write_node(top, &opts)
            );
        }
    }

    /// The index and document a snapshot maps back to are the ones it
    /// was written from, array for array: the file stores both as they
    /// are.
    #[test]
    fn mapped_index_view_equals_the_built_one(
        trees in prop::collection::vec(tree_strategy(), 1..4),
    ) {
        let doc = build_doc(&trees);
        let index = TagIndex::build(&doc);
        let snap = Snapshot::from_bytes(&build_snapshot_bytes(&doc, &index)).unwrap();
        prop_assert_eq!(snap.index_view(), index.view());
        prop_assert_eq!(snap.doc_view(), doc.view());
    }

    /// Flipping any single bit anywhere in the file — header, section
    /// table, payload, padding, checksum — must make attach fail.
    #[test]
    fn bit_flips_always_error(
        trees in prop::collection::vec(tree_strategy(), 1..3),
        byte_seed in any::<u64>(),
        bit in 0u32..8,
    ) {
        let clean = snapshot_bytes(&trees);
        let mut corrupt = clean.clone();
        let pos = (byte_seed % corrupt.len() as u64) as usize;
        corrupt[pos] ^= 1 << bit;
        prop_assert!(
            Snapshot::from_bytes(&corrupt).is_err(),
            "flip at byte {pos} bit {bit} went undetected"
        );
    }

    /// Truncating a valid snapshot anywhere always fails cleanly.
    #[test]
    fn truncation_always_errors(
        trees in prop::collection::vec(tree_strategy(), 1..3),
        cut_seed in any::<u64>(),
    ) {
        let clean = snapshot_bytes(&trees);
        let cut = (cut_seed % clean.len() as u64) as usize;
        prop_assert!(Snapshot::from_bytes(&clean[..cut]).is_err(), "cut={cut}");
    }

    /// Prepending garbage (shifting every section off its stated
    /// offset, i.e. a misaligned/displaced layout) always fails, as
    /// does appending trailing garbage.
    #[test]
    fn misaligned_and_padded_layouts_error(
        trees in prop::collection::vec(tree_strategy(), 1..3),
        shift in 1usize..16,
    ) {
        let clean = snapshot_bytes(&trees);
        let mut shifted = vec![0u8; shift];
        shifted.extend_from_slice(&clean);
        prop_assert!(Snapshot::from_bytes(&shifted).is_err(), "shift={shift}");

        let mut padded = clean.clone();
        padded.extend(std::iter::repeat(0xAB).take(shift));
        prop_assert!(Snapshot::from_bytes(&padded).is_err(), "pad={shift}");
    }

    /// Completely arbitrary bytes never attach (and never panic).
    #[test]
    fn random_bytes_never_attach(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        // A random blob passing magic + version + checksum is
        // astronomically unlikely; what matters is "no panic".
        let _ = Snapshot::from_bytes(&bytes);
    }
}
