//! Parsing in pieces holds the document once: the heap a parse of a
//! 4 MB XMark document holds at its peak, cut in two as on a two-core
//! host, stays within a tenth of the parse on one thread. The stitch
//! reserves each column once and drops a piece's column as soon as it is
//! appended; one that kept every piece column to the end would hold half
//! a document more. The test counts every allocation of its own
//! process, so it lives alone in this binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use whirlpool_xmark::{generate, GeneratorConfig};
use whirlpool_xml::{parse_document_split, write_document, WriteOptions};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The heap `parse_document_split(xml, cuts)` holds at its peak, above
/// where it started, and the document's node count.
fn peak(xml: &str, cuts: &[usize]) -> (usize, usize) {
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    let doc = parse_document_split(xml, cuts).unwrap();
    (PEAK.load(Relaxed) - start, doc.len())
}

#[test]
fn a_split_parse_holds_the_document_once() {
    let doc = generate(&GeneratorConfig::megabytes(4).with_seed(3));
    let xml = write_document(&doc, &WriteOptions::default());
    drop(doc);
    let middle = xml.len() / 2 + xml[xml.len() / 2..].find('<').unwrap();

    let (sequential, nodes) = peak(&xml, &[]);
    let (split, split_nodes) = peak(&xml, &[middle]);
    assert_eq!(split_nodes, nodes);
    assert!(
        split * 10 <= sequential * 11,
        "a {}-byte parse held {split} bytes in two pieces, {sequential} in one",
        xml.len()
    );
}
