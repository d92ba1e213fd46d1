//! `save_snapshot` streams the document's arrays to the file: the heap
//! it holds at its peak, above where it started, is its staging buffer
//! and the encoded synopsis, never an image of the file. The test
//! counts every allocation of its own process, so it lives alone in
//! this binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use whirlpool_index::TagIndex;
use whirlpool_store::{save_snapshot, Snapshot};
use whirlpool_xmark::{generate, GeneratorConfig};

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

#[test]
fn save_snapshot_holds_no_image_of_the_file() {
    let doc = generate(&GeneratorConfig::megabytes(4).with_seed(3));
    let index = TagIndex::build(&doc);
    let dir = TempDir(std::env::temp_dir().join(format!("wpl-save-heap-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).unwrap();
    let path = dir.0.join("doc.wps");

    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    save_snapshot(&doc, &index, &path).unwrap();
    let peak = PEAK.load(Relaxed) - start;

    let file_len = std::fs::metadata(&path).unwrap().len() as usize;
    assert!(file_len > 4_000_000, "a {file_len}-byte snapshot");
    assert!(
        peak < (1 << 20) + file_len / 4,
        "saving a {file_len}-byte snapshot held {peak} bytes of heap at its peak"
    );
    assert_eq!(Snapshot::attach(&path).unwrap().doc_view(), doc.view());
}

/// A directory removed when the guard drops: at the end of the test, or
/// as a failing one unwinds.
struct TempDir(std::path::PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
