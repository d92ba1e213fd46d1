//! Bounded strong-dataguide path synopsis.
//!
//! A [`PathSynopsis`] records the distinct **root-to-node tag paths** of
//! a shard — a strong dataguide in the Lore sense, annotated with
//! per-path node counts and the maximum same-path sibling multiplicity.
//! The snapshot writer stores it in every file's synopsis section; no
//! query reads it back (a shard's ceiling comes from its exact counts,
//! DESIGN.md §12), so the type has a builder and the accessors the
//! writer encodes from, and nothing else.
//!
//! The synopsis is bounded on two axes so it stays cheap to store: paths
//! deeper than [`PATH_DEPTH_CAP`] and beyond the first
//! [`PATH_COUNT_CAP`] distinct paths are dropped and the synopsis is
//! marked *truncated*. No stored path has more than [`MAX_PATH_STEPS`]
//! steps, a rule of the snapshot format that its reader enforces.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use whirlpool_xml::{Document, TagId};

/// Maximum stored path depth (document element = depth 1). Deeper nodes
/// mark the synopsis truncated.
pub const PATH_DEPTH_CAP: usize = 16;

/// Maximum number of distinct stored paths. Further paths mark the
/// synopsis truncated.
pub const PATH_COUNT_CAP: usize = 1024;

/// The most steps a stored path may have, whatever the depth cap: a
/// rule of the snapshot format. [`PathSynopsis::build_capped`] clamps
/// its cap to this, and a snapshot reader refuses a longer path or a
/// larger cap.
pub const MAX_PATH_STEPS: usize = 63;

/// One distinct root-to-node tag path with its annotations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathEntry {
    /// Tag ids (into [`PathSynopsis::tag_names`]) from the document
    /// element down to the node.
    pub steps: Vec<u32>,
    /// Nodes in the shard carrying exactly this path.
    pub count: u64,
    /// Maximum number of same-path siblings under one parent — an upper
    /// bound on any per-parent term frequency along this path.
    pub max_tf: u64,
}

/// A bounded strong dataguide: every distinct root-to-node tag path of
/// a shard (up to the depth/size caps), with per-path counts and the
/// maximum same-parent multiplicity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathSynopsis {
    /// Local tag interner: ids in [`PathEntry::steps`] index this list.
    tags: Vec<Box<str>>,
    /// Distinct paths, sorted by their step sequences.
    paths: Vec<PathEntry>,
    depth_cap: u32,
    truncated: bool,
}

/// Hashes the `u64` keys of [`PathSynopsis::build_capped`]'s child map
/// — a parent path and a tag, both numbers the build hands out — with
/// one folded multiply instead of SipHash. The map never holds more
/// than the count cap's entries, so no key set can make it slow.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let product = u128::from(key) * 0x9e37_79b9_7f4a_7c15;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A stored path while [`PathSynopsis::build_capped`] runs: its entry,
/// plus the parent whose same-path children it is counting.
struct Building {
    entry: PathEntry,
    parent: u32,
    run: u64,
}

impl PathSynopsis {
    /// Builds the synopsis in one pre-order pass over `doc` using the
    /// default caps.
    pub fn build(doc: &Document) -> PathSynopsis {
        PathSynopsis::build_capped(doc, PATH_DEPTH_CAP, PATH_COUNT_CAP)
    }

    /// [`build`](PathSynopsis::build) with explicit caps (tests shrink
    /// them to exercise truncation). The depth cap is clamped to
    /// [`MAX_PATH_STEPS`].
    pub fn build_capped(doc: &Document, depth_cap: usize, count_cap: usize) -> PathSynopsis {
        const ROOT: u32 = u32::MAX;
        let depth_cap = depth_cap.min(MAX_PATH_STEPS);
        let view = doc.view();
        // Document tag id → local id, in order of first occurrence.
        let mut local = vec![u32::MAX; view.tag_count()];
        let mut tags: Vec<Box<str>> = Vec::new();
        let mut paths: Vec<Building> = Vec::new();
        // (parent path, local tag) → path; the document root is `ROOT`.
        let mut extend: HashMap<u64, u32, BuildHasherDefault<KeyHasher>> = HashMap::default();
        // open[d - 1] = the stored path of the open element at depth d
        // (`None` past a cap; its descendants are past it too).
        let mut open: Vec<Option<u32>> = Vec::new();
        let mut truncated = false;
        for n in 1..view.len() {
            let depth = usize::from(view.depth[n]);
            let raw = view.tag_of[n] as usize;
            if local[raw] == u32::MAX {
                local[raw] = tags.len() as u32;
                tags.push(Box::from(view.tag_name(TagId::from_index(raw))));
            }
            let tag = local[raw];
            open.truncate(depth - 1);
            let up = if depth == 1 {
                Some(ROOT)
            } else {
                open[depth - 2]
            };
            let path = match up.filter(|_| depth <= depth_cap) {
                None => None,
                Some(up) => match extend.entry(u64::from(up) << 32 | u64::from(tag)) {
                    Entry::Occupied(e) => Some(*e.get()),
                    Entry::Vacant(e) if paths.len() < count_cap => {
                        let mut steps = match up {
                            ROOT => Vec::with_capacity(1),
                            up => paths[up as usize].entry.steps.clone(),
                        };
                        steps.push(tag);
                        let id = paths.len() as u32;
                        paths.push(Building {
                            entry: PathEntry {
                                steps,
                                count: 0,
                                max_tf: 0,
                            },
                            parent: ROOT,
                            run: 0,
                        });
                        Some(*e.insert(id))
                    }
                    Entry::Vacant(_) => None,
                },
            };
            match path {
                // Same-path siblings are contiguous in pre-order (two
                // parents on one path are never nested), so a run per
                // path counts them under one parent.
                Some(id) => {
                    let b = &mut paths[id as usize];
                    let parent = view.parent[n];
                    b.run = if b.parent == parent { b.run + 1 } else { 1 };
                    b.parent = parent;
                    b.entry.count += 1;
                    b.entry.max_tf = b.entry.max_tf.max(b.run);
                }
                None => truncated = true,
            }
            open.push(path);
        }

        let mut paths: Vec<PathEntry> = paths.into_iter().map(|b| b.entry).collect();
        paths.sort_by(|a, b| a.steps.cmp(&b.steps));
        PathSynopsis {
            tags,
            paths,
            depth_cap: depth_cap as u32,
            truncated,
        }
    }

    /// Local tag table (ids in [`PathEntry::steps`] index this).
    pub fn tag_names(&self) -> &[Box<str>] {
        &self.tags
    }

    /// The stored paths, sorted by step sequence.
    pub fn entries(&self) -> &[PathEntry] {
        &self.paths
    }

    /// Number of distinct stored paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// No stored paths?
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// The depth cap this synopsis was built with.
    pub fn depth_cap(&self) -> u32 {
        self.depth_cap
    }

    /// Did the document exceed a cap? A truncated synopsis must not be
    /// used to rule anything out.
    pub fn truncated(&self) -> bool {
        self.truncated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whirlpool_xml::parse_document;

    fn syn(src: &str) -> PathSynopsis {
        PathSynopsis::build(&parse_document(src).unwrap())
    }

    /// Each stored path as `/a/b/c`, with its count and max same-parent
    /// multiplicity, in the synopsis's order.
    fn rendered(s: &PathSynopsis) -> Vec<(String, u64, u64)> {
        (s.entries().iter())
            .map(|e| {
                let path = (e.steps.iter())
                    .map(|&t| format!("/{}", s.tag_names()[t as usize]))
                    .collect();
                (path, e.count, e.max_tf)
            })
            .collect()
    }

    #[test]
    fn collects_distinct_paths_with_counts() {
        let s = syn("<shelf><book><title>a</title></book><book><title>b</title>\
                     <title>c</title></book><cd><title>x</title></cd></shelf>");
        assert!(!s.truncated());
        assert_eq!(s.len(), 5); // /shelf, /shelf/book, /shelf/book/title, /shelf/cd, /shelf/cd/title
        let book_title: Vec<_> = (rendered(&s).into_iter())
            .filter(|(path, ..)| path == "/shelf/book/title")
            .collect();
        assert_eq!(book_title.len(), 1);
        assert_eq!(book_title[0].1, 3);
        assert_eq!(book_title[0].2, 2, "two titles under one book");
    }

    #[test]
    fn tag_presence_is_not_path_reachability() {
        // Both shards hold the tags {shelf, book, isbn}; only one holds
        // the arrangement book-with-isbn-child, and the dataguide tells
        // them apart where a tag-count synopsis cannot.
        let with = syn("<shelf><book><isbn>1</isbn></book></shelf>");
        let without = syn("<shelf><book/><archive><isbn>9</isbn></archive></shelf>");
        let paths = |s: &PathSynopsis| -> Vec<String> {
            rendered(s).into_iter().map(|(path, ..)| path).collect()
        };
        assert_eq!(paths(&with), ["/shelf", "/shelf/book", "/shelf/book/isbn"]);
        assert_eq!(
            paths(&without),
            [
                "/shelf",
                "/shelf/book",
                "/shelf/archive",
                "/shelf/archive/isbn"
            ]
        );
    }

    #[test]
    fn depth_cap_truncates() {
        let doc = parse_document("<a><b><c><d><e/></d></c></b></a>").unwrap();
        let s = PathSynopsis::build_capped(&doc, 3, PATH_COUNT_CAP);
        assert!(s.truncated());
        assert_eq!(s.len(), 3, "paths above the cap are kept");
        let full = PathSynopsis::build(&doc);
        assert!(!full.truncated());
        assert_eq!(full.len(), 5);
    }

    #[test]
    fn count_cap_truncates() {
        let mut src = String::from("<r>");
        for i in 0..20 {
            src.push_str(&format!("<t{i}/>"));
        }
        src.push_str("</r>");
        let doc = parse_document(&src).unwrap();
        let s = PathSynopsis::build_capped(&doc, PATH_DEPTH_CAP, 8);
        assert!(s.truncated());
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn depth_cap_is_clamped_to_the_matcher_width() {
        let mut src = String::new();
        for _ in 0..70 {
            src.push_str("<a>");
        }
        for _ in 0..70 {
            src.push_str("</a>");
        }
        let doc = parse_document(&src).unwrap();
        let s = PathSynopsis::build_capped(&doc, 1_000, PATH_COUNT_CAP);
        assert_eq!(s.depth_cap() as usize, MAX_PATH_STEPS);
        assert!(s.truncated());
        assert_eq!(s.len(), MAX_PATH_STEPS);
        let longest = s.entries().iter().map(|e| e.steps.len()).max();
        assert_eq!(longest, Some(MAX_PATH_STEPS));
        assert!(s.entries().iter().all(|e| e.count == 1));
    }

    /// The build before its child map took a cheap hash: one SipHash
    /// `(parent path, tag)` lookup per element. The oracle of the two
    /// tests below.
    fn build_oracle(doc: &Document, depth_cap: usize, count_cap: usize) -> PathSynopsis {
        const ROOT: u32 = u32::MAX;
        let depth_cap = depth_cap.min(MAX_PATH_STEPS);
        let view = doc.view();
        let mut local = vec![u32::MAX; view.tag_count()];
        let mut tags: Vec<Box<str>> = Vec::new();
        let mut paths: Vec<Building> = Vec::new();
        let mut extend: HashMap<(u32, u32), u32> = HashMap::new();
        let mut open: Vec<Option<u32>> = Vec::new();
        let mut truncated = false;
        for n in 1..view.len() {
            let depth = usize::from(view.depth[n]);
            let raw = view.tag_of[n] as usize;
            if local[raw] == u32::MAX {
                local[raw] = tags.len() as u32;
                tags.push(Box::from(view.tag_name(TagId::from_index(raw))));
            }
            let tag = local[raw];
            open.truncate(depth - 1);
            let up = if depth == 1 {
                Some(ROOT)
            } else {
                open[depth - 2]
            };
            let path = match up.filter(|_| depth <= depth_cap) {
                None => None,
                Some(up) => match extend.entry((up, tag)) {
                    Entry::Occupied(e) => Some(*e.get()),
                    Entry::Vacant(e) if paths.len() < count_cap => {
                        let mut steps = match up {
                            ROOT => Vec::new(),
                            up => paths[up as usize].entry.steps.clone(),
                        };
                        steps.push(tag);
                        let id = paths.len() as u32;
                        paths.push(Building {
                            entry: PathEntry {
                                steps,
                                count: 0,
                                max_tf: 0,
                            },
                            parent: ROOT,
                            run: 0,
                        });
                        Some(*e.insert(id))
                    }
                    Entry::Vacant(_) => None,
                },
            };
            match path {
                Some(id) => {
                    let b = &mut paths[id as usize];
                    let parent = view.parent[n];
                    b.run = if b.parent == parent { b.run + 1 } else { 1 };
                    b.parent = parent;
                    b.entry.count += 1;
                    b.entry.max_tf = b.entry.max_tf.max(b.run);
                }
                None => truncated = true,
            }
            open.push(path);
        }
        let mut paths: Vec<PathEntry> = paths.into_iter().map(|b| b.entry).collect();
        paths.sort_by(|a, b| a.steps.cmp(&b.steps));
        PathSynopsis {
            tags,
            paths,
            depth_cap: depth_cap as u32,
            truncated,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]
        /// Random documents up to 20 deep over 3–6 tags, as a stream of
        /// opens (a tag) and closes: the build equals the oracle at the
        /// default caps and at caps small enough to truncate.
        #[test]
        fn build_equals_the_siphash_oracle(
            tags in 3usize..=6,
            ops in proptest::prelude::prop::collection::vec(0usize..8, 0..400),
        ) {
            let mut b = whirlpool_xml::DocumentBuilder::new();
            let mut depth = 0;
            for op in ops {
                if op < tags && depth < 20 {
                    b.open(["a", "b", "c", "d", "e", "f"][op]);
                    depth += 1;
                } else if depth > 0 {
                    b.close();
                    depth -= 1;
                }
            }
            for _ in 0..depth {
                b.close();
            }
            let doc = b.finish();
            for (depth_cap, count_cap) in [(PATH_DEPTH_CAP, PATH_COUNT_CAP), (3, 5)] {
                assert_eq!(
                    PathSynopsis::build_capped(&doc, depth_cap, count_cap),
                    build_oracle(&doc, depth_cap, count_cap),
                    "caps {depth_cap}, {count_cap}"
                );
            }
        }
    }

    /// One element per distinct tag under one root: the build stops
    /// storing paths at the count cap and stays linear in the tags
    /// (a table of paths × tags would not).
    #[test]
    fn many_distinct_tags_build_in_linear_time() {
        let doc_of = |tags: usize| {
            let mut b = whirlpool_xml::DocumentBuilder::new();
            b.open("r");
            for i in 0..tags {
                b.empty(&format!("t{i}"));
            }
            b.close();
            b.finish()
        };
        let best_of_3 = |doc: &Document| {
            (0..3)
                .map(|_| {
                    let start = std::time::Instant::now();
                    let s = PathSynopsis::build(doc);
                    (start.elapsed(), s)
                })
                .min_by_key(|(t, _)| *t)
                .expect("three runs")
        };
        let (small, large) = (doc_of(10_000), doc_of(100_000));
        let (t_small, _) = best_of_3(&small);
        let (t_large, s) = best_of_3(&large);
        assert!(s.truncated());
        assert_eq!(s.len(), PATH_COUNT_CAP);
        assert_eq!(s.tag_names().len(), 100_001);
        assert_eq!(s, build_oracle(&large, PATH_DEPTH_CAP, PATH_COUNT_CAP));
        assert!(
            t_large < t_small * 40,
            "10x the tags took {t_large:?} against {t_small:?}"
        );
    }
}
