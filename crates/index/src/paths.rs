//! Bounded strong-dataguide path synopsis.
//!
//! [`ShardSynopsis`](crate::ShardSynopsis) prunes a shard only when a
//! query tag is *entirely absent* from it, which on homogeneous corpora
//! (every shard carries every tag) prunes nothing. A [`PathSynopsis`]
//! records the distinct **root-to-node tag paths** of a shard — a
//! strong dataguide in the Lore sense, annotated with per-path node
//! counts and the maximum same-path sibling multiplicity — so the
//! collection driver can ask the sharper question: *can this query
//! node's root-to-node pattern path bind anything in this shard at
//! all?* A shard whose tags all exist, but never in the arrangement the
//! query requires, is pruned before it is even attached.
//!
//! The synopsis is bounded on two axes so it stays cheap to store and
//! peek: paths deeper than [`PATH_DEPTH_CAP`] and beyond the first
//! [`PATH_COUNT_CAP`] distinct paths are dropped and the synopsis is
//! marked *truncated*. A truncated synopsis makes no negative claims —
//! [`PathSynopsis::is_definitive`] is false and callers must fall back
//! to tag-count ceilings — so the bounds can never turn into unsound
//! pruning (see DESIGN.md §12).
//!
//! Matching a query path against a stored path is a few bit operations
//! per step and allocates nothing: the frontier of the match is a `u64`
//! with one bit per stored position, which is why no stored path has
//! more than [`MAX_PATH_STEPS`] steps.

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

/// The most steps a stored path may have, whatever the depth cap: the
/// matcher keeps one bit per stored position plus the pre-root bit in
/// a `u64`. [`PathSynopsis::build_capped`] clamps its cap to this, and
/// a snapshot reader refuses a longer path or a larger cap.
pub const MAX_PATH_STEPS: usize = 63;

/// How one query path step relates to its predecessor: direct child or
/// any-depth descendant. Mirrors the pattern crate's `Axis` without
/// depending on it (the index crate sits below the pattern crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathAxis {
    /// The step's tag must appear exactly one level below the previous
    /// match (or at the document element for the first step).
    Child,
    /// The step's tag may appear any number of levels below.
    Descendant,
}

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

    /// Reassembles a synopsis from stored parts (the snapshot-peek
    /// path). `tags` ids in `paths` must index `tags`; callers validate
    /// before constructing.
    ///
    /// # Panics
    ///
    /// If a path has more than [`MAX_PATH_STEPS`] steps.
    pub fn from_parts(
        tags: Vec<Box<str>>,
        mut paths: Vec<PathEntry>,
        depth_cap: u32,
        truncated: bool,
    ) -> PathSynopsis {
        assert!(
            paths.iter().all(|p| p.steps.len() <= MAX_PATH_STEPS),
            "a stored path has at most {MAX_PATH_STEPS} steps"
        );
        paths.sort_by(|a, b| a.steps.cmp(&b.steps));
        PathSynopsis {
            tags,
            paths,
            depth_cap,
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

    /// Can the synopsis be trusted for *negative* answers ("no node
    /// matches this path")? False when truncated.
    pub fn is_definitive(&self) -> bool {
        !self.truncated
    }

    /// Renders one entry's path as `/a/b/c` for display.
    pub fn render(&self, entry: &PathEntry) -> String {
        let mut s = String::new();
        for &t in &entry.steps {
            s.push('/');
            s.push_str(&self.tags[t as usize]);
        }
        s
    }

    /// Does any stored path match the query path `steps` (a
    /// root-to-node chain of `(axis, tag)` steps, `"*"` = wildcard),
    /// anchored at both ends? The first step's axis relates to the
    /// document root: `Child` pins it to the document element.
    ///
    /// This is the *reachability* question behind path-level ceilings:
    /// `false` (on a [definitive](PathSynopsis::is_definitive) synopsis)
    /// proves no node in the shard can bind the query node. Callers
    /// must treat `false` on a truncated synopsis as "unknown".
    pub fn matches_query_path(&self, steps: &[(PathAxis, &str)]) -> bool {
        let Some(resolved) = self.resolve(steps) else {
            return false;
        };
        let resolved = &resolved[..steps.len()];
        self.paths
            .iter()
            .any(|p| p.count > 0 && path_matches(&p.steps, steps, resolved))
    }

    /// Total node count over stored paths whose full path matches the
    /// query path — an upper bound on how many nodes can bind the query
    /// node (on a definitive synopsis).
    pub fn matching_count(&self, steps: &[(PathAxis, &str)]) -> u64 {
        let Some(resolved) = self.resolve(steps) else {
            return 0;
        };
        let resolved = &resolved[..steps.len()];
        self.paths
            .iter()
            .filter(|p| path_matches(&p.steps, steps, resolved))
            .map(|p| p.count)
            .sum()
    }

    /// The local tag id of each step (`None` = wildcard), or `None`
    /// when no stored path can match: no steps, more steps than a
    /// stored path has, or a named tag absent from every path.
    fn resolve(&self, steps: &[(PathAxis, &str)]) -> Option<[Option<u32>; MAX_PATH_STEPS]> {
        if steps.is_empty() || steps.len() > MAX_PATH_STEPS {
            return None;
        }
        let mut resolved = [None; MAX_PATH_STEPS];
        for (slot, &(_, tag)) in resolved.iter_mut().zip(steps) {
            if tag != "*" {
                let id = self.tags.iter().position(|t| &**t == tag)?;
                *slot = Some(id as u32);
            }
        }
        Some(resolved)
    }
}

/// Anchored regex-style match of a query path against one stored path.
/// `resolved[i]` is the stored-tag id of `steps[i]`'s tag (`None` =
/// wildcard). Child consumes exactly the next position; Descendant
/// skips zero or more.
///
/// The frontier is a bitmask: bit `j + 1` is set when the steps so far
/// can end at stored position `j`, and bit 0 is the virtual pre-root
/// position, so a path of at most [`MAX_PATH_STEPS`] steps fits a
/// `u64`. A child step moves every bit down one position; a descendant
/// step first sets every bit at or above the lowest set one. Either
/// keeps only the positions whose tag the step accepts.
///
/// The match is anchored at the path's end, so a named last step that
/// differs from the path's last tag rejects it before the walk: most
/// stored paths end elsewhere.
fn path_matches(path: &[u32], steps: &[(PathAxis, &str)], resolved: &[Option<u32>]) -> bool {
    debug_assert!(path.len() <= MAX_PATH_STEPS);
    if steps.is_empty() || path.is_empty() {
        return false;
    }
    if resolved[steps.len() - 1].is_some_and(|w| w != path[path.len() - 1]) {
        return false;
    }
    let mut frontier = 1u64;
    for (&(axis, _), &want) in steps.iter().zip(resolved) {
        let hit = match want {
            Some(w) => (path.iter().enumerate())
                .fold(0u64, |hit, (j, &t)| hit | (u64::from(t == w) << (j + 1))),
            None => ((1u64 << path.len()) - 1) << 1,
        };
        let reach = match axis {
            PathAxis::Child => frontier,
            PathAxis::Descendant => frontier | frontier.wrapping_neg(),
        };
        frontier = (reach << 1) & hit;
        if frontier == 0 {
            return false;
        }
    }
    // Anchored at the end: the last step must land on the path's last
    // position (stored paths are exact root-to-node chains).
    (frontier >> path.len()) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use whirlpool_xml::parse_document;

    fn syn(src: &str) -> PathSynopsis {
        PathSynopsis::build(&parse_document(src).unwrap())
    }

    #[test]
    fn collects_distinct_paths_with_counts() {
        let s = syn("<shelf><book><title>a</title></book><book><title>b</title>\
                     <title>c</title></book><cd><title>x</title></cd></shelf>");
        assert!(s.is_definitive());
        assert_eq!(s.len(), 5); // /shelf, /shelf/book, /shelf/book/title, /shelf/cd, /shelf/cd/title
        let book_title: Vec<_> = s
            .entries()
            .iter()
            .filter(|e| s.render(e) == "/shelf/book/title")
            .collect();
        assert_eq!(book_title.len(), 1);
        assert_eq!(book_title[0].count, 3);
        assert_eq!(book_title[0].max_tf, 2, "two titles under one book");
    }

    #[test]
    fn matches_child_and_descendant_axes() {
        let s = syn("<site><regions><europe><item><name>x</name></item></europe></regions></site>");
        use PathAxis::*;
        // //item
        assert!(s.matches_query_path(&[(Descendant, "item")]));
        // /site/regions
        assert!(s.matches_query_path(&[(Child, "site"), (Child, "regions")]));
        // //item/name
        assert!(s.matches_query_path(&[(Descendant, "item"), (Child, "name")]));
        // //regions//name
        assert!(s.matches_query_path(&[(Descendant, "regions"), (Descendant, "name")]));
        // /item — anchored to the document element, which is <site>.
        assert!(!s.matches_query_path(&[(Child, "item")]));
        // //item/regions — the arrangement never occurs.
        assert!(!s.matches_query_path(&[(Descendant, "item"), (Child, "regions")]));
        // //name/item — child below a leaf.
        assert!(!s.matches_query_path(&[(Descendant, "name"), (Child, "item")]));
        // Tag absent entirely.
        assert!(!s.matches_query_path(&[(Descendant, "nosuch")]));
    }

    #[test]
    fn wildcards_match_any_tag() {
        let s = syn("<a><b><c/></b></a>");
        use PathAxis::*;
        assert!(s.matches_query_path(&[(Descendant, "*")]));
        assert!(s.matches_query_path(&[(Child, "*"), (Child, "*"), (Child, "*")]));
        assert!(!s.matches_query_path(&[(Child, "*"), (Child, "*"), (Child, "*"), (Child, "*")]));
        assert!(s.matches_query_path(&[(Descendant, "b"), (Child, "*")]));
        // A wildcard last step is not rejected on the last tag: the
        // walk decides it.
        assert!(s.matches_query_path(&[(Descendant, "a"), (Descendant, "*")]));
        assert!(!s.matches_query_path(&[(Descendant, "c"), (Descendant, "*")]));
        assert_eq!(s.matching_count(&[(Child, "a"), (Descendant, "*")]), 2);
    }

    #[test]
    fn tag_presence_is_not_path_reachability() {
        // Both shards hold the tags {shelf, book, isbn}; only one holds
        // the arrangement book-with-isbn-child. This is exactly the
        // homogeneous-corpus case tag synopses cannot prune.
        let with = syn("<shelf><book><isbn>1</isbn></book></shelf>");
        let without = syn("<shelf><book/><archive><isbn>9</isbn></archive></shelf>");
        use PathAxis::*;
        let q = [(Descendant, "book"), (Child, "isbn")];
        assert!(with.matches_query_path(&q));
        assert!(!without.matches_query_path(&q));
    }

    #[test]
    fn depth_cap_truncates() {
        let doc = parse_document("<a><b><c><d><e/></d></c></b></a>").unwrap();
        let s = PathSynopsis::build_capped(&doc, 3, PATH_COUNT_CAP);
        assert!(s.truncated());
        assert!(!s.is_definitive());
        assert_eq!(s.len(), 3, "paths above the cap are kept");
        let full = PathSynopsis::build(&doc);
        assert!(full.is_definitive());
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
    fn matching_count_sums_matching_paths() {
        let s = syn(
            "<shelf><book><title>a</title></book><book><title>b</title></book>\
                     <cd><title>x</title></cd></shelf>",
        );
        use PathAxis::*;
        assert_eq!(s.matching_count(&[(Descendant, "title")]), 3);
        assert_eq!(
            s.matching_count(&[(Descendant, "book"), (Child, "title")]),
            2
        );
        assert_eq!(s.matching_count(&[(Descendant, "book")]), 2);
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
        use PathAxis::*;
        let deepest = vec![(Child, "a"); MAX_PATH_STEPS];
        assert!(s.matches_query_path(&deepest));
        assert_eq!(s.matching_count(&deepest), 1);
        assert!(!s.matches_query_path(&vec![(Child, "a"); MAX_PATH_STEPS + 1]));
        assert_eq!(
            s.matching_count(&[(Descendant, "a")]),
            MAX_PATH_STEPS as u64
        );
    }

    /// The frontier as one `bool` per stored position (j = 0 is the
    /// virtual pre-root position): the matcher before the bitmask, kept
    /// as its oracle.
    fn path_matches_oracle(
        path: &[u32],
        steps: &[(PathAxis, &str)],
        resolved: &[Option<u32>],
    ) -> bool {
        if steps.is_empty() || path.is_empty() {
            return false;
        }
        let l = path.len();
        let mut frontier = vec![false; l + 1];
        frontier[0] = true;
        for (i, &(axis, _)) in steps.iter().enumerate() {
            let want = resolved[i];
            let mut next = vec![false; l + 1];
            for j in 0..l {
                let tag_ok = match want {
                    Some(w) => path[j] == w,
                    None => true,
                };
                if !tag_ok {
                    continue;
                }
                let reach = match axis {
                    PathAxis::Child => frontier[j],
                    PathAxis::Descendant => frontier[..=j].iter().any(|&b| b),
                };
                if reach {
                    next[j + 1] = true;
                }
            }
            frontier = next;
            if !frontier.iter().any(|&b| b) {
                return false;
            }
        }
        frontier[l]
    }

    const ALPHABET: [&str; 4] = ["a", "b", "c", "*"];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2_000))]
        #[test]
        fn bitmask_matcher_equals_the_bool_frontier(
            path in proptest::prelude::prop::collection::vec(0u32..3, 0..17),
            query in proptest::prelude::prop::collection::vec(
                (proptest::prelude::any::<bool>(), 0usize..ALPHABET.len()),
                0..8,
            ),
        ) {
            let steps: Vec<(PathAxis, &str)> = query
                .iter()
                .map(|&(child, t)| {
                    let axis = if child { PathAxis::Child } else { PathAxis::Descendant };
                    (axis, ALPHABET[t])
                })
                .collect();
            let resolved: Vec<Option<u32>> = query
                .iter()
                .map(|&(_, t)| (ALPHABET[t] != "*").then_some(t as u32))
                .collect();
            assert_eq!(
                path_matches(&path, &steps, &resolved),
                path_matches_oracle(&path, &steps, &resolved),
                "path {path:?}, steps {steps:?}"
            );
        }
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

    #[test]
    fn round_trips_through_parts() {
        let s = syn("<shelf><book><title>a</title></book></shelf>");
        let rebuilt = PathSynopsis::from_parts(
            s.tag_names().to_vec(),
            s.entries().to_vec(),
            s.depth_cap(),
            s.truncated(),
        );
        assert_eq!(s, rebuilt);
    }
}
