//! The **snapshot** format: the whole query-time state of a document —
//! tag table, structural columns, tag and value postings, text and
//! attribute payloads, and its synopses — flattened into
//! little-endian, 8-byte aligned arrays that an engine can use
//! *directly out of a memory mapping*. Attaching costs a header parse
//! plus linear validation passes (checksum + structural checks over
//! flat integer arrays), never an XML parse or an index build.
//!
//! # Layout (version 3, little-endian, all sections 8-byte aligned)
//!
//! ```text
//! 0    magic      "WPLX"                      4 bytes
//! 4    version    u32 = 3                     4 bytes
//! 8    nodes      u64  node count n (synthetic root included)
//! 16   tags       u64  tag-table size T
//! 24   total_len  u64  file length in bytes, trailing checksum included
//! 32   sections   17 × { offset u64, len u64 }   (272 bytes)
//! 304  payload    sections in table order, zero-padded to 8-byte
//!                 boundaries between sections:
//!        0  tag_offsets   u32[T+1]   name spans in tag_blob
//!        1  tag_blob      UTF-8
//!        2  parent        u32[n]     parent[0] = u32::MAX
//!        3  depth         u16[n]
//!        4  subtree_end   u32[n]
//!        5  tag_of        u32[n]
//!        6  post_offsets  u32[T+1]   postings spans in post_ids
//!        7  post_ids      u32[n-1]   every element in its tag's list
//!        8  value_groups  u32[5·G]   (tag, val_off, val_len, ids_off,
//!                                     ids_len), sorted by (tag, value)
//!        9  value_blob    UTF-8
//!        10 value_ids     u32[V]
//!        11 text_offsets  u32[n+1]   empty span = no text
//!        12 text_blob     UTF-8
//!        13 attr_offsets  u32[n+1]   entry (not byte) offsets
//!        14 attr_entries  u32[3·A]   (name_tag, val_off, val_len)
//!        15 attr_blob     UTF-8
//!        16 path_synopsis the stored synopses (below)
//! end-8 checksum  u64  FNV-1a folded over the preceding bytes as
//!                 little-endian u64 words (the padded layout makes the
//!                 checksummed prefix an exact multiple of 8)
//! ```
//!
//! # The stored synopses
//!
//! Section 16 holds a serialized [`PathSynopsis`] — the bounded strong
//! dataguide built at snapshot-build time — together with the
//! tag-count [`ShardSynopsis`], in a *self-contained, self-checksummed*
//! byte stream:
//!
//! ```text
//! 16 path_synopsis   u64 elements
//!                    u64 tag count T'   (tags with ≥1 element)
//!                    T' × { u64 count, u64 name_len, UTF-8 name }
//!                    u64 depth_cap, u64 truncated (0/1), u64 path count P
//!                    P × { u64 count, u64 max_tf, u64 nsteps,
//!                          nsteps × u32 index into the T' tag list }
//!                    u64 FNV-1a (byte-wise) over the preceding
//!                        section bytes
//! ```
//!
//! The section is deliberately independent of every other section and
//! carries its own checksum so that [`Snapshot::peek`] can read *just
//! the header and this section* — no payload mapping, no whole-file
//! checksum pass — and still hand the collection layer
//! integrity-checked synopses. Attach parses it once and checks it
//! against the payload: the stored tags are exactly the tags with
//! postings, each with its posting count.
//!
//! Attach validates everything the mapped accessors later index with:
//! magic/version/length, the word-FNV checksum, section table sanity
//! (alignment, order, bounds), and structural invariants (monotone
//! offset tables, parents before children, subtree extents nested,
//! posting ids sorted and in range, UTF-8 blobs with offsets on char
//! boundaries). A file that passes cannot make the views panic or read
//! out of bounds; a file that fails yields [`StoreError`], never UB.
//!
//! Versions 1 and 2 (a streamed store, and this layout without
//! section 16) are not read: attach and peek answer
//! [`StoreError::UnsupportedVersion`].

use crate::mmap::{Backing, Mapping, OwnedBytes};
use crate::{StoreError, FNV_OFFSET, FNV_PRIME, MAGIC};
use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;
use whirlpool_index::{
    ColumnsView, DocView, MappedDoc, PathEntry, PathSynopsis, ShardSynopsis, TagIndex,
    TagIndexView, ATTR_ENTRY_STRIDE, VALUE_GROUP_STRIDE,
};
use whirlpool_xml::{Document, NodeId, TagId};

/// The snapshot format version: the one this crate writes and reads.
pub const SNAPSHOT_VERSION: u32 = 3;

const SECTION_COUNT: usize = 17;
/// Fixed header size: magic + version + 3 × u64 + the section table.
const HEADER_LEN: usize = 32 + SECTION_COUNT * 16;

// Section indices, in file order.
const SEC_TAG_OFFSETS: usize = 0;
const SEC_TAG_BLOB: usize = 1;
const SEC_PARENT: usize = 2;
const SEC_DEPTH: usize = 3;
const SEC_SUBTREE_END: usize = 4;
const SEC_TAG_OF: usize = 5;
const SEC_POST_OFFSETS: usize = 6;
const SEC_POST_IDS: usize = 7;
const SEC_VALUE_GROUPS: usize = 8;
const SEC_VALUE_BLOB: usize = 9;
const SEC_VALUE_IDS: usize = 10;
const SEC_TEXT_OFFSETS: usize = 11;
const SEC_TEXT_BLOB: usize = 12;
const SEC_ATTR_OFFSETS: usize = 13;
const SEC_ATTR_ENTRIES: usize = 14;
const SEC_ATTR_BLOB: usize = 15;
const SEC_PATH_SYNOPSIS: usize = 16;

const NO_PARENT: u32 = u32::MAX;

#[inline]
fn align8(x: usize) -> usize {
    (x + 7) & !7
}

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

/// FNV-1a folded over `bytes` as little-endian u64 words. `bytes.len()`
/// must be a multiple of 8 (the format guarantees it). Word folding
/// keeps every byte significant while hashing ~8× faster than the
/// byte-at-a-time v1 accumulator — attach-time verification of a
/// multi-megabyte snapshot stays in the low milliseconds.
fn fnv_words(bytes: &[u8]) -> u64 {
    debug_assert_eq!(bytes.len() % 8, 0);
    let mut hash = FNV_OFFSET;
    for chunk in bytes.chunks_exact(8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        hash = (hash ^ word).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Byte-at-a-time FNV-1a — the path-synopsis section's *internal*
/// checksum. The section's serial encoding is not 8-byte aligned (tag
/// names have arbitrary lengths), so it cannot use the word-folded
/// variant; it is small enough (a few KB) that byte hashing is free.
fn fnv_bytes(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

// -----------------------------------------------------------------------
// Writer
// -----------------------------------------------------------------------

fn push_u32s(buf: &mut Vec<u8>, values: impl IntoIterator<Item = u32>) {
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn as_u32(len: usize, what: &str) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| panic!("{what} exceeds u32 range ({len})"))
}

/// Kept only because `benchmark/src/workloads/mod.rs` names it: there
/// is one snapshot format, so there is nothing left to choose.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotOptions;

/// Serializes the path-synopsis section: the tag-count synopsis plus
/// the bounded dataguide, self-contained and self-checksummed so
/// [`Snapshot::peek`] can read it without touching any other section.
fn encode_path_section(doc: &Document, index: TagIndexView<'_>, paths: &PathSynopsis) -> Vec<u8> {
    let tag_count = doc.tags().len();
    let mut out = Vec::new();
    out.extend_from_slice(&((doc.len() - 1) as u64).to_le_bytes());

    // Tags with at least one element, in tag-id order; path steps
    // reference positions in this list.
    let mut emitted: Vec<(usize, &str, u64)> = Vec::new(); // (emit idx, name, count)
    for t in 0..tag_count {
        let count = index.nodes_with_tag(TagId::from_index(t)).len() as u64;
        if count > 0 {
            let idx = emitted.len();
            emitted.push((idx, doc.tag_name(TagId::from_index(t)), count));
        }
    }
    out.extend_from_slice(&(emitted.len() as u64).to_le_bytes());
    for &(_, name, count) in &emitted {
        out.extend_from_slice(&count.to_le_bytes());
        out.extend_from_slice(&(name.len() as u64).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    let emit_idx = |name: &str| -> u32 {
        emitted
            .iter()
            .find(|(_, n, _)| *n == name)
            .map(|&(i, _, _)| i as u32)
            .expect("every path tag has at least one element")
    };

    out.extend_from_slice(&u64::from(paths.depth_cap()).to_le_bytes());
    out.extend_from_slice(&u64::from(paths.truncated()).to_le_bytes());
    out.extend_from_slice(&(paths.len() as u64).to_le_bytes());
    for entry in paths.entries() {
        out.extend_from_slice(&entry.count.to_le_bytes());
        out.extend_from_slice(&entry.max_tf.to_le_bytes());
        out.extend_from_slice(&(entry.steps.len() as u64).to_le_bytes());
        for &step in &entry.steps {
            let name = &paths.tag_names()[step as usize];
            out.extend_from_slice(&emit_idx(name).to_le_bytes());
        }
    }
    let checksum = fnv_bytes(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Bounds-checked serial reader over the path-synopsis section.
struct SectionReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    fn u64(&mut self) -> Result<u64, StoreError> {
        let end = self
            .pos
            .checked_add(8)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| corrupt("path synopsis: truncated u64"))?;
        let v = u64::from_le_bytes(self.bytes[self.pos..end].try_into().expect("8 bytes"));
        self.pos = end;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        let end = self
            .pos
            .checked_add(4)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| corrupt("path synopsis: truncated u32"))?;
        let v = u32::from_le_bytes(self.bytes[self.pos..end].try_into().expect("4 bytes"));
        self.pos = end;
        Ok(v)
    }

    fn str_of(&mut self, len: usize, what: &str) -> Result<&'a str, StoreError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| corrupt(format!("path synopsis: {what} out of bounds")))?;
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| corrupt(format!("path synopsis: {what} is not valid UTF-8")))?;
        self.pos = end;
        Ok(s)
    }
}

/// Parses (and checksum-verifies) the path-synopsis section. Returns
/// the tag-count synopsis and the dataguide it carries.
fn parse_path_section(bytes: &[u8]) -> Result<(ShardSynopsis, PathSynopsis), StoreError> {
    if bytes.len() < 8 {
        return Err(corrupt("path synopsis: section too short"));
    }
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    let computed = fnv_bytes(&bytes[..bytes.len() - 8]);
    if stored != computed {
        return Err(corrupt(format!(
            "path synopsis: checksum mismatch (stored {stored:#x}, computed {computed:#x})"
        )));
    }
    let mut r = SectionReader {
        bytes: &bytes[..bytes.len() - 8],
        pos: 0,
    };
    let elements = r.u64()?;
    let tag_count = r.u64()? as usize;
    if tag_count > 1 << 24 {
        return Err(corrupt("path synopsis: implausible tag count"));
    }
    let mut tags: Vec<(Box<str>, u64)> = Vec::with_capacity(tag_count);
    for _ in 0..tag_count {
        let count = r.u64()?;
        let name_len = r.u64()? as usize;
        let name = r.str_of(name_len, "tag name")?;
        tags.push((Box::from(name), count));
    }
    let depth_cap =
        u32::try_from(r.u64()?).map_err(|_| corrupt("path synopsis: implausible depth cap"))?;
    let truncated = match r.u64()? {
        0 => false,
        1 => true,
        v => return Err(corrupt(format!("path synopsis: bad truncated flag {v}"))),
    };
    let path_count = r.u64()? as usize;
    if path_count > 1 << 24 {
        return Err(corrupt("path synopsis: implausible path count"));
    }
    let mut entries: Vec<PathEntry> = Vec::with_capacity(path_count);
    for _ in 0..path_count {
        let count = r.u64()?;
        let max_tf = r.u64()?;
        let nsteps = r.u64()? as usize;
        if nsteps > 1 << 16 {
            return Err(corrupt("path synopsis: implausible path depth"));
        }
        let mut steps = Vec::with_capacity(nsteps);
        for _ in 0..nsteps {
            let s = r.u32()?;
            if s as usize >= tag_count {
                return Err(corrupt("path synopsis: step references a tag out of range"));
            }
            steps.push(s);
        }
        entries.push(PathEntry {
            steps,
            count,
            max_tf,
        });
    }
    if r.pos != r.bytes.len() {
        return Err(corrupt("path synopsis: trailing bytes after the paths"));
    }
    let names: Vec<Box<str>> = tags.iter().map(|(n, _)| n.clone()).collect();
    let synopsis = ShardSynopsis::from_counts(tags, elements);
    let paths = PathSynopsis::from_parts(names, entries, depth_cap, truncated);
    Ok((synopsis, paths))
}

/// Serializes `doc` + `index` into the snapshot byte layout.
pub fn build_snapshot_bytes(doc: &Document, index: &TagIndex) -> Vec<u8> {
    let n = doc.len();
    let index = index.view();
    let columns = index.columns();
    assert_eq!(columns.len(), n, "index built for a different document");
    let tag_count = doc.tags().len();

    let mut sections: Vec<Vec<u8>> = vec![Vec::new(); SECTION_COUNT];

    // Tag table.
    {
        let (offsets, blob) = (&mut Vec::new(), &mut Vec::new());
        let mut off = 0u32;
        offsets.push(0u32);
        for (_, name) in doc.tags().iter() {
            blob.extend_from_slice(name.as_bytes());
            off += as_u32(name.len(), "tag name");
            offsets.push(off);
        }
        push_u32s(&mut sections[SEC_TAG_OFFSETS], offsets.iter().copied());
        sections[SEC_TAG_BLOB] = std::mem::take(blob);
    }

    // Structural columns.
    let (parent, depth, subtree_end) = columns.raw();
    push_u32s(&mut sections[SEC_PARENT], parent.iter().copied());
    for &d in depth {
        sections[SEC_DEPTH].extend_from_slice(&d.to_le_bytes());
    }
    push_u32s(&mut sections[SEC_SUBTREE_END], subtree_end.iter().copied());

    // Per-node tags.
    push_u32s(
        &mut sections[SEC_TAG_OF],
        (0..n).map(|i| doc.tag(NodeId::from_index(i)).index() as u32),
    );

    // Tag and value postings: the index's own arrays, as they are.
    let (post_offsets, post_ids) = index.postings_raw();
    push_u32s(
        &mut sections[SEC_POST_OFFSETS],
        post_offsets.iter().copied(),
    );
    push_u32s(&mut sections[SEC_POST_IDS], post_ids.iter().copied());
    let (value_groups, value_blob, value_ids) = index.values_raw();
    push_u32s(
        &mut sections[SEC_VALUE_GROUPS],
        value_groups.iter().copied(),
    );
    sections[SEC_VALUE_BLOB] = value_blob.as_bytes().to_vec();
    push_u32s(&mut sections[SEC_VALUE_IDS], value_ids.iter().copied());

    // Text payload.
    {
        let mut off = 0u32;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for i in 0..n {
            if let Some(text) = doc.text(NodeId::from_index(i)) {
                sections[SEC_TEXT_BLOB].extend_from_slice(text.as_bytes());
                off += as_u32(text.len(), "text");
            }
            offsets.push(off);
        }
        push_u32s(&mut sections[SEC_TEXT_OFFSETS], offsets);
    }

    // Attribute payload.
    {
        let (mut entries, mut val_off) = (0u32, 0u32);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for i in 0..n {
            for (name, value) in &doc.node(NodeId::from_index(i)).attributes {
                let val_len = as_u32(value.len(), "attribute value");
                push_u32s(
                    &mut sections[SEC_ATTR_ENTRIES],
                    [name.index() as u32, val_off, val_len],
                );
                sections[SEC_ATTR_BLOB].extend_from_slice(value.as_bytes());
                val_off += val_len;
                entries += 1;
            }
            offsets.push(entries);
        }
        push_u32s(&mut sections[SEC_ATTR_OFFSETS], offsets);
    }

    // The stored synopses.
    sections[SEC_PATH_SYNOPSIS] = encode_path_section(doc, index, &PathSynopsis::build(doc));

    // Lay out: header, then padded sections, then the checksum.
    let mut offsets = vec![0usize; sections.len()];
    let mut cursor = HEADER_LEN;
    for (i, s) in sections.iter().enumerate() {
        offsets[i] = cursor;
        cursor = align8(cursor + s.len());
    }
    let total_len = cursor + 8;

    let mut out = Vec::with_capacity(total_len);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(tag_count as u64).to_le_bytes());
    out.extend_from_slice(&(total_len as u64).to_le_bytes());
    for (i, s) in sections.iter().enumerate() {
        out.extend_from_slice(&(offsets[i] as u64).to_le_bytes());
        out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    }
    for s in &sections {
        out.extend_from_slice(s);
        out.resize(align8(out.len()), 0);
    }
    debug_assert_eq!(out.len(), total_len - 8);
    let checksum = fnv_words(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Writes the snapshot of `doc` + `index` to `path`.
pub fn save_snapshot(doc: &Document, index: &TagIndex, path: impl AsRef<Path>) -> io::Result<()> {
    std::fs::write(path, build_snapshot_bytes(doc, index))
}

/// Kept only because `benchmark/src/workloads/mod.rs` names it:
/// [`build_snapshot_bytes`].
pub fn build_snapshot_bytes_with(
    doc: &Document,
    index: &TagIndex,
    _opts: &SnapshotOptions,
) -> Vec<u8> {
    build_snapshot_bytes(doc, index)
}

/// Kept only because `benchmark/src/workloads/mod.rs` names it:
/// [`save_snapshot`].
pub fn save_snapshot_with(
    doc: &Document,
    index: &TagIndex,
    path: impl AsRef<Path>,
    _opts: &SnapshotOptions,
) -> io::Result<()> {
    save_snapshot(doc, index, path)
}

// -----------------------------------------------------------------------
// Attach
// -----------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Layout {
    n: usize,
    tag_count: usize,
    sections: [(usize, usize); SECTION_COUNT],
}

/// An attached snapshot: validated bytes (memory-mapped or read), the
/// section layout, and the synopses parsed once at attach.
/// [`doc_view`](Snapshot::doc_view) and
/// [`index_view`](Snapshot::index_view) assemble zero-copy views on
/// demand.
pub struct Snapshot {
    backing: Backing,
    layout: Layout,
    synopsis: ShardSynopsis,
    paths: PathSynopsis,
}

impl Snapshot {
    /// Attaches to a snapshot file: `mmap` where it works, a buffered
    /// read where it does not (off Unix, or when mapping fails). Both
    /// are served from the same page cache, so validation checks the
    /// same bytes either way. Validates the checksum and every
    /// structural invariant before returning.
    pub fn attach(path: impl AsRef<Path>) -> Result<Snapshot, StoreError> {
        let mut file = std::fs::File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| corrupt("file too large for this platform"))?;
        let backing = match Mapping::map(&file, len) {
            Ok(m) => Backing::Mapped(m),
            Err(_) => Backing::Owned(OwnedBytes::read_from(&mut file, len)?),
        };
        Snapshot::from_backing(backing)
    }

    /// Builds a snapshot from in-memory bytes (copied into aligned
    /// storage) — the in-memory and test entry point.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, StoreError> {
        Snapshot::from_backing(Backing::Owned(OwnedBytes::from_slice(bytes)))
    }

    fn from_backing(backing: Backing) -> Result<Snapshot, StoreError> {
        let (layout, synopsis, paths) = validate(backing.bytes())?;
        Ok(Snapshot {
            backing,
            layout,
            synopsis,
            paths,
        })
    }

    fn section(&self, i: usize) -> &[u8] {
        let (off, len) = self.layout.sections[i];
        &self.backing.bytes()[off..off + len]
    }

    fn u32s(&self, i: usize) -> &[u32] {
        let bytes = self.section(i);
        // SAFETY: validate() checked 8-byte section alignment (the
        // backing base is at least 8-byte aligned) and a length that is
        // a multiple of 4; any u32 bit pattern is valid.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u32>(), bytes.len() / 4) }
    }

    fn u16s(&self, i: usize) -> &[u16] {
        let bytes = self.section(i);
        // SAFETY: as u32s(), with a length multiple of 2.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u16>(), bytes.len() / 2) }
    }

    fn str_of(&self, i: usize) -> &str {
        std::str::from_utf8(self.section(i)).expect("blob validated as UTF-8 at attach")
    }

    fn columns_view(&self) -> ColumnsView<'_> {
        ColumnsView::from_raw(
            self.u32s(SEC_PARENT),
            self.u16s(SEC_DEPTH),
            self.u32s(SEC_SUBTREE_END),
        )
    }

    fn mapped_doc(&self) -> MappedDoc<'_> {
        MappedDoc::from_raw(
            self.columns_view(),
            self.u32s(SEC_TAG_OFFSETS),
            self.str_of(SEC_TAG_BLOB),
            self.u32s(SEC_TAG_OF),
            self.u32s(SEC_TEXT_OFFSETS),
            self.str_of(SEC_TEXT_BLOB),
            self.u32s(SEC_ATTR_OFFSETS),
            self.u32s(SEC_ATTR_ENTRIES),
            self.str_of(SEC_ATTR_BLOB),
        )
    }

    /// The document view (tags, text, attributes) over the mapped
    /// arrays — zero-copy, `Copy`, engine-ready.
    pub fn doc_view(&self) -> DocView<'_> {
        DocView::Mapped(self.mapped_doc())
    }

    /// The index view (postings, value postings, structural columns)
    /// over the mapped arrays — the same struct
    /// [`TagIndex::view`] returns over an in-memory index.
    pub fn index_view(&self) -> TagIndexView<'_> {
        TagIndexView::from_raw(
            self.columns_view(),
            self.u32s(SEC_POST_OFFSETS),
            self.u32s(SEC_POST_IDS),
            self.u32s(SEC_VALUE_GROUPS),
            self.str_of(SEC_VALUE_BLOB),
            self.u32s(SEC_VALUE_IDS),
        )
    }

    /// The stored tag-count synopsis.
    pub fn synopsis(&self) -> &ShardSynopsis {
        &self.synopsis
    }

    /// The stored path synopsis (dataguide).
    pub fn path_synopsis(&self) -> &PathSynopsis {
        &self.paths
    }

    /// Total nodes, synthetic root included.
    pub fn node_count(&self) -> usize {
        self.layout.n
    }

    /// Tag-table size.
    pub fn tag_count(&self) -> usize {
        self.layout.tag_count
    }

    /// File size in bytes.
    pub fn file_len(&self) -> usize {
        self.backing.bytes().len()
    }

    /// True when the backing is a real memory mapping (as opposed to
    /// the buffered-read fallback).
    pub fn is_mapped(&self) -> bool {
        self.backing.is_mapped()
    }

    /// Reads *only* the header and the self-checksummed synopsis
    /// section of a snapshot file — no payload mapping, no whole-file
    /// checksum pass.
    ///
    /// A peek is the collection layer's admission ticket: it yields the
    /// synopses needed to *order and prune* shards without attaching
    /// them. It is not a substitute for [`attach`](Snapshot::attach) —
    /// full validation still happens when (if) the shard is visited.
    pub fn peek(path: impl AsRef<Path>) -> Result<SnapshotPeek, StoreError> {
        let mut file = std::fs::File::open(path)?;
        let file_len = usize::try_from(file.metadata()?.len())
            .map_err(|_| corrupt("file too large for this platform"))?;
        let mut header = [0u8; HEADER_LEN];
        file.read_exact(&mut header[..32])?;
        check_header(&header, file_len)?;
        file.read_exact(&mut header[32..])?;
        let (off, len) = section_table(&header, file_len)?[SEC_PATH_SYNOPSIS];
        file.seek(SeekFrom::Start(off as u64))?;
        let mut section = vec![0u8; len];
        file.read_exact(&mut section)?;
        let (synopsis, paths) = parse_path_section(&section)?;
        Ok(SnapshotPeek { synopsis, paths })
    }
}

/// What [`Snapshot::peek`] learns about a snapshot file without
/// attaching it.
#[derive(Debug, Clone)]
pub struct SnapshotPeek {
    /// The stored tag-count synopsis.
    pub synopsis: ShardSynopsis,
    /// The stored dataguide.
    pub paths: PathSynopsis,
}

// -----------------------------------------------------------------------
// Validation
// -----------------------------------------------------------------------

fn read_u64_at(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"))
}

/// Checks the fixed 32-byte header at the start of `head` against the
/// file's length; returns the node and tag-table counts.
fn check_header(head: &[u8], file_len: usize) -> Result<(usize, usize), StoreError> {
    if &head[0..4] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let n = read_u64_at(head, 8) as usize;
    let tag_count = read_u64_at(head, 16) as usize;
    let total_len = read_u64_at(head, 24) as usize;
    if total_len != file_len {
        return Err(corrupt(format!(
            "length mismatch: header says {total_len}, file is {file_len}"
        )));
    }
    if total_len % 8 != 0 {
        return Err(corrupt("file length must be a multiple of 8"));
    }
    if total_len < HEADER_LEN + 8 {
        return Err(corrupt("file too short for its section table"));
    }
    if n == 0 || n > u32::MAX as usize || tag_count == 0 || tag_count > u32::MAX as usize {
        return Err(corrupt(format!(
            "implausible node count {n} / tag count {tag_count}"
        )));
    }
    Ok((n, tag_count))
}

/// Reads the section table out of a whole header (already passed by
/// [`check_header`]): sections in order, 8-aligned, padding-only gaps,
/// in bounds, and ending where the checksum starts.
fn section_table(
    header: &[u8],
    total_len: usize,
) -> Result<[(usize, usize); SECTION_COUNT], StoreError> {
    let mut sections = [(0usize, 0usize); SECTION_COUNT];
    let mut expected_off = HEADER_LEN;
    for (i, slot) in sections.iter_mut().enumerate() {
        let off = read_u64_at(header, 32 + i * 16) as usize;
        let len = read_u64_at(header, 40 + i * 16) as usize;
        if off != expected_off {
            return Err(corrupt(format!(
                "section {i}: offset {off}, expected {expected_off}"
            )));
        }
        if len > total_len - 8 - off {
            return Err(corrupt(format!("section {i}: length {len} out of bounds")));
        }
        *slot = (off, len);
        expected_off = align8(off + len);
    }
    if expected_off != total_len - 8 {
        return Err(corrupt(format!(
            "sections end at {expected_off}, checksum at {}",
            total_len - 8
        )));
    }
    Ok(sections)
}

/// Checks that every offset in `offsets` is monotone nondecreasing,
/// starts at 0, ends at `end`, and (when `blob` is given) lands on a
/// char boundary of the blob.
fn check_offsets(
    offsets: &[u32],
    end: usize,
    blob: Option<&str>,
    what: &str,
) -> Result<(), StoreError> {
    if offsets.first() != Some(&0) {
        return Err(corrupt(format!("{what}: first offset must be 0")));
    }
    if offsets.last().copied().unwrap_or(0) as usize != end {
        return Err(corrupt(format!(
            "{what}: final offset {} does not cover the section (expected {end})",
            offsets.last().copied().unwrap_or(0)
        )));
    }
    let mut prev = 0u32;
    for &o in offsets {
        if o < prev {
            return Err(corrupt(format!("{what}: offsets must be nondecreasing")));
        }
        if let Some(blob) = blob {
            if !blob.is_char_boundary(o as usize) {
                return Err(corrupt(format!("{what}: offset {o} splits a UTF-8 char")));
            }
        }
        prev = o;
    }
    Ok(())
}

/// Checks that `ids` is strictly ascending with every id in `[1, n)`.
fn check_ids(ids: &[u32], n: usize, what: &str) -> Result<(), StoreError> {
    let mut prev = 0u32; // ids start at 1, so 0 is a safe floor
    for &id in ids {
        if id <= prev || id as usize >= n {
            return Err(corrupt(format!(
                "{what}: ids must be strictly ascending element ids (saw {id} after {prev}, n={n})"
            )));
        }
        prev = id;
    }
    Ok(())
}

fn utf8(bytes: &[u8], what: &str) -> Result<(), StoreError> {
    std::str::from_utf8(bytes)
        .map(|_| ())
        .map_err(|_| corrupt(format!("{what} is not valid UTF-8")))
}

/// Full attach-time validation. Returns the section layout and the
/// stored synopses only if the file is byte-exact (checksum) *and*
/// structurally sound, so the mapped accessors can index without
/// bounds surprises.
fn validate(bytes: &[u8]) -> Result<(Layout, ShardSynopsis, PathSynopsis), StoreError> {
    if bytes.len() < 32 {
        return Err(corrupt(format!(
            "file too short for a snapshot header ({} bytes)",
            bytes.len()
        )));
    }
    let (n, tag_count) = check_header(bytes, bytes.len())?;
    let total_len = bytes.len();

    // Checksum before structural checks: a bit flip anywhere (header
    // included) fails here.
    let stored = read_u64_at(bytes, total_len - 8);
    let computed = fnv_words(&bytes[..total_len - 8]);
    if stored != computed {
        return Err(corrupt(format!(
            "checksum mismatch: stored {stored:#x}, computed {computed:#x}"
        )));
    }
    let sections = section_table(bytes, total_len)?;

    // Expected section shapes.
    let expect = |i: usize, want: usize, what: &str| -> Result<(), StoreError> {
        if sections[i].1 != want {
            return Err(corrupt(format!(
                "{what}: section length {} (expected {want})",
                sections[i].1
            )));
        }
        Ok(())
    };
    expect(SEC_TAG_OFFSETS, 4 * (tag_count + 1), "tag offsets")?;
    expect(SEC_PARENT, 4 * n, "parent column")?;
    expect(SEC_DEPTH, 2 * n, "depth column")?;
    expect(SEC_SUBTREE_END, 4 * n, "subtree-end column")?;
    expect(SEC_TAG_OF, 4 * n, "tag-of column")?;
    expect(SEC_POST_OFFSETS, 4 * (tag_count + 1), "posting offsets")?;
    expect(SEC_POST_IDS, 4 * (n - 1), "posting ids")?;
    expect(SEC_TEXT_OFFSETS, 4 * (n + 1), "text offsets")?;
    expect(SEC_ATTR_OFFSETS, 4 * (n + 1), "attribute offsets")?;
    if sections[SEC_VALUE_GROUPS].1 % (4 * VALUE_GROUP_STRIDE) != 0 {
        return Err(corrupt("value groups: length not a group multiple"));
    }
    if sections[SEC_VALUE_IDS].1 % 4 != 0 {
        return Err(corrupt("value ids: length not a u32 multiple"));
    }
    if sections[SEC_ATTR_ENTRIES].1 % (4 * ATTR_ENTRY_STRIDE) != 0 {
        return Err(corrupt("attribute entries: length not an entry multiple"));
    }

    let sec = |i: usize| -> &[u8] { &bytes[sections[i].0..sections[i].0 + sections[i].1] };
    // SAFETY: offsets are 8-aligned above a base that is at least
    // 8-aligned (mmap page / Vec<u64>), lengths checked as multiples.
    let u32s = |i: usize| -> &[u32] {
        let b = sec(i);
        unsafe { std::slice::from_raw_parts(b.as_ptr().cast::<u32>(), b.len() / 4) }
    };

    // Blobs must be UTF-8 before offsets can be boundary-checked.
    utf8(sec(SEC_TAG_BLOB), "tag blob")?;
    utf8(sec(SEC_VALUE_BLOB), "value blob")?;
    utf8(sec(SEC_TEXT_BLOB), "text blob")?;
    utf8(sec(SEC_ATTR_BLOB), "attribute blob")?;
    let tag_blob = std::str::from_utf8(sec(SEC_TAG_BLOB)).expect("just validated");
    let text_blob = std::str::from_utf8(sec(SEC_TEXT_BLOB)).expect("just validated");

    check_offsets(
        u32s(SEC_TAG_OFFSETS),
        sections[SEC_TAG_BLOB].1,
        Some(tag_blob),
        "tag offsets",
    )?;
    check_offsets(
        u32s(SEC_TEXT_OFFSETS),
        sections[SEC_TEXT_BLOB].1,
        Some(text_blob),
        "text offsets",
    )?;
    check_offsets(u32s(SEC_POST_OFFSETS), n - 1, None, "posting offsets")?;
    check_offsets(
        u32s(SEC_ATTR_OFFSETS),
        sections[SEC_ATTR_ENTRIES].1 / (4 * ATTR_ENTRY_STRIDE),
        None,
        "attribute offsets",
    )?;

    // Structural columns: parents precede children, depths chain,
    // subtree extents nest.
    let parent = u32s(SEC_PARENT);
    let depth = {
        let b = sec(SEC_DEPTH);
        // SAFETY: as u32s above, length 2n checked.
        unsafe { std::slice::from_raw_parts(b.as_ptr().cast::<u16>(), b.len() / 2) }
    };
    let subtree_end = u32s(SEC_SUBTREE_END);
    if parent[0] != NO_PARENT || depth[0] != 0 || subtree_end[0] as usize != n {
        return Err(corrupt("root row must be (no-parent, depth 0, extent n)"));
    }
    for i in 1..n {
        let p = parent[i] as usize;
        if p >= i {
            return Err(corrupt(format!("node {i}: parent {p} does not precede it")));
        }
        if depth[i] != depth[p].wrapping_add(1) {
            return Err(corrupt(format!(
                "node {i}: depth does not chain from parent"
            )));
        }
        let end = subtree_end[i] as usize;
        if end <= i || end > subtree_end[p] as usize {
            return Err(corrupt(format!(
                "node {i}: subtree extent {end} not nested"
            )));
        }
    }

    // Per-node tags in range; postings sorted, in range, and consistent
    // with tag_of (so posting counts are element counts).
    let tag_of = u32s(SEC_TAG_OF);
    if tag_of.iter().any(|&t| t as usize >= tag_count) {
        return Err(corrupt("tag-of column references a tag out of range"));
    }
    let post_offsets = u32s(SEC_POST_OFFSETS);
    let post_ids = u32s(SEC_POST_IDS);
    for t in 0..tag_count {
        let list = &post_ids[post_offsets[t] as usize..post_offsets[t + 1] as usize];
        check_ids(list, n, "postings")?;
        if list.iter().any(|&id| tag_of[id as usize] as usize != t) {
            return Err(corrupt(format!(
                "postings for tag {t} disagree with tag-of"
            )));
        }
    }

    // Value groups: sorted keys, contiguous blob/id spans, sorted ids.
    let groups = u32s(SEC_VALUE_GROUPS);
    let value_blob = std::str::from_utf8(sec(SEC_VALUE_BLOB)).expect("just validated");
    let value_ids = u32s(SEC_VALUE_IDS);
    let mut prev_key: Option<(u32, &str)> = None;
    let (mut val_cursor, mut ids_cursor) = (0usize, 0usize);
    for g in groups.chunks_exact(VALUE_GROUP_STRIDE) {
        let (tag, val_off, val_len) = (g[0], g[1] as usize, g[2] as usize);
        let (ids_off, ids_len) = (g[3] as usize, g[4] as usize);
        if tag as usize >= tag_count {
            return Err(corrupt("value group references a tag out of range"));
        }
        if val_off != val_cursor || ids_off != ids_cursor {
            return Err(corrupt("value group spans must be contiguous"));
        }
        let val_end = val_off
            .checked_add(val_len)
            .filter(|&e| e <= value_blob.len())
            .ok_or_else(|| corrupt("value group text span out of bounds"))?;
        if !value_blob.is_char_boundary(val_off) || !value_blob.is_char_boundary(val_end) {
            return Err(corrupt("value group span splits a UTF-8 char"));
        }
        let ids_end = ids_off
            .checked_add(ids_len)
            .filter(|&e| e <= value_ids.len())
            .ok_or_else(|| corrupt("value group id span out of bounds"))?;
        let value = &value_blob[val_off..val_end];
        let key = (tag, value);
        if prev_key.is_some_and(|p| p >= key) {
            return Err(corrupt("value groups must be sorted by (tag, value)"));
        }
        prev_key = Some(key);
        check_ids(&value_ids[ids_off..ids_end], n, "value postings")?;
        val_cursor = val_end;
        ids_cursor = ids_end;
    }
    if val_cursor != value_blob.len() || ids_cursor != value_ids.len() {
        return Err(corrupt("value blob / ids not fully covered by groups"));
    }

    // Attribute entries: names in range, contiguous value spans.
    let attr_entries = u32s(SEC_ATTR_ENTRIES);
    let attr_blob_len = sections[SEC_ATTR_BLOB].1;
    let attr_blob = std::str::from_utf8(sec(SEC_ATTR_BLOB)).expect("just validated");
    let mut attr_cursor = 0usize;
    for e in attr_entries.chunks_exact(ATTR_ENTRY_STRIDE) {
        if e[0] as usize >= tag_count {
            return Err(corrupt("attribute name references a tag out of range"));
        }
        let (off, len) = (e[1] as usize, e[2] as usize);
        if off != attr_cursor {
            return Err(corrupt("attribute value spans must be contiguous"));
        }
        let end = off
            .checked_add(len)
            .filter(|&e| e <= attr_blob_len)
            .ok_or_else(|| corrupt("attribute value span out of bounds"))?;
        if !attr_blob.is_char_boundary(off) || !attr_blob.is_char_boundary(end) {
            return Err(corrupt("attribute value span splits a UTF-8 char"));
        }
        attr_cursor = end;
    }
    if attr_cursor != attr_blob_len {
        return Err(corrupt("attribute blob not fully covered by entries"));
    }

    // The stored synopses must parse, pass their own checksum, and
    // list exactly the tags with postings, each with its posting count
    // — a ceiling or idf computed from the section can then never
    // contradict the payload it summarizes.
    let (off, len) = sections[SEC_PATH_SYNOPSIS];
    let (synopsis, paths) = parse_path_section(&bytes[off..off + len])?;
    if synopsis.elements() != (n - 1) as u64 {
        return Err(corrupt(
            "path synopsis: element count disagrees with header",
        ));
    }
    let tag_offsets = u32s(SEC_TAG_OFFSETS);
    let mut tags_with_postings = 0;
    for t in 0..tag_count {
        let count = u64::from(post_offsets[t + 1] - post_offsets[t]);
        if count == 0 {
            continue;
        }
        tags_with_postings += 1;
        let name = &tag_blob[tag_offsets[t] as usize..tag_offsets[t + 1] as usize];
        if synopsis.tag_count(name) != count {
            return Err(corrupt(format!(
                "path synopsis: tag {name:?} count disagrees with postings"
            )));
        }
    }
    if synopsis.distinct_tags() != tags_with_postings {
        return Err(corrupt("path synopsis: lists a tag without postings"));
    }

    let layout = Layout {
        n,
        tag_count,
        sections,
    };
    Ok((layout, synopsis, paths))
}

#[cfg(test)]
mod tests {
    use super::*;
    use whirlpool_xml::parse_document;

    fn snapshot_of(src: &str) -> (Document, TagIndex, Vec<u8>) {
        let doc = parse_document(src).unwrap();
        let index = TagIndex::build(&doc);
        let bytes = build_snapshot_bytes(&doc, &index);
        (doc, index, bytes)
    }

    #[test]
    fn snapshot_views_mirror_the_source() {
        let (doc, index, bytes) =
            snapshot_of("<r><t a=\"1\" b=\"x y\">x</t><t>y</t><s><t>x</t><u/></s></r>");
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.node_count(), doc.len());
        let dv = snap.doc_view();
        let iv = snap.index_view();

        for i in 0..doc.len() {
            let node = NodeId::from_index(i);
            assert_eq!(dv.tag_str(node), doc.tag_str(node));
            assert_eq!(dv.text(node), doc.text(node));
            assert_eq!(dv.attribute(node, "a"), doc.attribute(node, "a"));
            assert_eq!(dv.attribute(node, "b"), doc.attribute(node, "b"));
            assert_eq!(dv.depth(node), doc.depth(node));
        }
        let t = doc.tag_id("t").unwrap();
        // Mapped and owned interners share ids: the snapshot writes the
        // document's own tag table in id order.
        assert_eq!(dv.tag_id("t"), Some(t));
        // The mapped index is the in-memory index, array for array.
        assert_eq!(iv, index.view());
        assert_eq!(iv.nodes_with_tag_value(t, "x").len(), 2);
        assert_eq!(iv.nodes_with_tag_value(t, "zz"), &[]);
    }

    #[test]
    fn synopsis_matches_a_fresh_build() {
        let (doc, _, bytes) = snapshot_of("<r><a><b/><b/></a><c>t</c></r>");
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        let fresh = ShardSynopsis::build(&doc);
        assert_eq!(snap.synopsis().elements(), fresh.elements());
        assert_eq!(snap.synopsis().distinct_tags(), fresh.distinct_tags());
        for (tag, count) in fresh.tags() {
            assert_eq!(snap.synopsis().tag_count(tag), count, "{tag}");
        }
    }

    #[test]
    fn written_views_round_trip() {
        use whirlpool_xml::{write_node, WriteOptions};
        for src in [
            "<a/>",
            "<a><b>text</b><c x=\"1\" y=\"2\"><d/></c></a>",
            "<a>mixed <b>inner</b> content</a>",
            "<données café=\"☕\">中文</données>",
            "<a/><b><c/></b>",
        ] {
            let (doc, _, bytes) = snapshot_of(src);
            let snap = Snapshot::from_bytes(&bytes).unwrap();
            let pretty = WriteOptions {
                indent: Some(2),
                ..WriteOptions::default()
            };
            for opts in [WriteOptions::default(), pretty] {
                for top in doc.children(doc.document_root()) {
                    assert_eq!(
                        snap.doc_view().write_node(top, &opts),
                        write_node(&doc, top, &opts),
                        "{src}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_bit_flips_never_attach() {
        let (_, _, clean) = snapshot_of("<a><b>text</b><c x=\"1\"/><b>text</b></a>");
        for i in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[i] ^= 0x10;
            assert!(
                Snapshot::from_bytes(&corrupt).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncations_never_attach() {
        let (_, _, clean) = snapshot_of("<a><b>text</b><c x=\"1\"/></a>");
        for cut in [
            0,
            3,
            8,
            HEADER_LEN - 1,
            HEADER_LEN,
            clean.len() - 9,
            clean.len() - 1,
        ] {
            assert!(
                Snapshot::from_bytes(&clean[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    /// A file of the retired version-1 stream format, as its writer
    /// emitted it for
    /// `<shelf><book id="b1"><title>Top-K</title></book><cd>é</cd></shelf>`.
    const PINNED_V1: &[u8] = &[
        87, 80, 76, 88, 1, 0, 0, 0, 6, 0, 0, 0, 9, 0, 0, 0, 35, 100, 111, 99, 45, 114, 111, 111,
        116, 5, 0, 0, 0, 115, 104, 101, 108, 102, 4, 0, 0, 0, 98, 111, 111, 107, 2, 0, 0, 0, 105,
        100, 5, 0, 0, 0, 116, 105, 116, 108, 101, 2, 0, 0, 0, 99, 100, 4, 0, 0, 0, 1, 0, 0, 0, 0,
        0, 0, 0, 255, 255, 255, 255, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 255, 255, 255, 255, 1, 0, 3, 0,
        0, 0, 2, 0, 0, 0, 98, 49, 4, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0, 84, 111, 112, 45, 75, 0, 0,
        5, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 195, 169, 0, 0, 118, 94, 171, 46, 178, 40, 167, 220,
    ];

    #[test]
    fn v1_store_is_not_a_snapshot() {
        assert!(matches!(
            Snapshot::from_bytes(PINNED_V1),
            Err(StoreError::UnsupportedVersion(1)) | Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn version_sniffing_distinguishes_v1_v2_and_v3() {
        let dir = std::env::temp_dir().join(format!("wpl-sniff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let v1_path = dir.join("doc.wpx");
        std::fs::write(&v1_path, PINNED_V1).unwrap();
        assert_eq!(crate::store_version(&v1_path), Some(1));
        assert!(Snapshot::attach(&v1_path).is_err());
        assert!(Snapshot::peek(&v1_path).is_err());

        let xml_path = dir.join("doc.xml");
        std::fs::write(&xml_path, "<a/>").unwrap();
        assert_eq!(crate::store_version(&xml_path), None);
        assert_eq!(crate::store_version(dir.join("missing.wps")), None);

        let doc = parse_document("<a><b/></a>").unwrap();
        let index = TagIndex::build(&doc);
        let v3_path = dir.join("doc-v3.wps");
        save_snapshot(&doc, &index, &v3_path).unwrap();
        assert_eq!(crate::store_version(&v3_path), Some(SNAPSHOT_VERSION));
        let v3 = Snapshot::attach(&v3_path).unwrap();
        assert_eq!(v3.node_count(), doc.len());

        // Version 2 (the layout without the synopsis section) is
        // recognised and refused, by attach and peek alike.
        let mut bytes = std::fs::read(&v3_path).unwrap();
        bytes[4] = 2;
        let v2_path = dir.join("doc-v2.wps");
        std::fs::write(&v2_path, &bytes).unwrap();
        assert_eq!(crate::store_version(&v2_path), Some(2));
        assert!(matches!(
            Snapshot::attach(&v2_path),
            Err(StoreError::UnsupportedVersion(2))
        ));
        assert!(matches!(
            Snapshot::peek(&v2_path),
            Err(StoreError::UnsupportedVersion(2))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attach_modes_agree() {
        let dir = std::env::temp_dir().join(format!("wpl-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.wps");
        let doc = parse_document("<r><t>x</t><t>y</t></r>").unwrap();
        let index = TagIndex::build(&doc);
        save_snapshot(&doc, &index, &path).unwrap();

        // The mapping `attach` makes and a buffered read of the same
        // file serve the same views.
        let read = Snapshot::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert!(!read.is_mapped());
        let mapped = Snapshot::attach(&path).unwrap();
        assert_eq!(mapped.node_count(), read.node_count());
        assert_eq!(mapped.file_len(), read.file_len());
        let t = doc.tag_id("t").unwrap();
        assert_eq!(
            mapped.index_view().nodes_with_tag(t),
            read.index_view().nodes_with_tag(t)
        );
        #[cfg(unix)]
        assert!(mapped.is_mapped());
    }

    #[test]
    fn peek_reads_synopses_without_attaching() {
        let dir = std::env::temp_dir().join(format!("wpl-peek-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = "<shelf><book><isbn>1</isbn></book><book><isbn>2</isbn></book><cd/></shelf>";
        let doc = parse_document(src).unwrap();
        let index = TagIndex::build(&doc);

        // The stored section answers both synopses.
        let path = dir.join("doc.wps");
        save_snapshot(&doc, &index, &path).unwrap();
        let peek = Snapshot::peek(&path).unwrap();
        assert_eq!(peek.synopsis.tag_count("book"), 2);
        assert_eq!(peek.synopsis.elements(), (doc.len() - 1) as u64);
        let paths = peek.paths;
        use whirlpool_index::PathAxis::*;
        assert!(paths.matches_query_path(&[(Descendant, "book"), (Child, "isbn")]));
        assert!(!paths.matches_query_path(&[(Descendant, "cd"), (Child, "isbn")]));
        // The stored dataguide equals a fresh build.
        assert_eq!(paths, PathSynopsis::build(&doc));

        // Attach agrees with peek.
        let snap = Snapshot::attach(&path).unwrap();
        assert_eq!(snap.path_synopsis(), &paths);

        // A flipped byte inside the synopsis section fails the
        // section's own checksum — peek never trusts garbage ceilings.
        let clean = std::fs::read(&path).unwrap();
        let (layout, ..) = validate(&clean).unwrap();
        let (off, len) = layout.sections[SEC_PATH_SYNOPSIS];
        let mut corrupt = clean.clone();
        corrupt[off + len / 2] ^= 0x20;
        let bad_path = dir.join("bad.wps");
        std::fs::write(&bad_path, &corrupt).unwrap();
        assert!(Snapshot::peek(&bad_path).is_err());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Lays `bytes` out again around `section` as its synopsis section:
    /// new section length, file length and checksum, every other
    /// section unchanged.
    fn with_path_section(bytes: &[u8], section: &[u8]) -> Vec<u8> {
        let (layout, ..) = validate(bytes).unwrap();
        let (off, _) = layout.sections[SEC_PATH_SYNOPSIS];
        let mut out = bytes[..off].to_vec();
        out.extend_from_slice(section);
        out.resize(align8(out.len()), 0);
        let total_len = (out.len() + 8) as u64;
        out[24..32].copy_from_slice(&total_len.to_le_bytes());
        let len_at = 40 + SEC_PATH_SYNOPSIS * 16;
        out[len_at..len_at + 8].copy_from_slice(&(section.len() as u64).to_le_bytes());
        let checksum = fnv_words(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    #[test]
    fn a_stored_tag_without_postings_fails_attach() {
        let (_, _, clean) = snapshot_of("<shelf><book><isbn>1</isbn></book></shelf>");
        let (layout, ..) = validate(&clean).unwrap();
        let (off, len) = layout.sections[SEC_PATH_SYNOPSIS];
        let stored = &clean[off..off + len];
        assert!(Snapshot::from_bytes(&with_path_section(&clean, stored)).is_ok());

        // Append a "ghost" tag to the stored tag list: elements, tag
        // count, then (count, name length, name) per tag.
        let body = &stored[..len - 8];
        let tags = read_u64_at(body, 8);
        let mut end = 16;
        for _ in 0..tags {
            end += 16 + read_u64_at(body, end + 8) as usize;
        }
        let mut forged = body[..8].to_vec();
        forged.extend_from_slice(&(tags + 1).to_le_bytes());
        forged.extend_from_slice(&body[16..end]);
        forged.extend_from_slice(&1u64.to_le_bytes());
        forged.extend_from_slice(&5u64.to_le_bytes());
        forged.extend_from_slice(b"ghost");
        forged.extend_from_slice(&body[end..]);
        let checksum = fnv_bytes(&forged);
        forged.extend_from_slice(&checksum.to_le_bytes());

        let err = Snapshot::from_bytes(&with_path_section(&clean, &forged))
            .err()
            .expect("a tag without postings must not attach");
        assert!(err.to_string().contains("without postings"), "{err}");
    }

    #[test]
    fn empty_document_snapshots() {
        let doc = Document::new();
        let index = TagIndex::build(&doc);
        let bytes = build_snapshot_bytes(&doc, &index);
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.node_count(), 1);
        assert!(snap.doc_view().is_empty());
        assert_eq!(snap.synopsis().elements(), 0);
    }
}
