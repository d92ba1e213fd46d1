//! The **snapshot** format: the whole query-time state of a document —
//! tag table, structural columns, tag postings, text and attribute
//! payloads, and its synopses — flattened into
//! little-endian, 8-byte aligned arrays that an engine can use
//! *directly out of a memory mapping*. Attaching costs a header parse
//! plus linear validation passes (checksum + structural checks over
//! flat integer arrays), never an XML parse or an index build.
//!
//! # Layout (version 5, little-endian, all sections 8-byte aligned)
//!
//! ```text
//! 0    magic      "WPLX"                      4 bytes
//! 4    version    u32 = 5                     4 bytes
//! 8    nodes      u64  node count n (synthetic root included)
//! 16   tags       u64  tag-table size T
//! 24   total_len  u64  file length in bytes, trailing checksum included
//! 32   sections   14 × { offset u64, len u64 }   (224 bytes)
//! 256  payload    sections in table order, zero-padded to 8-byte
//!                 boundaries between sections:
//!        0  tag_offsets   u32[T+1]   name spans in tag_blob
//!        1  tag_blob      UTF-8
//!        2  parent        u32[n]     parent[0] = u32::MAX
//!        3  depth         u16[n]
//!        4  subtree_end   u32[n]
//!        5  tag_of        u32[n]
//!        6  post_offsets  u32[T+1]   postings spans in post_ids
//!        7  post_ids      u32[n-1]   every element in its tag's list
//!        8  text_offsets  u32[n+1]   empty span = no text
//!        9  text_blob     UTF-8
//!        10 attr_offsets  u32[n+1]   entry (not byte) offsets
//!        11 attr_entries  u32[3·A]   (name_tag, val_off, val_len)
//!        12 attr_blob     UTF-8
//!        13 path_synopsis the stored synopses (below)
//! end-8 checksum  u64  `checksum` of the preceding bytes: four FNV-1a
//!                 lanes over little-endian u64 words, folded with the
//!                 byte length
//! ```
//!
//! # The stored synopses
//!
//! Section 13 holds a serialized [`PathSynopsis`] — the bounded strong
//! dataguide built at snapshot-build time — together with the
//! tag-count [`ShardSynopsis`], in a *self-contained, self-checksummed*
//! byte stream:
//!
//! ```text
//! 13 path_synopsis   u64 elements
//!                    u64 tag count T'   (tags with ≥1 element)
//!                    T' × { u64 count, u64 name_len, UTF-8 name }
//!                         in tag-id order
//!                    u64 depth_cap (≤ 63), u64 truncated (0/1),
//!                    u64 path count P
//!                    P × { u64 count, u64 max_tf, u64 nsteps (≤ depth_cap),
//!                          nsteps × u32 index into the T' tag list }
//!                    u64 `checksum` of the preceding section bytes
//!                        (tail bytes fold into lane 0)
//! ```
//!
//! The section is deliberately independent of every other section and
//! carries its own checksum so that [`Snapshot::peek`] can read *just
//! the header and this section* (and the file's checksum, which follows
//! it) — no payload mapping, no whole-file checksum pass — and still
//! hand the collection layer integrity-checked synopses. One walker
//! reads the format. Peek drives it to collect owned synopses; attach
//! drives it to compare the section with the payload, allocating
//! nothing: the element count is the payload's, and the stored tags are
//! exactly the tags with postings, in tag-id order, each named as in
//! the tag table and counted as its postings. An attached [`Snapshot`]
//! holds no synopsis; [`Snapshot::synopses`] parses the verified
//! section again for a caller that wants one.
//!
//! A stored path has at most 63 steps (`MAX_PATH_STEPS`), because the
//! path matcher keeps one bit per position in a `u64`: the walker
//! refuses a depth cap above 63 or a path longer than its cap.
//!
//! Attach validates everything the mapped accessors later index with:
//! magic/version/length, the checksum, section table sanity
//! (alignment, order, bounds), and structural invariants (monotone
//! offset tables, parents before children, subtree extents nested,
//! posting ids sorted and in range, UTF-8 blobs with offsets on char
//! boundaries). A file that passes cannot make the views panic or read
//! out of bounds; a file that fails yields [`StoreError`], never UB.
//!
//! A re-attach of a file an earlier full attach verified may trust that
//! verification ([`SnapshotFile::attach`], [`Verification`]) when the
//! open file's identity proves it unchanged: it then skips the
//! whole-file checksum, the node walk and the synopsis check, and keeps
//! the header, section table, UTF-8, offset and attribute checks that
//! the views' memory safety rests on.
//!
//! # Writing
//!
//! [`write_snapshot`] streams a file in one pass: the header's section
//! table follows from the arrays' lengths, so it goes first, then each
//! section straight from the document's and the index's arrays, then
//! the checksum. Every byte passes through one 1 MiB staging buffer,
//! which feeds the streaming `Checksum` as it flushes; nothing holds an
//! image of the file. [`save_snapshot`] streams into a temp file of its
//! own (`<path>.<pid>.<seq>.tmp`, created new) and renames it over the
//! target, so concurrent writers of one path each publish a whole file.
//! [`build_snapshot_bytes`] is the same writer over a `Vec`.
//!
//! Versions 1–4 are not read: attach and peek answer
//! [`StoreError::UnsupportedVersion`]. They were a streamed store, a
//! layout without the synopsis section, the v4 layout under a serial
//! FNV checksum, and this layout plus a (tag, value)-sorted posting
//! index in three more sections, which value tests no longer read.

use crate::mmap::{Backing, Mapping, OwnedBytes};
use crate::{StoreError, FNV_OFFSET, FNV_PRIME, MAGIC};
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime, UNIX_EPOCH};
use whirlpool_index::{
    ColumnsView, PathEntry, PathSynopsis, ShardSynopsis, TagIndex, TagIndexView, MAX_PATH_STEPS,
};
use whirlpool_xml::{DocView, Document, TagId, ATTR_ENTRY_STRIDE};

/// The snapshot format version: the one this crate writes and reads.
pub const SNAPSHOT_VERSION: u32 = 5;

const SECTION_COUNT: usize = 14;
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
const SEC_TEXT_OFFSETS: usize = 8;
const SEC_TEXT_BLOB: usize = 9;
const SEC_ATTR_OFFSETS: usize = 10;
const SEC_ATTR_ENTRIES: usize = 11;
const SEC_ATTR_BLOB: usize = 12;
const SEC_PATH_SYNOPSIS: usize = 13;
const _: () = assert!(SEC_PATH_SYNOPSIS == SECTION_COUNT - 1);

const NO_PARENT: u32 = u32::MAX;

#[inline]
fn align8(x: usize) -> usize {
    (x + 7) & !7
}

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

#[inline]
fn fnv(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// Bytes per checksum block: one little-endian u64 word per lane.
const BLOCK: usize = 32;

/// The format's one checksum, for the whole file and for the synopsis
/// section alike, fed in pieces of any size: four FNV-1a lanes over
/// little-endian u64 words (word j feeds lane j mod 4), a byte tail
/// folded into lane 0, then the lanes and the byte length folded with
/// FNV. Each lane is its own chain of dependent multiplies, so the CPU
/// overlaps four: 20 MB hash in 1.0 ms, against 3.4 ms for one chain
/// (2-vCPU Xeon). The writer feeds it as it streams; attach and peek
/// feed it once ([`checksum`]).
struct Checksum {
    lanes: [u64; 4],
    /// The start of a block whose end has not arrived yet.
    pending: [u8; BLOCK],
    pending_len: usize,
    len: u64,
}

impl Checksum {
    fn new() -> Checksum {
        Checksum {
            lanes: [FNV_OFFSET; 4],
            pending: [0; BLOCK],
            pending_len: 0,
            len: 0,
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (BLOCK - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < BLOCK {
                return;
            }
            let block = self.pending;
            self.blocks(&block);
            self.pending_len = 0;
        }
        let whole = bytes.len() - bytes.len() % BLOCK;
        self.blocks(&bytes[..whole]);
        let rest = &bytes[whole..];
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    fn blocks(&mut self, bytes: &[u8]) {
        let [a, b, c, d] = &mut self.lanes;
        fold_blocks(a, b, c, d, bytes);
    }

    fn finish(mut self) -> u64 {
        let mut words = self.pending[..self.pending_len].chunks_exact(8);
        for (lane, w) in self.lanes.iter_mut().zip(&mut words) {
            *lane = fnv(*lane, word(w));
        }
        for &b in words.remainder() {
            self.lanes[0] = fnv(self.lanes[0], u64::from(b));
        }
        (self.lanes.into_iter())
            .chain([self.len])
            .fold(FNV_OFFSET, fnv)
    }
}

/// Feeds whole blocks into four lanes held in registers. The lanes come
/// as four separate references and the function is never inlined: seen
/// as one array, LLVM pairs the lanes into SSE2 vectors, which have no
/// 64-bit multiply, and a 160 kB shard took 40 % longer to attach.
#[inline(never)]
fn fold_blocks(a: &mut u64, b: &mut u64, c: &mut u64, d: &mut u64, bytes: &[u8]) {
    for block in bytes.chunks_exact(BLOCK) {
        *a = fnv(*a, word(&block[..8]));
        *b = fnv(*b, word(&block[8..16]));
        *c = fnv(*c, word(&block[16..24]));
        *d = fnv(*d, word(&block[24..]));
    }
}

#[inline]
fn word(w: &[u8]) -> u64 {
    u64::from_le_bytes(w.try_into().expect("8 bytes"))
}

/// [`Checksum`] of `bytes`, fed once.
fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.update(bytes);
    sum.finish()
}

// -----------------------------------------------------------------------
// Writer
// -----------------------------------------------------------------------

/// Kept only because `benchmark/src/workloads/mod.rs` names it: there
/// is one snapshot format, so there is nothing left to choose.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotOptions;

/// Serializes the path-synopsis section: the tag-count synopsis plus
/// the bounded dataguide, self-contained and self-checksummed so
/// [`Snapshot::peek`] can read it without touching any other section.
fn encode_path_section(doc: DocView<'_>, index: TagIndexView<'_>, paths: &PathSynopsis) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&((doc.len() - 1) as u64).to_le_bytes());

    // Tags with at least one element, in tag-id order; path steps
    // reference positions in this list.
    let emitted: Vec<(&str, u64)> = (0..doc.tag_count())
        .map(TagId::from_index)
        .map(|t| (doc.tag_name(t), index.nodes_with_tag(t).len() as u64))
        .filter(|&(_, count)| count > 0)
        .collect();
    out.extend_from_slice(&(emitted.len() as u64).to_le_bytes());
    for &(name, count) in &emitted {
        out.extend_from_slice(&count.to_le_bytes());
        out.extend_from_slice(&(name.len() as u64).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    // The synopsis numbers its tags in order of first occurrence: each
    // one's position in the list above.
    let position: HashMap<&str, u32> = (emitted.iter().enumerate())
        .map(|(i, &(name, _))| (name, i as u32))
        .collect();
    let emit_idx: Vec<u32> = (paths.tag_names().iter())
        .map(|name| position.get(&**name).copied())
        .map(|i| i.expect("every synopsis tag has at least one element"))
        .collect();

    out.extend_from_slice(&u64::from(paths.depth_cap()).to_le_bytes());
    out.extend_from_slice(&u64::from(paths.truncated()).to_le_bytes());
    out.extend_from_slice(&(paths.len() as u64).to_le_bytes());
    for entry in paths.entries() {
        out.extend_from_slice(&entry.count.to_le_bytes());
        out.extend_from_slice(&entry.max_tf.to_le_bytes());
        out.extend_from_slice(&(entry.steps.len() as u64).to_le_bytes());
        for &step in &entry.steps {
            out.extend_from_slice(&emit_idx[step as usize].to_le_bytes());
        }
    }
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Bounds-checked serial reader over the path-synopsis section.
struct SectionReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| corrupt(format!("path synopsis: {what} out of bounds")))?;
        let bytes = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(bytes)
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.take(8, "u64")?.try_into().expect("8 bytes"),
        ))
    }

    fn str_of(&mut self, len: usize, what: &str) -> Result<&'a str, StoreError> {
        std::str::from_utf8(self.take(len, what)?)
            .map_err(|_| corrupt(format!("path synopsis: {what} is not valid UTF-8")))
    }
}

/// One stored path as the section walker hands it over: its steps as
/// little-endian `u32`s, each already checked to index the tag list.
struct StoredPath<'a> {
    steps: &'a [u8],
    count: u64,
    max_tf: u64,
}

impl StoredPath<'_> {
    fn steps(&self) -> impl Iterator<Item = u32> + '_ {
        (self.steps.chunks_exact(4)).map(|s| u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }
}

/// The fixed fields of a path-synopsis section.
struct SectionHead {
    elements: u64,
    depth_cap: u32,
    truncated: bool,
}

/// What [`walk_path_section`] hands its visitor, in file order. A
/// visitor overrides the fields it reads.
trait SectionVisitor<'a> {
    /// The number of listed tags, before the first [`tag`](Self::tag).
    fn tags(&mut self, _count: usize) {}
    fn tag(&mut self, name: &'a str, count: u64) -> Result<(), StoreError>;
    /// The number of stored paths, before the first
    /// [`path`](Self::path).
    fn paths(&mut self, _count: usize) {}
    fn path(&mut self, _path: StoredPath<'a>) {}
}

/// The one reader of the path-synopsis section format: verifies the
/// section's own checksum, then walks every field in order and checks
/// what the section alone decides — plausible tag and path counts,
/// UTF-8 names, a depth cap of at most [`MAX_PATH_STEPS`], a 0/1
/// truncated flag, no path longer than the cap, every step inside the
/// tag list, no trailing bytes. [`Snapshot::peek`] drives it with a
/// collect ([`Collect`]), attach with a compare against the payload
/// ([`PayloadCheck`]).
fn walk_path_section<'a>(
    bytes: &'a [u8],
    visit: &mut impl SectionVisitor<'a>,
) -> Result<SectionHead, StoreError> {
    if bytes.len() < 8 {
        return Err(corrupt("path synopsis: section too short"));
    }
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    let computed = checksum(&bytes[..bytes.len() - 8]);
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
    visit.tags(tag_count);
    for _ in 0..tag_count {
        let count = r.u64()?;
        let name_len = r.u64()? as usize;
        visit.tag(r.str_of(name_len, "tag name")?, count)?;
    }
    let depth_cap = match r.u64()? {
        cap if cap <= MAX_PATH_STEPS as u64 => cap,
        cap => {
            return Err(corrupt(format!(
                "path synopsis: depth cap {cap} above {MAX_PATH_STEPS}"
            )))
        }
    };
    let truncated = match r.u64()? {
        0 => false,
        1 => true,
        v => return Err(corrupt(format!("path synopsis: bad truncated flag {v}"))),
    };
    let path_count = r.u64()? as usize;
    if path_count > 1 << 24 {
        return Err(corrupt("path synopsis: implausible path count"));
    }
    visit.paths(path_count);
    for _ in 0..path_count {
        let count = r.u64()?;
        let max_tf = r.u64()?;
        let nsteps = r.u64()?;
        if nsteps > depth_cap {
            return Err(corrupt(format!(
                "path synopsis: a path of {nsteps} steps under depth cap {depth_cap}"
            )));
        }
        let stored = StoredPath {
            steps: r.take(4 * nsteps as usize, "path steps")?,
            count,
            max_tf,
        };
        if stored.steps().any(|s| s as usize >= tag_count) {
            return Err(corrupt("path synopsis: step references a tag out of range"));
        }
        visit.path(stored);
    }
    if r.pos != r.bytes.len() {
        return Err(corrupt("path synopsis: trailing bytes after the paths"));
    }
    Ok(SectionHead {
        elements,
        depth_cap: depth_cap as u32,
        truncated,
    })
}

/// Parses (and checksum-verifies) the path-synopsis section. Returns
/// the tag-count synopsis and the dataguide it carries.
fn parse_path_section(bytes: &[u8]) -> Result<(ShardSynopsis, PathSynopsis), StoreError> {
    let mut c = Collect::default();
    let head = walk_path_section(bytes, &mut c)?;
    let tags = c.names.iter().cloned().zip(c.counts);
    let synopsis = ShardSynopsis::from_counts(tags, head.elements);
    let paths = PathSynopsis::from_parts(c.names, c.entries, head.depth_cap, head.truncated);
    Ok((synopsis, paths))
}

/// Peek's visitor of the section walker: owned copies of every field.
#[derive(Default)]
struct Collect {
    names: Vec<Box<str>>,
    counts: Vec<u64>,
    entries: Vec<PathEntry>,
}

impl<'a> SectionVisitor<'a> for Collect {
    fn tags(&mut self, count: usize) {
        self.names.reserve_exact(count);
        self.counts.reserve_exact(count);
    }

    fn tag(&mut self, name: &'a str, count: u64) -> Result<(), StoreError> {
        self.names.push(Box::from(name));
        self.counts.push(count);
        Ok(())
    }

    fn paths(&mut self, count: usize) {
        self.entries.reserve_exact(count);
    }

    fn path(&mut self, path: StoredPath<'a>) {
        self.entries.push(PathEntry {
            steps: path.steps().collect(),
            count: path.count,
            max_tf: path.max_tf,
        });
    }
}

/// Attach's visitor of the section walker: the section must describe
/// the payload it travels with. Its element count is the payload's,
/// and its tags are exactly the payload's tags with postings, in tag-id
/// order, each named as in the tag table and counted as its postings.
/// Allocates nothing.
struct PayloadCheck<'a> {
    tag_offsets: &'a [u32],
    tag_blob: &'a str,
    post_offsets: &'a [u32],
    /// The first payload tag id the merge walk has not passed.
    next: usize,
}

impl PayloadCheck<'_> {
    fn postings(&self, t: usize) -> u64 {
        u64::from(self.post_offsets[t + 1] - self.post_offsets[t])
    }

    /// The first tag at or after `next` that has postings, if any.
    fn next_with_postings(&mut self) -> Option<usize> {
        let tags = self.post_offsets.len() - 1;
        while self.next < tags && self.postings(self.next) == 0 {
            self.next += 1;
        }
        Some(self.next).filter(|&t| t < tags)
    }

    /// Checks `bytes` against the payload in one pass of the walker.
    fn check(mut self, bytes: &[u8], elements: u64) -> Result<(), StoreError> {
        let head = walk_path_section(bytes, &mut self)?;
        if head.elements != elements {
            return Err(corrupt(
                "path synopsis: element count disagrees with header",
            ));
        }
        if self.next_with_postings().is_some() {
            return Err(corrupt("path synopsis: misses a tag with postings"));
        }
        Ok(())
    }
}

impl<'a> SectionVisitor<'a> for PayloadCheck<'_> {
    fn tag(&mut self, name: &'a str, count: u64) -> Result<(), StoreError> {
        let Some(t) = self.next_with_postings() else {
            return Err(corrupt(format!(
                "path synopsis: lists a tag without postings ({name:?})"
            )));
        };
        let payload =
            &self.tag_blob[self.tag_offsets[t] as usize..self.tag_offsets[t + 1] as usize];
        if name != payload {
            return Err(corrupt(format!(
                "path synopsis: lists {name:?} where the next tag with postings is {payload:?}"
            )));
        }
        if count != self.postings(t) {
            return Err(corrupt(format!(
                "path synopsis: tag {name:?} count disagrees with postings"
            )));
        }
        self.next += 1;
        Ok(())
    }
}

/// The size of the writer's one staging buffer. A 13.6 MB file written
/// in 64 KiB pieces attached about 10 % slower than one written in a
/// single `write` on ext4 (smaller page-cache folios, DESIGN §13); in
/// 1 MiB pieces it attached within 2 % of it.
const STAGING: usize = 1 << 20;

/// One section's contents, borrowed from the document or the index.
#[derive(Clone, Copy)]
enum Source<'a> {
    U32s(&'a [u32]),
    U16s(&'a [u16]),
    Bytes(&'a [u8]),
}

impl Source<'_> {
    fn len(self) -> usize {
        match self {
            Source::U32s(v) => 4 * v.len(),
            Source::U16s(v) => 2 * v.len(),
            Source::Bytes(v) => v.len(),
        }
    }
}

/// A file on its way out: bytes are copied into one [`STAGING`]-sized
/// buffer, which is checksummed and written whenever it fills.
struct Staged<'w, W: Write> {
    out: &'w mut W,
    buf: Vec<u8>,
    sum: Checksum,
}

impl<W: Write> Staged<'_, W> {
    fn bytes(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            let take = (STAGING - self.buf.len()).min(bytes.len());
            self.buf.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            self.flush_full()?;
        }
        Ok(())
    }

    /// Appends `values` little-endian, `N` bytes each, a buffer's worth
    /// at a time.
    fn words<T: Copy, const N: usize>(
        &mut self,
        mut values: &[T],
        le: fn(T) -> [u8; N],
    ) -> io::Result<()> {
        while !values.is_empty() {
            // Sections start 8-aligned and the buffer is a multiple of
            // 8, so a word never straddles a flush.
            let take = ((STAGING - self.buf.len()) / N).min(values.len());
            assert!(take > 0, "a section starts 8-aligned");
            let start = self.buf.len();
            self.buf.resize(start + N * take, 0);
            for (dst, &v) in self.buf[start..].chunks_exact_mut(N).zip(&values[..take]) {
                dst.copy_from_slice(&le(v));
            }
            values = &values[take..];
            self.flush_full()?;
        }
        Ok(())
    }

    fn flush_full(&mut self) -> io::Result<()> {
        if self.buf.len() == STAGING {
            self.sum.update(&self.buf);
            self.out.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Writes what is staged and the checksum after it, in one piece: a
    /// file under 1 MiB is written in a single `write`.
    fn finish(mut self) -> io::Result<()> {
        self.sum.update(&self.buf);
        // Everything staged is 8-aligned and a full buffer is flushed at
        // once, so the trailer fits without growing the buffer.
        let sum = self.sum.finish();
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.out.write_all(&self.buf)
    }
}

/// What [`write_snapshot`] lays out: the sections, borrowed, and the
/// encoded synopsis section they end with.
struct Plan<'a> {
    doc: DocView<'a>,
    index: TagIndexView<'a>,
    synopsis: Vec<u8>,
}

impl<'a> Plan<'a> {
    fn new(doc: &'a Document, index: &'a TagIndex) -> Plan<'a> {
        let paths = PathSynopsis::build(doc);
        let (doc, index) = (doc.view(), index.view());
        assert_eq!(
            index.columns().len(),
            doc.len(),
            "index built for a different document"
        );
        let synopsis = encode_path_section(doc, index, &paths);
        Plan {
            doc,
            index,
            synopsis,
        }
    }

    fn sections(&self) -> [Source<'_>; SECTION_COUNT] {
        let (doc, (post_offsets, post_ids)) = (self.doc, self.index.postings_raw());
        [
            Source::U32s(doc.tag_offsets),
            Source::Bytes(doc.tag_blob.as_bytes()),
            Source::U32s(doc.parent),
            Source::U16s(doc.depth),
            Source::U32s(doc.subtree_end),
            Source::U32s(doc.tag_of),
            Source::U32s(post_offsets),
            Source::U32s(post_ids),
            Source::U32s(doc.text_offsets),
            Source::Bytes(doc.text_blob.as_bytes()),
            Source::U32s(doc.attr_offsets),
            Source::U32s(doc.attr_entries),
            Source::Bytes(doc.attr_blob.as_bytes()),
            Source::Bytes(&self.synopsis),
        ]
    }

    /// The file's length, trailing checksum included.
    fn total_len(&self) -> usize {
        let payload = self
            .sections()
            .iter()
            .map(|s| align8(s.len()))
            .sum::<usize>();
        HEADER_LEN + payload + 8
    }

    fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        let sections = self.sections();
        let mut w = Staged {
            out,
            buf: Vec::with_capacity(STAGING),
            sum: Checksum::new(),
        };
        w.bytes(MAGIC)?;
        w.bytes(&SNAPSHOT_VERSION.to_le_bytes())?;
        w.bytes(&(self.doc.len() as u64).to_le_bytes())?;
        w.bytes(&(self.doc.tag_count() as u64).to_le_bytes())?;
        w.bytes(&(self.total_len() as u64).to_le_bytes())?;
        let mut offset = HEADER_LEN;
        for s in sections {
            w.bytes(&(offset as u64).to_le_bytes())?;
            w.bytes(&(s.len() as u64).to_le_bytes())?;
            offset += align8(s.len());
        }
        for s in sections {
            match s {
                Source::U32s(v) => w.words(v, u32::to_le_bytes)?,
                Source::U16s(v) => w.words(v, u16::to_le_bytes)?,
                Source::Bytes(v) => w.bytes(v)?,
            }
            w.bytes(&[0; 7][..align8(s.len()) - s.len()])?;
        }
        w.finish()
    }
}

/// Streams the snapshot of `doc` + `index` to `out`: the header, whose
/// section table follows from the arrays' lengths, then the document's
/// and the index's arrays as they are, then the synopses and the
/// checksum. Every byte passes through one 1 MiB staging buffer, so
/// the writer holds no image of the file.
pub fn write_snapshot(doc: &Document, index: &TagIndex, out: &mut impl Write) -> io::Result<()> {
    Plan::new(doc, index).write_to(out)
}

/// Serializes `doc` + `index` into the snapshot byte layout:
/// [`write_snapshot`] into a `Vec` of exactly the file's length.
pub fn build_snapshot_bytes(doc: &Document, index: &TagIndex) -> Vec<u8> {
    let plan = Plan::new(doc, index);
    let mut out = Vec::with_capacity(plan.total_len());
    plan.write_to(&mut out).expect("writing to a Vec");
    debug_assert_eq!(out.len(), plan.total_len());
    out
}

/// Writes the snapshot of `doc` + `index` to `path`: streamed into a
/// sibling temp file of this writer's own (`<path>.<pid>.<seq>.tmp`,
/// created new), then renamed over `path`. A writer that dies mid-write
/// leaves no truncated snapshot behind; two writers of one path never
/// share a temp file, so each rename publishes a whole file; and a file
/// that is attached elsewhere is replaced, never modified in place,
/// which [`Snapshot::doc_view`] relies on.
pub fn save_snapshot(doc: &Document, index: &TagIndex, path: impl AsRef<Path>) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    tmp.push(format!(".{}.{seq}.tmp", std::process::id()));
    let mut file = OpenOptions::new().write(true).create_new(true).open(&tmp)?;
    let written = write_snapshot(doc, index, &mut file);
    drop(file);
    match written.and_then(|()| std::fs::rename(&tmp, path)) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
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

/// An attached snapshot: validated bytes (memory-mapped or read) and
/// the section layout. [`doc_view`](Snapshot::doc_view) and
/// [`index_view`](Snapshot::index_view) assemble zero-copy views on
/// demand; [`synopses`](Snapshot::synopses) parses the verified
/// synopsis section when a caller wants owned copies.
pub struct Snapshot {
    backing: Backing,
    layout: Layout,
    checksum: u64,
    verification: Option<Verification>,
}

impl Snapshot {
    /// Attaches to a snapshot file: `mmap` where it works, a buffered
    /// read where it does not (off Unix, or when mapping fails). Both
    /// are served from the same page cache, so validation checks the
    /// same bytes either way. Validates the checksum and every
    /// structural invariant before returning, and records the
    /// verification ([`verification`](Snapshot::verification)).
    pub fn attach(path: impl AsRef<Path>) -> Result<Snapshot, StoreError> {
        SnapshotFile::open(path)?.attach(None)
    }

    /// Builds a snapshot from in-memory bytes (copied into aligned
    /// storage) — the in-memory and test entry point.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, StoreError> {
        let backing = Backing::Owned(OwnedBytes::from_slice(bytes));
        let (layout, checksum) = validate(backing.bytes())?;
        Ok(Snapshot {
            backing,
            layout,
            checksum,
            verification: None,
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
        let bytes = self.section(i);
        debug_assert!(std::str::from_utf8(bytes).is_ok());
        // SAFETY: validate() checked these exact bytes as UTF-8 on this
        // attach — a trusted attach skips the checksum, the node walk
        // and the synopsis check, never the UTF-8 check — and the
        // backing is immutable for the snapshot's life: an owned copy
        // never changes, and a mapped file is never modified in place
        // (writers replace it by rename; DESIGN §13).
        unsafe { std::str::from_utf8_unchecked(bytes) }
    }

    fn columns_view(&self) -> ColumnsView<'_> {
        ColumnsView::from_raw(
            self.u32s(SEC_PARENT),
            self.u16s(SEC_DEPTH),
            self.u32s(SEC_SUBTREE_END),
        )
    }

    /// The document view (tags, structure, text, attributes) over the
    /// mapped arrays — the same struct [`Document::view`] returns over
    /// a parsed document.
    pub fn doc_view(&self) -> DocView<'_> {
        DocView {
            tag_offsets: self.u32s(SEC_TAG_OFFSETS),
            tag_blob: self.str_of(SEC_TAG_BLOB),
            tag_of: self.u32s(SEC_TAG_OF),
            parent: self.u32s(SEC_PARENT),
            depth: self.u16s(SEC_DEPTH),
            subtree_end: self.u32s(SEC_SUBTREE_END),
            text_offsets: self.u32s(SEC_TEXT_OFFSETS),
            text_blob: self.str_of(SEC_TEXT_BLOB),
            attr_offsets: self.u32s(SEC_ATTR_OFFSETS),
            attr_entries: self.u32s(SEC_ATTR_ENTRIES),
            attr_blob: self.str_of(SEC_ATTR_BLOB),
        }
    }

    /// The index view (postings, structural columns)
    /// over the mapped arrays — the same struct
    /// [`TagIndex::view`] returns over an in-memory index.
    pub fn index_view(&self) -> TagIndexView<'_> {
        TagIndexView::from_raw(
            self.columns_view(),
            self.u32s(SEC_POST_OFFSETS),
            self.u32s(SEC_POST_IDS),
        )
    }

    /// The stored tag-count synopsis and path synopsis (dataguide),
    /// parsed from the synopsis section attach verified. Each call
    /// parses anew: a collection visit never needs them, since a lazy
    /// shard keeps the ones [`peek`](Snapshot::peek) read.
    pub fn synopses(&self) -> (ShardSynopsis, PathSynopsis) {
        parse_path_section(self.section(SEC_PATH_SYNOPSIS)).expect(
            "a full verification of this file checked the synopsis section, \
             and the backing is immutable",
        )
    }

    /// The whole-file checksum attach verified: the file's trailer,
    /// equal to the checksum of every byte before it (on a trusted
    /// attach, equal to the checksum its record verified).
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// The record of the full verification this attach ran on a file,
    /// for a later attach of the same file to trust
    /// ([`SnapshotFile::attach`]). `None` for a trusted attach, for
    /// [`from_bytes`](Snapshot::from_bytes), and off Unix, where a
    /// file has no identity to record.
    pub fn verification(&self) -> Option<Verification> {
        self.verification
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
        // The synopsis section is the last one (`section_table`
        // checked that its padding ends where the file's checksum
        // starts), so one read takes both.
        file.seek(SeekFrom::Start(off as u64))?;
        let mut tail = vec![0u8; file_len - off];
        file.read_exact(&mut tail)?;
        let (synopsis, paths) = parse_path_section(&tail[..len])?;
        Ok(SnapshotPeek {
            synopsis,
            paths,
            checksum: read_u64_at(&tail, tail.len() - 8),
        })
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
    /// The whole-file checksum stored in the file's 8-byte trailer, not
    /// verified by the peek. A later attach of the same file verifies
    /// it and reports it as [`Snapshot::checksum`]; a caller that
    /// compares the two knows the payload is the file it peeked.
    pub checksum: u64,
}

// -----------------------------------------------------------------------
// Verify once per file identity
// -----------------------------------------------------------------------

/// How long before a full verification a file must last have changed
/// (its `ctime`) for the verification's record to be trusted. File
/// times come from a coarse clock (4 ms steps on Linux at 250 Hz), so a
/// write in the same tick as the file's last change can leave its
/// identity as it was: git's "racy clean" problem
/// (<https://git-scm.com/docs/racy-git>). A change after a verification
/// that started more than a few ticks after the file's `ctime` moves
/// the `ctime`.
pub const TRUST_MARGIN: Duration = Duration::from_millis(100);

/// [`TRUST_MARGIN`] on a file system that keeps whole seconds: a
/// `ctime` whose sub-second part is zero is taken to be one.
pub const WHOLE_SECOND_TRUST_MARGIN: Duration = Duration::from_secs(2);

/// A file's identity as `fstat` reports it: device, inode, size, and
/// modification and status-change times to the nanosecond. Every writer
/// in this repository renames a fresh file over its target, which
/// changes the inode; a write in place changes `ctime` or the size,
/// and unprivileged code cannot set `ctime` back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileIdentity {
    dev: u64,
    ino: u64,
    size: u64,
    mtime: (i64, i64),
    ctime: (i64, i64),
}

impl FileIdentity {
    #[cfg(unix)]
    fn of(meta: &std::fs::Metadata) -> Option<FileIdentity> {
        use std::os::unix::fs::MetadataExt;
        Some(FileIdentity {
            dev: meta.dev(),
            ino: meta.ino(),
            size: meta.size(),
            mtime: (meta.mtime(), meta.mtime_nsec()),
            ctime: (meta.ctime(), meta.ctime_nsec()),
        })
    }

    /// Off Unix a file has no identity here, so every attach verifies
    /// in full.
    #[cfg(not(unix))]
    fn of(_meta: &std::fs::Metadata) -> Option<FileIdentity> {
        None
    }
}

/// The record of one full verification of a snapshot file: the
/// identity the opened file had, the checksum verified, and when the
/// verification started. A later attach of a file with the same
/// identity may trust it ([`SnapshotFile::attach`]) once the file's
/// `ctime` is older than the verification's start by more than
/// [`TRUST_MARGIN`] ([`vouches_for`](Verification::vouches_for)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verification {
    identity: FileIdentity,
    checksum: u64,
    started: SystemTime,
}

impl Verification {
    /// The whole-file checksum this verification computed.
    fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Whether the record may vouch for its file at all: the file's
    /// `ctime` is older than the start of the verification by more
    /// than [`TRUST_MARGIN`] ([`WHOLE_SECOND_TRUST_MARGIN`] when the
    /// `ctime` has no sub-second part). A record made inside the margin
    /// is not trusted; the next attach verifies the file again and
    /// records it again.
    fn is_trusted(&self) -> bool {
        let Ok(started) = self.started.duration_since(UNIX_EPOCH) else {
            return false;
        };
        let (secs, nanos) = self.identity.ctime;
        let ctime = i128::from(secs) * 1_000_000_000 + i128::from(nanos);
        started.as_nanos() as i128 - ctime > self.margin().as_nanos() as i128
    }

    /// The margin that applies to the recorded `ctime`.
    fn margin(&self) -> Duration {
        if self.identity.ctime.1 == 0 {
            WHOLE_SECOND_TRUST_MARGIN
        } else {
            TRUST_MARGIN
        }
    }

    /// Whether this record vouches for `file`: it is trusted, and the
    /// opened file has the identity the verified one had.
    pub fn vouches_for(&self, file: &SnapshotFile) -> bool {
        self.is_trusted() && file.identity == Some(self.identity)
    }
}

/// A snapshot file opened for attaching: the open file and the
/// identity its `fstat` reported. [`Snapshot::attach`] is
/// `SnapshotFile::open(path)?.attach(None)`; a caller that keeps the
/// [`Verification`] of an earlier attach passes it back to skip the
/// expensive checks on a file it vouches for.
pub struct SnapshotFile {
    file: std::fs::File,
    len: usize,
    identity: Option<FileIdentity>,
    opened: SystemTime,
}

impl SnapshotFile {
    /// Opens the file at `path` and `fstat`s the open file.
    pub fn open(path: impl AsRef<Path>) -> Result<SnapshotFile, StoreError> {
        let file = std::fs::File::open(path)?;
        // Read before the fstat, so a change the verification could
        // miss happened after this instant and moved the `ctime`.
        let opened = SystemTime::now();
        let meta = file.metadata()?;
        let len =
            usize::try_from(meta.len()).map_err(|_| corrupt("file too large for this platform"))?;
        Ok(SnapshotFile {
            file,
            len,
            identity: FileIdentity::of(&meta),
            opened,
        })
    }

    /// Maps the file (or reads it where mapping fails) and validates
    /// it. If `record` [vouches for](Verification::vouches_for) the
    /// file, the validation trusts it: the file's trailer must equal
    /// the recorded checksum, and the whole-file checksum, the node
    /// walk and the synopsis check are skipped. Every check the mapped
    /// accessors' memory safety needs still runs: header, section
    /// table and shapes, UTF-8 of the three blobs, offsets and
    /// attribute spans. Otherwise the file is verified in full and the
    /// snapshot carries the new record ([`Snapshot::verification`]).
    pub fn attach(mut self, record: Option<&Verification>) -> Result<Snapshot, StoreError> {
        let trusted = record
            .filter(|r| r.vouches_for(&self))
            .map(Verification::checksum);
        let backing = match Mapping::map(&self.file, self.len) {
            Ok(m) => Backing::Mapped(m),
            Err(_) => Backing::Owned(OwnedBytes::read_from(&mut self.file, self.len)?),
        };
        let (layout, checksum) = validate_trusting(backing.bytes(), trusted)?;
        let verification = match trusted {
            Some(_) => None,
            None => self.identity.map(|identity| Verification {
                identity,
                checksum,
                started: self.opened,
            }),
        };
        Ok(Snapshot {
            backing,
            layout,
            checksum,
            verification,
        })
    }
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
    // A branch-free fold the compiler can vectorize; monotone from 0 to
    // `end` also puts every offset inside the blob.
    let descends = (offsets.iter().zip(&offsets[1..])).fold(false, |d, (a, b)| d | (a > b));
    if descends {
        return Err(corrupt(format!("{what}: offsets must be nondecreasing")));
    }
    // Every index of an ASCII blob is a char boundary.
    if let Some(blob) = blob.filter(|b| !b.is_ascii()) {
        if let Some(o) = offsets
            .iter()
            .find(|&&o| !blob.is_char_boundary(o as usize))
        {
            return Err(corrupt(format!("{what}: offset {o} splits a UTF-8 char")));
        }
    }
    Ok(())
}

fn utf8<'a>(bytes: &'a [u8], what: &str) -> Result<&'a str, StoreError> {
    std::str::from_utf8(bytes).map_err(|_| corrupt(format!("{what} is not valid UTF-8")))
}

/// Full attach-time validation: [`validate_trusting`] trusting nothing.
fn validate(bytes: &[u8]) -> Result<(Layout, u64), StoreError> {
    validate_trusting(bytes, None)
}

/// Attach-time validation. Returns the section layout and the verified
/// whole-file checksum only if the file is byte-exact (checksum) *and*
/// structurally sound, so the mapped accessors can index without
/// bounds surprises.
///
/// `trusted` is the checksum of an earlier full verification of this
/// very file, proven unchanged by its identity ([`Verification`]).
/// With it, the same checks run in the same order except three blocks:
/// the trailer is compared with `trusted` instead of a recomputed
/// checksum, and the node walk and the synopsis check are skipped.
/// What remains is what the mapped accessors' memory safety rests on.
fn validate_trusting(bytes: &[u8], trusted: Option<u64>) -> Result<(Layout, u64), StoreError> {
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
    let expected = trusted.unwrap_or_else(|| checksum(&bytes[..total_len - 8]));
    if stored != expected {
        return Err(corrupt(format!(
            "checksum mismatch: stored {stored:#x}, expected {expected:#x}"
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
    let tag_blob = utf8(sec(SEC_TAG_BLOB), "tag blob")?;
    let text_blob = utf8(sec(SEC_TEXT_BLOB), "text blob")?;
    let attr_blob = utf8(sec(SEC_ATTR_BLOB), "attribute blob")?;

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

    // One node walk: parents precede children, depths chain, extents
    // nest, `tag_of[i]` is in range, and node i is the next unread
    // posting of its tag. The n−1 nodes read n−1 postings, none past
    // its tag's span, and the spans (offsets 0 → n−1) hold n−1 ids: so
    // every posting is read once, in node order. The walk accepts
    // exactly the files whose per-tag lists are strictly ascending ids
    // in [1, n) that agree with `tag_of`. A trusted attach skips it:
    // the walk vouches for content, not for memory safety (the views
    // index these arrays with bounds checks), and the content is the
    // one a full verification walked.
    let parent = u32s(SEC_PARENT);
    let depth = {
        let b = sec(SEC_DEPTH);
        // SAFETY: as u32s above, length 2n checked.
        unsafe { std::slice::from_raw_parts(b.as_ptr().cast::<u16>(), b.len() / 2) }
    };
    let subtree_end = u32s(SEC_SUBTREE_END);
    let tag_of = u32s(SEC_TAG_OF);
    let post_offsets = u32s(SEC_POST_OFFSETS);
    let post_ids = u32s(SEC_POST_IDS);
    let root_tag_ok = (tag_of[0] as usize) < tag_count;
    if parent[0] != NO_PARENT || depth[0] != 0 || subtree_end[0] as usize != n || !root_tag_ok {
        return Err(corrupt("root row must be (no parent, depth 0, extent n)"));
    }
    if trusted.is_none() {
        let mut cursor = post_offsets[..tag_count].to_vec();
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
            let t = tag_of[i] as usize;
            if t >= tag_count {
                return Err(corrupt("tag-of column references a tag out of range"));
            }
            let c = cursor[t] as usize;
            if c >= post_offsets[t + 1] as usize || post_ids[c] as usize != i {
                return Err(corrupt(format!(
                    "node {i}: postings for tag {t} disagree with tag-of"
                )));
            }
            cursor[t] += 1;
        }
    }

    // Attribute entries: names in range, contiguous value spans.
    let attr_entries = u32s(SEC_ATTR_ENTRIES);
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
            .filter(|&e| e <= attr_blob.len())
            .ok_or_else(|| corrupt("attribute value span out of bounds"))?;
        if !attr_blob.is_char_boundary(off) || !attr_blob.is_char_boundary(end) {
            return Err(corrupt("attribute value span splits a UTF-8 char"));
        }
        attr_cursor = end;
    }
    if attr_cursor != attr_blob.len() {
        return Err(corrupt("attribute blob not fully covered by entries"));
    }

    // The stored synopses must pass their own checksum and the
    // format's checks, and list exactly the tags with postings, in
    // tag-id order, each with its posting count — a ceiling or idf
    // computed from the section can then never contradict the payload
    // it summarizes. Skipped by a trusted attach, as the walk is.
    if trusted.is_none() {
        let (off, len) = sections[SEC_PATH_SYNOPSIS];
        PayloadCheck {
            tag_offsets: u32s(SEC_TAG_OFFSETS),
            tag_blob,
            post_offsets,
            next: 0,
        }
        .check(&bytes[off..off + len], (n - 1) as u64)?;
    }

    let layout = Layout {
        n,
        tag_count,
        sections,
    };
    Ok((layout, stored))
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
        // The mapped document and index are the in-memory ones, array
        // for array.
        assert_eq!(dv, doc.view());
        assert_eq!(iv, index.view());

        let (a, b) = (dv.tag_id("a").unwrap(), dv.tag_id("b").unwrap());
        for node in doc.all_nodes() {
            assert_eq!(dv.tag_str(node), doc.tag_str(node));
            assert_eq!(dv.text(node), doc.text(node));
            assert_eq!(dv.attribute(node, a), doc.attribute(node, "a"));
            assert_eq!(dv.attribute(node, b), doc.attribute(node, "b"));
            assert_eq!(dv.depth(node), doc.depth(node));
        }
        let t = doc.tag_id("t").unwrap();
        assert_eq!(dv.tag_id("t"), Some(t));
    }

    #[test]
    fn synopsis_matches_a_fresh_build() {
        let (doc, _, bytes) = snapshot_of("<r><a><b/><b/></a><c>t</c></r>");
        let (stored, paths) = Snapshot::from_bytes(&bytes).unwrap().synopses();
        let fresh = ShardSynopsis::build(&doc);
        assert_eq!(stored.elements(), fresh.elements());
        assert_eq!(stored.distinct_tags(), fresh.distinct_tags());
        for (tag, count) in fresh.tags() {
            assert_eq!(stored.tag_count(tag), count, "{tag}");
        }
        assert_eq!(paths, PathSynopsis::build(&doc));
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
        let path = dir.join("doc.wps");
        save_snapshot(&doc, &index, &path).unwrap();
        assert_eq!(crate::store_version(&path), Some(SNAPSHOT_VERSION));
        let snap = Snapshot::attach(&path).unwrap();
        assert_eq!(snap.node_count(), doc.len());

        // Version 2 (the layout without the synopsis section), version
        // 3 (this layout under a serial FNV checksum) and version 4
        // (this layout plus the value-posting sections) are recognised
        // and refused, by attach and peek alike.
        for retired in [2u8, 3, 4] {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[4] = retired;
            let old_path = dir.join(format!("doc-v{retired}.wps"));
            std::fs::write(&old_path, &bytes).unwrap();
            let v = u32::from(retired);
            assert_eq!(crate::store_version(&old_path), Some(v));
            assert!(matches!(
                Snapshot::attach(&old_path),
                Err(StoreError::UnsupportedVersion(got)) if got == v
            ));
            assert!(matches!(
                Snapshot::peek(&old_path),
                Err(StoreError::UnsupportedVersion(got)) if got == v
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two writers of one path, 50 times over: each rename publishes a
    /// whole file of one of them, and no temp file is left behind.
    #[test]
    fn writers_of_one_path_never_share_a_temp_file() {
        use whirlpool_xmark::{generate, GeneratorConfig};
        let dir = std::env::temp_dir().join(format!("wpl-writers-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.wps");
        let docs = [1, 2].map(|seed| {
            let doc = generate(&GeneratorConfig::items(150).with_seed(seed));
            let index = TagIndex::build(&doc);
            (doc, index)
        });
        let images: Vec<Vec<u8>> = (docs.iter())
            .map(|(doc, index)| build_snapshot_bytes(doc, index))
            .collect();
        assert_ne!(images[0], images[1]);
        let start = std::sync::Barrier::new(docs.len());
        for round in 0..50 {
            std::thread::scope(|s| {
                for (doc, index) in &docs {
                    s.spawn(|| {
                        start.wait();
                        save_snapshot(doc, index, &path).unwrap()
                    });
                }
            });
            let bytes = std::fs::read(&path).unwrap();
            assert!(images.contains(&bytes), "round {round}: a torn file");
            Snapshot::attach(&path).unwrap();
            let names: Vec<_> = (std::fs::read_dir(&dir).unwrap())
                .map(|e| e.unwrap().file_name())
                .collect();
            assert_eq!(names, ["doc.wps"], "round {round}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
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
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg(unix)]
    fn a_record_vouches_only_for_its_unchanged_file_outside_the_margin() {
        let dir = std::env::temp_dir().join(format!("wpl-trust-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.wps");
        let (doc, index, _) = snapshot_of("<r><t>x</t><t>é</t></r>");
        save_snapshot(&doc, &index, &path).unwrap();

        // Verified at once: the file changed inside the margin.
        let fresh = Snapshot::attach(&path).unwrap().verification().unwrap();
        assert!(!fresh.is_trusted());
        assert!(!fresh.vouches_for(&SnapshotFile::open(&path).unwrap()));
        std::thread::sleep(fresh.margin() + Duration::from_millis(20));
        let record = Snapshot::attach(&path).unwrap().verification().unwrap();
        assert!(record.is_trusted());
        assert_eq!(record.checksum(), fresh.checksum());

        // A trusted attach serves the same views and makes no record.
        let file = SnapshotFile::open(&path).unwrap();
        assert!(record.vouches_for(&file));
        let trusted = file.attach(Some(&record)).unwrap();
        assert!(trusted.verification().is_none());
        assert_eq!(trusted.checksum(), record.checksum());
        assert!(trusted.doc_view() == doc.view());

        // The same bytes renamed over the path are another identity,
        // verified in full.
        save_snapshot(&doc, &index, &path).unwrap();
        let file = SnapshotFile::open(&path).unwrap();
        assert!(!record.vouches_for(&file));
        assert!(file.attach(Some(&record)).unwrap().verification().is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trusted_validation_keeps_the_memory_safety_checks() {
        let trailer = |bytes: &[u8]| read_u64_at(bytes, bytes.len() - 8);
        let (_, _, clean) = snapshot_of("<r><a>é</a><b>xy</b></r>");
        assert!(validate_trusting(&clean, Some(trailer(&clean))).is_ok());
        // The trailer must be the checksum the record verified.
        assert!(validate_trusting(&clean, Some(trailer(&clean) ^ 1)).is_err());
        // Offsets and UTF-8 are checked on every attach.
        let split = forge(&clean, |s| set_u32(&mut s[SEC_TEXT_OFFSETS], 3, 1));
        assert!(validate_trusting(&split, Some(trailer(&split))).is_err());
        let not_utf8 = forge(&clean, |s| s[SEC_TEXT_BLOB][0] = 0xff);
        assert!(validate_trusting(&not_utf8, Some(trailer(&not_utf8))).is_err());
        // The node walk is not: it vouches for content a full
        // verification already walked.
        let retagged = forge(&clean, |s| {
            let (a, b) = (get_u32(&s[SEC_TAG_OF], 2), get_u32(&s[SEC_TAG_OF], 3));
            set_u32(&mut s[SEC_TAG_OF], 2, b);
            set_u32(&mut s[SEC_TAG_OF], 3, a);
        });
        assert_corrupt(&retagged, "postings disagree with tag-of");
        assert!(validate_trusting(&retagged, Some(trailer(&retagged))).is_ok());
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

        // Attach agrees with peek, on the synopses and on the checksum
        // it verified.
        let snap = Snapshot::attach(&path).unwrap();
        assert_eq!(snap.synopses().1, paths);
        assert_eq!(snap.checksum(), peek.checksum);

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

    /// Splits `bytes` into its sections, lets `edit` change them, and
    /// lays the file out again: new section table, file length and
    /// checksum, header counts kept. A forgery made this way passes the
    /// checksum and reaches the structural checks behind it.
    fn forge(bytes: &[u8], edit: impl FnOnce(&mut [Vec<u8>])) -> Vec<u8> {
        let (layout, ..) = validate(bytes).unwrap();
        let mut sections: Vec<Vec<u8>> = (layout.sections.iter())
            .map(|&(off, len)| bytes[off..off + len].to_vec())
            .collect();
        edit(&mut sections);
        let mut out = bytes[..HEADER_LEN].to_vec();
        for (i, section) in sections.iter().enumerate() {
            let (off, len) = (out.len() as u64, section.len() as u64);
            out[32 + i * 16..40 + i * 16].copy_from_slice(&off.to_le_bytes());
            out[40 + i * 16..48 + i * 16].copy_from_slice(&len.to_le_bytes());
            out.extend_from_slice(section);
            out.resize(align8(out.len()), 0);
        }
        let total_len = (out.len() + 8) as u64;
        out[24..32].copy_from_slice(&total_len.to_le_bytes());
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    fn get_u32(section: &[u8], i: usize) -> u32 {
        u32::from_le_bytes(section[4 * i..4 * i + 4].try_into().unwrap())
    }

    fn set_u32(section: &mut [u8], i: usize, v: u32) {
        section[4 * i..4 * i + 4].copy_from_slice(&v.to_le_bytes());
    }

    fn assert_corrupt(bytes: &[u8], case: &str) {
        match Snapshot::from_bytes(bytes) {
            Err(StoreError::Corrupt(_)) => {}
            Err(e) => panic!("{case}: expected Corrupt, got {e}"),
            Ok(_) => panic!("{case}: attached"),
        }
    }

    #[test]
    fn a_stored_tag_without_postings_fails_attach() {
        let (_, _, clean) = snapshot_of("<shelf><book><isbn>1</isbn></book></shelf>");
        assert_eq!(
            forge(&clean, |_| {}),
            clean,
            "an empty edit is the identity"
        );
        let (layout, ..) = validate(&clean).unwrap();
        let (off, len) = layout.sections[SEC_PATH_SYNOPSIS];
        let stored = &clean[off..off + len];

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
        let sum = checksum(&forged);
        forged.extend_from_slice(&sum.to_le_bytes());

        let err = Snapshot::from_bytes(&forge(&clean, |s| s[SEC_PATH_SYNOPSIS] = forged))
            .err()
            .expect("a tag without postings must not attach");
        assert!(err.to_string().contains("without postings"), "{err}");
    }

    /// The path-synopsis section, decoded for editing.
    struct Section {
        elements: u64,
        tags: Vec<(u64, String)>,
        depth_cap: u64,
        truncated: u64,
        paths: Vec<(u64, u64, Vec<u32>)>,
    }

    fn decode_section(bytes: &[u8]) -> Section {
        let mut r = SectionReader {
            bytes: &bytes[..bytes.len() - 8],
            pos: 0,
        };
        let u64_of = |r: &mut SectionReader| r.u64().unwrap();
        let elements = u64_of(&mut r);
        let tags = (0..u64_of(&mut r))
            .map(|_| {
                let count = u64_of(&mut r);
                let len = u64_of(&mut r) as usize;
                (count, r.str_of(len, "name").unwrap().to_string())
            })
            .collect();
        let (depth_cap, truncated) = (u64_of(&mut r), u64_of(&mut r));
        let paths = (0..u64_of(&mut r))
            .map(|_| {
                let (count, max_tf, nsteps) = (u64_of(&mut r), u64_of(&mut r), u64_of(&mut r));
                let steps = r.take(4 * nsteps as usize, "steps").unwrap();
                let steps = (0..nsteps as usize).map(|i| get_u32(steps, i)).collect();
                (count, max_tf, steps)
            })
            .collect();
        assert_eq!(r.pos, r.bytes.len(), "the checksum follows the paths");
        Section {
            elements,
            tags,
            depth_cap,
            truncated,
            paths,
        }
    }

    fn encode_section(s: &Section) -> Vec<u8> {
        let mut out = Vec::new();
        let put = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
        put(&mut out, s.elements);
        put(&mut out, s.tags.len() as u64);
        for (count, name) in &s.tags {
            put(&mut out, *count);
            put(&mut out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
        }
        for v in [s.depth_cap, s.truncated, s.paths.len() as u64] {
            put(&mut out, v);
        }
        for (count, max_tf, steps) in &s.paths {
            for v in [*count, *max_tf, steps.len() as u64] {
                put(&mut out, v);
            }
            for step in steps {
                out.extend_from_slice(&step.to_le_bytes());
            }
        }
        let sum = checksum(&out);
        put(&mut out, sum);
        out
    }

    /// [`forge`] with an edit to the decoded synopsis section, which is
    /// re-encoded under a fresh section checksum.
    fn forge_section(bytes: &[u8], edit: impl FnOnce(&mut Section)) -> Vec<u8> {
        forge(bytes, |s| {
            let mut section = decode_section(&s[SEC_PATH_SYNOPSIS]);
            edit(&mut section);
            s[SEC_PATH_SYNOPSIS] = encode_section(&section);
        })
    }

    /// Synopsis sections that contradict their payload or the format,
    /// behind a valid section checksum and a valid file checksum: every
    /// case fails attach.
    #[test]
    fn forged_synopsis_sections_fail_attach() {
        // Tags with postings, in tag-id order: r, a, c, b.
        let (_, _, clean) = snapshot_of("<r><a><c/></a><b/><a><c/></a></r>");
        assert_eq!(
            forge_section(&clean, |_| {}),
            clean,
            "decode/encode is the identity"
        );
        let listed = |s: &Section| -> Vec<(u64, String)> { s.tags.clone() };
        let cases: Vec<(&str, Vec<u8>)> = vec![
            (
                "tags out of tag-id order, counts kept",
                forge_section(&clean, |s| {
                    assert_eq!(
                        listed(s),
                        [(1, "r"), (2, "a"), (2, "c"), (1, "b")].map(|(c, n)| (c, n.to_string()))
                    );
                    s.tags.swap(1, 2);
                }),
            ),
            (
                "a name that is not the payload's",
                forge_section(&clean, |s| s.tags[3].1 = "d".into()),
            ),
            (
                "a count off by one",
                forge_section(&clean, |s| s.tags[1].0 += 1),
            ),
            (
                "an extra tag between two listed ones",
                forge_section(&clean, |s| s.tags.insert(2, (1, "ghost".into()))),
            ),
            (
                "a tag with postings left out",
                forge_section(&clean, |s| {
                    s.tags.pop();
                    s.paths.retain(|(_, _, steps)| !steps.contains(&3));
                }),
            ),
            (
                "a path longer than its depth cap",
                forge_section(&clean, |s| {
                    assert!(s.paths.iter().any(|(_, _, steps)| steps.len() == 3));
                    s.depth_cap = 2;
                }),
            ),
            (
                "a depth cap above the matcher's width",
                forge_section(&clean, |s| s.depth_cap = MAX_PATH_STEPS as u64 + 1),
            ),
            (
                "an element count off by one",
                forge_section(&clean, |s| s.elements += 1),
            ),
        ];
        for (case, bytes) in &cases {
            assert_corrupt(bytes, case);
        }
        // Peek reads the section alone: it refuses the two edits the
        // format itself rules out and passes the rest.
        let dir = std::env::temp_dir().join(format!("wpl-forged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (i, (case, bytes)) in cases.iter().enumerate() {
            let path = dir.join(format!("case-{i}.wps"));
            std::fs::write(&path, bytes).unwrap();
            assert_eq!(
                Snapshot::peek(&path).is_ok(),
                !(5..7).contains(&i),
                "{case}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Postings and `tag_of` that disagree, behind a valid checksum:
    /// every case fails the node walk.
    #[test]
    fn forged_postings_and_tags_fail_the_node_walk() {
        // Nodes: 0 root, 1 r, 2 a, 3 b, 4 a, 5 c, 6 a.
        let (doc, _, clean) = snapshot_of("<r><a/><b/><a/><c/><a/></r>");
        let (n, tags) = (doc.len() as u32, doc.view().tag_count() as u32);
        let tag = |name: &str| doc.tag_id(name).unwrap().index();
        let (a, b, c) = (tag("a"), tag("b"), tag("c"));
        assert_eq!(c as u32, tags - 1, "c is the last tag");
        let (layout, ..) = validate(&clean).unwrap();
        let (off, _) = layout.sections[SEC_POST_OFFSETS];
        let first_a = get_u32(&clean[off..], a) as usize;
        let first_b = get_u32(&clean[off..], b) as usize;
        let a_ids = |s: &mut [Vec<u8>]| -> Vec<u32> {
            (0..3)
                .map(|k| get_u32(&s[SEC_POST_IDS], first_a + k))
                .collect()
        };
        let set_a_ids = |s: &mut [Vec<u8>], ids: [u32; 3]| {
            for (k, id) in ids.into_iter().enumerate() {
                set_u32(&mut s[SEC_POST_IDS], first_a + k, id);
            }
        };

        let cases: Vec<(&str, Vec<u8>)> = vec![
            (
                "a node missing from its tag's postings",
                forge(&clean, |s| {
                    assert_eq!(a_ids(s), [2, 4, 6]);
                    set_a_ids(s, [2, 4, n]);
                }),
            ),
            (
                "a posting listed under the wrong tag, counts kept",
                forge(&clean, |s| {
                    assert_eq!(get_u32(&s[SEC_POST_IDS], first_b), 3);
                    set_a_ids(s, [2, 3, 6]);
                    set_u32(&mut s[SEC_POST_IDS], first_b, 4);
                }),
            ),
            (
                "a node retagged past the last tag's postings",
                forge(&clean, |s| set_u32(&mut s[SEC_TAG_OF], 6, c as u32)),
            ),
            (
                "two postings swapped",
                forge(&clean, |s| set_a_ids(s, [4, 2, 6])),
            ),
            (
                "a duplicate posting",
                forge(&clean, |s| set_a_ids(s, [2, 2, 6])),
            ),
            (
                "a tag-of entry out of range",
                forge(&clean, |s| set_u32(&mut s[SEC_TAG_OF], 3, tags)),
            ),
            (
                "the root's tag out of range",
                forge(&clean, |s| set_u32(&mut s[SEC_TAG_OF], 0, tags)),
            ),
        ];
        for (case, bytes) in &cases {
            assert_corrupt(bytes, case);
        }
    }

    /// Text offsets that descend or split a character, behind a valid
    /// checksum, fail attach.
    #[test]
    fn forged_text_offsets_fail_attach() {
        // ASCII text: nodes 0 root, 1 r, 2 a "xy", 3 b "zw", 4 c "v".
        let (_, _, ascii) = snapshot_of("<r><a>xy</a><b>zw</b><c>v</c></r>");
        let offsets = |s: &[Vec<u8>]| -> Vec<u32> {
            (0..6).map(|i| get_u32(&s[SEC_TEXT_OFFSETS], i)).collect()
        };
        let swapped = forge(&ascii, |s| {
            assert_eq!(offsets(s), [0, 0, 0, 2, 4, 5]);
            set_u32(&mut s[SEC_TEXT_OFFSETS], 3, 4);
            set_u32(&mut s[SEC_TEXT_OFFSETS], 4, 2);
        });
        assert_corrupt(&swapped, "decreasing text offsets");
        let past_end = forge(&ascii, |s| set_u32(&mut s[SEC_TEXT_OFFSETS], 3, 6));
        assert_corrupt(&past_end, "a text offset past the blob, then a descent");

        // "é" is two bytes: offset 1 falls inside it.
        let (_, _, multibyte) = snapshot_of("<r><a>é</a><b>xy</b></r>");
        let split = forge(&multibyte, |s| {
            assert_eq!(get_u32(&s[SEC_TEXT_OFFSETS], 3), 2);
            set_u32(&mut s[SEC_TEXT_OFFSETS], 3, 1);
        });
        assert_corrupt(&split, "a text offset inside a multi-byte char");
    }

    #[test]
    fn checksum_sees_every_lane_the_tail_order_and_length() {
        // 13 words (three 4-lane blocks and one word into lane 0) and a
        // 5-byte tail.
        let base: Vec<u8> = (0..13 * 8 + 5).map(|i| (i * 37 + 11) as u8).collect();
        let sum = checksum(&base);
        // Words 4–7 sit in lanes 0–3, word 12 in the remainder.
        let lane_bits = [4, 5, 6, 7, 12]
            .into_iter()
            .flat_map(|w| w * 64..w * 64 + 64);
        let tail_bits = 13 * 64..13 * 64 + 40;
        for bit in lane_bits.chain(tail_bits) {
            let mut flipped = base.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&flipped), sum, "bit {bit}");
        }
        let mut swapped = base.clone();
        swapped[40..56].rotate_left(8);
        assert_ne!(swapped, base);
        assert_ne!(checksum(&swapped), sum, "adjacent words swapped");
        let words = &base[..13 * 8];
        let mut appended = words.to_vec();
        appended.extend_from_slice(&[0; 8]);
        assert_ne!(checksum(&appended), checksum(words), "a zero word appended");
    }

    /// The one-shot checksum as it was before the streaming state: the
    /// oracle of `streaming_checksum_equals_the_one_shot`.
    fn one_shot(bytes: &[u8]) -> u64 {
        let mut lanes = [FNV_OFFSET; 4];
        let mut blocks = bytes.chunks_exact(32);
        for block in &mut blocks {
            for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = fnv(*lane, word(w));
            }
        }
        let mut words = blocks.remainder().chunks_exact(8);
        for (lane, w) in lanes.iter_mut().zip(&mut words) {
            *lane = fnv(*lane, word(w));
        }
        for &b in words.remainder() {
            lanes[0] = fnv(lanes[0], u64::from(b));
        }
        (lanes.into_iter())
            .chain([bytes.len() as u64])
            .fold(FNV_OFFSET, fnv)
    }

    #[test]
    fn streaming_checksum_equals_the_one_shot() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for len in 0..=200 {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                })
                .collect();
            let want = one_shot(&bytes);
            assert_eq!(checksum(&bytes), want, "{len} bytes fed once");
            // Every split point, an empty update between the pieces,
            // and a third piece on a stride: pieces that end mid-word
            // and mid-block, and pending tails that fill up.
            for i in 0..=len {
                for j in (i..=len).step_by(13).chain([len]) {
                    let mut sum = Checksum::new();
                    sum.update(&bytes[..i]);
                    sum.update(&[]);
                    sum.update(&bytes[i..j]);
                    sum.update(&bytes[j..]);
                    assert_eq!(sum.finish(), want, "{len} bytes split at {i}, {j}");
                }
            }
        }
    }

    #[test]
    fn empty_document_snapshots() {
        let doc = Document::new();
        let index = TagIndex::build(&doc);
        let bytes = build_snapshot_bytes(&doc, &index);
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.node_count(), 1);
        assert!(snap.doc_view().is_empty());
        assert_eq!(snap.synopses().0.elements(), 0);
    }
}
