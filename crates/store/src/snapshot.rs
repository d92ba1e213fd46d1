//! The **snapshot** format: the whole query-time state of a document —
//! tag table, structural columns, tag postings, text and attribute
//! payloads, and its tag-count synopsis — flattened into
//! little-endian, 8-byte aligned arrays that an engine can use
//! *directly out of a memory mapping*. Attaching costs a header parse
//! plus linear validation passes (checksum + structural checks over
//! flat integer arrays), never an XML parse or an index build.
//!
//! # Layout (version 6, little-endian, all sections 8-byte aligned)
//!
//! ```text
//! 0    magic      "WPLX"                      4 bytes
//! 4    version    u32 = 6                     4 bytes
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
//!        9  text_blob     UTF-8 (read as bytes)
//!        10 attr_offsets  u32[n+1]   entry (not byte) offsets
//!        11 attr_entries  u32[3·A]   (name_tag, val_off, val_len)
//!        12 attr_blob     UTF-8 (read as bytes)
//!        13 synopsis      the tag counts (below)
//! end-8 checksum  u64  `checksum` of the preceding bytes: four FNV-1a
//!                 lanes over little-endian u64 words, folded with the
//!                 byte length
//! ```
//!
//! # The synopsis section
//!
//! Section 13 holds the tag-count [`ShardSynopsis`] in a
//! *self-contained, self-checksummed* byte stream:
//!
//! ```text
//! 13 synopsis        u64 elements
//!                    u64 tag count T'   (tags with ≥1 element)
//!                    T' × { u64 count, u64 name_len, UTF-8 name }
//!                         in tag-id order
//!                    u64 `checksum` of the preceding section bytes
//!                        (tail bytes fold into lane 0)
//! ```
//!
//! The section is deliberately independent of every other section and
//! carries its own checksum so that [`Snapshot::peek`] can read *just
//! the header and this section* (and the file's checksum, which follows
//! it) — no payload mapping, no whole-file checksum pass — and still
//! hand the collection layer an integrity-checked tag-count synopsis.
//! One walker reads the format. Peek drives it to collect the tag
//! counts; attach drives it to compare the section with the payload,
//! allocating nothing: the element count is the payload's, and the
//! stored tags are exactly the tags with postings, in tag-id order,
//! each named as in the tag table and counted as its postings. An
//! attached [`Snapshot`] holds no synopsis; [`Snapshot::synopsis`]
//! parses the section again for a caller that wants one.
//!
//! Attach validates magic/version/length, the checksum, section
//! table sanity (alignment, order, bounds) and shapes, and structural
//! invariants (monotone offset tables, parents before children, subtree
//! extents nested, posting ids sorted and in range, UTF-8 blobs with
//! offsets on char boundaries, contiguous attribute spans, the
//! synopsis against the payload). A file that fails yields
//! [`StoreError`], never UB.
//!
//! Every attach runs all of these checks, however often the same file
//! was attached before: a file can change between two attaches, and a
//! collection prunes on counts that hold only for the file it peeked.
//! The views also read text and attribute values as bytes through
//! checked spans, so they stay total even over bytes no attach checked.
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
//! Versions 1–5 are not read: attach and peek answer
//! [`StoreError::UnsupportedVersion`]. They were a streamed store, a
//! layout without the synopsis section, the v4 layout under a serial
//! FNV checksum, the v5 layout plus a (tag, value)-sorted posting index
//! in three more sections, which value tests no longer read, and this
//! layout with a bounded strong dataguide after the tag counts, which
//! nothing read.

use crate::mmap::{Backing, Mapping, OwnedBytes};
use crate::{StoreError, FNV_OFFSET, FNV_PRIME, MAGIC};
use std::fs::OpenOptions;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use whirlpool_index::{ColumnsView, ShardSynopsis, TagIndex, TagIndexView};
use whirlpool_xml::{DocView, Document, TagId, ATTR_ENTRY_STRIDE};

/// The snapshot format version: the one this crate writes and reads.
pub const SNAPSHOT_VERSION: u32 = 6;

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
const SEC_SYNOPSIS: usize = 13;
const _: () = assert!(SEC_SYNOPSIS == SECTION_COUNT - 1);

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

/// Serializes the synopsis section: the tag counts, self-contained and
/// self-checksummed so [`Snapshot::peek`] can read it without touching
/// any other section.
fn encode_synopsis_section(doc: DocView<'_>, index: TagIndexView<'_>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&((doc.len() - 1) as u64).to_le_bytes());
    // Tags with at least one element, in tag-id order.
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
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Bounds-checked serial reader over the synopsis section.
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
            .ok_or_else(|| corrupt(format!("synopsis: {what} out of bounds")))?;
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
            .map_err(|_| corrupt(format!("synopsis: {what} is not valid UTF-8")))
    }
}

/// What [`walk_synopsis_section`] hands its visitor, in file order. A
/// visitor overrides the fields it reads.
trait SectionVisitor<'a> {
    /// The number of listed tags, before the first [`tag`](Self::tag).
    fn tags(&mut self, _count: usize) {}
    fn tag(&mut self, name: &'a str, count: u64) -> Result<(), StoreError>;
}

/// The one reader of the synopsis section format: verifies the
/// section's own checksum, then walks every field in order and checks
/// what the section alone decides — a plausible tag count, UTF-8 names,
/// no trailing bytes. Returns the element count. [`Snapshot::peek`]
/// drives it with a collect ([`Collect`]), attach with a compare
/// against the payload ([`PayloadCheck`]).
fn walk_synopsis_section<'a>(
    bytes: &'a [u8],
    visit: &mut impl SectionVisitor<'a>,
) -> Result<u64, StoreError> {
    if bytes.len() < 8 {
        return Err(corrupt("synopsis: section too short"));
    }
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    let computed = checksum(&bytes[..bytes.len() - 8]);
    if stored != computed {
        return Err(corrupt(format!(
            "synopsis: checksum mismatch (stored {stored:#x}, computed {computed:#x})"
        )));
    }
    let mut r = SectionReader {
        bytes: &bytes[..bytes.len() - 8],
        pos: 0,
    };
    let elements = r.u64()?;
    let tag_count = r.u64()? as usize;
    if tag_count > 1 << 24 {
        return Err(corrupt("synopsis: implausible tag count"));
    }
    visit.tags(tag_count);
    for _ in 0..tag_count {
        let count = r.u64()?;
        let name_len = r.u64()? as usize;
        visit.tag(r.str_of(name_len, "tag name")?, count)?;
    }
    if r.pos != r.bytes.len() {
        return Err(corrupt("synopsis: trailing bytes after the tags"));
    }
    Ok(elements)
}

/// Parses (and checksum-verifies) the synopsis section.
fn parse_synopsis_section(bytes: &[u8]) -> Result<ShardSynopsis, StoreError> {
    let mut c = Collect::default();
    let elements = walk_synopsis_section(bytes, &mut c)?;
    Ok(ShardSynopsis::from_counts(c.tags, elements))
}

/// Peek's visitor of the section walker: owned copies of the tag
/// counts.
#[derive(Default)]
struct Collect {
    tags: Vec<(Box<str>, u64)>,
}

impl<'a> SectionVisitor<'a> for Collect {
    fn tags(&mut self, count: usize) {
        self.tags.reserve_exact(count);
    }

    fn tag(&mut self, name: &'a str, count: u64) -> Result<(), StoreError> {
        self.tags.push((Box::from(name), count));
        Ok(())
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
        if walk_synopsis_section(bytes, &mut self)? != elements {
            return Err(corrupt("synopsis: element count disagrees with header"));
        }
        if self.next_with_postings().is_some() {
            return Err(corrupt("synopsis: misses a tag with postings"));
        }
        Ok(())
    }
}

impl<'a> SectionVisitor<'a> for PayloadCheck<'_> {
    fn tag(&mut self, name: &'a str, count: u64) -> Result<(), StoreError> {
        let Some(t) = self.next_with_postings() else {
            return Err(corrupt(format!(
                "synopsis: lists a tag without postings ({name:?})"
            )));
        };
        let payload =
            &self.tag_blob[self.tag_offsets[t] as usize..self.tag_offsets[t + 1] as usize];
        if name != payload {
            return Err(corrupt(format!(
                "synopsis: lists {name:?} where the next tag with postings is {payload:?}"
            )));
        }
        if count != self.postings(t) {
            return Err(corrupt(format!(
                "synopsis: tag {name:?} count disagrees with postings"
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
        let (doc, index) = (doc.view(), index.view());
        assert_eq!(
            index.columns().len(),
            doc.len(),
            "index built for a different document"
        );
        let synopsis = encode_synopsis_section(doc, index);
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
            Source::Bytes(doc.text_blob),
            Source::U32s(doc.attr_offsets),
            Source::U32s(doc.attr_entries),
            Source::Bytes(doc.attr_blob),
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
/// and the index's arrays as they are, then the synopsis and the
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
/// demand; [`synopsis`](Snapshot::synopsis) parses the verified
/// synopsis section when a caller wants an owned copy.
pub struct Snapshot {
    backing: Backing,
    layout: Layout,
    checksum: u64,
}

impl Snapshot {
    /// Attaches to a snapshot file: `mmap` where it works, a buffered
    /// read where it does not (off Unix, or when mapping fails). Both
    /// are served from the same page cache, so validation checks the
    /// same bytes either way. Validates the checksum and every
    /// structural invariant before returning, on every call.
    pub fn attach(path: impl AsRef<Path>) -> Result<Snapshot, StoreError> {
        let mut file = std::fs::File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| corrupt("file too large for this platform"))?;
        let backing = match Mapping::map(&file, len) {
            Ok(m) => Backing::Mapped(m),
            Err(_) => Backing::Owned(OwnedBytes::read_from(&mut file, len)?),
        };
        Snapshot::validated(backing)
    }

    /// Builds a snapshot from in-memory bytes (copied into aligned
    /// storage) — the in-memory and test entry point.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, StoreError> {
        Snapshot::validated(Backing::Owned(OwnedBytes::from_slice(bytes)))
    }

    fn validated(backing: Backing) -> Result<Snapshot, StoreError> {
        let (layout, checksum) = validate(backing.bytes())?;
        Ok(Snapshot {
            backing,
            layout,
            checksum,
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

    fn columns_view(&self) -> ColumnsView<'_> {
        ColumnsView::from_raw(
            self.u32s(SEC_PARENT),
            self.u16s(SEC_DEPTH),
            self.u32s(SEC_SUBTREE_END),
        )
    }

    /// The document view (tags, structure, text, attributes) over the
    /// mapped arrays — the same struct [`Document::view`] returns over
    /// a parsed document. Text and attribute values are the mapped
    /// bytes; the tag names (a few hundred bytes) are checked as UTF-8
    /// here, as every attach checked them. They read as empty if the
    /// bytes changed since — a writer never modifies a file in place,
    /// but another program could.
    pub fn doc_view(&self) -> DocView<'_> {
        DocView {
            tag_offsets: self.u32s(SEC_TAG_OFFSETS),
            tag_blob: std::str::from_utf8(self.section(SEC_TAG_BLOB)).unwrap_or(""),
            tag_of: self.u32s(SEC_TAG_OF),
            parent: self.u32s(SEC_PARENT),
            depth: self.u16s(SEC_DEPTH),
            subtree_end: self.u32s(SEC_SUBTREE_END),
            text_offsets: self.u32s(SEC_TEXT_OFFSETS),
            text_blob: self.section(SEC_TEXT_BLOB),
            attr_offsets: self.u32s(SEC_ATTR_OFFSETS),
            attr_entries: self.u32s(SEC_ATTR_ENTRIES),
            attr_blob: self.section(SEC_ATTR_BLOB),
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

    /// The stored tag-count synopsis, parsed from the synopsis section.
    /// Each call parses anew: a collection visit never needs it, since
    /// a lazy shard keeps the one [`peek`](Snapshot::peek) read. Attach
    /// verified the section, but a mapped file can be rewritten in
    /// place since, so the parse checks it again.
    pub fn synopsis(&self) -> Result<ShardSynopsis, StoreError> {
        parse_synopsis_section(self.section(SEC_SYNOPSIS))
    }

    /// The whole-file checksum attach verified: the file's trailer,
    /// equal to the checksum of every byte before it.
    pub fn checksum(&self) -> u64 {
        self.checksum
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
    /// tag counts a query's answer population comes from, without
    /// attaching the shard. It is not a substitute for
    /// [`attach`](Snapshot::attach) — full validation still happens when
    /// (if) the shard is visited.
    pub fn peek(path: impl AsRef<Path>) -> Result<SnapshotPeek, StoreError> {
        let mut file = std::fs::File::open(path)?;
        let file_len = usize::try_from(file.metadata()?.len())
            .map_err(|_| corrupt("file too large for this platform"))?;
        let mut header = [0u8; HEADER_LEN];
        file.read_exact(&mut header[..32])?;
        check_header(&header, file_len)?;
        file.read_exact(&mut header[32..])?;
        let (off, len) = section_table(&header, file_len)?[SEC_SYNOPSIS];
        // The synopsis section is the last one (`section_table`
        // checked that its padding ends where the file's checksum
        // starts), so one read takes both.
        file.seek(SeekFrom::Start(off as u64))?;
        let mut tail = vec![0u8; file_len - off];
        file.read_exact(&mut tail)?;
        let synopsis = parse_synopsis_section(&tail[..len])?;
        Ok(SnapshotPeek {
            synopsis,
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
    /// The whole-file checksum stored in the file's 8-byte trailer, not
    /// verified by the peek. A later attach of the same file verifies
    /// it and reports it as [`Snapshot::checksum`]; a caller that
    /// compares the two knows the payload is the file it peeked.
    pub checksum: u64,
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

/// Attach-time validation. Returns the section layout and the verified
/// whole-file checksum only if the file is byte-exact (checksum) *and*
/// structurally sound (the shape checks here, then [`verify_content`]).
fn validate(bytes: &[u8]) -> Result<(Layout, u64), StoreError> {
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
    let expected = checksum(&bytes[..total_len - 8]);
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

    // The views read tag names as `&str`, so the tag blob is UTF-8 and
    // split only between chars; the index slices postings by their
    // offsets; the root row anchors the structure.
    let tag_blob = utf8(sec(SEC_TAG_BLOB), "tag blob")?;
    check_offsets(
        u32s(SEC_TAG_OFFSETS),
        tag_blob.len(),
        Some(tag_blob),
        "tag offsets",
    )?;
    check_offsets(u32s(SEC_POST_OFFSETS), n - 1, None, "posting offsets")?;
    let parent = u32s(SEC_PARENT);
    let depth = {
        let b = sec(SEC_DEPTH);
        // SAFETY: as u32s above, length 2n checked.
        unsafe { std::slice::from_raw_parts(b.as_ptr().cast::<u16>(), b.len() / 2) }
    };
    let subtree_end = u32s(SEC_SUBTREE_END);
    let tag_of = u32s(SEC_TAG_OF);
    let root_tag_ok = (tag_of[0] as usize) < tag_count;
    if parent[0] != NO_PARENT || depth[0] != 0 || subtree_end[0] as usize != n || !root_tag_ok {
        return Err(corrupt("root row must be (no parent, depth 0, extent n)"));
    }

    verify_content(sec, u32s, depth, tag_count, tag_blob)?;

    let layout = Layout {
        n,
        tag_count,
        sections,
    };
    Ok((layout, stored))
}

/// The checks that vouch for content, all linear in the file: the text
/// and attribute blobs are UTF-8 and their offsets monotone and on char
/// boundaries, one node walk, the attribute value spans, and the
/// synopsis section against the payload.
fn verify_content<'a>(
    sec: impl Fn(usize) -> &'a [u8],
    u32s: impl Fn(usize) -> &'a [u32],
    depth: &[u16],
    tag_count: usize,
    tag_blob: &str,
) -> Result<(), StoreError> {
    let n = depth.len();
    let text_blob = utf8(sec(SEC_TEXT_BLOB), "text blob")?;
    let attr_blob = utf8(sec(SEC_ATTR_BLOB), "attribute blob")?;
    let attr_entries = u32s(SEC_ATTR_ENTRIES);
    check_offsets(
        u32s(SEC_TEXT_OFFSETS),
        text_blob.len(),
        Some(text_blob),
        "text offsets",
    )?;
    check_offsets(
        u32s(SEC_ATTR_OFFSETS),
        attr_entries.len() / ATTR_ENTRY_STRIDE,
        None,
        "attribute offsets",
    )?;

    // One node walk: parents precede children, depths chain, extents
    // nest, `tag_of[i]` is in range, and node i is the next unread
    // posting of its tag. The n−1 nodes read n−1 postings, none past
    // its tag's span, and the spans (offsets 0 → n−1) hold n−1 ids: so
    // every posting is read once, in node order. The walk accepts
    // exactly the files whose per-tag lists are strictly ascending ids
    // in [1, n) that agree with `tag_of`.
    let (parent, subtree_end, tag_of) = (u32s(SEC_PARENT), u32s(SEC_SUBTREE_END), u32s(SEC_TAG_OF));
    let (post_offsets, post_ids) = (u32s(SEC_POST_OFFSETS), u32s(SEC_POST_IDS));
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

    // Attribute entries: names in range, contiguous value spans.
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

    // The stored synopsis must pass its own checksum and the format's
    // checks, and list exactly the tags with postings, in
    // tag-id order, each with its posting count — a ceiling or idf
    // computed from the section can then never contradict the payload
    // it summarizes.
    PayloadCheck {
        tag_offsets: u32s(SEC_TAG_OFFSETS),
        tag_blob,
        post_offsets,
        next: 0,
    }
    .check(sec(SEC_SYNOPSIS), (n - 1) as u64)
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
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        let stored = snap.synopsis().unwrap();
        let fresh = ShardSynopsis::build(&doc);
        assert_eq!(stored.elements(), fresh.elements());
        assert_eq!(stored.distinct_tags(), fresh.distinct_tags());
        for (tag, count) in fresh.tags() {
            assert_eq!(stored.tag_count(tag), count, "{tag}");
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
        let dir = crate::TempDir::new("wpl-sniff");
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
        // 3 (the v4 layout under a serial FNV checksum), version 4 (the
        // v5 layout plus the value-posting sections) and version 5
        // (this layout with a dataguide after the tag counts) are
        // recognised and refused, by attach and peek alike.
        for retired in [2u8, 3, 4, 5] {
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
    }

    /// Two writers of one path, 50 times over: each rename publishes a
    /// whole file of one of them, and no temp file is left behind.
    #[test]
    fn writers_of_one_path_never_share_a_temp_file() {
        use whirlpool_xmark::{generate, GeneratorConfig};
        let dir = crate::TempDir::new("wpl-writers");
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
    }

    #[test]
    fn attach_modes_agree() {
        let dir = crate::TempDir::new("wpl-snap");
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
        let dir = crate::TempDir::new("wpl-peek");
        let src = "<shelf><book><isbn>1</isbn></book><book><isbn>2</isbn></book><cd/></shelf>";
        let doc = parse_document(src).unwrap();
        let index = TagIndex::build(&doc);

        // The stored section answers the tag counts.
        let path = dir.join("doc.wps");
        save_snapshot(&doc, &index, &path).unwrap();
        let peek = Snapshot::peek(&path).unwrap();
        assert_eq!(peek.synopsis.tag_count("book"), 2);
        assert_eq!(peek.synopsis.elements(), (doc.len() - 1) as u64);

        // Attach agrees with peek, on the synopsis and on the checksum
        // it verified.
        let snap = Snapshot::attach(&path).unwrap();
        assert_eq!(snap.synopsis().unwrap(), peek.synopsis);
        assert_eq!(snap.checksum(), peek.checksum);

        // A flipped byte inside the synopsis section fails the
        // section's own checksum — peek never trusts garbage ceilings.
        let clean = std::fs::read(&path).unwrap();
        let (layout, ..) = validate(&clean).unwrap();
        let (off, len) = layout.sections[SEC_SYNOPSIS];
        let mut corrupt = clean.clone();
        corrupt[off + len / 2] ^= 0x20;
        let bad_path = dir.join("bad.wps");
        std::fs::write(&bad_path, &corrupt).unwrap();
        assert!(Snapshot::peek(&bad_path).is_err());
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
        let (off, len) = layout.sections[SEC_SYNOPSIS];
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
        assert_eq!(end, body.len(), "the checksum follows the tags");
        let sum = checksum(&forged);
        forged.extend_from_slice(&sum.to_le_bytes());

        let err = Snapshot::from_bytes(&forge(&clean, |s| s[SEC_SYNOPSIS] = forged))
            .err()
            .expect("a tag without postings must not attach");
        assert!(err.to_string().contains("without postings"), "{err}");
    }

    /// The synopsis section, decoded for editing.
    struct Section {
        elements: u64,
        tags: Vec<(u64, String)>,
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
        assert_eq!(r.pos, r.bytes.len(), "the checksum follows the tags");
        Section { elements, tags }
    }

    /// The section's bytes before its checksum.
    fn encode_body(s: &Section) -> Vec<u8> {
        let mut out = Vec::new();
        let put = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
        put(&mut out, s.elements);
        put(&mut out, s.tags.len() as u64);
        for (count, name) in &s.tags {
            put(&mut out, *count);
            put(&mut out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
        }
        out
    }

    /// `body` under its section checksum.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let sum = checksum(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }

    /// [`forge`] with an edit to the body of the decoded synopsis
    /// section, which is sealed under a fresh section checksum.
    fn forge_body(bytes: &[u8], edit: impl FnOnce(&Section, &mut Vec<u8>)) -> Vec<u8> {
        forge(bytes, |s| {
            let section = decode_section(&s[SEC_SYNOPSIS]);
            let mut body = encode_body(&section);
            edit(&section, &mut body);
            s[SEC_SYNOPSIS] = sealed(body);
        })
    }

    /// [`forge_body`] with an edit to the decoded section.
    fn forge_section(bytes: &[u8], edit: impl FnOnce(&mut Section)) -> Vec<u8> {
        forge(bytes, |s| {
            let mut section = decode_section(&s[SEC_SYNOPSIS]);
            edit(&mut section);
            s[SEC_SYNOPSIS] = sealed(encode_body(&section));
        })
    }

    /// Synopsis sections that contradict their payload, behind a valid
    /// section checksum and a valid file checksum: every case fails
    /// attach.
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
                }),
            ),
            (
                "an element count off by one",
                forge_section(&clean, |s| s.elements += 1),
            ),
        ];
        for (case, bytes) in &cases {
            assert_corrupt(bytes, case);
        }
        // Peek reads the section alone, and none of these breaks its
        // format: peek passes them all.
        let dir = crate::TempDir::new("wpl-forged");
        for (i, (case, bytes)) in cases.iter().enumerate() {
            let path = dir.join(format!("case-{i}.wps"));
            std::fs::write(&path, bytes).unwrap();
            assert!(Snapshot::peek(&path).is_ok(), "{case}");
        }
    }

    /// Fields the synopsis format rules out, behind a valid section
    /// checksum and a valid file checksum: attach and peek both refuse
    /// each one, naming it. The section ends at its tags, so path fields
    /// after them (depth cap, truncated flag, a path count and one path)
    /// are trailing bytes.
    #[test]
    fn forged_path_fields_fail_attach_and_peek() {
        let (_, _, clean) = snapshot_of("<r><a><c/></a><b/><a><c/></a></r>");
        let cases = [
            (
                "trailing bytes after the tags",
                forge_body(&clean, |_, body| {
                    // depth cap, truncated, one path of count 1, max_tf 1
                    // and one step (tag 0).
                    for v in [8u64, 0, 1, 1, 1, 1] {
                        body.extend_from_slice(&v.to_le_bytes());
                    }
                    body.extend_from_slice(&0u32.to_le_bytes());
                }),
            ),
            (
                "implausible tag count",
                forge_body(&clean, |s, body| {
                    assert_eq!(read_u64_at(body, 8), s.tags.len() as u64);
                    body[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
                }),
            ),
        ];
        let dir = crate::TempDir::new("wpl-forged-paths");
        for (i, (case, bytes)) in cases.iter().enumerate() {
            let Err(StoreError::Corrupt(attach)) = Snapshot::from_bytes(bytes) else {
                panic!("{case}: attached or failed otherwise");
            };
            assert!(attach.contains(case), "{case}: {attach}");
            let path = dir.join(format!("case-{i}.wps"));
            std::fs::write(&path, bytes).unwrap();
            let Err(StoreError::Corrupt(peek)) = Snapshot::peek(&path) else {
                panic!("{case}: peeked or failed otherwise");
            };
            assert!(peek.contains(case), "{case}: {peek}");
        }
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
        assert_eq!(snap.synopsis().unwrap().elements(), 0);
    }
}
