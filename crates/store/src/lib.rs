#![warn(missing_docs)]

//! Binary persistence for indexed documents: flat, checksummed,
//! memory-mappable **snapshots** (`.wps`) holding a document's whole
//! query-time state, so a warm start attaches instead of parsing and
//! indexing. The format, its validation argument and the
//! [`Snapshot::peek`] header path are documented in the `snapshot`
//! module source; this file holds the magic, the FNV-1a constants,
//! [`StoreError`] and [`store_version`] sniffing.
//!
//! Writing streams: [`write_snapshot`] sends the header, then the
//! document's and the index's arrays as they are, through one 1 MiB
//! staging buffer that also feeds the checksum, so saving a snapshot
//! costs the document plus a megabyte of heap, not an image of the
//! file. [`save_snapshot`] writes into a temp file of its own and
//! renames it over the target.
//!
//! A peek and a later attach are bound by the whole-file checksum:
//! [`SnapshotPeek::checksum`] is the file's stored trailer, and
//! [`Snapshot::checksum`] is the one attach verified. A caller that
//! keeps a peeked synopsis (a lazy collection shard) compares the two and
//! refuses a file replaced in between with [`StoreError::Stale`].
//!
//! Every [`Snapshot::attach`] verifies the whole file: the checksum,
//! the section table and shapes, the tag, text and attribute UTF-8 and
//! offsets, one node walk, the attribute spans and the synopsis
//! section against the payload. The views check every span they read
//! besides, and [`Snapshot::synopsis`] parses its section again, so a
//! mapped file rewritten in place after its attach yields wrong
//! answers or errors, never a panic.
//!
//! ```
//! use whirlpool_store::{build_snapshot_bytes, Snapshot};
//! let doc = whirlpool_xml::parse_document("<a><b>t</b></a>").unwrap();
//! let index = whirlpool_index::TagIndex::build(&doc);
//! let bytes = build_snapshot_bytes(&doc, &index);
//! let snapshot = Snapshot::from_bytes(&bytes).unwrap();
//! assert_eq!(snapshot.doc_view().len(), doc.len());
//! ```
//!
//! Files carry the magic `"WPLX"` and a `u32` version. This crate
//! reads and writes [`SNAPSHOT_VERSION`] (6) only; 1 (a streamed
//! store), 2 (snapshots without stored synopses), 3 (snapshots under a
//! serial FNV checksum), 4 (snapshots with a (tag, value) posting
//! index) and 5 (snapshots that also stored a path synopsis) are still
//! recognised by [`store_version`] so callers can name them in an error
//! instead of mis-parsing them.

use std::fmt;
use std::io::{self, Read};
use std::path::Path;

mod mmap;
mod snapshot;

pub use snapshot::{
    build_snapshot_bytes, build_snapshot_bytes_with, save_snapshot, save_snapshot_with,
    write_snapshot, Snapshot, SnapshotOptions, SnapshotPeek, SNAPSHOT_VERSION,
};

pub(crate) const MAGIC: &[u8; 4] = b"WPLX";

/// Errors surfaced when attaching or peeking a snapshot.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input does not start with the store magic.
    BadMagic,
    /// The store was written by an unknown format version.
    UnsupportedVersion(u32),
    /// Structurally invalid or checksum-mismatched content.
    Corrupt(String),
    /// A sound file that is not the one the caller read its synopses
    /// from: its verified checksum differs from the one the earlier
    /// [`Snapshot::peek`] (or attach) recorded, so the file was
    /// replaced in between.
    Stale {
        /// The whole-file checksum the caller recorded.
        expected: u64,
        /// The whole-file checksum of the file attached now.
        found: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not a whirlpool store (bad magic)"),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported store version {v}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            StoreError::Stale { expected, found } => write!(
                f,
                "store replaced since its synopses were read \
                 (checksum {expected:#018x}, now {found:#018x})"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// The format version of a store file ([`SNAPSHOT_VERSION`] for a
/// snapshot this crate attaches; 1–4 for retired formats), or `None` if
/// the file is missing or does not carry the store magic. Cheap: reads
/// 8 bytes.
pub fn store_version(path: impl AsRef<Path>) -> Option<u32> {
    let Ok(mut f) = std::fs::File::open(path) else {
        return None;
    };
    let mut head = [0u8; 8];
    f.read_exact(&mut head).ok()?;
    if &head[0..4] != MAGIC {
        return None;
    }
    Some(u32::from_le_bytes(head[4..8].try_into().ok()?))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A fresh directory under the system temp dir for a test, named
/// `<name>-<pid>` and removed when the guard drops: at the end of a
/// test, or as a failing one unwinds.
#[cfg(test)]
pub(crate) struct TempDir(std::path::PathBuf);

#[cfg(test)]
impl TempDir {
    pub(crate) fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

#[cfg(test)]
impl std::ops::Deref for TempDir {
    type Target = std::path::Path;
    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

#[cfg(test)]
impl AsRef<std::path::Path> for TempDir {
    fn as_ref(&self) -> &std::path::Path {
        &self.0
    }
}

#[cfg(test)]
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_magic_and_version() {
        let doc = whirlpool_xml::parse_document("<a/>").unwrap();
        let index = whirlpool_index::TagIndex::build(&doc);
        let mut bytes = build_snapshot_bytes(&doc, &index);
        bytes[0..4].copy_from_slice(b"NOPE");
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(StoreError::BadMagic)
        ));
        bytes[0..4].copy_from_slice(MAGIC);
        bytes[4] = 99; // version
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(StoreError::UnsupportedVersion(99))
        ));
        bytes[4] = 2; // the retired layout without stored synopses
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(StoreError::UnsupportedVersion(2))
        ));
        bytes[4] = 3; // the retired serial-FNV checksum
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(StoreError::UnsupportedVersion(3))
        ));
        bytes[4] = 4; // the retired (tag, value) posting index
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(StoreError::UnsupportedVersion(4))
        ));
    }
}
