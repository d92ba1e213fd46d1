//! Minimal read-only memory mapping.
//!
//! The build environment vendors no external crates, so instead of
//! `libc`/`memmap2` this module declares the two syscall wrappers it
//! needs directly (`std` already links the platform libc). Non-Unix
//! targets — and Unix targets where `mmap` fails — fall back to
//! [`OwnedBytes`], an ordinary read into `u64`-backed storage, which
//! keeps the 8-byte alignment guarantee the snapshot format relies on.

use std::fs::File;
use std::io;

/// Read-only bytes backing an attached snapshot: a real memory mapping
/// or an owned in-memory copy, behind one `bytes()` accessor.
pub enum Backing {
    /// `mmap(2)`-backed, page-aligned, shared with the page cache.
    Mapped(Mapping),
    /// Heap-backed: the fallback when mapping fails, and in-memory
    /// bytes.
    Owned(OwnedBytes),
}

impl Backing {
    /// The file's bytes. Mapped backing is page-aligned; owned backing
    /// is 8-byte aligned by construction — either satisfies the
    /// snapshot format's alignment contract.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        match self {
            Backing::Mapped(m) => m.bytes(),
            Backing::Owned(o) => o.bytes(),
        }
    }

    /// True when the backing is a real memory mapping.
    pub fn is_mapped(&self) -> bool {
        matches!(self, Backing::Mapped(_))
    }
}

/// Heap storage for whole-file reads, allocated as `u64` words so the
/// base pointer is always 8-byte aligned.
pub struct OwnedBytes {
    words: Vec<u64>,
    len: usize,
}

impl OwnedBytes {
    /// Reads the entire `file` (of known `len`) into aligned storage.
    pub fn read_from(file: &mut File, len: usize) -> io::Result<OwnedBytes> {
        use std::io::Read;
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: u64 storage reinterpreted as u8 for the read; every
        // byte pattern is a valid u64.
        let buf = unsafe {
            std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), words.len() * 8)
        };
        file.read_exact(&mut buf[..len])?;
        Ok(OwnedBytes { words, len })
    }

    /// Copies a byte slice into aligned storage (used when a snapshot
    /// arrives through a `Read` stream rather than a file).
    pub fn from_slice(bytes: &[u8]) -> OwnedBytes {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: as above.
        let buf = unsafe {
            std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), words.len() * 8)
        };
        buf[..bytes.len()].copy_from_slice(bytes);
        OwnedBytes {
            words,
            len: bytes.len(),
        }
    }

    #[inline]
    fn bytes(&self) -> &[u8] {
        // SAFETY: reading the u64 storage as bytes.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

#[cfg(unix)]
mod sys {
    use core::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// A read-only, whole-file memory mapping (Unix only).
pub struct Mapping {
    #[cfg(unix)]
    ptr: *mut core::ffi::c_void,
    len: usize,
}

// SAFETY: the mapping is read-only (PROT_READ) and never mutated or
// remapped after construction; sharing the pointer across threads is
// no different from sharing a &[u8].
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps `len` bytes of `file` read-only. Fails (so callers fall
    /// back to [`OwnedBytes`]) on empty files, non-Unix targets, or any
    /// `mmap` error.
    #[cfg(unix)]
    pub fn map(file: &File, len: usize) -> io::Result<Mapping> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "empty file"));
        }
        // SAFETY: fd is valid for the duration of the call; a failed
        // map returns MAP_FAILED which is handled below.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as usize == usize::MAX {
            return Err(io::Error::last_os_error());
        }
        Ok(Mapping { ptr, len })
    }

    /// Non-Unix targets never map; the caller falls back to a read.
    #[cfg(not(unix))]
    pub fn map(_file: &File, _len: usize) -> io::Result<Mapping> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "mmap unavailable on this platform",
        ))
    }

    /// The mapped bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        #[cfg(unix)]
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by
        // self; the slice's lifetime is tied to &self.
        unsafe {
            std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len)
        }
        #[cfg(not(unix))]
        unreachable!("Mapping cannot be constructed off Unix")
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(unix)]
        // SAFETY: ptr/len came from a successful mmap and are unmapped
        // exactly once.
        unsafe {
            sys::munmap(self.ptr, self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn mapping_and_fallback_agree() {
        let dir = crate::TempDir::new("wpl-mmap");
        let path = dir.join("bytes.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(12_345).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();

        let mut f = std::fs::File::open(&path).unwrap();
        let owned = OwnedBytes::read_from(&mut f, payload.len()).unwrap();
        assert_eq!(owned.bytes(), &payload[..]);
        assert_eq!(owned.bytes().as_ptr() as usize % 8, 0);

        if let Ok(m) = Mapping::map(&f, payload.len()) {
            assert_eq!(m.bytes(), &payload[..]);
        }
        let from_slice = OwnedBytes::from_slice(&payload);
        assert_eq!(from_slice.bytes(), &payload[..]);
    }
}
