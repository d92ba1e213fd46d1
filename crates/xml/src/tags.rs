//! Element-tag ids and the build-time interner behind them.
//!
//! Documents routinely contain millions of elements drawn from a few
//! dozen distinct tags; numbering the tags turns every structural
//! comparison the engine performs into a `u32` comparison and keeps
//! per-node storage fixed-size.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};

/// An interned element (or attribute) name: an index into its
/// document's tag table. Only meaningful relative to the document (or
/// mapped snapshot) that produced it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TagId(pub(crate) u32);

impl TagId {
    /// The raw tag-table index, usable as a dense array key.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a `TagId` from a raw index (e.g. read back from a
    /// snapshot's tag table). Only meaningful against the tag table it
    /// was originally produced by.
    pub fn from_index(index: usize) -> TagId {
        TagId(u32::try_from(index).expect("tag index exceeds u32"))
    }
}

impl fmt::Debug for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TagId({})", self.0)
    }
}

/// The name → id map a document is built with. The names themselves
/// live in the document's tag table (`offsets` + `blob`), which is all a
/// finished document keeps.
#[derive(Default)]
pub(crate) struct TagInterner {
    pub(crate) by_name: HashMap<Box<str>, TagId, NameHash>,
}

/// Hashes tag names eight bytes per folded multiply (SipHash spent more
/// per name than the parser spends per byte). The seed is drawn per
/// interner, so a document cannot be written to collide its names.
#[derive(Clone)]
pub(crate) struct NameHash(u64);

impl Default for NameHash {
    fn default() -> Self {
        NameHash(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for NameHash {
    type Hasher = NameHasher;

    fn build_hasher(&self) -> NameHasher {
        NameHasher(self.0)
    }
}

pub(crate) struct NameHasher(u64);

impl NameHasher {
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0x9e37_79b9_7f4a_7c15;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }
}

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        self.mix(u64::from_le_bytes(tail));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl TagInterner {
    /// Interns `name`, appending it to the tag table when it is new.
    pub(crate) fn intern(
        &mut self,
        name: &str,
        offsets: &mut Vec<u32>,
        blob: &mut String,
    ) -> TagId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = TagId::from_index(offsets.len() - 1);
        blob.push_str(name);
        offsets.push(u32::try_from(blob.len()).expect("tag table exceeds u32"));
        self.by_name.insert(name.into(), id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (TagInterner, Vec<u32>, String) {
        (TagInterner::default(), vec![0], String::new())
    }

    #[test]
    fn intern_is_idempotent() {
        let (mut t, mut offsets, mut blob) = table();
        let a = t.intern("book", &mut offsets, &mut blob);
        let b = t.intern("title", &mut offsets, &mut blob);
        assert_ne!(a, b);
        assert_eq!(t.intern("book", &mut offsets, &mut blob), a);
        assert_eq!(offsets.len() - 1, 2);
    }

    #[test]
    fn name_round_trips() {
        let mut b = crate::DocumentBuilder::new();
        b.empty("publisher");
        let doc = b.finish();
        let id = doc.tag_id("publisher").unwrap();
        assert_eq!(doc.tag_name(id), "publisher");
        assert_eq!(doc.tag_id("missing"), None);
    }

    #[test]
    fn ids_are_dense() {
        let (mut t, mut offsets, mut blob) = table();
        for (i, tag) in ["a", "b", "c"].iter().enumerate() {
            assert_eq!(t.intern(tag, &mut offsets, &mut blob).index(), i);
        }
        assert_eq!((offsets, blob), (vec![0, 1, 2, 3], "abc".to_string()));
    }
}
