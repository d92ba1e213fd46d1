//! A shard's memo of Definition 4.2's counts.
//!
//! idf (Definition 4.2) is a statistic of the document: how many nodes
//! carry the answer tag, and how many of them satisfy each component
//! predicate exactly and relaxed. It depends on neither the query's `k`
//! nor the answer being scored, so a shard counts each predicate once
//! and keeps the integers ([`CountMemo`]). The memo holds counts, not
//! weights: normalization, and pooling over a corpus
//! ([`whirlpool_score::CorpusStats`]), stay per query.
//!
//! No invalidation protocol is needed, because the counted document
//! never changes under its shard. A parsed shard owns its document. A
//! lazy shard's counts belong to the checksum it was admitted with, and
//! [`Collection::acquire`](crate::Collection::acquire) refuses any other
//! file. A daemon's collection is frozen once it starts serving.
//!
//! Two workers that miss on one predicate at once both count it and
//! both insert; the integers are equal, so the race is harmless.
//!
//! A repeated query shape costs P key hashes per query, P the query's
//! predicates, and P probes per shard, with no hashing and no
//! allocation per shard. The keys are built and hashed once per query
//! ([`QueryKeys`]), under a hash state the [`Collection`] owns, and
//! every shard's memo probes with them under a pass-through hash
//! ([`CountMemo::read`]), comparing full keys on a hit: each key is one
//! byte string, so that is one comparison of two buffers.
//!
//! The state is drawn per collection, not fixed, because keys carry
//! client-chosen `=` values: under a fixed key a client could choose
//! values that collide and turn each probe into a walk of one long
//! chain. One state for the whole collection is what lets one hash
//! serve every shard.
//!
//! [`Collection`]: crate::Collection

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::{PoisonError, RwLock};
use whirlpool_pattern::{ComposedAxis, ValueTest};
use whirlpool_score::tfidf::ComponentPredicate;

/// Most predicate counts one shard's memo keeps. Distinct `=` values
/// mint keys without end, so past the cap counts are computed and not
/// stored. A query shape has a handful of predicates; this holds
/// hundreds of shapes.
pub const COUNT_MEMO_CAP: usize = 1_024;

/// What one memo entry counted: a component predicate, as the count
/// sees it, under an answer tag. The query node is not part of it, so
/// two queries that share a predicate share its entry.
///
/// The fields (answer tag, predicate tag, composed axis, value test,
/// attribute tests) are written as one byte string, each text
/// length-prefixed and each variant tagged, so two keys are equal
/// exactly when their fields are, and comparing them reads one buffer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CountKey(Box<[u8]>);

impl CountKey {
    fn new(answer_tag: &str, pred: &ComponentPredicate) -> Self {
        fn text(bytes: &mut Vec<u8>, s: &str) {
            bytes.extend_from_slice(&s.len().to_le_bytes());
            bytes.extend_from_slice(s.as_bytes());
        }
        let mut bytes = Vec::new();
        text(&mut bytes, answer_tag);
        text(&mut bytes, &pred.tag);
        match pred.axis {
            ComposedAxis::ChildChain(n) => {
                bytes.push(0);
                bytes.extend_from_slice(&n.to_le_bytes());
            }
            ComposedAxis::Descendant => bytes.push(1),
        }
        match &pred.value {
            None => bytes.push(0),
            Some(ValueTest::Eq(v)) => {
                bytes.push(1);
                text(&mut bytes, v);
            }
            Some(ValueTest::Contains(v)) => {
                bytes.push(2);
                text(&mut bytes, v);
            }
        }
        for attr in &pred.attrs {
            text(&mut bytes, &attr.name);
            match &attr.value {
                None => bytes.push(0),
                Some(v) => {
                    bytes.push(1);
                    text(&mut bytes, v);
                }
            }
        }
        CountKey(bytes.into())
    }
}

/// A [`CountKey`] with its hash under the collection's state, taken
/// once. Two prepared keys are equal when their hashes and their full
/// keys are, so a collision of hashes is never a hit.
#[derive(Debug, Clone)]
struct PreparedKey {
    hash: u64,
    key: CountKey,
}

impl PartialEq for PreparedKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}

impl Eq for PreparedKey {}

impl Hash for PreparedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Hands a [`PreparedKey`]'s hash to the memo's table as it is.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a prepared key hashes as its one u64")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One query's count keys, one per predicate in order, built and
/// hashed once and probed in every shard's memo.
pub(crate) struct QueryKeys<'p> {
    preds: &'p [ComponentPredicate],
    keys: Vec<PreparedKey>,
}

impl<'p> QueryKeys<'p> {
    /// The keys of `preds` over the answers tagged `answer_tag`, hashed
    /// under `state`: the hash state of the collection whose memos they
    /// probe.
    pub(crate) fn new(
        state: &RandomState,
        answer_tag: &str,
        preds: &'p [ComponentPredicate],
    ) -> Self {
        Self::hashed_by(answer_tag, preds, |key| state.hash_one(key))
    }

    /// The keys of `preds`, every one given `hash`: colliding keys.
    #[cfg(test)]
    fn colliding(answer_tag: &str, preds: &'p [ComponentPredicate], hash: u64) -> Self {
        Self::hashed_by(answer_tag, preds, |_| hash)
    }

    fn hashed_by(
        answer_tag: &str,
        preds: &'p [ComponentPredicate],
        hash: impl Fn(&CountKey) -> u64,
    ) -> Self {
        let keys = (preds.iter())
            .map(|p| {
                let key = CountKey::new(answer_tag, p);
                PreparedKey {
                    hash: hash(&key),
                    key,
                }
            })
            .collect();
        QueryKeys { preds, keys }
    }
}

/// One predicate's counts: the answer tag's population, and how many of
/// those answers satisfy the predicate `[exact, relaxed]`.
#[derive(Debug, Clone, Copy)]
struct Counted {
    population: u64,
    satisfying: [u64; 2],
}

/// What [`CountMemo::counts`] read besides the satisfying pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tally {
    /// Nodes carrying the answer tag.
    pub(crate) population: u64,
    /// Whether some pair was counted now rather than read from the
    /// memo.
    pub(crate) counted: bool,
}

/// A shard's counts by predicate, behind a read-mostly lock.
#[derive(Debug, Default)]
pub(crate) struct CountMemo {
    entries: RwLock<HashMap<PreparedKey, Counted, BuildHasherDefault<PassThrough>>>,
}

impl CountMemo {
    /// Writes the `[exact, relaxed]` counts of each of `keys`'
    /// predicates over its answers into `satisfying` (one pair per key,
    /// in order), and returns the answer population: read from the memo
    /// under a read lock, with only the predicates it lacks passed to
    /// `count`, which returns what
    /// [`whirlpool_score::tfidf::idf_counts_sweep`] returns over them.
    /// No lock is held while `count` runs; its counts are stored under
    /// a write lock taken after it, up to [`COUNT_MEMO_CAP`] entries.
    /// A query whose every key hits allocates nothing.
    ///
    /// A query without predicates stores nothing, so it counts its
    /// population every time. An error from `count` is returned as it
    /// is, nothing is stored, and `satisfying` holds nothing of use.
    pub(crate) fn counts<E>(
        &self,
        keys: &QueryKeys<'_>,
        satisfying: &mut [[u64; 2]],
        count: impl FnOnce(&[ComponentPredicate]) -> Result<(u64, Vec<[u64; 2]>), E>,
    ) -> Result<Tally, E> {
        assert_eq!(satisfying.len(), keys.keys.len(), "one pair per key");
        let mut population = None;
        let mut missing = Vec::new();
        {
            let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
            for (i, (key, pair)) in keys.keys.iter().zip(&mut *satisfying).enumerate() {
                match entries.get(key) {
                    Some(c) => (population, *pair) = (Some(c.population), c.satisfying),
                    None => missing.push(i),
                }
            }
        }
        if let (Some(population), true) = (population, missing.is_empty()) {
            return Ok(Tally {
                population,
                counted: false,
            });
        }
        let todo: Vec<ComponentPredicate> =
            missing.iter().map(|&i| keys.preds[i].clone()).collect();
        let (population, fresh) = count(&todo)?;
        // Entries are whole integers, so a writer that panicked left
        // nothing half-written: a poisoned lock is used as it is.
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        for (&i, pair) in missing.iter().zip(fresh) {
            satisfying[i] = pair;
            if entries.len() < COUNT_MEMO_CAP {
                let counted = Counted {
                    population,
                    satisfying: pair,
                };
                entries.insert(keys.keys[i].clone(), counted);
            }
        }
        Ok(Tally {
            population,
            counted: true,
        })
    }

    /// The counts of `keys` from the memo alone: when it holds every
    /// one, writes their pairs into `satisfying` (one per key, in order)
    /// and returns the answer population; `None` otherwise, leaving
    /// `satisfying` with nothing of use. One probe per key, under a read
    /// lock, and no allocation.
    pub(crate) fn read(&self, keys: &QueryKeys<'_>, satisfying: &mut [[u64; 2]]) -> Option<u64> {
        let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
        let mut population = None;
        for (key, pair) in keys.keys.iter().zip(satisfying) {
            let c = entries.get(key)?;
            (population, *pair) = (Some(c.population), c.satisfying);
        }
        population
    }

    /// Does the memo hold the counts of every one of `keys`, so that
    /// [`counts`](CountMemo::counts) would count nothing?
    pub(crate) fn holds(&self, keys: &QueryKeys<'_>) -> bool {
        let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
        keys.keys.iter().all(|k| entries.contains_key(k))
    }

    /// How many predicate counts the memo holds.
    pub(crate) fn len(&self) -> usize {
        self.entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whirlpool_pattern::parse_pattern;
    use whirlpool_score::tfidf::component_predicates;

    /// A `count` that must not run.
    fn unreachable(_: &[ComponentPredicate]) -> Result<(u64, Vec<[u64; 2]>), ()> {
        panic!("every predicate was memoized")
    }

    fn preds(query: &str) -> Vec<ComponentPredicate> {
        component_predicates(&parse_pattern(query).unwrap())
    }

    /// The pairs and tally of `keys` in `memo`.
    fn read<E>(
        memo: &CountMemo,
        keys: &QueryKeys<'_>,
        count: impl FnOnce(&[ComponentPredicate]) -> Result<(u64, Vec<[u64; 2]>), E>,
    ) -> Result<(Tally, Vec<[u64; 2]>), E> {
        let mut pairs = vec![[0, 0]; keys.keys.len()];
        let tally = memo.counts(keys, &mut pairs, count)?;
        Ok((tally, pairs))
    }

    #[test]
    fn a_hit_returns_the_stored_counts_and_a_miss_counts_only_what_is_missing() {
        let state = RandomState::new();
        let memo = CountMemo::default();
        let first = preds("//a[./b and .//c]");
        let keys = QueryKeys::new(&state, "a", &first);
        let got = read(&memo, &keys, |todo| {
            assert_eq!(todo.len(), 2);
            Ok::<_, ()>((5, vec![[1, 2], [3, 4]]))
        });
        let fresh = Tally {
            population: 5,
            counted: true,
        };
        assert_eq!(got, Ok((fresh, vec![[1, 2], [3, 4]])));
        assert!(memo.holds(&keys) && !memo.holds(&QueryKeys::new(&state, "x", &first)));
        let (hit, pairs) = read(&memo, &keys, unreachable).unwrap();
        assert_eq!(pairs, [[1, 2], [3, 4]]);
        assert_eq!((hit.population, hit.counted), (5, false));

        // Shares `./b` and `.//c`, adds `./d`: only `./d` is counted.
        let second = preds("//a[.//c and ./d and ./b]");
        let mixed = read(&memo, &QueryKeys::new(&state, "a", &second), |todo| {
            assert_eq!(todo.len(), 1);
            assert_eq!(todo[0].tag, "d");
            Ok::<_, ()>((5, vec![[0, 1]]))
        });
        assert_eq!(mixed.unwrap().1, [[3, 4], [0, 1], [1, 2]]);
        assert_eq!(memo.len(), 3);
        // Another answer tag is another key.
        let other = read(&memo, &QueryKeys::new(&state, "x", &first), |todo| {
            Ok::<_, ()>((0, vec![[0, 0]; todo.len()]))
        });
        assert!(other.unwrap().0.counted);
    }

    #[test]
    fn prepared_keys_compare_by_key_not_by_hash() {
        let memo = CountMemo::default();
        let (b, c, both) = (
            preds("//a[./b]"),
            preds("//a[./c]"),
            preds("//a[./b and ./c]"),
        );
        let stored = read(&memo, &QueryKeys::colliding("a", &b, 7), |_| {
            Ok::<_, ()>((5, vec![[1, 2]]))
        });
        assert_eq!(stored.unwrap().1, [[1, 2]]);
        // `./c` has `./b`'s hash but is another key: a miss, counted.
        let (tally, pairs) = read(&memo, &QueryKeys::colliding("a", &c, 7), |todo| {
            assert_eq!(todo[0].tag, "c");
            Ok::<_, ()>((5, vec![[3, 4]]))
        })
        .unwrap();
        assert!(tally.counted);
        assert_eq!(pairs, [[3, 4]]);
        assert_eq!(memo.len(), 2);
        // Each key reads back its own counts from the one hash.
        let keys = QueryKeys::colliding("a", &both, 7);
        assert!(memo.holds(&keys));
        let (tally, pairs) = read(&memo, &keys, unreachable).unwrap();
        assert!(!tally.counted);
        assert_eq!(pairs, [[1, 2], [3, 4]]);
    }

    #[test]
    fn a_failed_count_stores_nothing() {
        let memo = CountMemo::default();
        let preds = preds("//a[./b]");
        let keys = QueryKeys::new(&RandomState::new(), "a", &preds);
        assert_eq!(read(&memo, &keys, |_| Err("gone")), Err("gone"));
        assert_eq!(memo.len(), 0);
    }
}
