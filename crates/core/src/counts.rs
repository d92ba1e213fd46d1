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

use std::collections::HashMap;
use std::sync::{PoisonError, RwLock};
use whirlpool_pattern::{AttrTest, ComposedAxis, ValueTest};
use whirlpool_score::tfidf::ComponentPredicate;

/// Most predicate counts one shard's memo keeps. Distinct `=` values
/// mint keys without end, so past the cap counts are computed and not
/// stored. A query shape has a handful of predicates; this holds
/// hundreds of shapes.
pub const COUNT_MEMO_CAP: usize = 1_024;

/// What one memo entry counted: a component predicate, as the count
/// sees it, under an answer tag. The query node is not part of it, so
/// two queries that share a predicate share its entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CountKey {
    answer_tag: String,
    tag: String,
    axis: ComposedAxis,
    value: Option<ValueTest>,
    attrs: Vec<AttrTest>,
}

impl CountKey {
    fn new(answer_tag: &str, pred: &ComponentPredicate) -> Self {
        CountKey {
            answer_tag: answer_tag.to_owned(),
            tag: pred.tag.clone(),
            axis: pred.axis,
            value: pred.value.clone(),
            attrs: pred.attrs.clone(),
        }
    }
}

/// One predicate's counts: the answer tag's population, and how many of
/// those answers satisfy the predicate `[exact, relaxed]`.
#[derive(Debug, Clone, Copy)]
struct Counted {
    population: u64,
    satisfying: [u64; 2],
}

/// Definition 4.2's counts of one query's predicates in one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ShardCounts {
    /// Nodes carrying the answer tag.
    pub(crate) population: u64,
    /// `[exact, relaxed]` satisfying answers, one pair per predicate in
    /// the order asked.
    pub(crate) satisfying: Vec<[u64; 2]>,
    /// Whether some of them were counted now rather than read from the
    /// memo.
    pub(crate) counted: bool,
}

/// A shard's counts by predicate, behind a read-mostly lock.
#[derive(Debug, Default)]
pub(crate) struct CountMemo {
    entries: RwLock<HashMap<CountKey, Counted>>,
}

impl CountMemo {
    /// The counts of `preds` over the answers tagged `answer_tag`:
    /// read from the memo under a read lock, with only the predicates
    /// it lacks passed to `count`, which returns what
    /// [`whirlpool_score::tfidf::idf_counts_sweep`] returns over them.
    /// No lock is held while `count` runs; its counts are stored under
    /// a write lock taken after it, up to [`COUNT_MEMO_CAP`] entries.
    ///
    /// A query without predicates stores nothing, so it counts its
    /// population every time. An error from `count` is returned as it
    /// is, and nothing is stored.
    pub(crate) fn counts<E>(
        &self,
        answer_tag: &str,
        preds: &[ComponentPredicate],
        count: impl FnOnce(&[ComponentPredicate]) -> Result<(u64, Vec<[u64; 2]>), E>,
    ) -> Result<ShardCounts, E> {
        let keys: Vec<CountKey> = preds.iter().map(|p| CountKey::new(answer_tag, p)).collect();
        let mut population = None;
        let mut satisfying = vec![[0, 0]; preds.len()];
        let mut missing = Vec::new();
        {
            let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
            for (i, key) in keys.iter().enumerate() {
                match entries.get(key) {
                    Some(c) => (population, satisfying[i]) = (Some(c.population), c.satisfying),
                    None => missing.push(i),
                }
            }
        }
        if let (Some(population), true) = (population, missing.is_empty()) {
            return Ok(ShardCounts {
                population,
                satisfying,
                counted: false,
            });
        }
        let todo: Vec<ComponentPredicate> = missing.iter().map(|&i| preds[i].clone()).collect();
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
                entries.insert(keys[i].clone(), counted);
            }
        }
        Ok(ShardCounts {
            population,
            satisfying,
            counted: true,
        })
    }

    /// Does the memo hold the counts of every one of `preds` under
    /// `answer_tag`, so that [`counts`](CountMemo::counts) would count
    /// nothing?
    pub(crate) fn holds(&self, answer_tag: &str, preds: &[ComponentPredicate]) -> bool {
        let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
        preds
            .iter()
            .all(|p| entries.contains_key(&CountKey::new(answer_tag, p)))
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

    #[test]
    fn a_hit_returns_the_stored_counts_and_a_miss_counts_only_what_is_missing() {
        let memo = CountMemo::default();
        let first = component_predicates(&parse_pattern("//a[./b and .//c]").unwrap());
        let got = memo.counts("a", &first, |todo| {
            assert_eq!(todo.len(), 2);
            Ok::<_, ()>((5, vec![[1, 2], [3, 4]]))
        });
        let want = ShardCounts {
            population: 5,
            satisfying: vec![[1, 2], [3, 4]],
            counted: true,
        };
        assert_eq!(got, Ok(want.clone()));
        assert!(memo.holds("a", &first) && !memo.holds("x", &first));
        let hit = memo.counts("a", &first, unreachable).unwrap();
        assert_eq!(hit.satisfying, want.satisfying);
        assert!(!hit.counted);

        // Shares `./b` and `.//c`, adds `./d`: only `./d` is counted.
        let second = component_predicates(&parse_pattern("//a[.//c and ./d and ./b]").unwrap());
        let mixed = memo.counts("a", &second, |todo| {
            assert_eq!(todo.len(), 1);
            assert_eq!(todo[0].tag, "d");
            Ok::<_, ()>((5, vec![[0, 1]]))
        });
        assert_eq!(mixed.unwrap().satisfying, [[3, 4], [0, 1], [1, 2]]);
        assert_eq!(memo.len(), 3);
        // Another answer tag is another key.
        let other = memo.counts("x", &first, |todo| {
            Ok::<_, ()>((0, vec![[0, 0]; todo.len()]))
        });
        assert!(other.unwrap().counted);
    }

    #[test]
    fn a_failed_count_stores_nothing() {
        let memo = CountMemo::default();
        let preds = component_predicates(&parse_pattern("//a[./b]").unwrap());
        assert_eq!(memo.counts("a", &preds, |_| Err("gone")), Err("gone"));
        assert_eq!(memo.len(), 0);
    }
}
