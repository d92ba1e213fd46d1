//! The candidate top-k set.
//!
//! "The system maintains a candidate set of top-k (partial or complete)
//! matches, along with their scores, as the basis for determining if a
//! newly computed partial match, (i) updates the score of an existing
//! match in the set, or (ii) replaces an existing match in the set, or
//! (iii) is pruned ... Note that only one match with a given root node
//! is present in the top-k set as the k returned answers must be
//! distinct instantiations of the query root node." (§5.1)

use crate::partial::PartialMatch;
use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeSet, HashMap};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use whirlpool_score::Score;
use whirlpool_xml::NodeId;

/// A ranked answer: a query-root document node and its score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedAnswer {
    /// The instantiation of the query's returned node.
    pub root: NodeId,
    /// The answer's (current best) score.
    pub score: Score,
}

/// Bounded best-per-root scoreboard with an ordered view.
#[derive(Debug)]
pub struct TopKSet {
    k: usize,
    /// External lower bound on the pruning threshold (see
    /// [`TopKSet::with_floor`]). Zero for standalone runs.
    floor: Score,
    /// root -> current entry score.
    by_root: HashMap<NodeId, Score>,
    /// (score, root), ascending — first element is the k-th (weakest)
    /// entry.
    ordered: BTreeSet<(Score, NodeId)>,
}

impl TopKSet {
    /// Creates an empty set holding at most `k` entries.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        Self::with_floor(k, Score::ZERO)
    }

    /// Creates an empty set whose pruning threshold never drops below
    /// `floor`.
    ///
    /// A collection driver seeds each per-shard run with the *global*
    /// k-th score observed so far, so a shard prunes against the best
    /// answers of every shard already evaluated, not just its own.
    /// Soundness: the global threshold is monotone non-decreasing, so
    /// `floor ≤` the final global k-th score; a match pruned against
    /// the floor (`max_final < floor`, strict) can finish no better
    /// than `max_final`, hence strictly below the final k-th — it could
    /// not have entered the global top-k even as a tie. The floor alone
    /// never cuts a tie — the caller may want every answer scoring
    /// exactly `floor` (threshold queries do) — unlike the set's own
    /// k-th score ([`TopKSet::should_prune`]). With `floor == 0`
    /// behavior is identical to [`TopKSet::new`].
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn with_floor(k: usize, floor: Score) -> Self {
        assert!(k > 0, "top-k with k = 0");
        TopKSet {
            k,
            floor,
            by_root: HashMap::new(),
            ordered: BTreeSet::new(),
        }
    }

    /// The configured answer count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of entries currently held (≤ k).
    pub fn len(&self) -> usize {
        self.ordered.len()
    }

    /// True when no entry has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.ordered.is_empty()
    }

    /// The set's own k-th best current score, once it holds k entries.
    pub fn kth(&self) -> Option<Score> {
        if self.ordered.len() < self.k {
            return None;
        }
        self.ordered.iter().next().map(|(s, _)| *s)
    }

    /// The pruning threshold: the k-th best current score once the set
    /// is full, otherwise zero (nothing can be pruned while slots
    /// remain — any match could still fill one). Never below the
    /// configured floor ([`TopKSet::with_floor`]).
    pub fn threshold(&self) -> Score {
        self.kth().unwrap_or(Score::ZERO).max(self.floor)
    }

    /// Should this match be discarded? True iff its maximum possible
    /// final score cannot *beat* the set's own k-th score (`≤`, once
    /// the set is full), or falls strictly below the floor.
    ///
    /// Cutting ties against a full set is sound under the contract of
    /// [`answers_equivalent`]: such a match either belongs to a root
    /// already held at ≥ the k-th score — which it cannot improve — or
    /// can at best tie the k-th, so neither the score multiset nor any
    /// member above the boundary changes; only *which* roots represent
    /// the boundary tie does.
    pub fn should_prune(&self, m: &PartialMatch) -> bool {
        self.cannot_beat(m.max_final)
    }

    /// [`should_prune`](Self::should_prune) for anything whose maximum
    /// possible final score is at most `max_final` — the seed source's
    /// ceiling stands for every root match it has not produced.
    pub fn cannot_beat(&self, max_final: Score) -> bool {
        max_final < self.floor || self.kth().is_some_and(|kth| max_final <= kth)
    }

    /// Offers a match's current score for its root. Updates the
    /// existing entry if this root already has a weaker one, inserts if
    /// a slot is free, or evicts the weakest entry if this score beats
    /// it. Returns `true` if the set changed.
    pub fn offer(&mut self, root: NodeId, score: Score) -> bool {
        if let Some(&existing) = self.by_root.get(&root) {
            if score > existing {
                self.ordered.remove(&(existing, root));
                self.ordered.insert((score, root));
                self.by_root.insert(root, score);
                return true;
            }
            return false;
        }
        if self.ordered.len() < self.k {
            self.ordered.insert((score, root));
            self.by_root.insert(root, score);
            return true;
        }
        let weakest = *self.ordered.iter().next().expect("full set is non-empty");
        if score > weakest.0 {
            self.ordered.remove(&weakest);
            self.by_root.remove(&weakest.1);
            self.ordered.insert((score, root));
            self.by_root.insert(root, score);
            return true;
        }
        false
    }

    /// Convenience: offer a partial match's current score.
    pub fn offer_match(&mut self, m: &PartialMatch) -> bool {
        self.offer(m.root(), m.score)
    }

    /// The current entries, best first.
    pub fn ranked(&self) -> Vec<RankedAnswer> {
        self.ordered
            .iter()
            .rev()
            .map(|&(score, root)| RankedAnswer { root, score })
            .collect()
    }
}

/// A [`TopKSet`] shared between threads, with a lock-free snapshot of
/// its k-th score for the hot prune path.
///
/// The k-th best score is monotone non-decreasing over a run: offers
/// only ever raise entry scores or evict weaker entries, and fullness
/// is monotone too. The snapshot publishes both in one word — the own
/// k-th score once the set is full, `-∞` before — because with a floor
/// a positive threshold does not prove fullness, and the tie-cutting
/// prune is only sound against a *full* set. A stale copy is always
/// **≤** the live value, which makes two lock-free shortcuts sound:
///
/// * **Pruning** against the snapshot ([`SharedTopK::should_prune`])
///   is conservative — a match the snapshot condemns
///   (`max_final ≤ snapshot k-th ≤ live k-th`, or `< floor`) would also
///   be condemned under the lock. Matches the snapshot spares are
///   re-checked at their next prune point.
/// * **Offer skipping** ([`SharedTopK::offer_is_noop`]): a score at
///   or below the snapshot k-th cannot change the set — insertion
///   needs `score > weakest ≥ snapshot` and a same-root update needs
///   `score > existing ≥ k-th ≥ snapshot`. Such offers skip the lock
///   entirely. A score strictly below the floor is skipped too: the
///   entry it would have created is one the floor's contract (the
///   caller guarantees no answer below it can matter) makes harmless
///   to drop — the collection driver's global merge would reject it
///   for the same reason.
///
/// The snapshot is refreshed from the live set whenever a
/// [`SharedTopK::lock`] guard drops, i.e. only when some thread
/// actually touched the set.
#[derive(Debug)]
pub struct SharedTopK {
    inner: Mutex<TopKSet>,
    floor: Score,
    /// `f64::to_bits` of the last published own k-th score, `-∞` until
    /// the set is full. Monotone non-decreasing as an f64 (not as raw
    /// bits, which is fine — it is only ever decoded, never compared as
    /// an integer).
    kth_bits: AtomicU64,
}

impl SharedTopK {
    /// An empty shared set holding at most `k` entries.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        Self::with_floor(k, Score::ZERO)
    }

    /// An empty shared set whose threshold never drops below `floor`
    /// (see [`TopKSet::with_floor`]), so even pre-publication prunes
    /// benefit from it.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn with_floor(k: usize, floor: Score) -> Self {
        SharedTopK {
            inner: Mutex::new(TopKSet::with_floor(k, floor)),
            floor,
            kth_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// The last published own k-th score (`-∞` until full): a single
    /// relaxed load, always ≤ the live [`TopKSet::kth`].
    #[inline]
    fn kth_snapshot(&self) -> f64 {
        f64::from_bits(self.kth_bits.load(Ordering::Relaxed))
    }

    /// Strictly below the floor, or unable to beat the published k-th
    /// score of a full set: [`TopKSet::cannot_beat`] against the
    /// snapshot, conservative like every check made through it.
    #[inline]
    pub fn cannot_beat(&self, score: Score) -> bool {
        score < self.floor || score.value() <= self.kth_snapshot()
    }

    /// The last published threshold, always ≤ the live
    /// [`TopKSet::threshold`].
    #[inline]
    pub fn threshold_snapshot(&self) -> Score {
        Score::new(self.kth_snapshot().max(self.floor.value()))
    }

    /// Lock-free conservative prune check: true only if the live set
    /// would also prune `m` (ties against a full set's k-th are cut,
    /// ties against the floor survive — matching
    /// [`TopKSet::should_prune`]).
    #[inline]
    pub fn should_prune(&self, m: &PartialMatch) -> bool {
        self.cannot_beat(m.max_final)
    }

    /// Can offering `score` be skipped without taking the lock? True
    /// only when the offer is provably a no-op on the live set (see the
    /// type docs for the proof).
    #[inline]
    pub fn offer_is_noop(&self, score: Score) -> bool {
        self.cannot_beat(score)
    }

    /// Locks the set for reading or writing. Dropping the guard
    /// publishes the (possibly raised) k-th score into the snapshot.
    pub fn lock(&self) -> SharedTopKGuard<'_> {
        SharedTopKGuard {
            bits: &self.kth_bits,
            guard: self.inner.lock(),
        }
    }

    /// Unwraps the final set once all threads are done.
    pub fn into_inner(self) -> TopKSet {
        self.inner.into_inner()
    }
}

/// Write access to a [`SharedTopK`]; publishes the k-th score snapshot
/// on drop.
pub struct SharedTopKGuard<'a> {
    bits: &'a AtomicU64,
    guard: MutexGuard<'a, TopKSet>,
}

impl Deref for SharedTopKGuard<'_> {
    type Target = TopKSet;
    fn deref(&self) -> &TopKSet {
        &self.guard
    }
}

impl DerefMut for SharedTopKGuard<'_> {
    fn deref_mut(&mut self) -> &mut TopKSet {
        &mut self.guard
    }
}

impl Drop for SharedTopKGuard<'_> {
    fn drop(&mut self) {
        if let Some(kth) = self.guard.kth() {
            self.bits.store(kth.value().to_bits(), Ordering::Release);
        }
    }
}

/// Are two ranked answer lists equivalent as top-k results?
///
/// Engines (and thread interleavings) may resolve *score ties*
/// differently, and any resolution is a correct top-k answer. Two lists
/// are equivalent iff (1) their score vectors agree pairwise within
/// `epsilon`, and (2) within every maximal group of tied scores the same
/// root sets appear — except for a tied group that touches the end of
/// the list, where different members of the tie may have been admitted.
pub fn answers_equivalent(a: &[RankedAnswer], b: &[RankedAnswer], epsilon: f64) -> bool {
    tie_equivalent(a, b, epsilon, |r| r.score.value(), |r| r.root)
}

/// The tie rule behind [`answers_equivalent`] and
/// [`collection_answers_equivalent`](crate::collection_answers_equivalent),
/// over any answer type: `score` reads an answer's score, `key` the
/// identity compared inside a tied group.
pub(crate) fn tie_equivalent<T, K: Ord>(
    a: &[T],
    b: &[T],
    epsilon: f64,
    score: impl Fn(&T) -> f64,
    key: impl Fn(&T) -> K,
) -> bool {
    if a.len() != b.len() {
        return false;
    }
    if a.iter()
        .zip(b)
        .any(|(x, y)| (score(x) - score(y)).abs() > epsilon)
    {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        let mut j = i + 1;
        while j < a.len() && (score(&a[j]) - score(&a[i])).abs() <= epsilon {
            j += 1;
        }
        // A tie group cut off by the k boundary may legitimately hold
        // different answers in the two lists.
        if j < a.len() {
            let mut ra: Vec<K> = a[i..j].iter().map(&key).collect();
            let mut rb: Vec<K> = b[i..j].iter().map(&key).collect();
            ra.sort_unstable();
            rb.sort_unstable();
            if ra != rb {
                return false;
            }
        }
        i = j;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn m(root: usize, score: f64, max_final: f64) -> PartialMatch {
        let mut pm = PartialMatch::new_root(0, 1, n(root), score, 0.0);
        pm.max_final = Score::new(max_final);
        pm
    }

    #[test]
    fn threshold_is_zero_until_full() {
        let mut set = TopKSet::new(2);
        assert_eq!(set.threshold(), Score::ZERO);
        set.offer(n(1), Score::new(5.0));
        assert_eq!(set.threshold(), Score::ZERO);
        set.offer(n(2), Score::new(3.0));
        assert_eq!(set.threshold(), Score::new(3.0));
    }

    #[test]
    fn offers_update_replace_and_reject() {
        let mut set = TopKSet::new(2);
        assert!(set.offer(n(1), Score::new(1.0)));
        assert!(set.offer(n(2), Score::new(2.0)));
        // Same root, better score: update.
        assert!(set.offer(n(1), Score::new(3.0)));
        // Same root, worse score: no change.
        assert!(!set.offer(n(1), Score::new(0.5)));
        // New root beating the weakest: replace.
        assert!(set.offer(n(3), Score::new(2.5)));
        let ranked = set.ranked();
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].root, n(1));
        assert_eq!(ranked[1].root, n(3));
        // New root below the weakest: rejected.
        assert!(!set.offer(n(4), Score::new(0.1)));
    }

    #[test]
    fn pruning_respects_threshold_and_ties() {
        let mut set = TopKSet::new(1);
        set.offer(n(1), Score::new(2.0));
        assert!(set.should_prune(&m(9, 0.0, 1.9)));
        // A tie with a full set's own k-th score is cut: it can at
        // best swap one boundary member for another. The held root's
        // own match is no exception — it cannot improve its entry.
        assert!(set.should_prune(&m(9, 0.0, 2.0)));
        assert!(set.should_prune(&m(1, 2.0, 2.0)));
        assert!(!set.should_prune(&m(9, 0.0, 2.1)));
    }

    #[test]
    fn nothing_pruned_while_slots_remain() {
        let set = TopKSet::new(3);
        assert!(!set.should_prune(&m(9, 0.0, 0.0)));
    }

    #[test]
    fn one_entry_per_root() {
        let mut set = TopKSet::new(3);
        set.offer(n(1), Score::new(1.0));
        set.offer(n(1), Score::new(2.0));
        set.offer(n(1), Score::new(1.5));
        assert_eq!(set.len(), 1);
        assert_eq!(set.ranked()[0].score, Score::new(2.0));
    }

    #[test]
    fn ranked_is_descending() {
        let mut set = TopKSet::new(5);
        for (i, s) in [(1, 0.3), (2, 0.9), (3, 0.1), (4, 0.7)] {
            set.offer(n(i), Score::new(s));
        }
        let scores: Vec<f64> = set.ranked().iter().map(|a| a.score.value()).collect();
        assert_eq!(scores, vec![0.9, 0.7, 0.3, 0.1]);
    }

    #[test]
    #[should_panic(expected = "k = 0")]
    fn zero_k_is_rejected() {
        let _ = TopKSet::new(0);
    }

    #[test]
    fn floor_raises_the_threshold_until_the_set_beats_it() {
        let mut set = TopKSet::with_floor(2, Score::new(1.5));
        // Empty set: the floor already prunes.
        assert_eq!(set.threshold(), Score::new(1.5));
        assert!(set.should_prune(&m(9, 0.0, 1.4)));
        assert!(
            !set.should_prune(&m(9, 0.0, 1.5)),
            "a tie against the floor alone survives"
        );
        // Partially full: still the floor.
        set.offer(n(1), Score::new(9.0));
        assert_eq!(set.threshold(), Score::new(1.5));
        // Full but k-th below the floor: the floor wins, and stays
        // strict.
        set.offer(n(2), Score::new(1.0));
        assert_eq!(set.threshold(), Score::new(1.5));
        assert!(!set.should_prune(&m(9, 0.0, 1.5)));
        // Full with k-th above the floor: the live k-th wins, ties cut.
        set.offer(n(3), Score::new(2.0));
        assert_eq!(set.threshold(), Score::new(2.0));
        assert!(set.should_prune(&m(9, 0.0, 2.0)));
    }

    #[test]
    fn zero_floor_is_the_default_behavior() {
        let mut a = TopKSet::new(3);
        let mut b = TopKSet::with_floor(3, Score::ZERO);
        for (i, s) in [(1, 0.3), (2, 0.9), (3, 0.1), (4, 0.7)] {
            assert_eq!(a.offer(n(i), Score::new(s)), b.offer(n(i), Score::new(s)));
            assert_eq!(a.threshold(), b.threshold());
        }
    }

    #[test]
    fn shared_floor_is_visible_before_any_publication() {
        let shared = SharedTopK::with_floor(2, Score::new(3.0));
        // No guard has dropped yet, but the snapshot starts at the
        // floor, so prunes and offer skips already apply.
        assert_eq!(shared.threshold_snapshot(), Score::new(3.0));
        assert!(shared.should_prune(&m(9, 0.0, 2.9)));
        assert!(shared.offer_is_noop(Score::new(2.9)));
        // The floor proves nothing about fullness: ties with it stay.
        assert!(!shared.should_prune(&m(9, 0.0, 3.0)));
        assert!(!shared.offer_is_noop(Score::new(3.0)));
    }

    #[test]
    fn snapshot_is_published_on_guard_drop() {
        let shared = SharedTopK::new(2);
        assert_eq!(shared.threshold_snapshot(), Score::ZERO);
        {
            let mut g = shared.lock();
            g.offer(n(1), Score::new(5.0));
            g.offer(n(2), Score::new(3.0));
            // Not yet published: the guard is still alive.
            assert_eq!(shared.threshold_snapshot(), Score::ZERO);
        }
        assert_eq!(shared.threshold_snapshot(), Score::new(3.0));
        assert_eq!(shared.into_inner().threshold(), Score::new(3.0));
    }

    #[test]
    fn snapshot_prune_is_conservative() {
        let shared = SharedTopK::new(1);
        shared.lock().offer(n(1), Score::new(2.0));
        // At or below the snapshot: pruned, as under the lock.
        assert!(shared.should_prune(&m(9, 0.0, 1.9)));
        assert!(shared.should_prune(&m(9, 0.0, 2.0)));
        assert!(!shared.should_prune(&m(9, 0.0, 2.1)));
    }

    #[test]
    fn snapshot_publishes_fullness_with_the_kth_score() {
        // A zero k-th score must not be mistaken for "not full yet",
        // nor the other way round.
        let shared = SharedTopK::new(2);
        shared.lock().offer(n(1), Score::ZERO);
        assert!(!shared.should_prune(&m(9, 0.0, 0.0)), "one slot is free");
        shared.lock().offer(n(2), Score::ZERO);
        assert!(shared.should_prune(&m(9, 0.0, 0.0)), "full at 0: ties cut");
        assert!(shared.offer_is_noop(Score::ZERO));
    }

    #[test]
    fn offer_skipping_needs_a_positive_snapshot() {
        let shared = SharedTopK::new(2);
        // Empty set: no k-th score published, nothing may be skipped.
        assert!(!shared.offer_is_noop(Score::ZERO));
        assert!(!shared.offer_is_noop(Score::new(0.5)));
        {
            let mut g = shared.lock();
            g.offer(n(1), Score::new(4.0));
            g.offer(n(2), Score::new(2.0));
        }
        // Full set, snapshot 2.0: offers that cannot beat it are no-ops.
        assert!(shared.offer_is_noop(Score::new(1.9)));
        assert!(shared.offer_is_noop(Score::new(2.0)));
        assert!(!shared.offer_is_noop(Score::new(2.1)));
        // Cross-check the claim against the live set.
        assert!(!shared.lock().offer(n(3), Score::new(2.0)));
        assert!(!shared.lock().offer(n(2), Score::new(2.0)));
    }

    #[test]
    fn equivalence_accepts_tail_tie_swaps() {
        let a = vec![
            RankedAnswer {
                root: n(1),
                score: Score::new(3.0),
            },
            RankedAnswer {
                root: n(2),
                score: Score::new(2.0),
            },
        ];
        let b_same = a.clone();
        let b_tail_tie = vec![
            RankedAnswer {
                root: n(1),
                score: Score::new(3.0),
            },
            RankedAnswer {
                root: n(9),
                score: Score::new(2.0),
            },
        ];
        let b_wrong_score = vec![
            RankedAnswer {
                root: n(1),
                score: Score::new(3.0),
            },
            RankedAnswer {
                root: n(2),
                score: Score::new(1.0),
            },
        ];
        assert!(answers_equivalent(&a, &b_same, 1e-9));
        // The 2.0 group touches the end: root swap allowed.
        assert!(answers_equivalent(&a, &b_tail_tie, 1e-9));
        assert!(!answers_equivalent(&a, &b_wrong_score, 1e-9));
        assert!(!answers_equivalent(&a, &a[..1], 1e-9));
    }

    #[test]
    fn equivalence_rejects_interior_root_swaps() {
        let a = vec![
            RankedAnswer {
                root: n(1),
                score: Score::new(3.0),
            },
            RankedAnswer {
                root: n(2),
                score: Score::new(2.0),
            },
        ];
        let b = vec![
            RankedAnswer {
                root: n(7),
                score: Score::new(3.0),
            },
            RankedAnswer {
                root: n(2),
                score: Score::new(2.0),
            },
        ];
        // The 3.0 "group" does not touch the end; its roots must agree.
        assert!(!answers_equivalent(&a, &b, 1e-9));
    }

    #[test]
    fn equivalence_allows_reorder_within_interior_ties() {
        let a = vec![
            RankedAnswer {
                root: n(1),
                score: Score::new(3.0),
            },
            RankedAnswer {
                root: n(2),
                score: Score::new(3.0),
            },
            RankedAnswer {
                root: n(3),
                score: Score::new(1.0),
            },
        ];
        let b = vec![
            RankedAnswer {
                root: n(2),
                score: Score::new(3.0),
            },
            RankedAnswer {
                root: n(1),
                score: Score::new(3.0),
            },
            RankedAnswer {
                root: n(3),
                score: Score::new(1.0),
            },
        ];
        assert!(answers_equivalent(&a, &b, 1e-9));
    }
}
