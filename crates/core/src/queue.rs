//! Priority-queue policies (paper §6.1.3).
//!
//! "Various strategies can be used for server prioritization: FIFO ...
//! Current score ... Maximum possible next score ... Maximum possible
//! final score". The paper finds the last one best everywhere ("for all
//! configurations tested, a queue based on the maximum possible final
//! score performed better"), and Whirlpool-S is defined over it; the
//! others are kept for the ablation benches.

use crate::context::QueryContext;
use crate::partial::PartialMatch;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use whirlpool_pattern::QNodeId;
use whirlpool_score::Score;

/// How a queue orders the partial matches waiting in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// Arrival order.
    Fifo,
    /// Highest current score first.
    CurrentScore,
    /// Current score plus the maximum the *target server* could add.
    /// (Only distinct from `CurrentScore` on per-server queues.)
    MaxNextScore,
    /// Highest maximum possible final score first — the paper's winner.
    #[default]
    MaxFinalScore,
}

impl QueuePolicy {
    /// The priority key for `m` waiting on `server` (None for the
    /// router's server-agnostic queue).
    pub fn key(self, ctx: &QueryContext<'_>, m: &PartialMatch, server: Option<QNodeId>) -> Score {
        match self {
            // FIFO keys are handled by the tie-break (earlier seq wins);
            // a constant key makes the heap a FIFO-by-seq queue.
            QueuePolicy::Fifo => Score::ZERO,
            QueuePolicy::CurrentScore => m.score,
            QueuePolicy::MaxNextScore => match server {
                Some(s) => m.score.plus(ctx.max_contribution(s)),
                None => m.score,
            },
            QueuePolicy::MaxFinalScore => m.max_final,
        }
    }

    /// [`MatchQueue`]'s order for `m`, greatest first.
    pub(crate) fn rank(
        self,
        ctx: &QueryContext<'_>,
        m: &PartialMatch,
        server: Option<QNodeId>,
    ) -> Rank {
        let (score, visited) = match self {
            QueuePolicy::Fifo => (Score::ZERO, 0),
            _ => (m.score, m.visited.count_ones()),
        };
        (self.key(ctx, m, server), score, visited, Reverse(m.seq))
    }
}

/// [`QueuePolicy::rank`]'s value: `(key, score, visited, earlier seq)`.
pub(crate) type Rank = (Score, Score, u32, Reverse<u64>);

/// A priority queue of partial matches under a fixed policy.
///
/// Ordering: higher [`key`](QueuePolicy::key) first; equal keys by
/// *progress* — higher current score, then more servers visited — then
/// earlier creation sequence. Equal keys are the common case (under
/// [`MaxFinalScore`](QueuePolicy::MaxFinalScore) every root match
/// starts at the same ceiling), and running them depth-first completes
/// k answers at the ceiling after O(k · servers) operations instead of
/// advancing every root one server at a time. `Fifo` is arrival order
/// alone. The order is total and deterministic: `seq` is unique within
/// a run.
///
/// A router queue built [`with_seeds`](MatchQueue::with_seeds) also
/// holds the root matches nobody has asked for yet, as a cursor that
/// ranks as the match it would produce next. A root the run never
/// reaches is never created.
pub struct MatchQueue {
    policy: QueuePolicy,
    /// The server this queue feeds (None: the router queue).
    server: Option<QNodeId>,
    heap: BinaryHeap<Entry>,
    seeds: Option<SeedSource>,
}

/// The unmaterialised suffix of [`QueryContext::root_candidates`].
struct SeedSource {
    /// The next root candidate to materialise, and their count.
    next: usize,
    len: usize,
    /// Root `i` gets the reserved sequence number `first_seq + i`.
    first_seq: u64,
    /// [`QueryContext::seed_ceiling`]: no unseeded root ranks higher.
    ceiling: (Score, Score),
}

struct Entry {
    rank: Rank,
    m: PartialMatch,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank.cmp(&other.rank)
    }
}

impl MatchQueue {
    /// An empty queue under `policy`, feeding `server` (`None` for the
    /// router queue).
    pub fn new(policy: QueuePolicy, server: Option<QNodeId>) -> Self {
        MatchQueue {
            policy,
            server,
            heap: BinaryHeap::new(),
            seeds: None,
        }
    }

    /// An empty router queue that will produce `ctx`'s root matches on
    /// demand, their sequence numbers reserved now.
    pub fn with_seeds(policy: QueuePolicy, ctx: &QueryContext<'_>) -> Self {
        let len = ctx.root_candidates().len();
        MatchQueue {
            seeds: (len > 0).then(|| SeedSource {
                next: 0,
                len,
                first_seq: ctx.reserve_seed_seqs(),
                ceiling: ctx.seed_ceiling(),
            }),
            ..MatchQueue::new(policy, None)
        }
    }

    /// The rank the unseeded roots hold in this queue: under
    /// [`MaxFinalScore`](QueuePolicy::MaxFinalScore) that of a root at
    /// the ceiling with the next reserved `seq` — exact when every root
    /// scores alike, an upper bound with a per-node model. The other
    /// orders are defined over seeds that all exist, so there the
    /// source outranks everything and is drained first.
    fn seed_rank(&self) -> Option<Rank> {
        let s = self.seeds.as_ref()?;
        Some(match self.policy {
            QueuePolicy::MaxFinalScore => {
                let seq = s.first_seq + s.next as u64;
                (s.ceiling.0, s.ceiling.1, 1, Reverse(seq))
            }
            _ => (Score::new(f64::INFINITY), Score::ZERO, 0, Reverse(0)),
        })
    }

    /// Is the next thing this queue yields a root match that does not
    /// exist yet? Then [`next_seed`](Self::next_seed), not `pop`.
    pub(crate) fn seeds_are_head(&self) -> bool {
        self.seed_rank()
            .is_some_and(|s| self.heap.peek().map_or(true, |e| s > e.rank))
    }

    /// Materialises the next root match (`None`: all seeded, or dropped).
    pub(crate) fn next_seed(&mut self, ctx: &QueryContext<'_>) -> Option<PartialMatch> {
        let s = self.seeds.as_mut()?;
        let m = ctx.seed(s.next, s.first_seq + s.next as u64);
        ctx.metrics.add_created(1);
        s.next += 1;
        if s.next == s.len {
            self.seeds = None;
        }
        Some(m)
    }

    /// Forgets the roots not yet materialised, counting them as
    /// `roots_unseeded`: how many there were and the `max_final` none
    /// of them could exceed (`None`: nothing was left).
    pub(crate) fn drop_seeds(&mut self, ctx: &QueryContext<'_>) -> Option<(u64, Score)> {
        let s = self.seeds.take()?;
        let remaining = (s.len - s.next) as u64;
        ctx.metrics.add_roots_unseeded(remaining);
        Some((remaining, s.ceiling.0))
    }

    /// Are root matches still waiting to be materialised?
    pub(crate) fn has_seeds(&self) -> bool {
        self.seeds.is_some()
    }

    /// Enqueues a match (its rank is computed at push time).
    pub fn push(&mut self, ctx: &QueryContext<'_>, m: PartialMatch) {
        let rank = self.policy.rank(ctx, &m, self.server);
        self.heap.push(Entry { rank, m });
    }

    /// Removes and returns the highest-priority queued match.
    pub fn pop(&mut self) -> Option<PartialMatch> {
        self.heap.pop().map(|e| e.m)
    }

    /// Removes every queued match, in no particular order.
    pub fn drain(&mut self) -> impl Iterator<Item = PartialMatch> + '_ {
        self.heap.drain().map(|e| e.m)
    }

    /// The key of the head entry, if any.
    pub fn peek_key(&self) -> Option<Score> {
        self.heap.peek().map(|e| e.rank.0)
    }

    /// The rank of whatever comes next — the head entry or the seed
    /// source — if anything does.
    pub(crate) fn peek_rank(&self) -> Option<Rank> {
        self.heap.peek().map(|e| e.rank).max(self.seed_rank())
    }

    /// Number of queued matches.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ContextOptions, QueryContext, RelaxMode};
    use whirlpool_index::TagIndex;
    use whirlpool_pattern::parse_pattern;
    use whirlpool_score::{Normalization, TfIdfModel};
    use whirlpool_xml::parse_document;

    fn with_ctx(f: impl FnOnce(&QueryContext<'_>)) {
        let doc = parse_document("<r><item><name>x</name></item><item/></r>").unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern("//item[./name]").unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        let ctx = QueryContext::new(
            &doc,
            &index,
            &pattern,
            &model,
            ContextOptions {
                relax: RelaxMode::Relaxed,
            },
        );
        f(&ctx);
    }

    fn m(seq: u64, score: f64, max_final: f64) -> PartialMatch {
        let mut pm =
            PartialMatch::new_root(seq, 2, whirlpool_xml::NodeId::from_index(1), score, 0.0);
        pm.max_final = Score::new(max_final);
        pm
    }

    #[test]
    fn fifo_pops_in_arrival_order() {
        with_ctx(|ctx| {
            let mut q = MatchQueue::new(QueuePolicy::Fifo, None);
            q.push(ctx, m(2, 9.0, 9.0));
            q.push(ctx, m(0, 1.0, 1.0));
            q.push(ctx, m(1, 5.0, 5.0));
            let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|x| x.seq).collect();
            assert_eq!(seqs, vec![0, 1, 2]);
        });
    }

    #[test]
    fn max_final_pops_highest_first() {
        with_ctx(|ctx| {
            let mut q = MatchQueue::new(QueuePolicy::MaxFinalScore, None);
            q.push(ctx, m(0, 0.0, 1.0));
            q.push(ctx, m(1, 0.0, 3.0));
            q.push(ctx, m(2, 0.0, 2.0));
            let finals: Vec<f64> = std::iter::from_fn(|| q.pop())
                .map(|x| x.max_final.value())
                .collect();
            assert_eq!(finals, vec![3.0, 2.0, 1.0]);
        });
    }

    #[test]
    fn current_score_ignores_max_final() {
        with_ctx(|ctx| {
            let mut q = MatchQueue::new(QueuePolicy::CurrentScore, None);
            q.push(ctx, m(0, 0.5, 9.0));
            q.push(ctx, m(1, 0.9, 1.0));
            assert_eq!(q.pop().unwrap().seq, 1);
        });
    }

    #[test]
    fn max_next_score_adds_server_bound() {
        with_ctx(|ctx| {
            let server = QNodeId(1);
            // Sparse normalization → name server max contribution = 1.0.
            let mut q = MatchQueue::new(QueuePolicy::MaxNextScore, Some(server));
            q.push(ctx, m(0, 0.2, 9.0));
            assert_eq!(q.peek_key(), Some(Score::new(1.2)));
        });
    }

    #[test]
    fn ties_break_by_seq_deterministically() {
        with_ctx(|ctx| {
            let mut q = MatchQueue::new(QueuePolicy::MaxFinalScore, None);
            q.push(ctx, m(5, 0.0, 1.0));
            q.push(ctx, m(3, 0.0, 1.0));
            q.push(ctx, m(4, 0.0, 1.0));
            let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|x| x.seq).collect();
            assert_eq!(seqs, vec![3, 4, 5]);
        });
    }

    #[test]
    fn equal_keys_run_depth_first() {
        with_ctx(|ctx| {
            let mut q = MatchQueue::new(QueuePolicy::MaxFinalScore, None);
            // Same ceiling everywhere: the match that has banked the
            // most score goes first, then the one that has visited more
            // servers, and only then the older one.
            q.push(ctx, m(0, 0.0, 2.0));
            q.push(ctx, m(1, 1.0, 2.0));
            let mut further = m(2, 0.0, 2.0);
            further.visited |= 0b10;
            q.push(ctx, further);
            q.push(ctx, m(3, 1.0, 1.5));
            let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|x| x.seq).collect();
            assert_eq!(seqs, vec![1, 2, 0, 3]);
        });
    }

    #[test]
    fn seed_source_ranks_as_the_next_root_and_yields_to_progress() {
        with_ctx(|ctx| {
            // Two `item` roots, sparse weights: ceiling 1.0, root score 0.
            let mut q = MatchQueue::with_seeds(QueuePolicy::MaxFinalScore, ctx);
            assert!(q.has_seeds() && q.seeds_are_head());
            let first = q.next_seed(ctx).unwrap();
            assert_eq!((first.seq, first.max_final), (0, Score::new(1.0)));
            // The seed outranks the source (earlier seq) ...
            q.push(ctx, first);
            assert!(!q.seeds_are_head());
            let first = q.pop().unwrap();
            // ... and so does a match at the ceiling that has banked
            // score, whatever its seq; one below the ceiling does not.
            let mut ahead = m(7, 1.0, 1.0);
            ahead.visited |= 0b10;
            q.push(ctx, ahead);
            assert!(!q.seeds_are_head());
            assert_eq!(q.pop().unwrap().seq, 7);
            q.push(ctx, m(8, 0.5, 0.5));
            assert!(q.seeds_are_head());
            assert_eq!(
                q.peek_rank(),
                Some((Score::new(1.0), Score::ZERO, 1, Reverse(1)))
            );

            let second = q.next_seed(ctx).unwrap();
            assert_eq!(second.seq, 1);
            assert!(second.root() > first.root());
            assert!(!q.has_seeds() && q.next_seed(ctx).is_none());
            assert_eq!(q.drop_seeds(ctx), None);
            let snapshot = ctx.metrics.snapshot();
            assert_eq!((snapshot.partials_created, snapshot.roots_unseeded), (2, 0));
        });
    }

    #[test]
    fn other_policies_drain_the_source_first_and_dropping_it_counts_the_rest() {
        with_ctx(|ctx| {
            for policy in [QueuePolicy::Fifo, QueuePolicy::CurrentScore] {
                let mut q = MatchQueue::with_seeds(policy, ctx);
                // Nothing queued comes before an unseeded root.
                q.push(ctx, m(99, 9.0, 9.0));
                assert!(q.seeds_are_head());
                assert!(q.next_seed(ctx).is_some());
                assert!(q.seeds_are_head());
                let before = ctx.metrics.snapshot().roots_unseeded;
                assert_eq!(q.drop_seeds(ctx), Some((1, Score::new(1.0))));
                assert_eq!(ctx.metrics.snapshot().roots_unseeded, before + 1);
                assert!(!q.seeds_are_head() && q.peek_rank().is_some());
            }
            // Seqs were reserved per queue: the runs do not collide.
            let q = MatchQueue::with_seeds(QueuePolicy::MaxFinalScore, ctx);
            assert_eq!(q.peek_rank().unwrap().3, Reverse(4));
        });
    }
}
