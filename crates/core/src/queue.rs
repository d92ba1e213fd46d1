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
pub struct MatchQueue {
    policy: QueuePolicy,
    /// The server this queue feeds (None: the router queue).
    server: Option<QNodeId>,
    heap: BinaryHeap<Entry>,
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
        }
    }

    /// Enqueues a match (its rank is computed at push time).
    pub fn push(&mut self, ctx: &QueryContext<'_>, m: PartialMatch) {
        let rank = self.policy.rank(ctx, &m, self.server);
        self.heap.push(Entry { rank, m });
    }

    /// Removes and returns the highest-priority match.
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

    /// The rank of the head entry, if any.
    pub(crate) fn peek_rank(&self) -> Option<Rank> {
        self.heap.peek().map(|e| e.rank)
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
                ..Default::default()
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
}
