//! Evaluation counters.
//!
//! The paper's measures (§6.2.3): query execution time, number of
//! server operations, number of partial matches created. We addition-
//! ally count individual join-predicate comparisons (the unit of
//! Figure 3) and pruning/routing activity.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared, thread-safe counters. All engines update the same set so the
/// experiment harness can compare workloads directly.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Partial matches processed by a server ("server operations",
    /// Figure 7).
    pub server_ops: AtomicU64,
    /// Batched locate sweeps: calls to
    /// [`locate_batch_at_server`](crate::QueryContext::locate_batch_at_server),
    /// each resolving the candidate ranges of one drained same-server
    /// batch.
    pub server_op_batches: AtomicU64,
    /// Individual join-predicate comparisons (Figure 3's unit).
    pub predicate_comparisons: AtomicU64,
    /// Partial matches created, including the initial root matches
    /// (Table 2).
    pub partials_created: AtomicU64,
    /// Partial matches discarded against the top-k set.
    pub pruned: AtomicU64,
    /// Root candidates never materialised as a partial match: the run
    /// ended (top-k full above their ceiling, or a budget) before the
    /// seed source reached them.
    pub roots_unseeded: AtomicU64,
    /// Adaptive routing decisions taken.
    pub routing_decisions: AtomicU64,
    /// Evaluations cut short by a deadline or operation budget.
    pub deadline_hits: AtomicU64,
    /// Evaluations cut short by a tripped
    /// [`CancelToken`](crate::CancelToken) (client disconnect, watchdog
    /// timeout, or any other cooperative shutdown).
    pub cancellations: AtomicU64,
    /// Evaluations stopped by a failed or panicking server operation
    /// (at most one per engine run: the failure that stopped it).
    pub servers_failed: AtomicU64,
    /// Times a worker ran out of home-queue work and successfully stole
    /// one drain batch from another worker's server queue.
    pub steal_events: AtomicU64,
    /// Fixed-width lanes swept by the columnar evaluate kernels (one
    /// lane = one fixed-width chunk of candidates tested branch-free).
    pub kernel_lanes: AtomicU64,
}

impl Metrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one server operation.
    #[inline]
    pub fn add_server_op(&self) {
        self.server_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one batched locate sweep.
    #[inline]
    pub fn add_server_op_batch(&self) {
        self.server_op_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` join-predicate comparisons.
    #[inline]
    pub fn add_comparisons(&self, n: u64) {
        self.predicate_comparisons.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` newly created partial matches.
    #[inline]
    pub fn add_created(&self, n: u64) {
        self.partials_created.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one pruned partial match.
    #[inline]
    pub fn add_pruned(&self) {
        self.pruned.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` root candidates dropped before they were seeded.
    #[inline]
    pub fn add_roots_unseeded(&self, n: u64) {
        self.roots_unseeded.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one routing decision.
    #[inline]
    pub fn add_routing_decision(&self) {
        self.routing_decisions.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one budget expiry (deadline or op cap).
    #[inline]
    pub fn add_deadline_hit(&self) {
        self.deadline_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one evaluation stopped by a tripped cancel token.
    #[inline]
    pub fn add_cancellation(&self) {
        self.cancellations.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts the failed or panicking server operation that stopped a
    /// run.
    #[inline]
    pub fn add_server_failed(&self) {
        self.servers_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one successful steal (one drain batch).
    #[inline]
    pub fn add_steal(&self) {
        self.steal_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` fixed-width kernel lanes swept.
    #[inline]
    pub fn add_kernel_lanes(&self, n: u64) {
        self.kernel_lanes.fetch_add(n, Ordering::Relaxed);
    }

    /// A plain-value copy for reporting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let partials_created = self.partials_created.load(Ordering::Relaxed);
        MetricsSnapshot {
            server_ops: self.server_ops.load(Ordering::Relaxed),
            server_op_batches: self.server_op_batches.load(Ordering::Relaxed),
            predicate_comparisons: self.predicate_comparisons.load(Ordering::Relaxed),
            partials_created,
            pruned: self.pruned.load(Ordering::Relaxed),
            roots_unseeded: self.roots_unseeded.load(Ordering::Relaxed),
            routing_decisions: self.routing_decisions.load(Ordering::Relaxed),
            buffers_allocated: partials_created,
            buffers_reused: 0,
            deadline_hits: self.deadline_hits.load(Ordering::Relaxed),
            cancellations: self.cancellations.load(Ordering::Relaxed),
            servers_failed: self.servers_failed.load(Ordering::Relaxed),
            steal_events: self.steal_events.load(Ordering::Relaxed),
            kernel_lanes: self.kernel_lanes.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value counters, comparable and cheap to copy around.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Partial matches processed by servers.
    pub server_ops: u64,
    /// Batched locate sweeps over same-server match groups.
    pub server_op_batches: u64,
    /// Individual join-predicate comparisons.
    pub predicate_comparisons: u64,
    /// Partial matches created (root matches included).
    pub partials_created: u64,
    /// Partial matches discarded against the top-k set.
    pub pruned: u64,
    /// Root candidates never materialised as a partial match.
    pub roots_unseeded: u64,
    /// Adaptive routing decisions taken.
    pub routing_decisions: u64,
    /// Binding buffers allocated: always `partials_created`, since every
    /// match owns exactly one. Kept for readers of the older counter.
    pub buffers_allocated: u64,
    /// Binding buffers recycled: always 0, since no buffer is reused.
    /// Kept for readers of the older counter.
    pub buffers_reused: u64,
    /// Evaluations cut short by a deadline or operation budget.
    pub deadline_hits: u64,
    /// Evaluations cut short by a tripped cancel token.
    pub cancellations: u64,
    /// Evaluations stopped by a failed or panicking server operation.
    pub servers_failed: u64,
    /// Successful batch steals by idle workers (one batch each).
    pub steal_events: u64,
    /// Fixed-width lanes swept by the columnar evaluate kernels.
    pub kernel_lanes: u64,
}

impl MetricsSnapshot {
    /// Fraction of drained batches that arrived by stealing rather than
    /// from a worker's own home queues, in `[0, 1]`; zero when no
    /// batches were drained at all.
    pub fn steal_rate(&self) -> f64 {
        if self.server_op_batches == 0 {
            0.0
        } else {
            self.steal_events as f64 / self.server_op_batches as f64
        }
    }

    /// Adds every counter of `other` into `self`. The collection driver
    /// folds its per-shard runs into one corpus-wide snapshot with this.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        self.server_ops += other.server_ops;
        self.server_op_batches += other.server_op_batches;
        self.predicate_comparisons += other.predicate_comparisons;
        self.partials_created += other.partials_created;
        self.pruned += other.pruned;
        self.roots_unseeded += other.roots_unseeded;
        self.routing_decisions += other.routing_decisions;
        self.buffers_allocated += other.buffers_allocated;
        self.buffers_reused += other.buffers_reused;
        self.deadline_hits += other.deadline_hits;
        self.cancellations += other.cancellations;
        self.servers_failed += other.servers_failed;
        self.steal_events += other.steal_events;
        self.kernel_lanes += other.kernel_lanes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.add_server_op();
        m.add_server_op();
        m.add_comparisons(5);
        m.add_created(3);
        m.add_pruned();
        m.add_routing_decision();
        m.add_deadline_hit();
        m.add_server_failed();
        let s = m.snapshot();
        assert_eq!(s.server_ops, 2);
        assert_eq!(s.predicate_comparisons, 5);
        assert_eq!(s.partials_created, 3);
        assert_eq!(s.pruned, 1);
        assert_eq!(s.routing_decisions, 1);
        assert_eq!(s.deadline_hits, 1);
        assert_eq!(s.servers_failed, 1);
    }

    #[test]
    fn snapshot_is_a_value() {
        let m = Metrics::new();
        let a = m.snapshot();
        m.add_server_op();
        let b = m.snapshot();
        assert_ne!(a, b);
        assert_eq!(a.server_ops, 0);
        assert_eq!(b.server_ops, 1);
    }

    #[test]
    fn buffer_counters_follow_partials_created() {
        use crate::{evaluate, Algorithm, EvalOptions};
        use whirlpool_index::TagIndex;
        use whirlpool_pattern::parse_pattern;
        use whirlpool_score::{Normalization, TfIdfModel};

        let doc = whirlpool_xml::parse_document(
            "<lib><book><title/><isbn/></book><book><review><title/></review></book>\
             <book><isbn/></book></lib>",
        )
        .unwrap();
        let index = TagIndex::build(&doc);
        let query = parse_pattern("//book[./title and ./isbn]").unwrap();
        let model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);
        for algorithm in [
            Algorithm::WhirlpoolS,
            Algorithm::LockStep,
            Algorithm::LockStepNoPrune,
            Algorithm::WhirlpoolM { processors: None },
        ] {
            let r = evaluate(
                &doc,
                &index,
                &query,
                &model,
                &algorithm,
                &EvalOptions::top_k(2),
            );
            assert!(r.metrics.partials_created > 0, "{algorithm:?}");
            assert_eq!(
                r.metrics.buffers_allocated, r.metrics.partials_created,
                "{algorithm:?}"
            );
            assert_eq!(r.metrics.buffers_reused, 0, "{algorithm:?}");
        }
    }
}
