//! Recycling of partial-match binding buffers.
//!
//! Every [`PartialMatch::extend`] clones its parent's `Box<[Binding]>`,
//! so the engines' hot loop is one heap allocation per extension —
//! millions on the Table-1 workloads. A [`MatchPool`] is a free list of
//! retired buffers: engines release the buffers of pruned, completed,
//! and consumed matches back to their pool, and
//! [`PartialMatch::extend_in`] copies the parent's bindings into a
//! recycled buffer instead of allocating a fresh one. All buffers
//! within one evaluation have the same width (the query length), so any
//! retired buffer fits any extension.
//!
//! Pools are deliberately **not** shared between threads: Whirlpool-M
//! gives each server thread its own pool, trading a little reuse for
//! zero synchronization on the hot path.
//!
//! [`PartialMatch::extend`]: crate::PartialMatch::extend
//! [`PartialMatch::extend_in`]: crate::PartialMatch::extend_in

use crate::metrics::Metrics;
use crate::partial::{Binding, PartialMatch};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Buffers moved per rebalancing exchange between a worker shard and
/// its [`PoolHub`].
const HUB_BLOCK: usize = 64;

/// A worker shard donates a block once its local free list exceeds
/// this (it keeps `HUB_SHARD_MAX - HUB_BLOCK` buffers for itself).
const HUB_SHARD_MAX: usize = 256;

/// A shared reservoir of retired binding buffers backing per-worker
/// [`MatchPool`] shards.
///
/// Whirlpool-M gives every worker thread its own pool so the per-match
/// acquire/release path stays synchronization-free, but worker-local
/// free lists strand buffers: a worker that mostly *consumes* matches
/// (its server sits late in routing orders) hoards buffers that the
/// workers spawning matches keep allocating fresh. The hub rebalances
/// in **blocks** of `HUB_BLOCK` buffers — a shard that runs dry takes
/// a whole block under one lock acquisition, a shard that overflows
/// `HUB_SHARD_MAX` donates one — so the hub lock is touched once per
/// block, not once per match.
#[derive(Default)]
pub struct PoolHub {
    blocks: Mutex<Vec<Vec<Box<[Binding]>>>>,
    rebalances: AtomicU64,
}

impl PoolHub {
    /// An empty hub.
    pub fn new() -> Self {
        PoolHub::default()
    }

    /// Block-exchange operations performed (takes + gives), for
    /// observability and tests.
    pub fn rebalances(&self) -> u64 {
        self.rebalances.load(Ordering::Relaxed)
    }

    /// Buffers currently parked in the hub.
    pub fn buffered(&self) -> usize {
        self.blocks.lock().iter().map(Vec::len).sum()
    }

    fn take_block(&self) -> Option<Vec<Box<[Binding]>>> {
        let block = self.blocks.lock().pop();
        if block.is_some() {
            self.rebalances.fetch_add(1, Ordering::Relaxed);
        }
        block
    }

    fn give_block(&self, block: Vec<Box<[Binding]>>) {
        if block.is_empty() {
            return;
        }
        self.rebalances.fetch_add(1, Ordering::Relaxed);
        self.blocks.lock().push(block);
    }
}

/// A free list of retired binding buffers (see the module docs).
///
/// Obtain one from [`QueryContext::new_pool`](crate::QueryContext::new_pool)
/// so that the pool reports its allocation counters into the context
/// metrics when dropped.
pub struct MatchPool<'m> {
    free: Vec<Box<[Binding]>>,
    allocated: u64,
    reused: u64,
    metrics: Option<&'m Metrics>,
    hub: Option<&'m PoolHub>,
}

impl<'m> MatchPool<'m> {
    /// A stand-alone pool.
    pub fn new() -> MatchPool<'static> {
        MatchPool {
            free: Vec::new(),
            allocated: 0,
            reused: 0,
            metrics: None,
            hub: None,
        }
    }

    /// A pool that adds its counters to `metrics` when dropped.
    pub fn reporting(metrics: &'m Metrics) -> Self {
        MatchPool {
            free: Vec::new(),
            allocated: 0,
            reused: 0,
            metrics: Some(metrics),
            hub: None,
        }
    }

    /// A reporting pool that is a *shard* of `hub`: local misses pull a
    /// block of buffers from the hub before allocating, local overflow
    /// donates a block back, and the remaining free list is returned to
    /// the hub on drop.
    pub fn reporting_shared(metrics: &'m Metrics, hub: &'m PoolHub) -> Self {
        MatchPool {
            free: Vec::new(),
            allocated: 0,
            reused: 0,
            metrics: Some(metrics),
            hub: Some(hub),
        }
    }

    /// A buffer holding a copy of `src`: recycled when one is free,
    /// freshly allocated otherwise.
    #[inline]
    pub fn acquire_copy(&mut self, src: &[Binding]) -> Box<[Binding]> {
        if self.free.is_empty() {
            if let Some(block) = self.hub.and_then(PoolHub::take_block) {
                self.free = block;
            }
        }
        if let Some(mut buf) = self.free.pop() {
            debug_assert_eq!(buf.len(), src.len(), "pooled buffer width mismatch");
            if buf.len() == src.len() {
                self.reused += 1;
                buf.copy_from_slice(src);
                return buf;
            }
        }
        self.allocated += 1;
        src.to_vec().into_boxed_slice()
    }

    /// Retires a match, keeping its buffer for reuse.
    #[inline]
    pub fn release(&mut self, m: PartialMatch) {
        self.free.push(m.bindings);
        if self.free.len() >= HUB_SHARD_MAX {
            if let Some(hub) = self.hub {
                hub.give_block(self.free.split_off(self.free.len() - HUB_BLOCK));
            }
        }
    }

    /// Buffers acquired by fresh allocation so far.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Buffers acquired by recycling so far.
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// Retired buffers currently waiting for reuse.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }
}

impl Drop for MatchPool<'_> {
    fn drop(&mut self) {
        if let Some(hub) = self.hub {
            // A retiring shard (worker exit, dead server) returns its
            // buffers so surviving workers reuse them instead of
            // allocating fresh ones.
            hub.give_block(std::mem::take(&mut self.free));
        }
        if let Some(metrics) = self.metrics {
            if self.allocated > 0 {
                metrics.add_buffers_allocated(self.allocated);
            }
            if self.reused > 0 {
                metrics.add_buffers_reused(self.reused);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whirlpool_pattern::QNodeId;
    use whirlpool_score::MatchLevel;
    use whirlpool_xml::NodeId;

    fn root_match(seq: u64) -> PartialMatch {
        PartialMatch::new_root(seq, 3, NodeId::from_index(1), 0.0, 2.0)
    }

    fn bind(i: usize) -> Binding {
        Binding::Matched {
            node: NodeId::from_index(i),
            level: MatchLevel::Exact,
        }
    }

    #[test]
    fn recycles_released_buffers() {
        let mut pool = MatchPool::new();
        let parent = root_match(0);
        let child = parent.extend_in(&mut pool, 1, QNodeId(1), bind(5), 0.5, 1.0);
        assert_eq!(pool.allocated(), 1);
        assert_eq!(pool.reused(), 0);

        pool.release(child);
        assert_eq!(pool.free_len(), 1);
        let again = parent.extend_in(&mut pool, 2, QNodeId(2), bind(7), 0.25, 1.0);
        assert_eq!(pool.reused(), 1);
        assert_eq!(pool.free_len(), 0);
        // The recycled buffer carries no trace of its previous life.
        assert_eq!(again.bindings[1], Binding::Unbound);
        assert_eq!(again.bindings[2], bind(7));
    }

    #[test]
    fn pooled_extension_equals_plain_extension() {
        let mut pool = MatchPool::new();
        let parent = root_match(0);
        // Churn the pool so the pooled path goes through a recycled
        // buffer with stale contents.
        let stale = parent.extend_in(&mut pool, 9, QNodeId(2), bind(9), 0.1, 1.0);
        pool.release(stale);

        let plain = parent.extend(1, QNodeId(1), bind(4), 0.5, 1.0);
        let pooled = parent.extend_in(&mut pool, 1, QNodeId(1), bind(4), 0.5, 1.0);
        assert_eq!(plain.bindings, pooled.bindings);
        assert_eq!(plain.visited, pooled.visited);
        assert_eq!(plain.score, pooled.score);
        assert_eq!(plain.max_final, pooled.max_final);
        assert!(pool.reused() >= 1);
    }

    #[test]
    fn shard_overflow_donates_blocks_and_misses_take_them() {
        let metrics = Metrics::new();
        let hub = PoolHub::new();
        let parent = root_match(0);
        {
            // Producer shard: releases far more than it acquires (the
            // extensions are allocated outside the pool).
            let mut producer = MatchPool::reporting_shared(&metrics, &hub);
            for i in 0..HUB_SHARD_MAX + HUB_BLOCK {
                let child = parent.extend(i as u64, QNodeId(1), bind(1), 0.1, 1.0);
                producer.release(child);
            }
            // Crossing HUB_SHARD_MAX twice → at least two donations.
            assert!(hub.buffered() >= HUB_BLOCK);
            assert!(producer.free_len() < HUB_SHARD_MAX);
        }
        // Drop donated the remainder too.
        assert_eq!(hub.buffered(), HUB_SHARD_MAX + HUB_BLOCK);
        let gives = hub.rebalances();
        assert!(gives >= 3, "expected >= 3 rebalances, got {gives}");

        // Consumer shard: starts empty, must reuse hub buffers instead
        // of allocating.
        let mut consumer = MatchPool::reporting_shared(&metrics, &hub);
        let c = parent.extend_in(&mut consumer, 0, QNodeId(2), bind(2), 0.1, 1.0);
        assert_eq!(consumer.allocated(), 0);
        assert_eq!(consumer.reused(), 1);
        assert!(hub.rebalances() > gives);
        consumer.release(c);
    }

    #[test]
    fn drop_reports_into_metrics() {
        let metrics = Metrics::new();
        {
            let mut pool = MatchPool::reporting(&metrics);
            let parent = root_match(0);
            let child = parent.extend_in(&mut pool, 1, QNodeId(1), bind(5), 0.5, 1.0);
            pool.release(child);
            let _ = parent.extend_in(&mut pool, 2, QNodeId(2), bind(6), 0.5, 1.0);
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.buffers_allocated, 1);
        assert_eq!(snap.buffers_reused, 1);
        assert!((snap.pool_hit_rate() - 0.5).abs() < 1e-12);
    }
}
