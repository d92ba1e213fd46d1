//! Partial matches — the unit of work the engines route between
//! servers.

use whirlpool_pattern::QNodeId;
use whirlpool_score::{MatchLevel, Score};
use whirlpool_xml::NodeId;

/// The state of one query node within a partial match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binding {
    /// The node's server has not processed this match yet.
    Unbound,
    /// Instantiated with a document node at the given level.
    Matched {
        /// The bound document node.
        node: NodeId,
        /// Exact or relaxed satisfaction of its component predicate.
        level: MatchLevel,
    },
    /// The node's server ran and found no candidate: the outer-join
    /// null, i.e. the leaf-deletion relaxation applied (score
    /// contribution 0).
    Null,
}

impl Binding {
    /// The bound document node, if any.
    pub fn node(&self) -> Option<NodeId> {
        match self {
            Binding::Matched { node, .. } => Some(*node),
            _ => None,
        }
    }

    /// Has the binding's server processed this match (matched or null)?
    pub fn is_bound(&self) -> bool {
        !matches!(self, Binding::Unbound)
    }
}

/// A (partial or complete) match: one candidate instantiation of a
/// prefix of the query nodes, with its current score and the maximum
/// score it can still reach.
#[derive(Debug, Clone)]
pub struct PartialMatch {
    /// Creation sequence number, unique within one evaluation. Used for
    /// FIFO queueing and deterministic tie-breaks.
    pub seq: u64,
    /// Per-query-node state, indexed by [`QNodeId`]. `bindings[0]` (the
    /// pattern root) is always `Matched`.
    pub bindings: Box<[Binding]>,
    /// Bitmask of query nodes whose server has processed this match
    /// (bit 0 = the root, set at creation).
    pub visited: u64,
    /// Sum of the contributions of all bound nodes.
    pub score: Score,
    /// `score` + the maximum possible contribution of every unvisited
    /// server — the key the router queue orders by, and the quantity
    /// compared against the top-k threshold for pruning.
    pub max_final: Score,
}

impl PartialMatch {
    /// A fresh match rooted at `root` (produced by the root server).
    ///
    /// `root_contribution` is the root binding's own score;
    /// `remaining_max` is the sum of all servers' maximum contributions.
    pub fn new_root(
        seq: u64,
        query_len: usize,
        root: NodeId,
        root_contribution: f64,
        remaining_max: f64,
    ) -> Self {
        let mut bindings = vec![Binding::Unbound; query_len].into_boxed_slice();
        bindings[0] = Binding::Matched {
            node: root,
            level: MatchLevel::Exact,
        };
        let score = Score::new(root_contribution);
        PartialMatch {
            seq,
            bindings,
            visited: 1, // root bit
            score,
            max_final: score.plus(remaining_max),
        }
    }

    /// The instantiated pattern-root node.
    ///
    /// # Panics
    /// Panics if the root binding is missing — impossible for matches
    /// produced by the engines.
    pub fn root(&self) -> NodeId {
        self.bindings[0]
            .node()
            .expect("partial match without a root binding")
    }

    /// Has the given server already processed this match?
    pub fn has_visited(&self, server: QNodeId) -> bool {
        self.visited & (1 << server.0) != 0
    }

    /// Complete ⇔ every query node's server has run (bindings may still
    /// be `Null` — those took the leaf-deletion path).
    pub fn is_complete(&self, full_mask: u64) -> bool {
        self.visited == full_mask
    }

    /// Derives the child match produced by binding `server` to
    /// `binding` with score `contribution`, where `server_max` is that
    /// server's maximum possible contribution (subtracted from
    /// `max_final` and replaced by the actual contribution). The child
    /// owns a fresh copy of the parent's bindings.
    pub fn extend(
        &self,
        seq: u64,
        server: QNodeId,
        binding: Binding,
        contribution: f64,
        server_max: f64,
    ) -> PartialMatch {
        debug_assert!(!self.has_visited(server), "server visited twice");
        let mut bindings = self.bindings.clone();
        bindings[server.index()] = binding;
        let score = self.score.plus(contribution);
        let max_final = Score::new(self.max_final.value() - server_max + contribution);
        PartialMatch {
            seq,
            bindings,
            visited: self.visited | (1 << server.0),
            score,
            max_final,
        }
    }

    /// The bitmask covering a query of `len` nodes.
    pub fn full_mask(len: usize) -> u64 {
        debug_assert!(len <= 64);
        if len == 64 {
            u64::MAX
        } else {
            (1u64 << len) - 1
        }
    }

    /// Servers not yet visited, given the query length.
    pub fn unvisited(&self, query_len: usize) -> impl Iterator<Item = QNodeId> + '_ {
        (1..query_len as u8)
            .map(QNodeId)
            .filter(move |q| !self.has_visited(*q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn root_match_initial_state() {
        let m = PartialMatch::new_root(0, 4, n(10), 0.5, 3.0);
        assert_eq!(m.root(), n(10));
        assert_eq!(m.score, Score::new(0.5));
        assert_eq!(m.max_final, Score::new(3.5));
        assert!(m.has_visited(QNodeId(0)));
        assert!(!m.has_visited(QNodeId(1)));
        assert!(!m.is_complete(PartialMatch::full_mask(4)));
        assert_eq!(m.unvisited(4).count(), 3);
    }

    #[test]
    fn extend_updates_score_and_bound() {
        let m = PartialMatch::new_root(0, 3, n(1), 0.0, 2.0); // two servers, max 1.0 each
        let e = m.extend(
            1,
            QNodeId(1),
            Binding::Matched {
                node: n(5),
                level: MatchLevel::Exact,
            },
            0.4,
            1.0,
        );
        assert_eq!(e.score, Score::new(0.4));
        // max_final dropped by the server's slack: 2.0 - 1.0 + 0.4.
        assert_eq!(e.max_final, Score::new(1.4));
        assert!(e.has_visited(QNodeId(1)));
        assert_eq!(e.bindings[1].node(), Some(n(5)));
        // Parent unchanged.
        assert!(!m.has_visited(QNodeId(1)));
    }

    #[test]
    fn null_extension_keeps_score() {
        let m = PartialMatch::new_root(0, 2, n(1), 0.0, 1.0);
        let e = m.extend(1, QNodeId(1), Binding::Null, 0.0, 1.0);
        assert_eq!(e.score, Score::ZERO);
        assert_eq!(e.max_final, Score::ZERO);
        assert!(e.is_complete(PartialMatch::full_mask(2)));
        assert_eq!(e.bindings[1], Binding::Null);
        assert_eq!(e.bindings[1].node(), None);
    }

    #[test]
    fn completion_by_mask() {
        let m = PartialMatch::new_root(0, 3, n(0), 0.0, 0.0);
        let full = PartialMatch::full_mask(3);
        let e1 = m.extend(1, QNodeId(2), Binding::Null, 0.0, 0.0);
        assert!(!e1.is_complete(full));
        let e2 = e1.extend(2, QNodeId(1), Binding::Null, 0.0, 0.0);
        assert!(e2.is_complete(full));
    }

    #[test]
    fn full_mask_boundaries() {
        assert_eq!(PartialMatch::full_mask(1), 1);
        assert_eq!(PartialMatch::full_mask(3), 0b111);
        assert_eq!(PartialMatch::full_mask(64), u64::MAX);
    }
}
