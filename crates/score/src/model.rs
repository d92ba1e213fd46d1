//! Incremental score models for the evaluation engines.
//!
//! A server extending a partial match with a binding needs that
//! binding's score contribution immediately ("incremental assignment of
//! updated scores", §5.2.1), and the router/pruner need each server's
//! *maximum possible* contribution to compute maximum possible final
//! scores. `ScoreModel` is that interface; the engines are generic over
//! it.

use crate::score::Score;
use crate::CorpusStats;
use std::collections::HashMap;
use whirlpool_index::{DocView, TagIndex, TagIndexView};
use whirlpool_pattern::{QNodeId, TreePattern};
use whirlpool_xml::{Document, NodeId};

/// How a binding satisfied its component predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchLevel {
    /// Every original (unrelaxed) predicate relating the binding to the
    /// instantiated part of the match holds.
    Exact,
    /// Only the relaxed (ancestor-descendant) forms hold.
    Relaxed,
}

/// Per-binding score contributions.
///
/// Implementations must be cheap (`O(1)` per call): the engines call
/// `contribution` once per candidate per server operation.
pub trait ScoreModel: Send + Sync {
    /// Contribution of binding `node` at query node `server` when the
    /// binding satisfies its predicates at `level`. The pattern root's
    /// own contribution is queried with `server == QNodeId::ROOT` (its
    /// level is always [`MatchLevel::Exact`]).
    fn contribution(&self, server: QNodeId, node: NodeId, level: MatchLevel) -> f64;

    /// Upper bound of `contribution` over all nodes and levels at
    /// `server`. Used for maximum-possible-final-score computation; an
    /// unsound (too small) bound breaks pruning correctness.
    fn max_contribution(&self, server: QNodeId) -> f64;

    /// Upper bound of `contribution` over all nodes at `server` when the
    /// binding only reaches the *relaxed* level. Routing estimators use
    /// this to predict the score of approximate bindings, and a
    /// collection's shard ceilings to bound a shard where no answer
    /// satisfies the server exactly; the default is the (always valid)
    /// exact bound.
    fn max_relaxed_contribution(&self, server: QNodeId) -> f64 {
        self.max_contribution(server)
    }

    /// Upper bound over the root contribution.
    fn max_root_contribution(&self) -> f64 {
        self.max_contribution(QNodeId::ROOT)
    }

    /// Each query node's `[exact, relaxed]` satisfying fraction of the
    /// answer population (indexed by `QNodeId`), when the model was
    /// built from Definition 4.2's counts. The router reads them as its
    /// per-server estimates; `None` (the default) means the model holds
    /// no counts and the caller counts them itself.
    fn satisfying_fractions(&self) -> Option<&[[f64; 2]]> {
        None
    }

    /// Sum of all per-server maxima plus the root maximum — the highest
    /// score any answer could reach.
    fn max_total(&self, servers: &[QNodeId]) -> Score {
        let total = self.max_root_contribution()
            + servers
                .iter()
                .map(|&s| self.max_contribution(s))
                .sum::<f64>();
        Score::new(total)
    }
}

/// The paper's two score normalizations (§6.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Normalization {
    /// Raw idf weights.
    None,
    /// "sparse, where for each predicate, scores are normalized between
    /// 0 and 1" — per-predicate normalization; exact satisfaction of any
    /// predicate scores 1.0. Final scores spread out, enabling pruning.
    #[default]
    Sparse,
    /// "dense, where score normalization is applied over all predicates"
    /// — global normalization; predicates keep their relative skew and
    /// final scores bunch together, hindering pruning.
    Dense,
}

/// tf*idf-derived weights: a binding at server `qi` contributes the idf
/// of the component predicate `p(q0, qi)` at the satisfied level (the
/// relaxed predicate is satisfied by more nodes, hence has smaller idf —
/// so exact ≥ relaxed by construction).
pub struct TfIdfModel {
    /// `[exact, relaxed]` weight per query node (index = QNodeId).
    weights: Vec<[f64; 2]>,
    /// `[exact, relaxed]` satisfying fraction of the population per
    /// query node, from the counts the weights came from.
    fractions: Vec<[f64; 2]>,
}

impl TfIdfModel {
    /// Derives weights from the document per Definitions 4.1/4.2 and
    /// applies `normalization`.
    pub fn build(
        doc: &Document,
        index: &TagIndex,
        pattern: &TreePattern,
        normalization: Normalization,
    ) -> Self {
        Self::build_view(doc.into(), index.view(), pattern, normalization)
    }

    /// [`build`](TfIdfModel::build) over borrowed views — the form the
    /// snapshot-attached paths use (no owned `Document` exists there).
    pub fn build_view(
        doc: DocView<'_>,
        index: TagIndexView<'_>,
        pattern: &TreePattern,
        normalization: Normalization,
    ) -> Self {
        // One document's Definition 4.2 is a one-shard corpus's.
        let mut stats = CorpusStats::new(pattern);
        stats.add_shard_view(doc, index, &pattern.node(pattern.root()).tag);
        stats.model(normalization)
    }

    /// A model of the given `[exact, relaxed]` weight table and the
    /// satisfying fractions behind it (one row per query node, root row
    /// included), as [`CorpusStats::model`] derives them from counts.
    pub(crate) fn from_weights(
        mut weights: Vec<[f64; 2]>,
        fractions: Vec<[f64; 2]>,
        normalization: Normalization,
    ) -> Self {
        apply_normalization(&mut weights, normalization);
        TfIdfModel { weights, fractions }
    }

    /// The `[exact, relaxed]` weight pair for a query node.
    pub fn weights(&self, qnode: QNodeId) -> [f64; 2] {
        self.weights[qnode.index()]
    }
}

/// Applies one of the paper's §6.2.2 normalizations to a raw
/// `[exact, relaxed]` weight table in place.
fn apply_normalization(weights: &mut [[f64; 2]], normalization: Normalization) {
    match normalization {
        Normalization::None => {}
        Normalization::Sparse => {
            for w in weights.iter_mut() {
                let max = w[0];
                if max > 0.0 {
                    w[0] /= max;
                    w[1] /= max;
                }
            }
        }
        Normalization::Dense => {
            let max = weights.iter().map(|w| w[0]).fold(0.0f64, f64::max);
            if max > 0.0 {
                for w in weights.iter_mut() {
                    w[0] /= max;
                    w[1] /= max;
                }
            }
        }
    }
}

impl ScoreModel for TfIdfModel {
    fn contribution(&self, server: QNodeId, _node: NodeId, level: MatchLevel) -> f64 {
        let w = self.weights[server.index()];
        match level {
            MatchLevel::Exact => w[0],
            MatchLevel::Relaxed => w[1],
        }
    }

    fn max_contribution(&self, server: QNodeId) -> f64 {
        self.weights[server.index()][0]
    }

    fn max_relaxed_contribution(&self, server: QNodeId) -> f64 {
        self.weights[server.index()][1]
    }

    fn satisfying_fractions(&self) -> Option<&[[f64; 2]]> {
        Some(&self.fractions)
    }
}

/// Explicit per-node scores, as in the paper's Figure 3 example where
/// each title/location/price match carries a given score. Unknown
/// `(server, node)` pairs contribute `0`.
pub struct FixedScores {
    scores: HashMap<(QNodeId, NodeId), f64>,
    max_per_server: Vec<f64>,
}

impl FixedScores {
    /// Builds from explicit entries. `server_count` = number of query
    /// nodes (root included).
    pub fn new(server_count: usize, entries: &[(QNodeId, NodeId, f64)]) -> Self {
        let mut scores = HashMap::with_capacity(entries.len());
        let mut max_per_server = vec![0.0f64; server_count];
        for &(server, node, value) in entries {
            assert!(value.is_finite(), "non-finite fixed score");
            scores.insert((server, node), value);
            let m = &mut max_per_server[server.index()];
            *m = m.max(value);
        }
        FixedScores {
            scores,
            max_per_server,
        }
    }
}

impl ScoreModel for FixedScores {
    /// Level-insensitive: the example's scores already encode match
    /// quality.
    fn contribution(&self, server: QNodeId, node: NodeId, _level: MatchLevel) -> f64 {
        self.scores.get(&(server, node)).copied().unwrap_or(0.0)
    }

    fn max_contribution(&self, server: QNodeId) -> f64 {
        self.max_per_server
            .get(server.index())
            .copied()
            .unwrap_or(0.0)
    }
}

/// Deterministic pseudo-random per-(server, node) scores — the paper's
/// "randomly generated sparse and dense scoring functions".
pub struct RandomScores {
    seed: u64,
    /// Score range per level: exact draws from `[lo_exact, 1]`, relaxed
    /// from `[lo_relaxed, lo_exact]` scaled.
    dense: bool,
    server_count: usize,
}

impl RandomScores {
    /// Scores spread over the full [0, 1] range (fast pruning).
    pub fn sparse(seed: u64, server_count: usize) -> Self {
        RandomScores {
            seed,
            dense: false,
            server_count,
        }
    }

    /// Scores bunched in [0.8, 1.0] (slow pruning).
    pub fn dense(seed: u64, server_count: usize) -> Self {
        RandomScores {
            seed,
            dense: true,
            server_count,
        }
    }

    /// SplitMix64 over (seed, server, node) — stable across runs and
    /// platforms.
    fn unit(&self, server: QNodeId, node: NodeId) -> f64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((server.0 as u64) << 32)
            .wrapping_add(node.index() as u64 + 1);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl ScoreModel for RandomScores {
    fn contribution(&self, server: QNodeId, node: NodeId, level: MatchLevel) -> f64 {
        let u = self.unit(server, node);
        let base = if self.dense {
            // Dense: all scores bunch in [0.80, 1.00] — final scores are
            // close together, which hinders pruning.
            0.80 + 0.20 * u
        } else {
            // Sparse: full [0, 1] spread — a few matches score high,
            // raising the k-th threshold quickly.
            u
        };
        match level {
            MatchLevel::Exact => base,
            MatchLevel::Relaxed => base * 0.5,
        }
    }

    fn max_contribution(&self, server: QNodeId) -> f64 {
        assert!(server.index() < self.server_count, "server out of range");
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whirlpool_pattern::parse_pattern;
    use whirlpool_xml::parse_document;

    fn setup() -> (Document, TagIndex, TreePattern) {
        let doc = parse_document(
            "<shelf>\
             <book><title>a</title><isbn>1</isbn></book>\
             <book><title>b</title></book>\
             <book><info><title>c</title></info></book>\
             </shelf>",
        )
        .unwrap();
        let index = TagIndex::build(&doc);
        let q = parse_pattern("//book[./title and ./isbn]").unwrap();
        (doc, index, q)
    }

    #[test]
    fn tfidf_exact_dominates_relaxed() {
        let (doc, index, q) = setup();
        let model = TfIdfModel::build(&doc, &index, &q, Normalization::None);
        for server in q.server_ids() {
            let [exact, relaxed] = model.weights(server);
            assert!(exact >= relaxed, "exact {exact} < relaxed {relaxed}");
            assert!(relaxed >= 0.0);
        }
    }

    #[test]
    fn sparse_normalization_gives_unit_exact_weights() {
        let (doc, index, q) = setup();
        let model = TfIdfModel::build(&doc, &index, &q, Normalization::Sparse);
        for server in q.server_ids() {
            assert!((model.max_contribution(server) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn dense_normalization_preserves_relative_skew() {
        let (doc, index, q) = setup();
        let raw = TfIdfModel::build(&doc, &index, &q, Normalization::None);
        let dense = TfIdfModel::build(&doc, &index, &q, Normalization::Dense);
        let servers: Vec<_> = q.server_ids().collect();
        let raw_ratio = raw.max_contribution(servers[0]) / raw.max_contribution(servers[1]);
        let dense_ratio = dense.max_contribution(servers[0]) / dense.max_contribution(servers[1]);
        assert!((raw_ratio - dense_ratio).abs() < 1e-9);
        // And the global max is 1.
        let max = servers
            .iter()
            .map(|&s| dense.max_contribution(s))
            .fold(0.0f64, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_total_sums_server_maxima() {
        let (doc, index, q) = setup();
        let model = TfIdfModel::build(&doc, &index, &q, Normalization::Sparse);
        let servers: Vec<_> = q.server_ids().collect();
        assert!((model.max_total(&servers).value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fixed_scores_lookup() {
        let node = NodeId::from_index(5);
        let other = NodeId::from_index(6);
        let model = FixedScores::new(3, &[(QNodeId(1), node, 0.3), (QNodeId(2), node, 0.2)]);
        assert_eq!(model.contribution(QNodeId(1), node, MatchLevel::Exact), 0.3);
        assert_eq!(
            model.contribution(QNodeId(1), other, MatchLevel::Exact),
            0.0
        );
        assert_eq!(model.max_contribution(QNodeId(1)), 0.3);
        assert_eq!(model.max_contribution(QNodeId(2)), 0.2);
        assert_eq!(model.max_contribution(QNodeId(0)), 0.0);
    }

    #[test]
    fn random_scores_are_deterministic_and_in_range() {
        let a = RandomScores::sparse(9, 4);
        let b = RandomScores::sparse(9, 4);
        let node = NodeId::from_index(17);
        assert_eq!(
            a.contribution(QNodeId(2), node, MatchLevel::Exact),
            b.contribution(QNodeId(2), node, MatchLevel::Exact)
        );
        for i in 0..200 {
            let n = NodeId::from_index(i);
            let v = a.contribution(QNodeId(1), n, MatchLevel::Exact);
            assert!((0.0..=1.0).contains(&v));
            let r = a.contribution(QNodeId(1), n, MatchLevel::Relaxed);
            assert!(r <= v);
        }
    }

    #[test]
    fn dense_random_scores_bunch_high() {
        let m = RandomScores::dense(3, 4);
        for i in 0..200 {
            let v = m.contribution(QNodeId(1), NodeId::from_index(i), MatchLevel::Exact);
            assert!((0.80..=1.0).contains(&v), "{v}");
        }
    }
}
