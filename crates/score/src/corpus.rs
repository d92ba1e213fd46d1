//! Corpus-level idf: Definition 4.2 aggregated across shards.
//!
//! The paper computes idf over one document. A collection of documents
//! (or subtree shards of one large document) wants a *single* weight
//! table so scores are comparable across shards: an answer's rank must
//! not depend on which shard happened to hold it. [`CorpusStats`]
//! therefore aggregates the raw document-frequency counts of
//! [`crate::tfidf::idf_counts_sweep`] — candidate-answer populations and
//! per-predicate satisfying counts — over every shard, and derives one
//! [`TfIdfModel`] from the pooled counts:
//!
//! `idf_corpus(p) = ln( Σ_s population_s / max(Σ_s satisfying_s, 1) )`
//!
//! The per-document model ([`TfIdfModel::build`]) is the model of a
//! single-shard corpus, so the two derive weights in one place.

use crate::model::{Normalization, TfIdfModel};
use crate::tfidf::{self, ComponentPredicate};
use whirlpool_index::{DocView, TagIndex, TagIndexView};
use whirlpool_pattern::TreePattern;
use whirlpool_xml::Document;

/// Per-predicate document-frequency counts, summed over the shards fed
/// to [`CorpusStats::add_shard`].
#[derive(Debug, Clone)]
pub struct CorpusStats {
    /// Candidate answer nodes (nodes carrying the answer tag) across
    /// the corpus. The population is predicate-independent: every
    /// component predicate of a query ranges over the same answer
    /// candidates.
    population: u64,
    /// `[exact, relaxed]` satisfying-node counts per query node
    /// (indexed by `QNodeId`; the root row stays zero — the root
    /// carries no component predicate).
    satisfying: Vec<[u64; 2]>,
    /// The component predicates, kept so shards can be added
    /// incrementally without recompiling the pattern.
    preds: Vec<ComponentPredicate>,
    shards: usize,
}

impl CorpusStats {
    /// Empty statistics for `pattern`: no shards seen yet.
    pub fn new(pattern: &TreePattern) -> Self {
        CorpusStats {
            population: 0,
            satisfying: vec![[0, 0]; pattern.len()],
            preds: tfidf::component_predicates(pattern),
            shards: 0,
        }
    }

    /// Folds one shard's document-frequency counts into the totals.
    /// `answer_tag` is the pattern root's tag (pass
    /// `&pattern.node(pattern.root()).tag`).
    pub fn add_shard(&mut self, doc: &Document, index: &TagIndex, answer_tag: &str) {
        self.add_shard_view(doc.into(), index.view(), answer_tag);
    }

    /// [`add_shard`](CorpusStats::add_shard) over borrowed views — the
    /// form snapshot-backed shards use: [`tfidf::idf_counts_sweep`] of
    /// the shard, folded by [`add_counts`](CorpusStats::add_counts).
    pub fn add_shard_view(&mut self, doc: DocView<'_>, index: TagIndexView<'_>, answer_tag: &str) {
        let (population, counts) = tfidf::idf_counts_sweep(doc, index, answer_tag, &self.preds);
        self.add_counts(population, &counts);
    }

    /// Folds one shard's counts, counted elsewhere: its answer
    /// `population` and, for each of [`predicates`](CorpusStats::predicates)
    /// in order, `[exact, relaxed]` as [`tfidf::idf_counts_sweep`]
    /// returns them. A caller that keeps a shard's counts between
    /// queries folds them here without counting again.
    ///
    /// # Panics
    ///
    /// If `counts` does not hold one pair per predicate.
    pub fn add_counts(&mut self, population: u64, counts: &[[u64; 2]]) {
        assert_eq!(
            counts.len(),
            self.preds.len(),
            "one count pair per predicate"
        );
        for (pred, [exact, relaxed]) in self.preds.iter().zip(counts) {
            self.satisfying[pred.qnode.index()][0] += exact;
            self.satisfying[pred.qnode.index()][1] += relaxed;
        }
        self.population += population;
        self.shards += 1;
    }

    /// The pattern's component predicates (Definition 4.1), in the
    /// order [`add_counts`](CorpusStats::add_counts) takes their counts.
    pub fn predicates(&self) -> &[ComponentPredicate] {
        &self.preds
    }

    /// Shards folded in so far.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Total candidate-answer population across the corpus.
    pub fn population(&self) -> u64 {
        self.population
    }

    /// The corpus-level score model: one weight table derived from the
    /// pooled counts, shared by every shard so cross-shard scores (and
    /// the global top-k threshold) are comparable. Exact weights
    /// dominate relaxed ones by Definition 4.2's monotonicity. The model
    /// keeps the pooled satisfying fractions too, so every shard routes
    /// from them.
    pub fn model(&self, normalization: Normalization) -> TfIdfModel {
        // The root carries no component predicate: following the
        // paper's examples (scores come from the join predicates) it
        // contributes 0, and its fractions stay neutral, as do those of
        // an empty population.
        let mut weights = vec![[0.0, 0.0]; self.satisfying.len()];
        let mut fractions = vec![[1.0, 1.0]; self.satisfying.len()];
        let population = self.population;
        for pred in &self.preds {
            let [exact, relaxed] = self.satisfying[pred.qnode.index()];
            let e = tfidf::idf_from_counts(population, exact);
            let r = tfidf::idf_from_counts(population, relaxed);
            // Definition 4.2 guarantees relaxed ≤ exact (more nodes
            // satisfy the weaker predicate); clamp for degenerate
            // counts where both are 0.
            weights[pred.qnode.index()] = [e.max(0.0), r.min(e).max(0.0)];
            if population > 0 {
                let fraction = |count| count as f64 / population as f64;
                fractions[pred.qnode.index()] = [exact, relaxed].map(fraction);
            }
        }
        TfIdfModel::from_weights(weights, fractions, normalization)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScoreModel;
    use whirlpool_pattern::parse_pattern;
    use whirlpool_xml::parse_document;

    fn setup(src: &str) -> (Document, TagIndex) {
        let doc = parse_document(src).unwrap();
        let index = TagIndex::build(&doc);
        (doc, index)
    }

    const SHARD_A: &str = "<shelf>\
        <book><title>a</title><isbn>1</isbn><price>9</price></book>\
        <book><title>b</title><isbn>2</isbn></book>\
        </shelf>";
    const SHARD_B: &str = "<shelf>\
        <book><title>c</title></book>\
        <book><info><title>d</title></info></book>\
        </shelf>";

    #[test]
    fn single_shard_corpus_reduces_to_the_per_document_model() {
        let (doc, index) = setup(SHARD_A);
        let q = parse_pattern("//book[./title and ./isbn and ./price]").unwrap();
        for norm in [
            Normalization::None,
            Normalization::Sparse,
            Normalization::Dense,
        ] {
            let per_doc = TfIdfModel::build(&doc, &index, &q, norm);
            let mut stats = CorpusStats::new(&q);
            stats.add_shard(&doc, &index, &q.node(q.root()).tag);
            let corpus = stats.model(norm);
            for s in q.server_ids() {
                let a = per_doc.weights(s);
                let b = corpus.weights(s);
                assert!((a[0] - b[0]).abs() < 1e-12, "exact {a:?} vs {b:?}");
                assert!((a[1] - b[1]).abs() < 1e-12, "relaxed {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn corpus_counts_pool_across_shards() {
        let (da, ia) = setup(SHARD_A);
        let (db, ib) = setup(SHARD_B);
        let q = parse_pattern("//book[./title]").unwrap();
        let mut stats = CorpusStats::new(&q);
        stats.add_shard(&da, &ia, "book");
        stats.add_shard(&db, &ib, "book");
        assert_eq!(stats.shards(), 2);
        // 4 books total; 3 have a child title (the 4th holds it under
        // info, reachable only by the relaxed predicate).
        assert_eq!(stats.population(), 4);
        let model = stats.model(Normalization::None);
        let server = q.server_ids().next().unwrap();
        let [exact, relaxed] = model.weights(server);
        assert!((exact - (4.0f64 / 3.0).ln()).abs() < 1e-12, "{exact}");
        assert!((relaxed - (4.0f64 / 4.0).ln()).abs() < 1e-12, "{relaxed}");
        assert!(exact >= relaxed);
    }

    #[test]
    fn corpus_idf_differs_from_any_single_shard() {
        // The point of pooling: shard B's books lack isbn entirely, so a
        // per-shard model would give B a zero isbn weight while A gives
        // ln(1) = 0 too (every A book has one); the corpus sees 2 of 4.
        let (da, ia) = setup(SHARD_A);
        let (db, ib) = setup(SHARD_B);
        let q = parse_pattern("//book[./isbn]").unwrap();
        let server = q.server_ids().next().unwrap();
        let mut stats = CorpusStats::new(&q);
        stats.add_shard(&da, &ia, "book");
        stats.add_shard(&db, &ib, "book");
        let corpus = stats.model(Normalization::None);
        let a_only = TfIdfModel::build(&da, &ia, &q, Normalization::None);
        let b_only = TfIdfModel::build(&db, &ib, &q, Normalization::None);
        assert!((corpus.max_contribution(server) - 2.0f64.ln()).abs() < 1e-12);
        assert_eq!(a_only.max_contribution(server), 0.0);
        assert!((b_only.max_contribution(server) - 2.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn empty_corpus_scores_zero() {
        let q = parse_pattern("//book[./title]").unwrap();
        let stats = CorpusStats::new(&q);
        let model = stats.model(Normalization::Sparse);
        for s in q.server_ids() {
            assert_eq!(model.max_contribution(s), 0.0);
        }
    }

    #[test]
    fn single_node_patterns_still_count_the_population() {
        let (doc, index) = setup(SHARD_A);
        let q = parse_pattern("//book").unwrap();
        let mut stats = CorpusStats::new(&q);
        stats.add_shard(&doc, &index, "book");
        assert_eq!(stats.population(), 2);
    }
}
