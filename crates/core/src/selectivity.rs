//! The router's per-server estimates (paper §6.1.4).
//!
//! `min_alive_partial_matches` and the score-based strategies need to
//! know what an operation at a server will bind; "such estimates could
//! be obtained by using work on selectivity estimation for XML". Here
//! they are Definition 4.2's own counts: for each server, the fractions
//! of the scope's answers that satisfy its component predicate exactly
//! and in its relaxed form. The score model was built from those counts
//! and keeps them ([`ScoreModel::satisfying_fractions`]), so reading
//! them costs nothing; a model without counts has them counted by the
//! same sweep, once per context.

use whirlpool_index::{DocView, TagIndexView};
use whirlpool_pattern::{ServerSpec, TreePattern, WILDCARD};
use whirlpool_score::{Normalization, ScoreModel, TfIdfModel};

/// Each of `servers`' `[exact, relaxed]` satisfying fraction, in order.
/// A server whose tag `doc` lacks always takes the null path, so it
/// reads `[0, 0]` whatever the scope's counts say.
pub(crate) fn server_fractions(
    doc: DocView<'_>,
    index: TagIndexView<'_>,
    pattern: &TreePattern,
    model: &dyn ScoreModel,
    servers: &[ServerSpec],
) -> Vec<[f64; 2]> {
    let counted;
    let scope = match model.satisfying_fractions() {
        Some(fractions) => fractions,
        None => {
            counted = TfIdfModel::build_view(doc, index, pattern, Normalization::None);
            counted
                .satisfying_fractions()
                .expect("a tf*idf model keeps its counts")
        }
    };
    (servers.iter())
        .map(|s| {
            if s.tag != WILDCARD && doc.tag_id(&s.tag).is_none() {
                [0.0, 0.0]
            } else {
                scope[s.qnode.index()]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::{Collection, ContextOptions, QueryContext, Scope};
    use whirlpool_index::{DocView, TagIndex, TagIndexView};
    use whirlpool_pattern::{parse_pattern, TreePattern};
    use whirlpool_score::tfidf::{self, ComponentPredicate};
    use whirlpool_score::{FixedScores, Normalization, ScoreModel, TfIdfModel};
    use whirlpool_xml::parse_document;

    /// Every server's estimates in one document, in server order.
    fn routed(
        (doc, index): (DocView<'_>, TagIndexView<'_>),
        pattern: &TreePattern,
        model: &dyn ScoreModel,
    ) -> Vec<[f64; 2]> {
        let ctx = QueryContext::new_view(doc, index, pattern, model, ContextOptions::default());
        let servers = ctx.server_ids().into_iter();
        servers.map(|s| ctx.fractions_of(s)).collect()
    }

    /// The estimates for `query` over `src` under its tf*idf model.
    fn fractions(src: &str, query: &str) -> Vec<[f64; 2]> {
        let doc = parse_document(src).unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern(query).unwrap();
        let model = TfIdfModel::build(&doc, &index, &pattern, Normalization::Sparse);
        routed(((&doc).into(), index.view()), &pattern, &model)
    }

    /// `[population, exact, relaxed]` per predicate, counted one answer
    /// at a time by the reference [`tfidf::idf_counts_view`].
    fn reference_counts(
        (doc, index): (DocView<'_>, TagIndexView<'_>),
        pattern: &TreePattern,
    ) -> Vec<[u64; 3]> {
        let count = |p: &ComponentPredicate| {
            tfidf::idf_counts_view(doc, index, &pattern.node(pattern.root()).tag, p)
        };
        let preds = tfidf::component_predicates(pattern).into_iter();
        (preds.map(|pred| {
            let axis = pred.axis.relaxed();
            let relaxed = ComponentPredicate {
                axis,
                ..pred.clone()
            };
            let ((population, exact), (_, relaxed)) = (count(&pred), count(&relaxed));
            [population, exact, relaxed]
        }))
        .collect()
    }

    fn ratio([population, exact, relaxed]: [u64; 3]) -> [f64; 2] {
        [exact, relaxed].map(|count| count as f64 / population as f64)
    }

    #[test]
    fn missing_tag_reports_all_empty() {
        let src = "<site><item><name/></item></site>";
        assert_eq!(fractions(src, "//item[./nosuchtag]"), [[0.0, 0.0]]);
    }

    #[test]
    fn no_roots_gives_unknown() {
        // No answer to count: the neutral row.
        let src = "<site><other/><name/></site>";
        assert_eq!(fractions(src, "//item[./name]"), [[1.0, 1.0]]);
    }

    /// An `=` server's estimate is the per-answer count: an answer
    /// counts when a descendant has the server's tag and exactly that
    /// direct text (not under another tag, not a superstring).
    #[test]
    fn eq_estimate_is_a_brute_force_count() {
        let src = "<site>\
            <item><name>x</name><name>x</name><note>x</note></item>\
            <item><name>xy</name><name/><deep><name>x</name></deep></item>\
            <item><note>x</note></item>\
            <item><name>é</name><name>x</name></item>\
            </site>";
        let (doc, query) = (parse_document(src).unwrap(), "//item[./name = 'x']");
        let index = TagIndex::build(&doc);
        let counts = reference_counts(
            ((&doc).into(), index.view()),
            &parse_pattern(query).unwrap(),
        );
        // Items 1 and 4 have an exact witness, item 2 a relaxed one.
        assert_eq!(counts, [[4, 2, 3]]);
        assert_eq!(fractions(src, query), [ratio(counts[0])]);
    }

    /// The router's estimates are the idf counts: a document scope's
    /// read the reference count over the population bit for bit, also
    /// under a model that keeps no counts; a corpus scope's read the
    /// counts pooled over its shards, except where a shard lacks the
    /// server's tag.
    #[test]
    fn router_estimates_are_the_idf_counts() {
        // Shard 0: nested answers, and exact, relaxed-only, missing and
        // value- or attribute-failing witnesses. Shard 1: no `mail`.
        let shards = [
            "<site>\
              <item><description><parlist/></description><name>x</name><mail id=\"m\"/>\
                <item><description><x><parlist/></x></description><mail/></item></item>\
              <item><name>y</name><deep><name>x</name></deep><mail id=\"n\"/></item>\
              <item><description/><box><mail id=\"m\"/></box></item>\
            </site>",
            "<site><item><name>x</name></item><item><description><parlist/></description></item></site>",
        ];
        let query = "//item[./description/parlist and ./name = 'x' and ./mail[@id = 'm']]";
        let pattern = parse_pattern(query).unwrap();
        let mut collection = Collection::new();
        for (i, src) in shards.iter().enumerate() {
            collection.add_document(format!("s{i}"), parse_document(src).unwrap());
        }
        let [s0, s1] = [0, 1].map(|i| collection.acquire(i).unwrap());
        let [v0, v1] = [&s0, &s1].map(|s| (s.doc(), s.index()));
        let [c0, c1] = [v0, v1].map(|v| reference_counts(v, &pattern));
        // Every server but description binds one answer exactly, one
        // more relaxed only, and none for the other half: 1 − relaxed
        // of them take the null path.
        assert_eq!(c0, [[4, 3, 3], [4, 1, 2], [4, 1, 2], [4, 1, 2]]);

        let stats = collection.scope_stats(Scope::Shard(0), &pattern);
        let model = stats.model(Normalization::Sparse);
        let expected: Vec<_> = c0.iter().copied().map(ratio).collect();
        assert_eq!(routed(v0, &pattern, &model), expected);
        let uncounted = FixedScores::new(pattern.len(), &[]);
        assert_eq!(routed(v0, &pattern, &uncounted), expected);

        let stats = collection.corpus_stats(&pattern);
        let model = stats.model(Normalization::Sparse);
        let pool = |(a, b): (&[u64; 3], &[u64; 3])| ratio([0, 1, 2].map(|i| a[i] + b[i]));
        let mut pooled: Vec<_> = c0.iter().zip(&c1).map(pool).collect();
        assert_eq!(routed(v0, &pattern, &model), pooled);
        assert!(pooled[3][0] > 0.0, "{pooled:?}");
        pooled[3] = [0.0, 0.0];
        assert_eq!(routed(v1, &pattern, &model), pooled);
    }
}
