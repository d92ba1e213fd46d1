//! Sampled per-server selectivity statistics.
//!
//! The paper's size-based routing strategy
//! (`min_alive_partial_matches`, §6.1.4) needs "estimates of the number
//! of extensions computed by the server for a partial match", and the
//! score-based strategies need estimates of the score a server will
//! contribute. Both reduce to two structural quantities per server,
//! estimated here by sampling root candidates:
//!
//! * the mean number of candidate nodes (the relaxed universe: any
//!   descendant of the root match with the server's tag/value),
//! * the fraction of those candidates that satisfy the server's *exact*
//!   root predicate (and hence would score at the exact level), and
//! * the fraction of root matches whose *best* candidate does — what a
//!   relaxed-mode server operation, which emits only its dominant
//!   extension, actually produces.

use crate::tagindex::TagIndexView;
use whirlpool_pattern::{ServerSpec, ValueTest};
use whirlpool_xml::{DocView, NodeId};

/// Selectivity estimates for one server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSelectivity {
    /// Mean number of candidates per root match (outer-join fanout;
    /// never below 1.0 in effect because a server with zero candidates
    /// still emits one null-extended match).
    pub mean_candidates: f64,
    /// Fraction of candidates satisfying the exact root predicate.
    pub exact_fraction: f64,
    /// Fraction of sampled root matches with *no* candidates at all
    /// (these take the leaf-deletion path).
    pub empty_fraction: f64,
    /// Fraction of sampled root matches with at least one candidate
    /// satisfying the exact root predicate: the roots whose best
    /// candidate is exact. The rest of the non-empty roots
    /// (`1 - empty_fraction - best_exact_fraction`) can bind at the
    /// relaxed level only.
    pub best_exact_fraction: f64,
}

impl ServerSelectivity {
    /// Conservative default when no sample is available (no root
    /// candidates in the document).
    pub fn unknown() -> Self {
        ServerSelectivity {
            mean_candidates: 1.0,
            exact_fraction: 1.0,
            empty_fraction: 0.0,
            best_exact_fraction: 1.0,
        }
    }
}

/// Estimates selectivity for each server by sampling up to
/// `sample_limit` root candidates (evenly spaced over the candidate
/// list, so the sample spans the document). Exact-predicate checks
/// resolve through the structural columns rather than parent links, so
/// the estimate reads the same over an owned or a mapped backing.
pub fn estimate_selectivity_view(
    doc: DocView<'_>,
    index: TagIndexView<'_>,
    roots: &[NodeId],
    servers: &[ServerSpec],
    sample_limit: usize,
) -> Vec<ServerSelectivity> {
    if roots.is_empty() || sample_limit == 0 {
        return servers
            .iter()
            .map(|_| ServerSelectivity::unknown())
            .collect();
    }
    let step = (roots.len() / sample_limit).max(1);
    let sample: Vec<NodeId> = roots
        .iter()
        .copied()
        .step_by(step)
        .take(sample_limit)
        .collect();

    servers
        .iter()
        .map(|server| {
            let wildcard = server.tag == whirlpool_pattern::WILDCARD;
            let tag = doc.tag_id(&server.tag);
            if !wildcard && tag.is_none() {
                // Tag absent from the document: every root match takes
                // the null path.
                return ServerSelectivity {
                    mean_candidates: 0.0,
                    exact_fraction: 0.0,
                    empty_fraction: 1.0,
                    best_exact_fraction: 0.0,
                };
            }
            let mut total = 0usize;
            let mut exact = 0usize;
            let mut empty = 0usize;
            let mut best_exact = 0usize;
            let mut buf = Vec::new();
            for &root in &sample {
                let candidates: &[NodeId] = if wildcard {
                    buf.clear();
                    buf.extend(index.descendants_any(root));
                    &buf
                } else {
                    let tagged = index.descendants_with_tag(root, tag.expect("checked above"));
                    match &server.value {
                        // The server keeps exactly these: its tag's
                        // postings whose direct text passes the test.
                        Some(v @ ValueTest::Eq(_)) => {
                            buf.clear();
                            buf.extend(tagged.iter().filter(|&&c| v.matches(doc.text_bytes(c))));
                            &buf
                        }
                        _ => tagged,
                    }
                };
                // `Contains` and attribute filtering are approximated by
                // the unfiltered count; it only loosens the estimate.
                if candidates.is_empty() {
                    empty += 1;
                }
                total += candidates.len();
                let columns = index.columns();
                let exact_here = candidates
                    .iter()
                    .filter(|&&c| columns.holds(server.root_exact, root, c))
                    .count();
                exact += exact_here;
                best_exact += usize::from(exact_here > 0);
            }
            let n = sample.len() as f64;
            ServerSelectivity {
                mean_candidates: total as f64 / n,
                exact_fraction: if total == 0 {
                    0.0
                } else {
                    exact as f64 / total as f64
                },
                empty_fraction: empty as f64 / n,
                best_exact_fraction: best_exact as f64 / n,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TagIndex;
    use whirlpool_pattern::{compile_servers, parse_pattern};
    use whirlpool_xml::{parse_document, Document};

    fn setup(src: &str, query: &str) -> (Document, TagIndex, Vec<NodeId>, Vec<ServerSpec>) {
        let doc = parse_document(src).unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern(query).unwrap();
        let servers = compile_servers(&pattern);
        let root_tag = doc.tag_id(&pattern.node(pattern.root()).tag).unwrap();
        let roots = index.view().nodes_with_tag(root_tag).to_vec();
        (doc, index, roots, servers)
    }

    #[test]
    fn counts_exact_vs_relaxed() {
        // Two items: one with a direct parlist child of description, one
        // with a nested (descendant-only) parlist.
        let src = "<site>\
            <item><description><parlist/></description></item>\
            <item><description><x><parlist/></x></description></item>\
            </site>";
        let (doc, index, roots, servers) = setup(src, "//item[./description/parlist]");
        let sel = estimate_selectivity_view((&doc).into(), index.view(), &roots, &servers, 100);
        // servers: description (q1), parlist (q2).
        let parlist = &sel[1];
        assert_eq!(parlist.mean_candidates, 1.0);
        // One of the two parlists satisfies the exact item/*/parlist
        // (ChildChain(2)) predicate.
        assert!((parlist.exact_fraction - 0.5).abs() < 1e-9);
        assert!((parlist.best_exact_fraction - 0.5).abs() < 1e-9);
        assert_eq!(parlist.empty_fraction, 0.0);
    }

    #[test]
    fn missing_tag_reports_all_empty() {
        let (doc, index, roots, servers) =
            setup("<site><item><name/></item></site>", "//item[./nosuchtag]");
        let sel = estimate_selectivity_view((&doc).into(), index.view(), &roots, &servers, 10);
        assert_eq!(sel[0].mean_candidates, 0.0);
        assert_eq!(sel[0].empty_fraction, 1.0);
    }

    #[test]
    fn empty_fraction_counts_null_paths() {
        let src = "<site>\
            <item><name/></item>\
            <item/>\
            <item><name/></item>\
            <item/>\
            </site>";
        let (doc, index, roots, servers) = setup(src, "//item[./name]");
        let sel = estimate_selectivity_view((&doc).into(), index.view(), &roots, &servers, 10);
        assert!((sel[0].empty_fraction - 0.5).abs() < 1e-9);
        assert!((sel[0].mean_candidates - 0.5).abs() < 1e-9);
    }

    #[test]
    fn no_roots_gives_unknown() {
        let doc = parse_document("<site><other/></site>").unwrap();
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern("//item[./name]").unwrap();
        let servers = compile_servers(&pattern);
        let sel = estimate_selectivity_view((&doc).into(), index.view(), &[], &servers, 10);
        assert_eq!(sel[0], ServerSelectivity::unknown());
    }

    #[test]
    fn sampling_caps_work() {
        let doc = whirlpool_xmark::generate(&whirlpool_xmark::GeneratorConfig::items(200));
        let index = TagIndex::build(&doc);
        let pattern = parse_pattern(whirlpool_xmark::queries::Q2).unwrap();
        let servers = compile_servers(&pattern);
        let roots = index
            .view()
            .nodes_with_tag(doc.tag_id("item").unwrap())
            .to_vec();
        let sel_full =
            estimate_selectivity_view((&doc).into(), index.view(), &roots, &servers, usize::MAX);
        let sel_sampled =
            estimate_selectivity_view((&doc).into(), index.view(), &roots, &servers, 50);
        // The sampled estimate should be in the neighborhood of the full
        // one (same order of magnitude).
        for (f, s) in sel_full.iter().zip(&sel_sampled) {
            if f.mean_candidates > 0.0 {
                let ratio = s.mean_candidates / f.mean_candidates;
                assert!(ratio > 0.3 && ratio < 3.0, "ratio {ratio}");
            }
        }
    }

    #[test]
    fn value_constrained_servers_use_value_postings() {
        let src = "<shelf>\
            <book><title>wodehouse</title></book>\
            <book><title>other</title></book>\
            </shelf>";
        let (doc, index, roots, servers) = setup(src, "//book[./title = 'wodehouse']");
        let sel = estimate_selectivity_view((&doc).into(), index.view(), &roots, &servers, 10);
        assert!((sel[0].mean_candidates - 0.5).abs() < 1e-9);
        assert!((sel[0].empty_fraction - 0.5).abs() < 1e-9);
    }

    /// An `=` server's estimate is a brute-force count over the sampled
    /// roots: descendants with the server's tag and exactly that direct
    /// text, not the same text under another tag, not a superstring.
    #[test]
    fn eq_estimate_is_a_brute_force_count() {
        let src = "<site>\
            <item><name>x</name><name>x</name><note>x</note></item>\
            <item><name>xy</name><name/><deep><name>x</name></deep></item>\
            <item><note>x</note></item>\
            <item><name>é</name><name>x</name></item>\
            </site>";
        let (doc, index, roots, servers) = setup(src, "//item[./name = 'x']");
        let sel = estimate_selectivity_view((&doc).into(), index.view(), &roots, &servers, 10);
        let name = doc.tag_id("name").unwrap();
        let per_root: Vec<usize> = (roots.iter())
            .map(|&r| {
                (doc.descendants_or_self(r).skip(1))
                    .filter(|&n| doc.tag(n) == name && doc.text(n) == Some("x"))
                    .count()
            })
            .collect();
        assert_eq!(per_root, [2, 1, 0, 1]);
        let n = roots.len() as f64;
        let total: usize = per_root.iter().sum();
        assert_eq!(sel[0].mean_candidates, total as f64 / n);
        let empty = per_root.iter().filter(|&&c| c == 0).count();
        assert_eq!(sel[0].empty_fraction, empty as f64 / n);
        // Of the four candidates only the nested one misses `./name`.
        assert_eq!(sel[0].exact_fraction, 3.0 / 4.0);
    }
}
