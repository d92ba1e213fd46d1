//! The literal XML tf*idf of paper §4.
//!
//! Given an XPath query `Q` with answer node `q0` and other nodes `qi`:
//!
//! * **Component predicates** (Def. 4.1): `P_Q = { p(q0, qi) }`, where
//!   `p` composes the axes along the pattern path from `q0` to `qi`,
//!   plus the root's own `q0[parent::doc-root]`-style predicate.
//! * **idf** (Def. 4.2): `log(|{n : tag(n)=q0}| / |{n : tag(n)=q0 ∧
//!   ∃n'. tag(n')=qi ∧ p(n,n')}|)` — the fewer `q0` nodes satisfy the
//!   predicate, the larger its idf.
//! * **tf** (Def. 4.3): `|{n' : tag(n')=qi ∧ p(n,n')}|` — the number of
//!   distinct ways a candidate answer satisfies the predicate.
//! * **Score** (Def. 4.4): `Σ_i idf(p_i, D) · tf(p_i, n)`.
//!
//! Value-labelled leaves (`title (wodehouse)`) fold the value test into
//! the predicate: only nodes passing it count for idf and tf.
//!
//! Two ways to the idf counts. [`idf_counts`], [`idf`] and
//! [`score_answer`] are the definitions read literally, one answer and
//! one predicate at a time; they are the reference. The models
//! ([`crate::TfIdfModel`], [`crate::CorpusStats`]) count with
//! [`idf_counts_sweep`] instead: the answers are collected once, each
//! tagged predicate is one merge of its postings with them (the
//! stack-based structural join of the PathStack family, a branch-free
//! two-pointer walk when no answer nests), and each wildcard predicate
//! scans every answer's subtree range. An answer's flags depend only on
//! the postings inside its own subtree, so a count big enough to repay
//! a thread is cut into contiguous runs of answers, one per core, and
//! the runs' counts are summed. The counts are the same integers, so
//! the weights are the same bits.

use std::ops::Range;
use std::{panic, thread};
use whirlpool_index::{ColumnsView, DocView, TagIndex, TagIndexView};
use whirlpool_pattern::{AttrTest, ComposedAxis, QNodeId, TreePattern, ValueTest, WILDCARD};
use whirlpool_xml::{Document, NodeId, TagId};

/// One component predicate `p(q0, qi)` of a query.
#[derive(Debug, Clone)]
pub struct ComponentPredicate {
    /// The query node `qi` (never the root).
    pub qnode: QNodeId,
    /// The composed axis from the returned node down to `qi`.
    pub axis: ComposedAxis,
    /// `qi`'s tag (`*` matches any).
    pub tag: String,
    /// `qi`'s value test, if any.
    pub value: Option<ValueTest>,
    /// `qi`'s attribute predicates.
    pub attrs: Vec<AttrTest>,
}

/// Extracts the component predicates of a pattern (Definition 4.1),
/// one per non-root query node, in query-node order.
pub fn component_predicates(pattern: &TreePattern) -> Vec<ComponentPredicate> {
    whirlpool_pattern::compile_servers(pattern)
        .into_iter()
        .map(|s| ComponentPredicate {
            qnode: s.qnode,
            axis: s.root_exact,
            tag: s.tag,
            value: s.value,
            attrs: s.attrs,
        })
        .collect()
}

/// The predicate's attribute names, resolved against the document once
/// per walk rather than once per candidate.
fn attr_tags(doc: DocView<'_>, pred: &ComponentPredicate) -> Vec<Option<TagId>> {
    pred.attrs.iter().map(|a| doc.tag_id(&a.name)).collect()
}

/// Does candidate `c` pass the predicate's value and attribute tests?
/// `attr_tags` is [`attr_tags`] of the predicate. Always inlined: the
/// count's merges call it once per candidate, and out of line each call
/// copied the `DocView` it takes by value, which cost a value-tested
/// count about a fifth of its time (10 Mb document, in process).
#[inline(always)]
fn passes_tests(
    doc: DocView<'_>,
    pred: &ComponentPredicate,
    attr_tags: &[Option<TagId>],
    c: NodeId,
) -> bool {
    pred.value
        .as_ref()
        .map_or(true, |v| v.matches(doc.text_bytes(c)))
        && (pred.attrs.iter().zip(attr_tags))
            .all(|(a, t)| a.matches(t.and_then(|t| doc.attribute_bytes(c, t))))
}

/// Candidate `qi` nodes under `n` for a predicate: the tag's posting
/// range, or every descendant for a wildcard.
fn candidates_under(
    doc: DocView<'_>,
    index: TagIndexView<'_>,
    pred: &ComponentPredicate,
    n: NodeId,
) -> Vec<NodeId> {
    if pred.tag == WILDCARD {
        index.descendants_any(n).collect()
    } else {
        match doc.tag_id(&pred.tag) {
            Some(tag) => index.descendants_with_tag(n, tag).to_vec(),
            None => Vec::new(),
        }
    }
}

/// Definition 4.3: the number of distinct `qi` nodes satisfying
/// `p(n, ·)`.
pub fn tf(doc: &Document, index: &TagIndex, pred: &ComponentPredicate, n: NodeId) -> usize {
    tf_view(doc.into(), index.view(), pred, n)
}

/// [`tf`] over borrowed views — the backing-agnostic form used by the
/// snapshot-attached paths.
pub fn tf_view(
    doc: DocView<'_>,
    index: TagIndexView<'_>,
    pred: &ComponentPredicate,
    n: NodeId,
) -> usize {
    let attr_tags = attr_tags(doc, pred);
    // The structural half runs on the index's integer columns, as in
    // the engines' hot loop.
    candidates_under(doc, index, pred, n)
        .into_iter()
        .filter(|&c| {
            index.columns().holds(pred.axis, n, c) && passes_tests(doc, pred, &attr_tags, c)
        })
        .count()
}

/// The raw document-frequency counts behind Definition 4.2 for one
/// predicate: `(population, satisfying)` where `population` is the
/// number of candidate answer nodes (nodes with the answer tag) and
/// `satisfying` how many of them satisfy the predicate. These are the
/// quantities a collection aggregates across shards to build a
/// *corpus-level* idf (see [`crate::CorpusStats`]) — per-document idf is
/// [`idf_from_counts`] applied to one document's counts.
pub fn idf_counts(
    doc: &Document,
    index: &TagIndex,
    answer_tag: &str,
    pred: &ComponentPredicate,
) -> (u64, u64) {
    idf_counts_view(doc.into(), index.view(), answer_tag, pred)
}

/// [`idf_counts`] over borrowed views. One answer at a time, as the
/// definition reads: an answer satisfies the predicate when its
/// [`tf_view`] is non-zero. This is the reference [`idf_counts_sweep`]
/// is checked against.
pub fn idf_counts_view(
    doc: DocView<'_>,
    index: TagIndexView<'_>,
    answer_tag: &str,
    pred: &ComponentPredicate,
) -> (u64, u64) {
    let (mut population, mut satisfying) = (0, 0);
    for_each_answer(doc, index, answer_tag, |n| {
        population += 1;
        satisfying += u64::from(tf_view(doc, index, pred, n) > 0);
    });
    (population, satisfying)
}

/// Definition 4.2's counts for a whole query: the population (the
/// nodes carrying `answer_tag`) and, for each of `preds` in order,
/// `[exact, relaxed]` — how many answers satisfy the predicate, and how
/// many its fully relaxed form (`pred.axis.relaxed()`, same tag and
/// tests). With no predicates it still counts the population.
///
/// The answers are collected once, in document order. A tagged
/// predicate is one forward merge of its postings with the answers
/// (`merge_postings`, or `merge_flat` when no answer lies inside
/// another); a wildcard one scans each answer's range
/// (`scan_ranges`). The work is `O(answers × predicates + Σ postings
/// × k)` however deeply the answers nest. The counts are those of
/// [`idf_counts_view`] exactly.
///
/// A count whose estimated merge work (answers × predicates + the
/// tagged predicates' posting-list lengths) reaches two
/// `MIN_RUN_WORK`s is cut into up to
/// [`available_parallelism`](std::thread::available_parallelism)
/// contiguous runs of answers, counted at once and summed
/// ([`idf_counts_sweep_split`]).
pub fn idf_counts_sweep(
    doc: DocView<'_>,
    index: TagIndexView<'_>,
    answer_tag: &str,
    preds: &[ComponentPredicate],
) -> (u64, Vec<[u64; 2]>) {
    let threads = thread::available_parallelism().map_or(1, usize::from);
    let runs = run_count(sweep_work(doc, index, answer_tag, preds), threads);
    let population = answer_population(doc, index, answer_tag) as usize;
    let cuts: Vec<usize> = (1..runs).map(|k| population * k / runs).collect();
    idf_counts_sweep_split(doc, index, answer_tag, preds, &cuts)
}

/// The least estimated merge work worth a thread of its own, in merge
/// steps (an answer visited for one predicate, or one posting). On a
/// 2-vCPU host a step costs 5–7.5 ns and a scoped spawn and join
/// 27–41 µs, so a run of 16 Ki steps (80–120 µs) pays for two or three
/// spawns, and a count is split only from two such runs. Best of 200,
/// one run against two: the 10 Mb XMark document's Q1–Q5 estimate
/// 56 000–253 000 steps and split (Q1 335 → 216 µs, Q3 1 285 →
/// 727 µs); a 1 MB document's estimate at most 25 300 (Q3 137 → 132 µs,
/// Q1 43 → 69 µs) and a 300 kB shard's at most 7 700, and they stay on
/// one thread.
const MIN_RUN_WORK: usize = 1 << 14;

/// The merge work [`idf_counts_sweep`] estimates for a count, from
/// lengths at hand: answers × predicates, plus the posting-list lengths
/// of the tagged predicates' tags.
fn sweep_work(
    doc: DocView<'_>,
    index: TagIndexView<'_>,
    answer_tag: &str,
    preds: &[ComponentPredicate],
) -> usize {
    let postings: usize = (preds.iter())
        .filter(|p| p.tag != WILDCARD)
        .filter_map(|p| doc.tag_id(&p.tag))
        .map(|t| index.nodes_with_tag(t).len())
        .sum();
    answer_population(doc, index, answer_tag) as usize * preds.len() + postings
}

/// How many runs a count of `work` merge steps is cut into on `threads`
/// cores: one per [`MIN_RUN_WORK`], at most one per core, at least one.
fn run_count(work: usize, threads: usize) -> usize {
    threads.min(work / MIN_RUN_WORK).max(1)
}

/// [`idf_counts_sweep`] with the answer population cut at `cuts`
/// (positions in it, in any order): the run of answers from each cut to
/// the next is counted on a thread of its own, the first run on the
/// calling thread, and the runs' counts are summed. With no cuts the
/// count runs on the calling thread. Runs are independent because an
/// answer's flags depend only on the postings inside its own subtree,
/// so the sums equal the uncut count, which is what the tests that call
/// this check.
#[doc(hidden)]
pub fn idf_counts_sweep_split(
    doc: DocView<'_>,
    index: TagIndexView<'_>,
    answer_tag: &str,
    preds: &[ComponentPredicate],
    cuts: &[usize],
) -> (u64, Vec<[u64; 2]>) {
    let population = answer_population(doc, index, answer_tag) as usize;
    let mut bounds: Vec<usize> = (cuts.iter().copied())
        .filter(|&at| 0 < at && at < population)
        .chain([0, population])
        .collect();
    bounds.sort_unstable();
    bounds.dedup();
    let count = |run: &[usize]| sweep_run(doc, index, answer_tag, preds, run[0]..run[1]);
    if bounds.len() <= 2 {
        return count(&[0, population]);
    }
    thread::scope(|scope| {
        let later: Vec<_> = (bounds.windows(2).skip(1))
            .map(|run| {
                let thread = thread::Builder::new().spawn_scoped(scope, move || count(run));
                (run, thread.ok())
            })
            .collect();
        let (mut population, mut counts) = count(&bounds[..2]);
        for (run, thread) in later {
            let (answers, run_counts) = match thread {
                Some(thread) => thread.join().unwrap_or_else(|p| panic::resume_unwind(p)),
                None => count(run),
            };
            population += answers;
            for (total, [exact, relaxed]) in counts.iter_mut().zip(run_counts) {
                total[0] += exact;
                total[1] += relaxed;
            }
        }
        (population, counts)
    })
}

/// One run of [`idf_counts_sweep_split`]: the answers at positions
/// `run` of the population, counted for every predicate.
fn sweep_run(
    doc: DocView<'_>,
    index: TagIndexView<'_>,
    answer_tag: &str,
    preds: &[ComponentPredicate],
    run: Range<usize>,
) -> (u64, Vec<[u64; 2]>) {
    let columns = index.columns();
    let answer = |n: NodeId| Answer {
        id: n.index() as u32,
        end: columns.subtree_end_raw(n),
        depth: columns.depth_of(n),
    };
    let mut answers = Vec::with_capacity(run.len());
    match answer_postings(doc, index, answer_tag) {
        Some(postings) => answers.extend(postings[run].iter().map(|&n| answer(n))),
        // Every element: the node after the document node onwards.
        None => answers.extend((run.start + 1..run.end + 1).map(|i| answer(NodeId::from_index(i)))),
    }
    let nested = answers.windows(2).any(|w| w[1].id < w[0].end);
    let counts = preds
        .iter()
        .map(|pred| {
            let attr_tags = attr_tags(doc, pred);
            let passes = |c| passes_tests(doc, pred, &attr_tags, c);
            if pred.tag == WILDCARD {
                return scan_ranges(columns, &answers, pred.axis, passes);
            }
            let postings = doc
                .tag_id(&pred.tag)
                .map_or(&[][..], |t| index.nodes_with_tag(t));
            if nested {
                merge_postings(columns, &answers, postings, pred.axis, passes)
            } else {
                let tested = pred.value.is_some() || !pred.attrs.is_empty();
                merge_flat(columns, &answers, postings, pred.axis, tested, passes)
            }
        })
        .collect();
    (answers.len() as u64, counts)
}

/// The answer population of Definition 4.2: the posting list of
/// `answer_tag`, or `None` for the wildcard `*`, whose answers are every
/// element.
fn answer_postings<'a>(
    doc: DocView<'a>,
    index: TagIndexView<'a>,
    answer_tag: &str,
) -> Option<&'a [NodeId]> {
    (answer_tag != WILDCARD)
        .then(|| (doc.tag_id(answer_tag)).map_or(&[][..], |t| index.nodes_with_tag(t)))
}

/// Calls `visit` on every node of the answer population, in document
/// order.
fn for_each_answer(
    doc: DocView<'_>,
    index: TagIndexView<'_>,
    answer_tag: &str,
    visit: impl FnMut(NodeId),
) {
    match answer_postings(doc, index, answer_tag) {
        Some(postings) => postings.iter().copied().for_each(visit),
        None => doc.elements().for_each(visit),
    }
}

/// The size of Definition 4.2's answer population, in one lookup: the
/// length of `answer_tag`'s posting list, or for `*` every node but the
/// document node.
pub fn answer_population(doc: DocView<'_>, index: TagIndexView<'_>, answer_tag: &str) -> u64 {
    (answer_postings(doc, index, answer_tag)).map_or(doc.len().saturating_sub(1), <[_]>::len) as u64
}

/// An answer node of [`idf_counts_sweep`]: its raw id, one past its
/// subtree, and its depth.
struct Answer {
    id: u32,
    end: u32,
    depth: usize,
}

/// An answer on [`merge_postings`]' stack, whose subtree the merge is
/// inside, and whether a candidate has satisfied its exact and its
/// relaxed predicate yet.
struct Open {
    end: u32,
    depth: usize,
    exact: bool,
    relaxed: bool,
}

/// `[exact, relaxed]` counts of one tagged predicate: one pass over its
/// `postings`, keeping the open answers that contain the current
/// candidate on a stack (outermost first, so depths rise to the top).
///
/// A candidate `c` that `passes` its tests satisfies the relaxed
/// predicate for every open answer. It marks them from the innermost
/// outward and stops at one already marked, since everything under a
/// marked entry was marked with it: each answer is marked once. It
/// satisfies `ChildChain(k)` for the answer at depth `depth(c) − k`
/// only, found at most `k` entries down; `Descendant` is the relaxed
/// count. The pass ends once the last answer closes.
fn merge_postings(
    columns: ColumnsView<'_>,
    answers: &[Answer],
    postings: &[NodeId],
    axis: ComposedAxis,
    mut passes: impl FnMut(NodeId) -> bool,
) -> [u64; 2] {
    let Some(first) = answers.first() else {
        return [0, 0];
    };
    let k = axis.exact_depth();
    let start = postings.partition_point(|c| c.index() as u32 <= first.id);
    let mut next = answers.iter().peekable();
    let mut stack: Vec<Open> = Vec::new();
    let (mut exact, mut relaxed) = (0, 0);
    for &c in &postings[start..] {
        let raw = c.index() as u32;
        while let Some(a) = next.next_if(|a| a.id < raw) {
            while stack.last().is_some_and(|o| o.end <= a.id) {
                stack.pop();
            }
            stack.push(Open {
                end: a.end,
                depth: a.depth,
                exact: false,
                relaxed: false,
            });
        }
        while stack.last().is_some_and(|o| o.end <= raw) {
            stack.pop();
        }
        let Some(top) = stack.last() else {
            if next.peek().is_none() {
                break;
            }
            continue;
        };
        let target = k.and_then(|k| {
            let want = columns.depth_of(c).checked_sub(k as usize)?;
            let j = stack.iter().rposition(|o| o.depth <= want)?;
            (stack[j].depth == want && !stack[j].exact).then_some(j)
        });
        if (top.relaxed && target.is_none()) || !passes(c) {
            continue;
        }
        if let Some(j) = target {
            stack[j].exact = true;
            exact += 1;
        }
        for open in stack.iter_mut().rev().take_while(|o| !o.relaxed) {
            open.relaxed = true;
            relaxed += 1;
        }
    }
    [if k.is_some() { exact } else { relaxed }, relaxed]
}

/// [`merge_postings`] when no answer lies inside another, as in every
/// XMark query: the stack never holds more than the current answer, so
/// the merge is a two-pointer walk of the answers and the postings.
/// Each step takes the next posting (it lies before the current
/// answer's end) or moves on to the next answer, chosen by one compare
/// and applied with arithmetic rather than a branch: the answers'
/// boundaries fall at data-dependent places, and branching on them
/// mispredicts about once per answer and predicate. Only a `tested`
/// predicate (a value or attribute test) branches, to call `passes`
/// on a candidate that could still mark something.
fn merge_flat(
    columns: ColumnsView<'_>,
    answers: &[Answer],
    postings: &[NodeId],
    axis: ComposedAxis,
    tested: bool,
    mut passes: impl FnMut(NodeId) -> bool,
) -> [u64; 2] {
    let Some(first) = answers.first() else {
        return [0, 0];
    };
    let k = axis.exact_depth().map(|k| k as usize);
    let mut next = postings.partition_point(|c| c.index() as u32 <= first.id);
    let mut i = 0;
    let (mut exact, mut relaxed) = (0, 0);
    // Whether `answers[i]` has an exact and a relaxed witness so far.
    let (mut held, mut any) = (false, false);
    while let (Some(a), Some(&c)) = (answers.get(i), postings.get(next)) {
        let raw = c.index() as u32;
        let before_end = raw < a.end;
        let inside = before_end & (a.id < raw);
        let at_depth = k.map_or(true, |k| columns.depth_of(c) == a.depth + k);
        let passing = if tested {
            inside && (!any || at_depth && !held) && passes(c)
        } else {
            inside
        };
        any |= passing;
        held |= passing & at_depth;
        // Leaving `answers[i]`: count it, and start the next afresh.
        exact += u64::from(!before_end & held);
        relaxed += u64::from(!before_end & any);
        held &= before_end;
        any &= before_end;
        next += usize::from(before_end);
        i += usize::from(!before_end);
    }
    // The answer the postings ran out in, if any, is still to count.
    [exact + u64::from(held), relaxed + u64::from(any)]
}

/// `[exact, relaxed]` counts of one wildcard predicate: every node in
/// an answer's range `(id, end)` is a candidate, scanned until the
/// first exact witness.
fn scan_ranges(
    columns: ColumnsView<'_>,
    answers: &[Answer],
    axis: ComposedAxis,
    mut passes: impl FnMut(NodeId) -> bool,
) -> [u64; 2] {
    let (mut exact, mut relaxed) = (0, 0);
    for a in answers {
        let want = axis.exact_depth().map(|k| a.depth + k as usize);
        let mut any = false;
        for c in (a.id + 1..a.end).map(|c| NodeId::from_index(c as usize)) {
            let held = want.map_or(true, |w| columns.depth_of(c) == w);
            if (any && !held) || !passes(c) {
                continue;
            }
            any = true;
            if held {
                exact += 1;
                break;
            }
        }
        relaxed += u64::from(any);
    }
    [exact, relaxed]
}

/// Definition 4.2 from precomputed counts: `ln(population /
/// max(satisfying, 1))`, and `0` for an empty population (no candidate
/// answers means the predicate carries no discriminating power). When no
/// node satisfies the predicate the denominator is taken as 1 (maximal
/// idf), keeping the value finite.
pub fn idf_from_counts(population: u64, satisfying: u64) -> f64 {
    if population == 0 {
        return 0.0;
    }
    (population as f64 / satisfying.max(1) as f64).ln()
}

/// Definition 4.2: `log(N_q0 / N_satisfying)`, computed over all nodes
/// with the answer tag. When no node satisfies the predicate the
/// denominator is taken as 1 (maximal idf), keeping the value finite.
pub fn idf(doc: &Document, index: &TagIndex, answer_tag: &str, pred: &ComponentPredicate) -> f64 {
    idf_view(doc.into(), index.view(), answer_tag, pred)
}

/// [`idf`] over borrowed views.
pub fn idf_view(
    doc: DocView<'_>,
    index: TagIndexView<'_>,
    answer_tag: &str,
    pred: &ComponentPredicate,
) -> f64 {
    let (population, satisfying) = idf_counts_view(doc, index, answer_tag, pred);
    idf_from_counts(population, satisfying)
}

/// Definition 4.4: the full tf*idf score of answer `n`.
///
/// This is the *reference* scorer — the engines use the incremental
/// [`crate::ScoreModel`] instead, which this function validates against
/// in tests.
pub fn score_answer(doc: &Document, index: &TagIndex, pattern: &TreePattern, n: NodeId) -> f64 {
    score_answer_view(doc.into(), index.view(), pattern, n)
}

/// [`score_answer`] over borrowed views.
pub fn score_answer_view(
    doc: DocView<'_>,
    index: TagIndexView<'_>,
    pattern: &TreePattern,
    n: NodeId,
) -> f64 {
    let answer_tag = &pattern.node(pattern.root()).tag;
    component_predicates(pattern)
        .iter()
        .map(|pred| idf_view(doc, index, answer_tag, pred) * tf_view(doc, index, pred, n) as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use whirlpool_pattern::parse_pattern;
    use whirlpool_xml::parse_document;

    fn setup(src: &str) -> (Document, TagIndex) {
        let doc = parse_document(src).unwrap();
        let index = TagIndex::build(&doc);
        (doc, index)
    }

    fn books() -> (Document, TagIndex) {
        // Four books; only some have an isbn / a price.
        setup(
            "<shelf>\
             <book><title>wodehouse</title><isbn>1</isbn><price>9</price></book>\
             <book><title>tolkien</title><isbn>2</isbn></book>\
             <book><title>wodehouse</title></book>\
             <book><info><title>austen</title></info></book>\
             </shelf>",
        )
    }

    #[test]
    fn idf_rewards_selective_predicates() {
        let (doc, index) = books();
        let q = parse_pattern("//book[./title and ./isbn and ./price]").unwrap();
        let preds = component_predicates(&q);
        let idf_title = idf(&doc, &index, "book", &preds[0]);
        let idf_isbn = idf(&doc, &index, "book", &preds[1]);
        let idf_price = idf(&doc, &index, "book", &preds[2]);
        // title (3/4 books) < isbn (2/4) < price (1/4).
        assert!(idf_title < idf_isbn && idf_isbn < idf_price);
        assert!((idf_title - (4.0f64 / 3.0).ln()).abs() < 1e-12);
        assert!((idf_price - 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn idf_of_never_satisfied_predicate_is_maximal_and_finite() {
        let (doc, index) = books();
        let q = parse_pattern("//book[./nosuch]").unwrap();
        let preds = component_predicates(&q);
        let v = idf(&doc, &index, "book", &preds[0]);
        assert!((v - 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn relaxed_predicate_has_smaller_idf() {
        // The engine's score ordering (exact > relaxed) falls out of
        // Definition 4.2: the relaxed predicate is satisfied by at least
        // as many nodes, so its idf is no larger.
        let (doc, index) = books();
        let exact = component_predicates(&parse_pattern("//book[./title]").unwrap());
        let relaxed = component_predicates(&parse_pattern("//book[.//title]").unwrap());
        let idf_exact = idf(&doc, &index, "book", &exact[0]);
        let idf_relaxed = idf(&doc, &index, "book", &relaxed[0]);
        assert!(idf_relaxed < idf_exact, "{idf_relaxed} vs {idf_exact}");
    }

    #[test]
    fn tf_counts_distinct_witnesses() {
        let (doc, index) = setup(
            "<shelf><book><title>a</title><title>b</title></book><book><title>c</title></book></shelf>",
        );
        let q = parse_pattern("//book[./title]").unwrap();
        let preds = component_predicates(&q);
        let book_tag = doc.tag_id("book").unwrap();
        let books: Vec<_> = index.view().nodes_with_tag(book_tag).to_vec();
        assert_eq!(tf(&doc, &index, &preds[0], books[0]), 2);
        assert_eq!(tf(&doc, &index, &preds[0], books[1]), 1);
    }

    #[test]
    fn value_tests_restrict_idf_and_tf() {
        let (doc, index) = books();
        let q = parse_pattern("//book[./title = 'wodehouse']").unwrap();
        let preds = component_predicates(&q);
        // Only 2 of 4 books have a wodehouse title as a child.
        let v = idf(&doc, &index, "book", &preds[0]);
        assert!((v - 2.0f64.ln()).abs() < 1e-12);
        let book_tag = doc.tag_id("book").unwrap();
        let books_nodes: Vec<_> = index.view().nodes_with_tag(book_tag).to_vec();
        assert_eq!(tf(&doc, &index, &preds[0], books_nodes[0]), 1);
        assert_eq!(tf(&doc, &index, &preds[0], books_nodes[1]), 0);
    }

    #[test]
    fn score_answer_orders_richer_matches_higher() {
        let (doc, index) = books();
        let q = parse_pattern("//book[./title and ./isbn and ./price]").unwrap();
        let book_tag = doc.tag_id("book").unwrap();
        let books_nodes: Vec<_> = index.view().nodes_with_tag(book_tag).to_vec();
        let scores: Vec<f64> = books_nodes
            .iter()
            .map(|&b| score_answer(&doc, &index, &q, b))
            .collect();
        // Book 0 satisfies all three predicates; book 1 two; book 2 one;
        // book 3 none (title is a grandchild, not a child).
        assert!(scores[0] > scores[1]);
        assert!(scores[1] > scores[2]);
        assert!(scores[2] > scores[3]);
        assert_eq!(scores[3], 0.0);
    }

    #[test]
    fn counts_split_on_the_10_mb_document_and_not_on_small_ones() {
        use whirlpool_xmark::{generate, queries, GeneratorConfig};
        let work = |target_bytes: usize, query: &str| {
            let config = GeneratorConfig {
                target_bytes,
                seed: 7,
                max_items: None,
            };
            let doc = generate(&config);
            let index = TagIndex::build(&doc);
            let preds = component_predicates(&parse_pattern(query).unwrap());
            sweep_work((&doc).into(), index.view(), "item", &preds)
        };
        // Q2 on the 10 Mb document: one run per core, up to two.
        let q2 = work(10_000_000, queries::Q2);
        assert_eq!(run_count(q2, 2), 2, "{q2}");
        assert_eq!(run_count(q2, 1), 1, "{q2}");
        // A 1 MB document (the daemon benchmark's) and a 300 kB shard
        // (the corpus benchmark's rich ones) stay on one thread, however
        // many cores there are. Q3 is the heaviest count.
        for bytes in [1_000_000, 300_000] {
            let q3 = work(bytes, queries::Q3);
            assert_eq!(run_count(q3, 64), 1, "{bytes}: {q3}");
        }
    }

    #[test]
    fn composed_axis_predicates_score_descendants() {
        let (doc, index) = books();
        let q = parse_pattern("//book[.//title]").unwrap();
        let book_tag = doc.tag_id("book").unwrap();
        let books_nodes: Vec<_> = index.view().nodes_with_tag(book_tag).to_vec();
        // Book 3's title is under info — satisfied by the ad predicate
        // (tf = 1). Note the *idf* of this predicate is 0 here: every
        // book satisfies it, so per Definition 4.2 it carries no
        // discriminating power and the score is 0.
        let preds = component_predicates(&q);
        assert_eq!(tf(&doc, &index, &preds[0], books_nodes[3]), 1);
        assert_eq!(idf(&doc, &index, "book", &preds[0]), 0.0);
        assert_eq!(score_answer(&doc, &index, &q, books_nodes[3]), 0.0);
    }
}
