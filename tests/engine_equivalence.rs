//! All four engines return the reference's top-k under every routing
//! strategy, queue policy, static plan and score model: the adaptive
//! engines only reorder and prune work that provably cannot affect the
//! answer. Each test is a slice of the oracle's configuration table
//! (`tests/oracle/harness.rs`) over XMark shards.

#[path = "oracle/harness.rs"]
mod oracle;

use oracle::*;
use whirlpool_core::{evaluate, RelaxMode, RoutingStrategy};
use whirlpool_index::TagIndex;
use whirlpool_pattern::{permutations, QNodeId, StaticPlan};
use whirlpool_score::Normalization;
use whirlpool_xmark::queries;

const XMARK_QUERIES: [&str; 4] = [queries::Q1, queries::Q2, queries::Q3, queries::Q4];

#[test]
fn engines_agree_on_xmark_for_all_queries_and_k() {
    let rows = sweep(&ENGINES, |engine| Row {
        engine,
        k: K::Exactly(5),
        ..Row::default()
    });
    let rows = [
        rows,
        sweep(&[K::One, K::Roots], |k| Row {
            k,
            ..Row::default()
        }),
    ]
    .concat();
    check_case(&xmark_case("xmark", &[20, 20, 20], &XMARK_QUERIES), &rows);
}

#[test]
fn engines_agree_under_all_routing_strategies() {
    let rows = sweep(&[0, 1, 2, 3], |routing| Row {
        routing,
        k: K::Exactly(10),
        ..Row::default()
    });
    check_case(&xmark_case("xmark", &[60], &[queries::Q2]), &rows);
}

#[test]
fn engines_agree_under_all_queue_policies() {
    let mut rows = Vec::new();
    for queue in QUEUES {
        for engine in [Engine::S, Engine::M(1), Engine::M(2)] {
            rows.push(Row {
                queue,
                engine,
                k: K::Exactly(5),
                ..Row::default()
            });
        }
    }
    check_case(&xmark_case("xmark", &[60], &[queries::Q1]), &rows);
}

/// All 120 permutations of Q2's five servers give the reference's
/// answers under LockStep (only the work differs): the premise of
/// Figures 6/7.
#[test]
fn engines_agree_for_every_static_permutation() {
    let case = xmark_case("xmark", &[40], &[queries::Q2]);
    let (doc, pattern) = (&case.docs[0], &case.patterns[0]);
    let index = TagIndex::build(doc);
    let model = counted_model(&[doc], pattern, Normalization::Sparse);
    let truth = reference(doc, pattern, &model, RelaxMode::Relaxed);
    let servers: Vec<QNodeId> = pattern.server_ids().collect();
    for perm in permutations(&servers) {
        let routing = RoutingStrategy::Static(StaticPlan::new(perm.clone()));
        let options = whirlpool_core::EvalOptions {
            routing,
            ..whirlpool_core::EvalOptions::top_k(5)
        };
        let (algorithm, _) = Engine::LockStep.algorithm();
        let r = evaluate(doc, &index, pattern, &model, &algorithm, &options);
        check_topk(&format!("perm={perm:?}"), &scored(&r.answers), &truth, 5);
    }
}

#[test]
fn engines_agree_under_random_score_models() {
    let mut rows = Vec::new();
    for model in [Model::RandomSparse, Model::RandomDense] {
        rows.extend(sweep(&ENGINES, |engine| Row {
            engine,
            model,
            k: K::Exactly(8),
            ..Row::default()
        }));
    }
    check_case(&xmark_case("xmark", &[27], &[queries::Q2]), &rows);
}

/// k past every root returns every root: relaxed mode never loses one.
#[test]
fn k_larger_than_answer_universe() {
    let rows = sweep(&ENGINES, |engine| Row {
        engine,
        k: K::Exactly(1000),
        ..Row::default()
    });
    let case = xmark_case("xmark", &[10], &[queries::Q1]);
    assert_eq!(root_candidates(&case.docs[0], &case.patterns[0]).len(), 10);
    check_case(&case, &rows);
}

#[test]
fn exact_mode_equivalence() {
    let exact = |engine| Row {
        engine,
        relax: RelaxMode::Exact,
        k: K::Exactly(10),
        ..Row::default()
    };
    check_case(
        &xmark_case("xmark", &[27], &XMARK_QUERIES),
        &sweep(&ENGINES, exact),
    );
}
