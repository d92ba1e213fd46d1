//! All four engines must return equivalent top-k sets for every
//! configuration: the adaptive engines only reorder and prune work that
//! provably cannot affect the answer.

use whirlpool_core::{
    answers_equivalent, evaluate, Algorithm, EvalOptions, QueuePolicy, RelaxMode, RoutingStrategy,
};
use whirlpool_index::TagIndex;
use whirlpool_pattern::{permutations, QNodeId, StaticPlan};
use whirlpool_score::{Normalization, RandomScores, ScoreModel, TfIdfModel};
use whirlpool_xmark::{generate, queries, GeneratorConfig};

fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::LockStepNoPrune,
        Algorithm::LockStep,
        Algorithm::WhirlpoolS,
        Algorithm::WhirlpoolM { processors: None },
        Algorithm::WhirlpoolM {
            processors: Some(2),
        },
    ]
}

#[test]
fn engines_agree_on_xmark_for_all_queries_and_k() {
    let doc = generate(&GeneratorConfig::items(120));
    let index = TagIndex::build(&doc);
    for (name, query) in queries::benchmark_queries() {
        let model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);
        for k in [1, 5, 15] {
            let options = EvalOptions::top_k(k);
            let reference = evaluate(
                &doc,
                &index,
                &query,
                &model,
                &Algorithm::LockStepNoPrune,
                &options,
            );
            for alg in algorithms() {
                let got = evaluate(&doc, &index, &query, &model, &alg, &options);
                assert!(
                    answers_equivalent(&got.answers, &reference.answers, 1e-9),
                    "{name} k={k} alg={}:\n got {:?}\n ref {:?}",
                    alg.name(),
                    got.answers,
                    reference.answers
                );
            }
        }
    }
}

#[test]
fn engines_agree_under_all_routing_strategies() {
    let doc = generate(&GeneratorConfig::items(60));
    let index = TagIndex::build(&doc);
    let query = queries::parse(queries::Q2);
    let model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);
    let reference = evaluate(
        &doc,
        &index,
        &query,
        &model,
        &Algorithm::LockStepNoPrune,
        &EvalOptions::top_k(10),
    );
    for routing in [
        RoutingStrategy::MinAlive,
        RoutingStrategy::MaxScore,
        RoutingStrategy::MinScore,
        RoutingStrategy::Static(StaticPlan::in_id_order(query.server_ids().count())),
    ] {
        let mut options = EvalOptions::top_k(10);
        options.routing = routing.clone();
        let got = evaluate(
            &doc,
            &index,
            &query,
            &model,
            &Algorithm::WhirlpoolS,
            &options,
        );
        assert!(
            answers_equivalent(&got.answers, &reference.answers, 1e-9),
            "routing={}",
            routing.name()
        );
    }
}

#[test]
fn engines_agree_under_all_queue_policies() {
    let doc = generate(&GeneratorConfig::items(60));
    let index = TagIndex::build(&doc);
    let query = queries::parse(queries::Q1);
    let model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);
    let reference = evaluate(
        &doc,
        &index,
        &query,
        &model,
        &Algorithm::LockStepNoPrune,
        &EvalOptions::top_k(5),
    );
    for queue in [
        QueuePolicy::Fifo,
        QueuePolicy::CurrentScore,
        QueuePolicy::MaxNextScore,
        QueuePolicy::MaxFinalScore,
    ] {
        for alg in [
            Algorithm::WhirlpoolS,
            Algorithm::WhirlpoolM { processors: None },
        ] {
            let mut options = EvalOptions::top_k(5);
            options.queue = queue;
            let got = evaluate(&doc, &index, &query, &model, &alg, &options);
            assert!(
                answers_equivalent(&got.answers, &reference.answers, 1e-9),
                "queue={queue:?} alg={}",
                alg.name()
            );
        }
    }
}

#[test]
fn engines_agree_for_every_static_permutation() {
    // All 120 permutations of Q2's five servers must give the same
    // answers (only the work differs) — the premise of Figures 6/7.
    let doc = generate(&GeneratorConfig::items(40));
    let index = TagIndex::build(&doc);
    let query = queries::parse(queries::Q2);
    let model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);
    let servers: Vec<QNodeId> = query.server_ids().collect();
    let reference = evaluate(
        &doc,
        &index,
        &query,
        &model,
        &Algorithm::LockStepNoPrune,
        &EvalOptions::top_k(5),
    );
    for perm in permutations(&servers) {
        let mut options = EvalOptions::top_k(5);
        options.routing = RoutingStrategy::Static(StaticPlan::new(perm.clone()));
        let got = evaluate(&doc, &index, &query, &model, &Algorithm::LockStep, &options);
        assert!(
            answers_equivalent(&got.answers, &reference.answers, 1e-9),
            "perm={perm:?}"
        );
    }
}

#[test]
fn engines_agree_under_random_score_models() {
    let doc = generate(&GeneratorConfig::items(80));
    let index = TagIndex::build(&doc);
    let query = queries::parse(queries::Q2);
    for seed in [1u64, 2, 3] {
        for dense in [false, true] {
            let model: Box<dyn ScoreModel> = if dense {
                Box::new(RandomScores::dense(seed, query.len()))
            } else {
                Box::new(RandomScores::sparse(seed, query.len()))
            };
            let options = EvalOptions::top_k(8);
            let reference = evaluate(
                &doc,
                &index,
                &query,
                model.as_ref(),
                &Algorithm::LockStepNoPrune,
                &options,
            );
            for alg in algorithms() {
                let got = evaluate(&doc, &index, &query, model.as_ref(), &alg, &options);
                assert!(
                    answers_equivalent(&got.answers, &reference.answers, 1e-9),
                    "seed={seed} dense={dense} alg={}",
                    alg.name()
                );
            }
        }
    }
}

#[test]
fn k_larger_than_answer_universe() {
    let doc = generate(&GeneratorConfig::items(10));
    let index = TagIndex::build(&doc);
    let query = queries::parse(queries::Q1);
    let model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);
    let options = EvalOptions::top_k(1000);
    let reference = evaluate(
        &doc,
        &index,
        &query,
        &model,
        &Algorithm::LockStepNoPrune,
        &options,
    );
    // Every item appears (relaxed mode never loses a root).
    assert_eq!(reference.answers.len(), 10);
    for alg in algorithms() {
        let got = evaluate(&doc, &index, &query, &model, &alg, &options);
        assert!(
            answers_equivalent(&got.answers, &reference.answers, 1e-9),
            "{}",
            alg.name()
        );
    }
}

#[test]
fn exact_mode_equivalence() {
    let doc = generate(&GeneratorConfig::items(80));
    let index = TagIndex::build(&doc);
    for (name, query) in queries::benchmark_queries() {
        let model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);
        let mut options = EvalOptions::top_k(10);
        options.relax = RelaxMode::Exact;
        let reference = evaluate(
            &doc,
            &index,
            &query,
            &model,
            &Algorithm::LockStepNoPrune,
            &options,
        );
        for alg in algorithms() {
            let got = evaluate(&doc, &index, &query, &model, &alg, &options);
            assert!(
                answers_equivalent(&got.answers, &reference.answers, 1e-9),
                "{name} exact alg={}",
                alg.name()
            );
        }
    }
}
