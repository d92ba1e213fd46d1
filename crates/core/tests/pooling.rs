//! The MatchPool must actually recycle on a realistic workload: the
//! Table-1 default (Q2, k = 15) over a generated XMark document.

use whirlpool_core::{evaluate, Algorithm, EvalOptions};
use whirlpool_index::TagIndex;
use whirlpool_score::{Normalization, TfIdfModel};
use whirlpool_xmark::{generate, queries, GeneratorConfig};

#[test]
fn default_q2_workload_recycles_buffers() {
    let doc = generate(&GeneratorConfig::items(150));
    let index = TagIndex::build(&doc);
    let query = queries::parse(queries::Q2);
    let model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);
    let options = EvalOptions::top_k(15);

    for alg in [
        Algorithm::LockStepNoPrune,
        Algorithm::LockStep,
        Algorithm::WhirlpoolS,
        Algorithm::WhirlpoolM { processors: None },
    ] {
        let result = evaluate(&doc, &index, &query, &model, &alg, &options);
        let m = &result.metrics;
        assert!(
            m.buffers_reused > 0,
            "{}: no buffer was recycled (allocated {})",
            alg.name(),
            m.buffers_allocated
        );
        assert!(
            m.pool_hit_rate() > 0.5,
            "{}: hit rate {:.3} (allocated {}, reused {})",
            alg.name(),
            m.pool_hit_rate(),
            m.buffers_allocated,
            m.buffers_reused
        );
    }
}
