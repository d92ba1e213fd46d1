//! The differential oracle over random inputs: every seed draws a
//! corpus and a pattern ([`harness::random_case`]) and runs a pairwise
//! covering of the configuration table ([`harness::pairwise`]) against
//! the brute-force reference, plus Whirlpool-M at two workers over
//! peeked lazy shards, one resident, across the corpus after a sibling
//! shape warmed the count memo, in both modes, and the corpus at k = 1,
//! 2 and 3, where shard pruning decides the answers. CI runs this file at
//! several `PROPTEST_SEED`s.

mod harness;

use harness::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_configuration_pair_matches_the_reference(seed in any::<u64>()) {
        let mut rows = pairwise(seed);
        let (engine, backing, scope) = (Engine::M(2), Backing::Lazy(1), Within::Corpus);
        rows.extend(both_modes(vec![Row { engine, backing, scope, warm: true, ..Row::default() }]));
        // Where shard pruning decides the answers: the corpus at k = 1,
        // 2 and 3 under either tf*idf model.
        for model in [Model::IdfSparse, Model::IdfNone] {
            for k in [K::One, K::Two, K::Exactly(3)] {
                rows.push(Row { model, k, scope: Within::Corpus, ..Row::default() });
            }
        }
        check_case(&random_case(seed), &rows);
    }
}
