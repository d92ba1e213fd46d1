//! Scaled-down engine comparison: one Criterion bench per
//! figure-relevant code path (engines × queries at reduced document
//! size). Full-scale figure reproduction lives in the `repro` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use whirlpool_bench::Workload;
use whirlpool_core::{Algorithm, EvalOptions};
use whirlpool_xmark::queries;

fn bench_engines(c: &mut Criterion) {
    let workload = Workload::of_items(150);

    // Figures 6/10/11 code path: each engine, each query.
    let mut group = c.benchmark_group("engines");
    group.sample_size(10);
    for (qname, query) in queries::benchmark_queries() {
        let model = workload.model(&query);
        for alg in [
            Algorithm::LockStepNoPrune,
            Algorithm::LockStep,
            Algorithm::WhirlpoolS,
            Algorithm::WhirlpoolM { processors: None },
        ] {
            group.bench_with_input(BenchmarkId::new(alg.name(), qname), &query, |b, query| {
                b.iter(|| workload.run(query, &model, &alg, &EvalOptions::top_k(15)))
            });
        }
    }
    group.finish();

    // Figure 10 code path: k sweep on the adaptive engine.
    let mut group = c.benchmark_group("k_sweep");
    group.sample_size(10);
    let query = queries::parse(queries::Q2);
    let model = workload.model(&query);
    for k in [3usize, 15, 75] {
        group.bench_with_input(BenchmarkId::new("whirlpool_s", k), &k, |b, &k| {
            b.iter(|| {
                workload.run(
                    &query,
                    &model,
                    &Algorithm::WhirlpoolS,
                    &EvalOptions::top_k(k),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
