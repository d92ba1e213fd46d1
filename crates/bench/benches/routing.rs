//! Ablation: routing strategies (Figure 5 code path) and queue
//! policies (§6.1.3) on a scaled-down workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use whirlpool_bench::Workload;
use whirlpool_core::{Algorithm, EvalOptions, QueuePolicy, RoutingStrategy};
use whirlpool_xmark::queries;

fn bench_routing(c: &mut Criterion) {
    let workload = Workload::of_items(150);
    let query = queries::parse(queries::Q2);
    let model = workload.model(&query);

    let mut group = c.benchmark_group("routing");
    group.sample_size(10);
    for routing in [
        RoutingStrategy::MaxScore,
        RoutingStrategy::MinScore,
        RoutingStrategy::MinAlive,
    ] {
        group.bench_with_input(
            BenchmarkId::new("whirlpool_s", routing.name()),
            &routing,
            |b, routing| {
                b.iter(|| {
                    let mut options = EvalOptions::top_k(15);
                    options.routing = routing.clone();
                    workload.run(&query, &model, &Algorithm::WhirlpoolS, &options)
                })
            },
        );
    }
    group.finish();

    // Ablation: selectivity sample size — the routing estimates' cost
    // vs accuracy knob.
    let mut group = c.benchmark_group("selectivity_sample");
    group.sample_size(10);
    for sample in [4usize, 64, 1024] {
        group.bench_with_input(
            BenchmarkId::new("whirlpool_s", sample),
            &sample,
            |b, &sample| {
                b.iter(|| {
                    let mut options = EvalOptions::top_k(15);
                    options.selectivity_sample = sample;
                    workload.run(&query, &model, &Algorithm::WhirlpoolS, &options)
                })
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("queue_policy");
    group.sample_size(10);
    for (name, policy) in [
        ("fifo", QueuePolicy::Fifo),
        ("current_score", QueuePolicy::CurrentScore),
        ("max_next_score", QueuePolicy::MaxNextScore),
        ("max_final_score", QueuePolicy::MaxFinalScore),
    ] {
        group.bench_with_input(
            BenchmarkId::new("whirlpool_s", name),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    let mut options = EvalOptions::top_k(15);
                    options.queue = policy;
                    workload.run(&query, &model, &Algorithm::WhirlpoolS, &options)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_routing);
criterion_main!(benches);
