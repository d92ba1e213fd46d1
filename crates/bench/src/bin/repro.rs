#![forbid(unsafe_code)]

//! Regenerates every table and figure of the paper's evaluation
//! (§6.3). Each experiment prints the same rows/series the paper
//! reports; absolute numbers differ (different hardware, Rust vs C++,
//! synthetic XMark), the *shapes* are the reproduction target.
//!
//! ```text
//! cargo run --release -p whirlpool-bench --bin repro -- all
//! cargo run --release -p whirlpool-bench --bin repro -- fig3 fig6 table2
//! cargo run --release -p whirlpool-bench --bin repro -- --quick all
//! ```
//!
//! `--quick` scales document sizes down ~20× for smoke runs.

use std::time::Instant;
use whirlpool_bench::vtime::{sequential_virtual_time, simulate_whirlpool_m, VTimeConfig};
use whirlpool_bench::{
    fig3_plans, fig3_run, median, millis, static_options, Workload, WorkloadCache,
};
use whirlpool_core::{
    Algorithm, ContextOptions, EvalOptions, FaultPlan, QueryContext, QueuePolicy, RoutingStrategy,
};
use whirlpool_pattern::{permutations, QNodeId, StaticPlan, TreePattern};
use whirlpool_xmark::queries;

/// Experiment scale: document sizes in bytes for the paper's 1/10/50 Mb
/// points, and the default document.
struct Scale {
    small: usize,
    medium: usize,
    large: usize,
}

impl Scale {
    fn full() -> Self {
        Scale {
            small: 1_000_000,
            medium: 10_000_000,
            large: 50_000_000,
        }
    }

    fn quick() -> Self {
        Scale {
            small: 50_000,
            medium: 500_000,
            large: 2_500_000,
        }
    }

    fn labels(&self) -> [(usize, &'static str); 3] {
        [
            (self.small, "1M"),
            (self.medium, "10M"),
            (self.large, "50M"),
        ]
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let all = ids.is_empty() || ids.contains(&"all");
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let mut cache = WorkloadCache::new();

    let wants = |id: &str| all || ids.contains(&id);
    let start = Instant::now();

    if wants("fig3") {
        fig3();
    }
    if wants("fig5") {
        fig5(&mut cache, &scale);
    }
    if wants("fig6") || wants("fig7") {
        fig67(&mut cache, &scale);
    }
    if wants("fig8") {
        fig8(&mut cache, &scale);
    }
    if wants("fig9") {
        fig9(&mut cache, &scale);
    }
    if wants("fig10") {
        fig10(&mut cache, &scale);
    }
    if wants("fig11") {
        fig11(&mut cache, &scale);
    }
    if wants("table2") {
        table2(&mut cache, &scale);
    }
    if wants("scoring") {
        scoring(quick);
    }
    if wants("growth") {
        growth(&mut cache, &scale);
    }
    if wants("norms") {
        norms(&mut cache, &scale);
    }

    eprintln!("\ntotal repro time: {:.1}s", start.elapsed().as_secs_f64());
}

// -------------------------------------------------------------------
// Extra experiment: "Varying Scoring Function" (§6.3.5, text-only in
// the paper) — sparse scoring prunes faster; dense scoring narrows the
// score spread and slows pruning.
// -------------------------------------------------------------------
fn norms(cache: &mut WorkloadCache, scale: &Scale) {
    banner(
        "Scoring functions — sparse vs dense normalizations and random          score models (Q2, k=15; paper §6.3.5 'Varying Scoring Function')",
    );
    use whirlpool_score::{Normalization, RandomScores, ScoreModel, TfIdfModel};
    let w = default_workload(cache, scale);
    let query = queries::parse(queries::Q2);

    let models: Vec<(&str, Box<dyn ScoreModel>)> = vec![
        (
            "tf*idf sparse",
            Box::new(TfIdfModel::build(
                &w.doc,
                &w.index,
                &query,
                Normalization::Sparse,
            )),
        ),
        (
            "tf*idf dense",
            Box::new(TfIdfModel::build(
                &w.doc,
                &w.index,
                &query,
                Normalization::Dense,
            )),
        ),
        (
            "random sparse",
            Box::new(RandomScores::sparse(7, query.len())),
        ),
        (
            "random dense",
            Box::new(RandomScores::dense(7, query.len())),
        ),
    ];

    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>14} {:>10}",
        "scoring", "engine", "time (ms)", "server ops", "matches", "pruned"
    );
    for (name, model) in &models {
        for alg in [
            Algorithm::WhirlpoolS,
            Algorithm::WhirlpoolM { processors: None },
        ] {
            let r = w.run(&query, model.as_ref(), &alg, &EvalOptions::top_k(15));
            println!(
                "{:<16} {:<14} {:>12.1} {:>12} {:>14} {:>10}",
                name,
                alg.name(),
                r.elapsed.as_secs_f64() * 1e3,
                r.metrics.server_ops,
                r.metrics.partials_created,
                r.metrics.pruned
            );
        }
    }
    println!(
        "
(sparse spreads final scores -> the k-th threshold rises quickly and"
    );
    println!(" prunes more; dense bunches scores -> less pruning, more work)");
}

// -------------------------------------------------------------------
// Extra experiment: threshold growth (the mechanism behind the paper's
// §6.3.5 observations) — how fast the k-th score rises per unit of
// work in LockStep vs Whirlpool-S.
// -------------------------------------------------------------------
fn growth(cache: &mut WorkloadCache, scale: &Scale) {
    banner(
        "Threshold growth — pruning threshold (k-th best score) as a function          of evaluation progress (Q2, k=15)",
    );
    use whirlpool_bench::aggregate::{progress, threshold_at_ops};
    let w = default_workload(cache, scale);
    let query = queries::parse(queries::Q2);
    let model = w.model(&query);
    // The curve is the tracer's: one threshold sample per server
    // operation of the real engine. LockStep under a non-static routing
    // strategy runs the in-id-order plan.
    let options = EvalOptions {
        trace: true,
        ..EvalOptions::top_k(15)
    };
    let curve = |algorithm: &Algorithm| {
        let run = w.run(&query, &model, algorithm, &options);
        progress(&run.trace.expect("trace requested"))
    };
    let lockstep = curve(&Algorithm::LockStep);
    let adaptive = curve(&Algorithm::WhirlpoolS);

    println!(
        "(total ops: LockStep {}, Whirlpool-S {})\n",
        lockstep.last().map_or(0, |p| p.ops),
        adaptive.last().map_or(0, |p| p.ops)
    );
    let total = lockstep
        .last()
        .map_or(0, |p| p.ops)
        .max(adaptive.last().map_or(0, |p| p.ops));
    println!(
        "{:>14} {:>14} {:>14}",
        "server ops", "LockStep", "Whirlpool-S"
    );
    let mut ops = total / 64;
    while ops <= total {
        println!(
            "{:>14} {:>14.4} {:>14.4}",
            ops,
            threshold_at_ops(&lockstep, ops),
            threshold_at_ops(&adaptive, ops)
        );
        ops *= 2;
    }
    println!("\n(threshold is the k-th best current score; higher earlier = more pruning,");
    println!(" and the adaptive engine finishes in fewer total ops)");
}

// -------------------------------------------------------------------
// Extra experiment (the paper's §6.2.2 deferred validation): does the
// tf*idf scoring function rank answers by structural fidelity?
// -------------------------------------------------------------------
fn scoring(quick: bool) {
    banner(
        "Scoring validation (paper future work, §6.2.2) — ranking quality          over a corpus planted at known distortion levels",
    );
    let per_level = if quick { 25 } else { 100 };
    let v = whirlpool_bench::scoring::validate(42, per_level);
    println!("query: {}", whirlpool_bench::scoring::VALIDATION_QUERY);
    println!("{per_level} books per distortion level\n");
    println!(
        "{:<44} {:>10} {:>10}",
        "distortion level", "mean rank", "mean score"
    );
    let labels = [
        "0: exact match",
        "1: title nested (edge generalization)",
        "2: title + price nested",
        "3: title nested, price missing",
        "4: only a nested title",
        "5: irrelevant (wrong title)",
    ];
    for (l, label) in labels.iter().enumerate() {
        println!(
            "{:<44} {:>10.1} {:>10.4}",
            label, v.mean_rank[l], v.mean_score[l]
        );
    }
    println!(
        "\nprecision@{per_level} (ground truth = exact): {:.3}",
        v.precision_at_k
    );
    println!(
        "Kendall tau (distortion vs rank):       {:.3}",
        v.kendall_tau
    );
}

fn banner(title: &str) {
    println!("\n======================================================================");
    println!("{title}");
    println!("======================================================================");
}

/// The default workload (paper Table 1 bold: Q2, 10 Mb, k = 15,
/// sparse).
fn default_workload<'c>(cache: &'c mut WorkloadCache, scale: &Scale) -> &'c Workload {
    cache.bytes(scale.medium, "10M")
}

// -------------------------------------------------------------------
// Figure 3 — the motivating example: no static plan dominates.
// -------------------------------------------------------------------
fn fig3() {
    banner(
        "Figure 3 — Adaptivity example: join operations of all 6 static plans \
         of /book[./title and ./location and ./price] on book (d), vs currentTopK",
    );
    println!("(plan numbering as in the paper: 6 = price,title,location)");
    let plans = fig3_plans();
    print!("{:>12}", "currentTopK");
    for (name, _) in &plans {
        print!("{name:>9}");
    }
    println!();
    let mut tau = 0.0;
    while tau <= 1.0 + 1e-9 {
        print!("{tau:>12.1}");
        for (_, plan) in &plans {
            print!("{:>9}", fig3_run(plan, tau).server_ops);
        }
        println!();
        tau += 0.1;
    }
    println!("\n(unit: partial matches processed by servers; the paper counts");
    println!(" join-predicate comparisons — same shape, different constant)");
}

// -------------------------------------------------------------------
// Figure 5 — adaptive routing strategies.
// -------------------------------------------------------------------
fn fig5(cache: &mut WorkloadCache, scale: &Scale) {
    banner(
        "Figure 5 — Query execution time for Whirlpool-S and Whirlpool-M, \
         for adaptive routing strategies (default setting: Q2, 10M, k=15, sparse)",
    );
    let w = default_workload(cache, scale);
    let query = queries::parse(queries::Q2);
    let model = w.model(&query);
    println!(
        "{:<14} {:>22} {:>16} {:>16}",
        "engine", "routing", "time (ms)", "server ops"
    );
    for alg in [
        Algorithm::WhirlpoolS,
        Algorithm::WhirlpoolM { processors: None },
    ] {
        for routing in [
            RoutingStrategy::MaxScore,
            RoutingStrategy::MinScore,
            RoutingStrategy::MinAlive,
        ] {
            let mut options = EvalOptions::top_k(15);
            options.routing = routing.clone();
            let r = w.run(&query, &model, &alg, &options);
            println!(
                "{:<14} {:>22} {:>16.2} {:>16}",
                alg.name(),
                routing.name(),
                r.elapsed.as_secs_f64() * 1e3,
                r.metrics.server_ops
            );
        }
    }
}

// -------------------------------------------------------------------
// Figures 6 and 7 — static (min/median/max over all 120 permutations)
// vs adaptive, for every engine: execution time and server operations.
// -------------------------------------------------------------------
fn fig67(cache: &mut WorkloadCache, scale: &Scale) {
    banner(
        "Figures 6 & 7 — LockStep-NoPrun, LockStep, Whirlpool-S, Whirlpool-M \
         with static routing (min/median/max over all 120 permutations) and \
         adaptive routing (default setting)",
    );
    let w = default_workload(cache, scale);
    let query = queries::parse(queries::Q2);
    let model = w.model(&query);
    let servers: Vec<QNodeId> = query.server_ids().collect();
    let perms = permutations(&servers);
    println!("({} static permutations per engine)", perms.len());

    struct Row {
        name: &'static str,
        time_min: f64,
        time_med: f64,
        time_max: f64,
        ops_min: f64,
        ops_med: f64,
        ops_max: f64,
        adaptive_time: Option<f64>,
        adaptive_ops: Option<f64>,
    }

    let engines: Vec<(Algorithm, bool)> = vec![
        (Algorithm::LockStepNoPrune, false),
        (Algorithm::LockStep, false),
        (Algorithm::WhirlpoolS, true),
        (Algorithm::WhirlpoolM { processors: None }, true),
    ];

    let mut rows = Vec::new();
    for (alg, has_adaptive) in engines {
        let mut times = Vec::new();
        let mut ops = Vec::new();
        for perm in &perms {
            let options = static_options(15, StaticPlan::new(perm.clone()));
            let r = w.run(&query, &model, &alg, &options);
            times.push(r.elapsed.as_secs_f64() * 1e3);
            ops.push(r.metrics.server_ops as f64);
        }
        let (adaptive_time, adaptive_ops) = if has_adaptive {
            let r = w.run(&query, &model, &alg, &EvalOptions::top_k(15));
            (
                Some(r.elapsed.as_secs_f64() * 1e3),
                Some(r.metrics.server_ops as f64),
            )
        } else {
            (None, None)
        };
        rows.push(Row {
            name: alg.name(),
            time_min: *times.iter().min_by(|a, b| a.total_cmp(b)).unwrap(),
            time_max: *times.iter().max_by(|a, b| a.total_cmp(b)).unwrap(),
            time_med: median(&mut times),
            ops_min: *ops.iter().min_by(|a, b| a.total_cmp(b)).unwrap(),
            ops_max: *ops.iter().max_by(|a, b| a.total_cmp(b)).unwrap(),
            ops_med: median(&mut ops),
            adaptive_time,
            adaptive_ops,
        });
    }

    println!("\nFigure 6 — query execution time (ms):");
    println!(
        "{:<16} {:>12} {:>14} {:>12} {:>12}",
        "engine", "min(STATIC)", "median(STATIC)", "max(STATIC)", "ADAPTIVE"
    );
    for r in &rows {
        println!(
            "{:<16} {:>12.1} {:>14.1} {:>12.1} {:>12}",
            r.name,
            r.time_min,
            r.time_med,
            r.time_max,
            r.adaptive_time
                .map_or("-".to_string(), |t| format!("{t:.1}")),
        );
    }

    println!("\nFigure 7 — number of server operations:");
    println!(
        "{:<16} {:>12} {:>14} {:>12} {:>12}",
        "engine", "min(STATIC)", "median(STATIC)", "max(STATIC)", "ADAPTIVE"
    );
    for r in &rows {
        println!(
            "{:<16} {:>12.0} {:>14.0} {:>12.0} {:>12}",
            r.name,
            r.ops_min,
            r.ops_med,
            r.ops_max,
            r.adaptive_ops
                .map_or("-".to_string(), |o| format!("{o:.0}")),
        );
    }
}

// -------------------------------------------------------------------
// Figure 8 — the cost of adaptivity: injected per-operation cost sweep.
// -------------------------------------------------------------------
fn fig8(cache: &mut WorkloadCache, scale: &Scale) {
    banner(
        "Figure 8 — Ratio of query execution time over the best \
         LockStep-NoPrun time, vs per-operation cost (Q2, k=15)",
    );
    // A smaller document keeps the ms-scale operation sweeps tractable;
    // the ratio is scale-free.
    let w = cache.bytes(scale.small, "1M");
    let query = queries::parse(queries::Q2);
    let model = w.model(&query);
    let plan = StaticPlan::in_id_order(query.server_ids().count());

    let costs_ms = [0.0, 0.01, 0.1, 0.5, 1.0];
    println!(
        "{:>14} {:>22} {:>20} {:>12} {:>18}",
        "op cost (ms)", "Whirlpool-S ADAPTIVE", "Whirlpool-S STATIC", "LockStep", "LockStep-NoPrun"
    );
    for &cost in &costs_ms {
        // Every join costs `cost` on average: a delay drawn per
        // operation from [0, 2·cost].
        let delay = (cost > 0.0)
            .then(|| FaultPlan::seeded(0).delay_unfaulted(query.server_ids(), millis(cost)));
        let run = |alg: &Algorithm, routing: RoutingStrategy| -> f64 {
            let mut options = EvalOptions::top_k(15);
            options.routing = routing;
            options.fault_plan = delay.clone();
            w.run(&query, &model, alg, &options).elapsed.as_secs_f64()
        };
        let noprune = run(
            &Algorithm::LockStepNoPrune,
            RoutingStrategy::Static(plan.clone()),
        );
        let lockstep = run(&Algorithm::LockStep, RoutingStrategy::Static(plan.clone()));
        let ws_static = run(
            &Algorithm::WhirlpoolS,
            RoutingStrategy::Static(plan.clone()),
        );
        let ws_adaptive = run(&Algorithm::WhirlpoolS, RoutingStrategy::MinAlive);
        println!(
            "{:>14.2} {:>22.3} {:>20.3} {:>12.3} {:>18.3}",
            cost,
            ws_adaptive / noprune,
            ws_static / noprune,
            lockstep / noprune,
            1.0
        );
    }
    println!("\n(ratios < 1 mean faster than LockStep-NoPrun)");
}

// -------------------------------------------------------------------
// Figure 9 — parallelism: Whirlpool-M over Whirlpool-S time ratio for
// 1, 2, 4, ∞ processors (virtual-time schedule simulation).
// -------------------------------------------------------------------
fn fig9(cache: &mut WorkloadCache, scale: &Scale) {
    banner(
        "Figure 9 — Ratio of Whirlpool-M over Whirlpool-S execution time, \
         vs processors (virtual-time discrete-event schedule; 10M, k=15)",
    );
    println!("(host has 1 CPU: the processor sweep replays the Whirlpool-M task");
    println!(" graph under a p-processor constraint with the paper's ~1.8 ms op cost)");
    let w = default_workload(cache, scale);
    let cfg = VTimeConfig::default();

    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>12}",
        "query", "1 proc", "2 procs", "4 procs", "inf procs"
    );
    for (name, query) in queries::benchmark_queries() {
        let model = w.model(&query);

        // Whirlpool-S virtual time from its real operation counts.
        let s_result = w.run(
            &query,
            &model,
            &Algorithm::WhirlpoolS,
            &EvalOptions::top_k(15),
        );
        let s_time = sequential_virtual_time(&s_result.metrics, &cfg);

        print!("{name:<6}");
        for procs in [Some(1), Some(2), Some(4), None] {
            let ctx =
                QueryContext::new(&w.doc, &w.index, &query, &model, ContextOptions::default());
            let sim = simulate_whirlpool_m(
                &ctx,
                &RoutingStrategy::MinAlive,
                15,
                QueuePolicy::MaxFinalScore,
                &VTimeConfig {
                    processors: procs,
                    ..cfg.clone()
                },
            );
            print!("{:>12.3}", sim.makespan / s_time);
        }
        println!();
    }
    println!("\n(ratio < 1: Whirlpool-M faster than Whirlpool-S)");
}

// -------------------------------------------------------------------
// Figure 10 — varying k and query size.
// -------------------------------------------------------------------
fn fig10(cache: &mut WorkloadCache, scale: &Scale) {
    banner("Figure 10 — Query execution time vs k and query size (10M document)");
    let w = default_workload(cache, scale);
    println!(
        "{:<6} {:>5} {:>20} {:>20} {:>14} {:>14}",
        "query", "k", "Whirlpool-S (ms)", "Whirlpool-M (ms)", "W-S ops", "W-M ops"
    );
    for (name, query) in queries::benchmark_queries() {
        let model = w.model(&query);
        for k in [3usize, 15, 75] {
            let s = w.run(
                &query,
                &model,
                &Algorithm::WhirlpoolS,
                &EvalOptions::top_k(k),
            );
            let m = w.run(
                &query,
                &model,
                &Algorithm::WhirlpoolM { processors: None },
                &EvalOptions::top_k(k),
            );
            println!(
                "{:<6} {:>5} {:>20.1} {:>20.1} {:>14} {:>14}",
                name,
                k,
                s.elapsed.as_secs_f64() * 1e3,
                m.elapsed.as_secs_f64() * 1e3,
                s.metrics.server_ops,
                m.metrics.server_ops
            );
        }
    }
}

// -------------------------------------------------------------------
// Figure 11 — varying document size.
// -------------------------------------------------------------------
fn fig11(cache: &mut WorkloadCache, scale: &Scale) {
    banner("Figure 11 — Query execution time vs document size (k=15)");
    println!(
        "{:<6} {:>6} {:>20} {:>20} {:>14}",
        "query", "doc", "Whirlpool-S (ms)", "Whirlpool-M (ms)", "W-S ops"
    );
    for (bytes, label) in scale.labels() {
        // Generate (or fetch) the workload first so the borrow ends
        // before the inner loop uses it immutably.
        let w = cache.bytes(bytes, label);
        for (name, query) in queries::benchmark_queries() {
            let model = w.model(&query);
            let s = w.run(
                &query,
                &model,
                &Algorithm::WhirlpoolS,
                &EvalOptions::top_k(15),
            );
            let m = w.run(
                &query,
                &model,
                &Algorithm::WhirlpoolM { processors: None },
                &EvalOptions::top_k(15),
            );
            println!(
                "{:<6} {:>6} {:>20.1} {:>20.1} {:>14}",
                name,
                label,
                s.elapsed.as_secs_f64() * 1e3,
                m.elapsed.as_secs_f64() * 1e3,
                s.metrics.server_ops
            );
        }
    }
}

// -------------------------------------------------------------------
// Table 2 — scalability: partial matches created by Whirlpool-M as a
// percentage of the maximum possible (LockStep-NoPrun).
// -------------------------------------------------------------------
fn table2(cache: &mut WorkloadCache, scale: &Scale) {
    banner(
        "Table 2 — Partial matches created by Whirlpool-M as % of the \
         maximum possible (k=15)",
    );
    let queries_list: Vec<(&str, TreePattern)> = queries::benchmark_queries();
    print!("{:<10}", "doc size");
    for (name, _) in &queries_list {
        print!("{name:>10}");
    }
    println!();
    for (bytes, label) in scale.labels() {
        let w = cache.bytes(bytes, label);
        print!("{label:<10}");
        for (_, query) in &queries_list {
            let model = w.model(query);
            let maximum = w
                .run(
                    query,
                    &model,
                    &Algorithm::LockStepNoPrune,
                    &EvalOptions::top_k(15),
                )
                .metrics
                .partials_created;
            let created = w
                .run(
                    query,
                    &model,
                    &Algorithm::WhirlpoolM { processors: None },
                    &EvalOptions::top_k(15),
                )
                .metrics
                .partials_created;
            print!("{:>9.2}%", 100.0 * created as f64 / maximum as f64);
        }
        println!();
    }
}
