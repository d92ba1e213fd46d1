//! The benchmark's contract in one place: workloads, metrics, bounds.
//! `BENCHMARK.json` is printed from these tables by the `spec`
//! subcommand and never edited by hand; a unit test holds the two
//! together.

use crate::fixtures::Kind;

/// Seconds one run measures (`--seconds` when the driver runs it).
pub const RUN_SECONDS: u32 = 24;

/// Segments per run: each drops the previous state and sets up again,
/// so a run holds this many spaced set-up samples.
pub const SEGMENTS: usize = 12;

/// Segments of a traced run: its segments also hold the probes and
/// issue every op twice, so half as many fit the same window.
pub const TRACED_SEGMENTS: usize = 6;

/// Why each workload exists, one line each.
pub fn why(kind: Kind) -> &'static str {
    match kind {
        Kind::DocS => {
            "One 10 Mb XMark document, owned backing, Whirlpool-S: pattern, score and core's \
             sequential router do all the work in ops, xml/index/store all of set-up, serve none."
        }
        Kind::DocM2 => {
            "Same document and queries over the mapped snapshot with Whirlpool-M on 2 threads: \
             scheduler, stealing, shared top-k and the view arm replace doc_s's path."
        }
        Kind::CorpusLazy => {
            "64 lazy snapshot shards (16 rich, 48 decoys) with 4 resident: store peek/attach/evict \
             and the collection driver carry the ops, pruned-before-attach and attach-bound alike."
        }
        Kind::ServeClosed => {
            "The daemon on loopback with one closed-loop client: HTTP, JSON, accept polling, \
             admission and its own collection driver run here and nowhere else."
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// The five end-to-end metrics, the same on every workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms",
        unit: "ms",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.24,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "disk_mb",
        unit: "MB",
        better: "lower",
        bound: 0.02,
    },
];

/// A per-layer metric of the traced run.
pub struct Layer {
    /// Metric name; the part before the first dot is the layer.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// A wall time, divided by the host factor like the end-to-end
    /// times (everything else is a count, a ratio or a host reading).
    pub time: bool,
}

fn layer(name: &str, unit: &'static str, better: &'static str, time: bool) -> Layer {
    Layer {
        name: name.to_string(),
        unit,
        better,
        time,
    }
}

/// Classes of the widest workload (`class.NN.ms`).
pub const MAX_CLASSES: usize = 15;

/// Every per-layer metric, in the order they are printed. A workload
/// whose path bypasses a layer reports 0 for that layer's metrics.
pub fn per_layer() -> Vec<Layer> {
    let t = |n: &str, u: &'static str| layer(n, u, "lower", true);
    let lo = |n: &str, u: &'static str| layer(n, u, "lower", false);
    let hi = |n: &str, u: &'static str| layer(n, u, "higher", false);
    let mut v = vec![
        t("xml.parse_ms_per_mb", "ms/MB"),
        hi("xml.nodes_per_mb", "count"),
        t("index.build_ms_per_mb", "ms/MB"),
        t("index.path_synopsis_ms_per_mb", "ms/MB"),
        t("store.encode_ms_per_mb", "ms/MB"),
        t("store.write_ms_per_mb", "ms/MB"),
        t("store.peek_us_per_shard", "us"),
        t("store.attach_ms_per_mb", "ms/MB"),
        t("store.attach_us_per_shard", "us"),
        lo("store.bytes_per_xml_byte", "ratio"),
        t("pattern.parse_us", "us"),
        t("score.model_build_ms", "ms"),
        lo("score.model_share", "ratio"),
        t("score.corpus_stats_ms", "ms"),
        t("core.context_build_ms", "ms"),
        t("core.evaluate_ms", "ms"),
        lo("core.evaluate_share", "ratio"),
        lo("core.server_ops_per_op", "count"),
        lo("core.partials_created_per_op", "count"),
        hi("core.pruned_frac", "ratio"),
        hi("core.pool_hit_rate", "ratio"),
        t("core.ns_per_server_op", "ns"),
        t("core.engine_ms.lockstep_noprune", "ms"),
        t("core.engine_ms.lockstep", "ms"),
        t("core.engine_ms.whirlpool_s", "ms"),
        t("core.engine_ms.whirlpool_m1", "ms"),
        t("core.engine_ms.whirlpool_m2", "ms"),
        lo("core.s_over_noprune", "ratio"),
        lo("core.m2_over_m1", "ratio"),
        hi("core.m2.steal_rate", "ratio"),
        lo("core.mapped_over_owned", "ratio"),
        t("core.collection.open_ms", "ms"),
        t("core.collection.evaluate_ms", "ms"),
        lo("core.collection.shards_visited_per_op", "count"),
        lo("core.collection.shards_attached_per_op", "count"),
        hi("core.collection.pruned_before_attach_frac", "ratio"),
        lo("core.collection.evictions_per_op", "count"),
        lo("core.collection.attach_share", "ratio"),
        lo("core.collection.over_scan_all", "ratio"),
        t("serve.connect_us", "us"),
        t("serve.ttfb_ms", "ms"),
        t("serve.read_us", "us"),
        t("serve.server_elapsed_ms", "ms"),
        t("serve.overhead_ms", "ms"),
        t("serve.collection_overhead_ms", "ms"),
        hi("serve.outcomes.exact", "count"),
        lo("serve.outcomes.degraded", "count"),
        lo("serve.outcomes.timed_out", "count"),
        lo("serve.outcomes.shed", "count"),
        lo("serve.outcomes.rejected", "count"),
        hi("serve.conserved", "count"),
        lo("host.factor", "ratio"),
        lo("host.cpu_ref_ms", "ms"),
        lo("host.chase_ref_ms", "ms"),
        lo("host.stream_ref_ms", "ms"),
        lo("host.noise_p50_over_floor", "ratio"),
        lo("raw.setup_s", "s"),
        lo("raw.op_ms", "ms"),
        hi("raw.ops_per_s", "1/s"),
        t("bench.op_p50_ms", "ms"),
        t("bench.op_p90_ms", "ms"),
        t("bench.cpu_ms_per_op", "ms"),
        lo("bench.cpu_over_wall", "ratio"),
        lo("bench.fixture_s", "s"),
        hi("bench.rounds", "count"),
        hi("bench.ops", "count"),
        lo("bench.fail_frac", "ratio"),
        lo("bench.trace_overhead_frac", "ratio"),
        hi("bench.span_coverage", "ratio"),
    ];
    for c in 0..MAX_CLASSES {
        v.push(t(&format!("class.{c:02}.ms"), "ms"));
    }
    v
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, k) in Kind::ALL.into_iter().enumerate() {
        let sep = if i + 1 < Kind::ALL.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            k.name(),
            why(k)
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let sep = if i + 1 < layers.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name, m.unit, m.better
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn spec_equals_the_committed_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json());
    }

    #[test]
    fn the_contract_limits_hold() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut names: Vec<&str> = layers.iter().map(|l| l.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(Kind::ALL.iter().map(|k| k.name()));
        assert!(names.iter().all(|n| valid_name(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for unit in layers
            .iter()
            .map(|l| l.unit)
            .chain(END_TO_END.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(Kind::ALL.iter().all(|k| why(*k).len() <= 200));
        assert!(benchmark_json().len() < 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
