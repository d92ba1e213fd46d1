//! From a finished [`Run`] to named metrics, printed one per line and
//! then as the result object the driver reads.

use crate::protocol::{Config, Run};
use crate::spec::{self, END_TO_END};
use crate::stats;
use crate::workloads::{mb, wps_bytes_under};
use std::collections::BTreeMap;

/// A metric ready to print.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name without the workload prefix.
    pub name: String,
    /// Value, all digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was taken over.
    pub n: usize,
}

/// Peak resident set of this process in MB, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The three time metrics before and after the host factor.
struct Times {
    setup_s: f64,
    op_ms: f64,
    ops_per_s: f64,
}

fn raw_times(run: &Run) -> Times {
    let floors = run.class_floors();
    Times {
        setup_s: stats::floor(&run.setups) / 1e3,
        op_ms: stats::geomean(&floors),
        ops_per_s: floors.len() as f64 / (floors.iter().sum::<f64>() / 1e3),
    }
}

/// The five end-to-end metrics of an untraced run.
pub fn end_to_end(run: &Run, cfg: &Config) -> Vec<Metric> {
    let raw = raw_times(run);
    let h = run.host_factor();
    let ops = run.samples.len();
    let value = |name: &str| match name {
        "setup_s" => (raw.setup_s / h, run.setups.len()),
        "op_ms" => (raw.op_ms / h, ops),
        "ops_per_s" => (raw.ops_per_s * h, ops),
        "peak_rss_mb" => (peak_rss_mb(), 1),
        "disk_mb" => (mb(wps_bytes_under(&cfg.dir)), 1),
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    END_TO_END
        .iter()
        .map(|m| {
            let (value, n) = value(m.name);
            Metric {
                name: m.name.to_string(),
                value,
                unit: m.unit,
                n,
            }
        })
        .collect()
}

/// Every per-layer metric of a traced run; what the workload's path
/// never touched reads 0.
pub fn per_layer(run: &Run, mut layers: BTreeMap<String, f64>, fixture_s: f64) -> Vec<Metric> {
    let raw = raw_times(run);
    let h = run.host_factor();
    let (cpu, chase, stream) = run.kernel_floors();
    let floors = run.class_floors();
    let traced_floors: Vec<f64> = run
        .traced_class_rounds
        .iter()
        .map(|r| stats::floor(r))
        .collect();
    let mut put = |name: &str, v: f64| {
        layers.insert(name.to_string(), v);
    };
    put("host.factor", h);
    put("host.cpu_ref_ms", cpu);
    put("host.chase_ref_ms", chase);
    put("host.stream_ref_ms", stream);
    put("host.noise_p50_over_floor", run.noise_p50_over_floor());
    put("raw.setup_s", raw.setup_s);
    put("raw.op_ms", raw.op_ms);
    put("raw.ops_per_s", raw.ops_per_s);
    put("bench.op_p50_ms", stats::percentile(&run.samples, 0.5));
    put("bench.op_p90_ms", stats::percentile(&run.samples, 0.9));
    put("bench.cpu_ms_per_op", stats::floor(&run.cpu_ms_per_op));
    put("bench.cpu_over_wall", stats::median(&run.cpu_over_wall));
    put("bench.fixture_s", fixture_s);
    put("bench.rounds", run.rounds as f64);
    put("bench.ops", run.attempted as f64);
    put("bench.fail_frac", run.failed as f64 / run.attempted as f64);
    put(
        "bench.trace_overhead_frac",
        stats::geomean(&traced_floors) / stats::geomean(&floors) - 1.0,
    );
    put("bench.span_coverage", run.span_coverage());
    for (c, floor) in floors.iter().enumerate() {
        put(&format!("class.{c:02}.ms"), *floor);
    }

    let ops = run.samples.len();
    spec::per_layer()
        .into_iter()
        .map(|def| {
            let v = layers.get(&def.name).copied().unwrap_or(0.0);
            Metric {
                value: if def.time { v / h } else { v },
                name: def.name,
                unit: def.unit,
                n: ops,
            }
        })
        .collect()
}

/// Prints `workload/name value unit n=<samples>` per metric, then the
/// result object as the last line.
pub fn print(workload: &str, metrics: &[Metric], run: &Run) {
    for m in metrics {
        println!("{workload}/{} {} {} n={}", m.name, m.value, m.unit, m.n);
    }
    let correct = run.failed == 0 && !run.drift && metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        body.join(", ")
    );
}

/// JSON has no NaN or infinity; a metric that failed to measure prints
/// as `null` (and the run as not correct).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
