//! Trace aggregation: derived series for the paper figures.
//!
//! [`whirlpool_core::trace`] records what happened; this module turns a
//! recorded [`TraceData`] into the shapes the paper's figures plot —
//! per-server latency histograms (Figure 8's cost axis), a
//! score-progress curve (threshold vs. work, §6.3.5), and per-phase
//! wall time. Everything here is post-processing over the public event
//! stream; no engine internals are touched.

use std::collections::BTreeMap;
use whirlpool_core::trace::{TraceData, TraceEventKind};
use whirlpool_pattern::QNodeId;

/// Number of log2 buckets: bucket `i` counts latencies in
/// `[2^i, 2^(i+1))` µs, except bucket 0 which also holds sub-µs ops.
pub const HISTOGRAM_BUCKETS: usize = 24;

/// A power-of-two latency histogram over microsecond durations.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// `buckets[i]` counts operations with latency in
    /// `[2^i, 2^(i+1))` µs (bucket 0 includes 0 µs).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total operations recorded.
    pub count: u64,
    /// Sum of all latencies, µs.
    pub total_us: u64,
    /// Largest single latency, µs.
    pub max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            total_us: 0,
            max_us: 0,
        }
    }
}

impl LatencyHistogram {
    /// Records one operation latency.
    pub fn record(&mut self, us: u64) {
        let idx = if us <= 1 {
            0
        } else {
            ((63 - us.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.total_us += us;
        self.max_us = self.max_us.max(us);
    }

    /// Mean latency in µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the upper bound (µs) of the first bucket
    /// at which the cumulative count reaches `q * count`. Returns 0
    /// when empty. `q` is clamped to `[0, 1]`.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return 1u64 << (i + 1);
            }
        }
        self.max_us
    }
}

/// One point on the score-progress curve: the pruning threshold after
/// `ops` server operations (`ts_us` µs into the run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressPoint {
    /// Server operations completed system-wide when sampled.
    pub ops: u64,
    /// Microseconds since the tracer started.
    pub ts_us: u64,
    /// The k-th best score at that moment (0 until the set fills).
    pub threshold: f64,
}

/// The threshold value after at most `ops` operations.
pub fn threshold_at_ops(progress: &[ProgressPoint], ops: u64) -> f64 {
    progress
        .iter()
        .take_while(|p| p.ops <= ops)
        .last()
        .map_or(0.0, |p| p.threshold)
}

/// Total time a named phase (span) was open, summed over workers.
#[derive(Debug, Clone)]
pub struct PhaseStat {
    /// Span name as the engine emitted it (e.g. `"seed"`, `"serve"`).
    pub name: String,
    /// Accumulated open time across all matched begin/end pairs, µs.
    pub total_us: u64,
    /// Matched begin/end pairs.
    pub count: u64,
}

/// Everything the aggregator derives from one trace.
#[derive(Debug, Clone, Default)]
pub struct TraceAggregate {
    /// Latency histogram per server, keyed by query node.
    pub per_server: BTreeMap<QNodeId, LatencyHistogram>,
    /// All server operations combined.
    pub overall: LatencyHistogram,
    /// Threshold-vs-work curve, in event order.
    pub progress: Vec<ProgressPoint>,
    /// Per-phase wall time, sorted by name.
    pub phases: Vec<PhaseStat>,
}

impl TraceAggregate {
    /// Builds the aggregate from a recorded trace.
    pub fn from_trace(trace: &TraceData) -> Self {
        let mut agg = TraceAggregate::default();
        let mut ops = 0u64;
        // Per-(worker, span-name) stack of open timestamps. Events are
        // timestamp-sorted with per-worker order preserved, so a plain
        // stack per key pairs begins with ends correctly.
        let mut open: BTreeMap<(u32, &str), Vec<u64>> = BTreeMap::new();
        let mut phases: BTreeMap<&str, PhaseStat> = BTreeMap::new();
        for ev in &trace.events {
            match &ev.kind {
                TraceEventKind::ServerOp { server, dur_us, .. } => {
                    ops += 1;
                    agg.overall.record(*dur_us);
                    agg.per_server.entry(*server).or_default().record(*dur_us);
                }
                TraceEventKind::ThresholdSample { value } => {
                    agg.progress.push(ProgressPoint {
                        ops,
                        ts_us: ev.ts_us,
                        threshold: *value,
                    });
                }
                TraceEventKind::SpanBegin { name } => {
                    open.entry((ev.tid, name)).or_default().push(ev.ts_us);
                }
                TraceEventKind::SpanEnd { name } => {
                    if let Some(begin) = open.get_mut(&(ev.tid, name.as_str())).and_then(Vec::pop) {
                        let stat = phases.entry(name).or_insert_with(|| PhaseStat {
                            name: name.clone(),
                            total_us: 0,
                            count: 0,
                        });
                        stat.total_us += ev.ts_us.saturating_sub(begin);
                        stat.count += 1;
                    }
                }
                _ => {}
            }
        }
        agg.phases = phases.into_values().collect();
        agg
    }

    /// The progress curve thinned to at most `max_points` points (the
    /// last point is always kept, so the final threshold survives).
    pub fn downsampled_progress(&self, max_points: usize) -> Vec<ProgressPoint> {
        let n = self.progress.len();
        if max_points == 0 || n == 0 {
            return Vec::new();
        }
        if n <= max_points {
            return self.progress.clone();
        }
        let mut out = Vec::with_capacity(max_points);
        for i in 0..max_points - 1 {
            out.push(self.progress[i * n / max_points]);
        }
        out.push(self.progress[n - 1]);
        out
    }

    /// Serializes the aggregate as a JSON object (appended to `out`),
    /// with the progress curve capped at `max_points`.
    pub fn push_json(&self, out: &mut String, max_points: usize) {
        out.push_str("{\"progress\": [");
        for (i, p) in self.downsampled_progress(max_points).iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"ops\": {}, \"ts_us\": {}, \"threshold\": {:.6}}}",
                p.ops, p.ts_us, p.threshold
            ));
        }
        out.push_str("], \"servers\": [");
        for (i, (server, h)) in self.per_server.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_histogram_json(out, &format!("q{}", server.0), h);
        }
        out.push_str("], \"overall\": ");
        push_histogram_json(out, "all", &self.overall);
        out.push_str(", \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"total_us\": {}, \"count\": {}}}",
                p.name, p.total_us, p.count
            ));
        }
        out.push_str("]}");
    }
}

fn push_histogram_json(out: &mut String, label: &str, h: &LatencyHistogram) {
    // Trailing empty buckets are elided; consumers index from 2^0.
    let used = HISTOGRAM_BUCKETS - h.buckets.iter().rev().take_while(|&&n| n == 0).count();
    out.push_str(&format!(
        "{{\"server\": \"{label}\", \"ops\": {}, \"mean_us\": {:.3}, \"p99_us\": {}, \
         \"max_us\": {}, \"log2_buckets\": [",
        h.count,
        h.mean_us(),
        h.quantile_us(0.99),
        h.max_us
    ));
    for (i, n) in h.buckets[..used].iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&n.to_string());
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use whirlpool_core::{evaluate, Algorithm, EvalOptions};
    use whirlpool_index::TagIndex;
    use whirlpool_score::{Normalization, TfIdfModel};
    use whirlpool_xmark::{generate, queries, GeneratorConfig};

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LatencyHistogram::default();
        for us in [0, 1, 2, 3, 4, 8, 1000] {
            h.record(us);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.buckets[0], 2); // 0 and 1
        assert_eq!(h.buckets[1], 2); // 2 and 3
        assert_eq!(h.buckets[2], 1); // 4
        assert_eq!(h.buckets[3], 1); // 8
        assert_eq!(h.buckets[9], 1); // 1000 in [512, 1024)
        assert_eq!(h.max_us, 1000);
        assert_eq!(h.quantile_us(0.5), 4); // 4th of 7 falls in bucket 1
        assert_eq!(h.quantile_us(1.0), 1024);
        assert_eq!(LatencyHistogram::default().quantile_us(0.5), 0);
    }

    #[test]
    fn aggregates_a_real_trace() {
        let doc = generate(&GeneratorConfig::items(80));
        let index = TagIndex::build(&doc);
        let query = queries::parse(queries::Q2);
        let model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);
        let options = EvalOptions {
            trace: true,
            ..EvalOptions::top_k(10)
        };
        let result = evaluate(
            &doc,
            &index,
            &query,
            &model,
            &Algorithm::WhirlpoolS,
            &options,
        );
        let trace = result.trace.expect("trace requested");
        let agg = TraceAggregate::from_trace(&trace);

        assert_eq!(agg.overall.count, result.metrics.server_ops);
        assert_eq!(
            agg.per_server.values().map(|h| h.count).sum::<u64>(),
            agg.overall.count
        );
        // (`thresholds_are_monotone` checks the curve's shape.)
        assert!(!agg.progress.is_empty());
        // Downsampling keeps the endpoints' values.
        let thin = agg.downsampled_progress(16);
        assert!(thin.len() <= 16);
        assert_eq!(thin.last(), agg.progress.last());
        // Spans all closed, so every phase has matched pairs.
        assert!(agg.phases.iter().any(|p| p.name == "seed"));
        for p in &agg.phases {
            assert!(p.count >= 1, "phase {} unmatched", p.name);
        }

        let mut json = String::new();
        agg.push_json(&mut json, 16);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"progress\""));
        assert!(json.contains("\"log2_buckets\""));
    }

    /// Reads a progress curve at a fraction of its total operation count.
    fn threshold_at_fraction(progress: &[ProgressPoint], fraction: f64) -> f64 {
        let Some(last) = progress.last() else {
            return 0.0;
        };
        let target = (last.ops as f64 * fraction).round() as u64;
        threshold_at_ops(progress, target.max(1))
    }

    /// The progress curve of a traced real-engine run (Q2, k = 15).
    fn progress_of(algorithm: &Algorithm) -> Vec<ProgressPoint> {
        let doc = generate(&GeneratorConfig::items(120));
        let index = TagIndex::build(&doc);
        let query = queries::parse(queries::Q2);
        let model = TfIdfModel::build(&doc, &index, &query, Normalization::Sparse);
        let options = EvalOptions {
            trace: true,
            ..EvalOptions::top_k(15)
        };
        let result = evaluate(&doc, &index, &query, &model, algorithm, &options);
        TraceAggregate::from_trace(&result.trace.expect("trace requested")).progress
    }

    #[test]
    fn thresholds_are_monotone() {
        for algorithm in [Algorithm::LockStep, Algorithm::WhirlpoolS] {
            let progress = progress_of(&algorithm);
            assert!(!progress.is_empty());
            for w in progress.windows(2) {
                assert!(w[1].threshold >= w[0].threshold);
                assert!(w[1].ops >= w[0].ops);
            }
        }
    }

    #[test]
    fn adaptive_threshold_grows_no_slower_early_on() {
        // The premise behind per-match adaptivity: at the same point in
        // the evaluation (fraction of its own ops), the adaptive engine
        // has at least matched the lock-step threshold.
        let lockstep_q = threshold_at_fraction(&progress_of(&Algorithm::LockStep), 0.1);
        let adaptive_q = threshold_at_fraction(&progress_of(&Algorithm::WhirlpoolS), 0.1);
        assert!(
            adaptive_q >= lockstep_q * 0.99,
            "adaptive {adaptive_q} vs lockstep {lockstep_q} at 10% of ops"
        );
    }

    #[test]
    fn fraction_interpolation() {
        let point = |ops, threshold| ProgressPoint {
            ops,
            ts_us: 0,
            threshold,
        };
        let progress = [point(1, 0.0), point(5, 1.0), point(10, 2.0)];
        assert_eq!(threshold_at_fraction(&progress, 0.0), 0.0);
        assert_eq!(threshold_at_fraction(&progress, 0.5), 1.0);
        assert_eq!(threshold_at_fraction(&progress, 1.0), 2.0);
        assert_eq!(threshold_at_fraction(&[], 0.5), 0.0);
    }

    #[test]
    fn downsample_edge_cases() {
        let agg = TraceAggregate::default();
        assert!(agg.downsampled_progress(8).is_empty());
        let one = TraceAggregate {
            progress: vec![ProgressPoint {
                ops: 1,
                ts_us: 5,
                threshold: 0.5,
            }],
            ..TraceAggregate::default()
        };
        assert_eq!(one.downsampled_progress(8).len(), 1);
        assert!(one.downsampled_progress(0).is_empty());
    }
}
