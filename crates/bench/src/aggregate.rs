//! Trace aggregation: the score-progress curve (threshold vs. work,
//! §6.3.5) that `repro -- growth` plots.
//!
//! [`whirlpool_core::trace`] records what happened; this module reads
//! the threshold samples of a recorded [`TraceData`] against the number
//! of server operations done so far. Per-server latency and phase
//! totals come from core's own [`TraceData::summary`].

use whirlpool_core::trace::{TraceData, TraceEventKind};

/// One point on the score-progress curve: the pruning threshold after
/// `ops` server operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressPoint {
    /// Server operations completed system-wide when sampled.
    pub ops: u64,
    /// The k-th best score at that moment (0 until the set fills).
    pub threshold: f64,
}

/// The threshold-vs-work curve of a recorded trace, in event order.
pub fn progress(trace: &TraceData) -> Vec<ProgressPoint> {
    let mut ops = 0u64;
    let mut curve = Vec::new();
    for ev in &trace.events {
        match &ev.kind {
            TraceEventKind::ServerOp { .. } => ops += 1,
            TraceEventKind::ThresholdSample { value } => curve.push(ProgressPoint {
                ops,
                threshold: *value,
            }),
            _ => {}
        }
    }
    curve
}

/// The threshold value after at most `ops` operations.
pub fn threshold_at_ops(progress: &[ProgressPoint], ops: u64) -> f64 {
    progress
        .iter()
        .take_while(|p| p.ops <= ops)
        .last()
        .map_or(0.0, |p| p.threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use whirlpool_core::{evaluate, Algorithm, EvalOptions};
    use whirlpool_index::TagIndex;
    use whirlpool_score::{Normalization, TfIdfModel};
    use whirlpool_xmark::{generate, queries, GeneratorConfig};

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
        let curve = progress(&result.trace.expect("trace requested"));
        // (`thresholds_are_monotone` checks the curve's shape.)
        assert!(!curve.is_empty());
        assert!(curve.iter().all(|p| p.ops <= result.metrics.server_ops));
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
        progress(&result.trace.expect("trace requested"))
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
        let point = |ops, threshold| ProgressPoint { ops, threshold };
        let progress = [point(1, 0.0), point(5, 1.0), point(10, 2.0)];
        assert_eq!(threshold_at_fraction(&progress, 0.0), 0.0);
        assert_eq!(threshold_at_fraction(&progress, 0.5), 1.0);
        assert_eq!(threshold_at_fraction(&progress, 1.0), 2.0);
        assert_eq!(threshold_at_fraction(&[], 0.5), 0.0);
    }
}
