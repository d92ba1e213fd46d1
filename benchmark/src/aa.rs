//! `aa`: the same build measured in interleaved sets, to show the
//! benchmark agrees with itself within its own bounds.

use crate::fixtures::Kind;
use crate::spec::END_TO_END;
use crate::stats;
use std::collections::BTreeMap;
use std::process::Command;

/// What `aa` was asked for.
pub struct Options {
    /// First seed; run `r` of every set uses `seed + r`.
    pub seed: u64,
    /// Sets to interleave.
    pub sets: usize,
    /// Runs per set.
    pub runs: usize,
    /// Flags handed on to every `run`.
    pub passthrough: Vec<String>,
}

/// The end-to-end metrics one `run` printed, by name.
fn one_run(kind: Kind, seed: u64, passthrough: &[String]) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .arg("run")
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", "0"])
        .args(passthrough)
        .output()
        .map_err(|e| format!("start run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed} failed:\n{}",
            kind.name(),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let prefix = format!("{}/", kind.name());
    Ok(String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| {
            let mut words = line.strip_prefix(&prefix)?.split_whitespace();
            Some((words.next()?.to_string(), words.next()?.parse().ok()?))
        })
        .collect())
}

/// How much worse `b` is than `a`, as a share of `a`.
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Runs the sets, prints the table, and says whether every difference
/// stayed inside its bound.
pub fn run(options: &Options) -> Result<bool, String> {
    // values[workload][metric][set] = one value per run.
    let mut values: BTreeMap<(usize, &str), Vec<Vec<f64>>> = BTreeMap::new();
    for r in 0..options.runs {
        for set in 0..options.sets {
            for (w, kind) in Kind::ALL.into_iter().enumerate() {
                let seed = options.seed + r as u64;
                let metrics = one_run(kind, seed, &options.passthrough)?;
                eprintln!("set {set} run {r} {} seed {seed} done", kind.name());
                for m in &END_TO_END {
                    let v = *metrics
                        .get(m.name)
                        .ok_or_else(|| format!("{} printed no {}", kind.name(), m.name))?;
                    values
                        .entry((w, m.name))
                        .or_insert_with(|| vec![Vec::new(); options.sets])[set]
                        .push(v);
                }
            }
        }
    }

    let mut ok = true;
    println!(
        "{:<13} {:<12} {:>12} {:>12} {:>8} {:>6} {:>9} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "bound", "far run", "spread"
    );
    for (w, kind) in Kind::ALL.into_iter().enumerate() {
        for m in &END_TO_END {
            let sets = &values[&(w, m.name)];
            let medians: Vec<f64> = sets.iter().map(|s| stats::median(s)).collect();
            let worst_set = (1..medians.len())
                .map(|i| worsening(medians[0], medians[i], m.better).abs())
                .fold(0.0, f64::max);
            let far_run = sets
                .iter()
                .zip(&medians)
                .flat_map(|(s, med)| s.iter().map(move |v| ((v - med) / med).abs()))
                .fold(0.0, f64::max);
            let all: Vec<f64> = sets.iter().flatten().copied().collect();
            let spread = if all.len() >= 2 {
                stats::quartile_spread(&all)
            } else {
                0.0
            };
            let pass = worst_set <= m.bound && far_run <= m.bound;
            ok &= pass;
            println!(
                "{:<13} {:<12} {:>12.4} {:>12.4} {:>7.2}% {:>5.0}% {:>8.2}% {:>7.2}%  {}",
                kind.name(),
                m.name,
                medians[0],
                medians.get(1).copied().unwrap_or(f64::NAN),
                worst_set * 100.0,
                m.bound * 100.0,
                far_run * 100.0,
                spread * 100.0,
                if pass { "ok" } else { "FAIL" }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "lower") + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
    }
}
