//! The protocol every workload runs under: segments of set-up and
//! rounds, reference kernels between rounds, floors over everything.

use crate::fixtures::{Kind, Scale};
use crate::host::{Host, KernelSample};
use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// What one measuring process is asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub kind: Kind,
    /// Fixture sizes (the fixtures themselves are already in `dir`).
    pub scale: Scale,
    /// The workload's directory: fixtures in, snapshots out.
    pub dir: PathBuf,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Set-ups per run.
    pub segments: usize,
    /// Record spans and layer probes?
    pub traced: bool,
}

/// What an op reports back.
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    /// Wall time of the op, ms, timed by the workload around its calls.
    pub wall_ms: f64,
    /// Did the answers check out?
    pub ok: bool,
    /// Work counters that must not drift between rounds on the
    /// single-threaded workloads (meaning is per workload).
    pub counters: [u64; 4],
}

/// Per-layer metrics by name, unnormalised, as a workload reports them.
pub type Layers = BTreeMap<String, f64>;

/// A workload under the protocol.
pub trait Workload {
    /// One label per op class, in the order a round issues them.
    fn classes(&self) -> Vec<String>;
    /// Samples per class per round; the round value is their median.
    fn repeats(&self) -> usize;
    /// Do [`OpOutcome::counters`] repeat exactly from round to round?
    fn counters_repeat(&self) -> bool;
    /// Drops whatever the previous set-up built.
    fn teardown(&mut self) -> Result<(), String>;
    /// The timed set-up.
    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String>;
    /// Layer probes of a traced run, after each set-up, outside its
    /// timer: direct calls the ops only make through opaque drivers.
    fn probes(&mut self, tr: &mut Tracer) -> Result<(), String>;
    /// One op of `class`.
    fn op(&mut self, class: usize, tr: &mut Tracer) -> OpOutcome;
    /// The workload's per-layer metrics (unnormalised) from a traced run.
    fn layer_metrics(&self, run: &Run) -> Layers;
}

/// What an op id stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// The set-up of a segment.
    Setup,
    /// The probes of a segment.
    Probe,
    /// An op of a class, with spans on or off.
    Query {
        /// Class index.
        class: usize,
        /// Were spans recorded?
        traced: bool,
    },
}

/// Everything a run measured.
pub struct Run {
    /// Class labels.
    pub classes: Vec<String>,
    /// Set-up wall per segment, ms.
    pub setups: Vec<f64>,
    /// Round values per class (median of the round's untraced samples), ms.
    pub class_rounds: Vec<Vec<f64>>,
    /// Same for the span-recording ops of a traced run.
    pub traced_class_rounds: Vec<Vec<f64>>,
    /// Every untraced op sample, ms.
    pub samples: Vec<f64>,
    /// Kernel times per round.
    pub kernels: Vec<KernelSample>,
    /// Process CPU per op, per round, ms.
    pub cpu_ms_per_op: Vec<f64>,
    /// Process CPU over wall across a round's ops.
    pub cpu_over_wall: Vec<f64>,
    /// What each op id was.
    pub ops: Vec<OpKind>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed their check.
    pub failed: u64,
    /// A work counter changed between rounds where it must not.
    pub drift: bool,
    /// Rounds completed.
    pub rounds: usize,
    /// The recorded spans.
    pub tracer: Tracer,
}

impl Run {
    /// Floor of each class over rounds, ms.
    pub fn class_floors(&self) -> Vec<f64> {
        self.class_rounds.iter().map(|r| stats::floor(r)).collect()
    }

    /// Floors of the three kernels over rounds, ms.
    pub fn kernel_floors(&self) -> (f64, f64, f64) {
        let col = |f: fn(&KernelSample) -> f64| {
            stats::floor(&self.kernels.iter().map(f).collect::<Vec<_>>())
        };
        (col(|k| k.cpu), col(|k| k.chase), col(|k| k.stream))
    }

    /// The host factor of this run.
    pub fn host_factor(&self) -> f64 {
        let (cpu, chase, stream) = self.kernel_floors();
        crate::host::factor(cpu, chase, stream)
    }

    /// Median over rounds of the kernels' geomean, over the geomean of
    /// their floors: how far a typical round sat above the quiet host.
    pub fn noise_p50_over_floor(&self) -> f64 {
        let per_round: Vec<f64> = self
            .kernels
            .iter()
            .map(|k| stats::geomean(&[k.cpu, k.chase, k.stream]))
            .collect();
        let (cpu, chase, stream) = self.kernel_floors();
        stats::median(&per_round) / stats::geomean(&[cpu, chase, stream])
    }

    /// Per class, the floor over traced ops of Σ duration of the spans
    /// called `name` (classes that never recorded it are left out).
    pub fn class_span_floors(&self, name: &str) -> Vec<f64> {
        let mut per_class: Vec<Vec<f64>> = vec![Vec::new(); self.classes.len()];
        let mut per_op: BTreeMap<u32, f64> = BTreeMap::new();
        for s in self.tracer.spans().iter().filter(|s| s.name == name) {
            *per_op.entry(s.op).or_default() += s.ms();
        }
        for (op, ms) in per_op {
            if let OpKind::Query { class, .. } = self.ops[op as usize] {
                per_class[class].push(ms);
            }
        }
        per_class
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| stats::floor(v))
            .collect()
    }

    /// Mean over classes of [`Run::class_span_floors`]: ms per op spent
    /// in the spans called `name`.
    pub fn span_ms_per_op(&self, name: &str) -> f64 {
        stats::mean(&self.class_span_floors(name))
    }

    /// Floor over segments of Σ duration of the spans called `name`
    /// inside ops of `kind` (set-ups or probes); 0 if never recorded.
    pub fn segment_span_floor(&self, kind: OpKind, name: &str) -> f64 {
        let mut per_op: BTreeMap<u32, f64> = BTreeMap::new();
        for s in self.tracer.spans().iter().filter(|s| s.name == name) {
            if self.ops[s.op as usize] == kind {
                *per_op.entry(s.op).or_default() += s.ms();
            }
        }
        let v: Vec<f64> = per_op.into_values().collect();
        if v.is_empty() {
            0.0
        } else {
            stats::floor(&v)
        }
    }

    /// Σ self time of the layer spans inside traced ops over Σ wall of
    /// those ops (`bench.*` spans are the harness, not a layer).
    pub fn span_coverage(&self) -> f64 {
        let own = self.tracer.self_ms();
        let (mut covered, mut wall) = (0.0, 0.0);
        for (s, own) in self.tracer.spans().iter().zip(own) {
            if !matches!(self.ops[s.op as usize], OpKind::Query { .. }) {
                continue;
            }
            if s.name == "bench.op" {
                wall += s.ms();
            } else if !s.name.starts_with("bench.") {
                covered += own;
            }
        }
        if wall > 0.0 {
            covered / wall
        } else {
            0.0
        }
    }
}

/// Process CPU time (user + system) in ms, from `/proc/self/stat`.
/// The kernel reports clock ticks; Linux fixes `USER_HZ` at 100.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    // utime and stime are fields 14 and 15 of the line, 12 and 13 here.
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) * 10.0,
        _ => 0.0,
    }
}

/// Per class, the counters first seen for each op history. Counters
/// are compared among ops with the same history: same class, same
/// position in the round (a traced run issues every class twice), first
/// round after a set-up or not. The first round starts from empty
/// caches, later ones from what the previous op left resident.
type Expected = Vec<[Option<[u64; 4]>; 4]>;

/// Issues one op and books its outcome; returns its wall time, ms.
fn issue(
    workload: &mut dyn Workload,
    run: &mut Run,
    expected: &mut Expected,
    class: usize,
    traced: bool,
    first_round: bool,
) -> f64 {
    run.tracer.enabled = traced;
    run.tracer.set_op(run.ops.len() as u32);
    run.ops.push(OpKind::Query { class, traced });
    let out = workload.op(class, &mut run.tracer);
    run.attempted += 1;
    if !out.ok {
        run.failed += 1;
    }
    if workload.counters_repeat() {
        let history = 2 * usize::from(first_round) + usize::from(traced);
        match &mut expected[class][history] {
            Some(seen) => run.drift |= *seen != out.counters,
            slot => *slot = Some(out.counters),
        }
    }
    if !traced {
        run.samples.push(out.wall_ms);
    }
    out.wall_ms
}

/// One round: every class `m` times (twice that in a traced run, spans
/// off then on), then the reference kernels.
fn round(
    workload: &mut dyn Workload,
    run: &mut Run,
    expected: &mut Expected,
    cfg: &Config,
    host: &Host,
    first_round: bool,
) {
    let m = workload.repeats();
    let cpu_before = process_cpu_ms();
    let (mut ops, mut ops_wall) = (0, 0.0);
    for class in 0..run.classes.len() {
        let mut plain = Vec::with_capacity(m);
        let mut spanned = Vec::with_capacity(m);
        for _ in 0..m {
            plain.push(issue(workload, run, expected, class, false, first_round));
            if cfg.traced {
                spanned.push(issue(workload, run, expected, class, true, first_round));
            }
        }
        ops += plain.len() + spanned.len();
        ops_wall += plain.iter().chain(&spanned).sum::<f64>();
        run.class_rounds[class].push(stats::median(&plain));
        if cfg.traced {
            run.traced_class_rounds[class].push(stats::median(&spanned));
        }
    }
    let cpu = process_cpu_ms() - cpu_before;
    run.cpu_ms_per_op.push(cpu / ops as f64);
    run.cpu_over_wall.push(cpu / ops_wall);
    run.kernels.push(host.sample());
    run.rounds += 1;
}

/// Runs `workload` under the protocol.
pub fn run(workload: &mut dyn Workload, cfg: &Config, host: &Host) -> Result<Run, String> {
    let classes = workload.classes();
    let n = classes.len();
    let mut run = Run {
        classes,
        setups: Vec::new(),
        class_rounds: vec![Vec::new(); n],
        traced_class_rounds: vec![Vec::new(); n],
        samples: Vec::new(),
        kernels: Vec::new(),
        cpu_ms_per_op: Vec::new(),
        cpu_over_wall: Vec::new(),
        ops: Vec::new(),
        attempted: 0,
        failed: 0,
        drift: false,
        rounds: 0,
        tracer: Tracer::new(),
    };
    let mut expected: Expected = vec![[None; 4]; n];
    let begun = Instant::now();

    for segment in 0..cfg.segments {
        workload.teardown()?;
        run.tracer.enabled = cfg.traced;
        run.tracer.set_op(run.ops.len() as u32);
        run.ops.push(OpKind::Setup);
        let start = Instant::now();
        let id = run.tracer.begin("bench.setup");
        workload.setup(&mut run.tracer)?;
        run.tracer.end(id);
        run.setups.push(start.elapsed().as_secs_f64() * 1e3);

        if cfg.traced {
            run.tracer.set_op(run.ops.len() as u32);
            run.ops.push(OpKind::Probe);
            let id = run.tracer.begin("bench.probe");
            workload.probes(&mut run.tracer)?;
            run.tracer.end(id);
        }

        // The segment owns its share of the run's time; it always gets
        // one round, so a slow host stretches the run, never empties it.
        let slice_end = cfg.seconds * (segment + 1) as f64 / cfg.segments as f64;
        let mut first_round = true;
        loop {
            round(workload, &mut run, &mut expected, cfg, host, first_round);
            first_round = false;
            if begun.elapsed().as_secs_f64() >= slice_end {
                break;
            }
        }
    }
    workload.teardown()?;
    run.tracer.enabled = false;
    Ok(run)
}
