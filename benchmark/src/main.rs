//! `whirlpool-benchmark run | aa | spec` (and `measure`, the child
//! process `run` starts). `benchmark/run.sh` builds and calls this.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use whirlpool_benchmark::fixtures::{self, Kind, Scale};
use whirlpool_benchmark::host::Host;
use whirlpool_benchmark::protocol::{self, Config};
use whirlpool_benchmark::{aa, report, spec, workloads};

const USAGE: &str = "usage:
  whirlpool-benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  whirlpool-benchmark aa [--seed N] [--sets 2] [--runs 5] [--seconds S] [--smoke] [--out DIR]
  whirlpool-benchmark spec";

/// `--flag value` pairs and bare `--flag`s after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag} {v}: not a number")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let command = argv.remove(0);
    let args = Args(argv);
    let outcome = match command.as_str() {
        "run" => run(&args),
        "measure" => measure(&args),
        "aa" => aa_options(&args).and_then(|options| aa::run(&options)),
        "spec" => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("whirlpool-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn aa_options(args: &Args) -> Result<aa::Options, String> {
    // Handed on to every `run` that `aa` starts.
    let mut passthrough = Vec::new();
    for flag in ["--seconds", "--out"] {
        if let Some(value) = args.value(flag) {
            passthrough.extend([flag.to_string(), value.to_string()]);
        }
    }
    if args.has("--smoke") {
        passthrough.push("--smoke".to_string());
    }
    Ok(aa::Options {
        seed: args.number("--seed", 1)?,
        sets: args.number("--sets", 2)?,
        runs: args.number("--runs", 5)?,
        passthrough,
    })
}

fn kind_of(args: &Args) -> Result<Kind, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    Kind::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown workload {name}; one of {}", known.join(", "))
    })
}

fn seconds_of(args: &Args) -> Result<f64, String> {
    let default = if args.has("--smoke") {
        1.0
    } else {
        f64::from(spec::RUN_SECONDS)
    };
    let seconds: f64 = args.number("--seconds", default)?;
    if seconds > 0.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds {seconds}: must be positive"))
    }
}

fn config(args: &Args, kind: Kind, dir: PathBuf) -> Result<Config, String> {
    let smoke = args.has("--smoke");
    let traced = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: 0 or 1")),
    };
    Ok(Config {
        kind,
        scale: if smoke { Scale::smoke() } else { Scale::full() },
        dir,
        seconds: seconds_of(args)?,
        segments: match (smoke, traced) {
            (true, _) => 2,
            (false, false) => spec::SEGMENTS,
            (false, true) => spec::TRACED_SEGMENTS,
        },
        traced,
    })
}

/// Writes the fixtures and reference answers, runs the measuring
/// child, cleans up.
fn run(args: &Args) -> Result<bool, String> {
    let kind = kind_of(args)?;
    let seed: u64 = args.number("--seed", 1)?;
    let out = PathBuf::from(args.value("--out").unwrap_or("benchmark/out"));
    let dir = out.join(format!("{}-{}", kind.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;

    let cfg = config(args, kind, dir.clone())?;
    let started = Instant::now();
    let written = fixtures::write(kind, seed, &cfg.scale, &dir)
        .map_err(|e| format!("fixtures: {e}"))
        .and_then(|()| workloads::write_references(&cfg));
    let fixture_s = started.elapsed().as_secs_f64();

    let status = written.and_then(|()| {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe);
        child
            .arg("measure")
            .args(["--workload", kind.name()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", args.value("--trace").unwrap_or("0")])
            .args(["--fixture-s", &fixture_s.to_string()])
            .arg("--dir")
            .arg(&dir)
            .arg("--out")
            .arg(&out);
        if args.has("--smoke") {
            child.arg("--smoke");
        }
        // `status` waits for the child to end.
        child.status().map_err(|e| format!("start child: {e}"))
    });
    let _ = std::fs::remove_dir_all(&dir);
    Ok(status?.success())
}

/// The measuring process: everything it allocates counts toward
/// `peak_rss_mb`, which is why the fixtures were made by the parent.
fn measure(args: &Args) -> Result<bool, String> {
    let kind = kind_of(args)?;
    let dir = PathBuf::from(args.value("--dir").ok_or("--dir is required")?);
    let cfg = config(args, kind, dir)?;
    let host = Host::new();
    let mut workload = workloads::build(&cfg)?;
    let run = protocol::run(workload.as_mut(), &cfg, &host)?;

    let metrics = if cfg.traced {
        let out = Path::new(args.value("--out").unwrap_or("benchmark/out"));
        let path = out.join(format!("{}.trace.json", kind.name()));
        run.tracer
            .write_chrome(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let layers = workload.layer_metrics(&run);
        report::per_layer(&run, layers, args.number("--fixture-s", 0.0)?)
    } else {
        report::end_to_end(&run, &cfg)
    };
    warn_about_the_host(&run);
    if run.drift {
        eprintln!("warning: a work counter changed between rounds; the run is invalid");
    }
    report::print(kind.name(), &metrics, &run);
    Ok(run.failed == 0 && !run.drift)
}

/// A warning, never a failure: the factor is there to absorb exactly this.
fn warn_about_the_host(run: &protocol::Run) {
    let factor = run.host_factor();
    if !(0.7..=1.5).contains(&factor) {
        eprintln!("warning: host.factor {factor:.3} is outside [0.7, 1.5]; this host is far from the reference");
    }
    let noise = run.noise_p50_over_floor();
    if noise > 1.5 {
        eprintln!("warning: host.noise_p50_over_floor {noise:.3} exceeds 1.5; a neighbour was busy for most of the run");
    }
}
