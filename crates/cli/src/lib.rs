#![forbid(unsafe_code)]

//! The `whirlpool` command-line tool.
//!
//! ```text
//! whirlpool query <file.xml>... <query> [--k N] [--algorithm NAME] [--exact]
//!                 [--routing NAME] [--queue NAME] [--norm NAME] [--xml]
//!                 [--collection DIR] [--split N]
//! whirlpool generate <out.xml> [--mb N | --items N] [--seed S]
//! whirlpool stats <file.xml>
//! whirlpool relax <query> [--limit N]
//! whirlpool explain <file.xml> <query>
//! whirlpool serve <file.xml>... [--addr HOST:PORT] [--workers N]
//! whirlpool help
//! ```
//!
//! The library surface exists so the whole tool is unit-testable: every
//! command takes a writer and returns `Result`, and `main` is a thin
//! shim.

mod args;
mod commands;

pub use args::{ArgError, Parsed};

use std::io::Write;

/// Entry point shared by `main` and the tests.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut it = argv.iter().map(String::as_str);
    let command = it.next().unwrap_or("help");
    let rest: Vec<&str> = it.collect();
    match command {
        "query" => commands::query::run(&rest, out),
        "generate" => commands::generate::run(&rest, out),
        "snapshot" => commands::snapshot::run(&rest, out),
        "stats" => commands::stats::run(&rest, out),
        "relax" => commands::relax::run(&rest, out),
        "explain" => commands::explain::run(&rest, out),
        "serve" => commands::serve::run(&rest, out),
        "help" | "--help" | "-h" => write!(out, "{}", HELP).map_err(CliError::from),
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}; run `whirlpool help`"
        ))),
    }
}

pub const HELP: &str = "\
whirlpool — adaptive top-k XML query processor (ICDE 2005 reproduction)

USAGE:
  whirlpool query <file.xml>... <query> [options]  run a top-k query
                     (several files, or --collection DIR, query a
                     sharded corpus under one corpus-level idf model)
  whirlpool generate <out.xml> [options]         emit an XMark-like document
  whirlpool snapshot build <in.xml> <out.wps>    build a zero-copy index snapshot
  whirlpool snapshot verify <file.wps>           checksum + structural validation
  whirlpool snapshot info <file.wps>             what a snapshot holds
  whirlpool stats <file.xml>                     document statistics
  whirlpool relax <query> [--limit N]            show the relaxation space
  whirlpool explain <file.xml> <query>           compiled servers & weights
  whirlpool serve <file.xml>...                  run the HTTP query daemon
  whirlpool help                                 this text

QUERY OPTIONS:
  --k N              answers to return, at least 1 (default 10)
  --algorithm NAME   whirlpool-s | whirlpool-m | lockstep | noprune
                     (default whirlpool-s)
  --exact            exact matches only (no relaxation)
  --routing NAME     min-alive | max-score | min-score | static
                     (default min-alive)
  --queue NAME       max-final | max-next | current | fifo
                     (default max-final)
  --norm NAME        sparse | dense | none   (default sparse)
  --xml              print each answer's XML fragment
  --json             machine-readable output
  --stats            print work and robustness counters
  --deadline-ms N    anytime budget: stop after N ms and return the
                     current top-k (tagged truncated, with a bound on
                     what any missing answer could score)
  --max-ops N        anytime budget: stop after N server operations
                     (deterministic, unlike --deadline-ms)
  --fault SPEC       inject server faults, e.g. server=2:panic@100
                     (kinds: panic@OPS | fail@OPS | delay@MICROS
                     up to 1000000;
                     comma-separate to fault several servers, each
                     one of the query's); a failed or panicking
                     operation stops the run: result truncated
  --fault-seed S     RNG seed for injected delays (default 0)
  --trace-out FILE   record a structured event trace and write it as
                     Chrome trace-event JSON (open in Perfetto or
                     chrome://tracing)
  --explain          print a routing/pruning summary: where matches
                     went, what the alternatives scored, how the
                     threshold grew
  --collection DIR   query every .xml/.wps file in DIR as one corpus
                     (.wps snapshots attach zero-copy)
  --snapshot FILE    run against a prebuilt .wps snapshot: attach via
                     mmap instead of parsing + indexing (snapshot files
                     given as plain positionals attach automatically;
                     this flag also *requires* the file to be one)
  --split N          split a single document into N subtree shards and
                     query them as a collection
  --threads N        Whirlpool-M worker threads (default 1); in
                     collection mode each shard's run gets N
  --no-shard-pruning collection mode: visit every shard, even ones whose
                     score ceiling cannot beat the global threshold
  --no-share-threshold
                     collection mode: do not seed shard runs with the
                     global k-th score
  (--trace-out/--explain are per-document and are rejected in
  collection mode)

GENERATE OPTIONS:
  --mb N             approximate serialized megabytes (default 1)
  --items N          exact item count (overrides --mb)
  --seed S           RNG seed (default 42)

SERVE OPTIONS:
  --addr HOST:PORT   bind address (default 127.0.0.1:7878)
  --workers N        query worker threads (default 4)
  --max-inflight N   admission token bucket (default 4)
  --queue-depth N    accepted connections awaiting a worker (default 8)
  --deadline-ms N    full-service deadline; the overload ladder shrinks
                     it under pressure (default 2000)
  --capacity-ops N   server-op spend considered affordable at zero load
                     (default 5000000)
  --snapshot-dir DIR warm-start cache: boots attach fresh <stem>.wps
                     snapshots from DIR instead of parsing, and a
                     background thread writes snapshots for documents
                     that had to be parsed (plain .wps positionals
                     always attach zero-copy)
  Endpoints: GET /healthz, GET /metrics, POST /query with a JSON body
  {\"doc\": \"name\", \"query\": \"//a[./b]\", \"k\": 5, \"fault\": \"server=1:fail@10\"}
  (doc defaults to the only loaded document; documents are named by
  file stem). {\"collection\": true} queries every loaded document as
  one corpus (corpus-level idf, shard pruning; excludes \"doc\").
  Overloaded requests get 429 + Retry-After; degraded answers carry
  the anytime certificate.

`query` and `serve` accept XML files and `.wps` snapshots produced by
`whirlpool snapshot build` (detected by content, not name); the other
commands read XML.

QUERY SYNTAX (XPath subset):
  //item[./description/parlist and ./mailbox/mail/text]
  /book[.//title = 'wodehouse' and ./info/publisher/name = 'psmith']
  //item[@id = 'item3' and ./incategory[@category]]     (attributes)
  //item[./*/parlist]                                   (wildcards)
";

/// Errors surfaced to the user.
#[derive(Debug)]
pub enum CliError {
    Usage(String),
    Io(std::io::Error),
    Parse(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Parse(m) => write!(f, "{m}"),
            CliError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Usage(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(argv: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&argv, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn help_prints_usage() {
        let text = run_str(&["help"]).unwrap();
        assert!(text.contains("whirlpool query"));
        let default = run_str(&[]).unwrap();
        assert_eq!(text, default);
    }

    #[test]
    fn unknown_command_errors() {
        let err = run_str(&["frobnicate"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }
}
