//! `whirlpool snapshot` — build, verify, and inspect index snapshots
//! (the zero-copy mmap format that lets `query` and `serve` attach to
//! a prebuilt corpus in milliseconds, with a stored path synopsis for
//! attach-free shard pruning).

use crate::args::Parsed;
use crate::commands::load_document;
use crate::CliError;
use std::io::Write;
use std::time::Instant;
use whirlpool_index::TagIndex;
use whirlpool_store::{Snapshot, SNAPSHOT_VERSION};

pub fn run(argv: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let action = argv.first().copied().unwrap_or("");
    let rest = &argv[1.min(argv.len())..];
    match action {
        "build" => build(rest, out),
        "verify" => verify(rest, out),
        "info" => info(rest, out),
        other => Err(CliError::Usage(format!(
            "snapshot: unknown action {other:?}; expected build, verify, or info"
        ))),
    }
}

/// `snapshot build <in.xml> <out.wps>` — parse + index once, write the
/// flat-array snapshot that later runs attach without rebuilding. Its
/// stored path synopsis is what lets lazy collections prune the shard
/// without attaching it.
fn build(argv: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = Parsed::parse(argv, &[], &[])?;
    let input = parsed.positional(0, "in.xml")?.to_string();
    let output = parsed.positional(1, "out.wps")?.to_string();
    parsed.expect_positionals(2)?;

    let start = Instant::now();
    let doc = load_document(&input)?;
    let index = TagIndex::build(&doc);
    let build_time = start.elapsed();

    let start = Instant::now();
    whirlpool_store::save_snapshot(&doc, &index, &output)
        .map_err(|e| CliError::Usage(format!("cannot write {output}: {e}")))?;
    let write_time = start.elapsed();

    let size = std::fs::metadata(&output).map(|m| m.len()).unwrap_or(0);
    writeln!(
        out,
        "snapshot {input} -> {output}: {} elements, {size} bytes \
         (parse+index {build_time:?}, write {write_time:?})",
        doc.len() - 1,
    )?;
    Ok(())
}

/// `snapshot verify <file.wps>` — full attach (checksum + structural
/// validation); exits non-zero on any corruption.
fn verify(argv: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = Parsed::parse(argv, &[], &[])?;
    let path = parsed.positional(0, "file.wps")?.to_string();
    parsed.expect_positionals(1)?;

    let start = Instant::now();
    let snapshot = Snapshot::attach(&path).map_err(|e| CliError::Parse(format!("{path}: {e}")))?;
    writeln!(
        out,
        "ok: {path} ({} elements, {} tags, {} bytes, verified in {:?})",
        snapshot.node_count() - 1,
        snapshot.tag_count(),
        snapshot.file_len(),
        start.elapsed(),
    )?;
    Ok(())
}

/// `snapshot info <file.wps>` — attach and report what the file holds
/// and how it was mapped.
fn info(argv: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = Parsed::parse(argv, &[], &[])?;
    let path = parsed.positional(0, "file.wps")?.to_string();
    parsed.expect_positionals(1)?;

    let start = Instant::now();
    let snapshot = Snapshot::attach(&path).map_err(|e| CliError::Parse(format!("{path}: {e}")))?;
    let attach = start.elapsed();
    let synopsis = snapshot
        .synopsis()
        .map_err(|e| CliError::Parse(format!("{path}: {e}")))?;
    writeln!(out, "snapshot:  {path}")?;
    writeln!(out, "version:   {SNAPSHOT_VERSION}")?;
    writeln!(out, "elements:  {}", snapshot.node_count() - 1)?;
    writeln!(out, "tags:      {}", snapshot.tag_count())?;
    writeln!(out, "bytes:     {}", snapshot.file_len())?;
    writeln!(
        out,
        "backing:   {}",
        if snapshot.is_mapped() {
            "mmap (zero-copy)"
        } else {
            "read (owned buffer)"
        }
    )?;
    writeln!(out, "attach:    {attach:?}")?;
    let mut tags: Vec<(&str, u64)> = synopsis.tags().collect();
    tags.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    writeln!(out, "top tags:")?;
    for (tag, count) in tags.into_iter().take(10) {
        writeln!(out, "  {count:>8}  {tag}")?;
    }
    Ok(())
}
