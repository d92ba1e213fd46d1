//! `whirlpool serve` — the long-lived query daemon.

use crate::args::Parsed;
use crate::commands::{is_snapshot, load_document};
use crate::CliError;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;
use whirlpool_serve::{DocState, Prepare, Registry, ServeConfig};

const VALUE_FLAGS: &[&str] = &[
    "addr",
    "workers",
    "max-inflight",
    "queue-depth",
    "deadline-ms",
    "capacity-ops",
    "retries",
    "snapshot-dir",
    "max-resident",
];

/// Clients address documents by file stem: `corpus/a.xml` → "a".
fn stem(path: &str) -> String {
    Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path)
        .to_string()
}

/// Loads one positional into a `DocState`, warmest path first:
///
/// 1. the file *is* a snapshot → attach it zero-copy;
/// 2. `--snapshot-dir` holds a fresh `<stem>.wps` → *peek* it: only
///    the header and synopsis load at boot, the arrays attach on the
///    first query that needs them (stale ones — older than the source
///    — fall through to a parse, and the daemon's background
///    snapshotter rewrites them);
/// 3. otherwise parse + index (the cold path).
fn load_state(path: &str, snapshot_dir: Option<&Path>) -> Result<DocState, CliError> {
    if is_snapshot(path) {
        return DocState::attach(stem(path), path)
            .map_err(|e| CliError::Parse(format!("{path}: {e}")));
    }
    if let Some(dir) = snapshot_dir {
        let candidate = dir.join(format!("{}.wps", stem(path)));
        let fresh = match (
            std::fs::metadata(&candidate).and_then(|m| m.modified()),
            std::fs::metadata(path).and_then(|m| m.modified()),
        ) {
            (Ok(snap), Ok(src)) => snap >= src,
            _ => false,
        };
        if fresh {
            if let Ok(state) = DocState::peek(stem(path), &candidate) {
                return Ok(state);
            }
            // A corrupt or incompatible cached snapshot is not fatal —
            // fall through to the parse; the rewrite will replace it.
        }
    }
    Ok(DocState::new(stem(path), load_document(path)?))
}

/// Parses flags and documents; pulled out of `run` so the daemonless
/// half is unit-testable.
fn configure(argv: &[&str]) -> Result<(ServeConfig, Registry), CliError> {
    let parsed = Parsed::parse(argv, VALUE_FLAGS, &[])?;
    if parsed.positional_len() == 0 {
        return Err(CliError::Usage(
            "serve needs at least one <file.xml> to load".into(),
        ));
    }
    let snapshot_dir: Option<PathBuf> = parsed.value("snapshot-dir").map(PathBuf::from);

    let mut registry = Registry::new();
    for i in 0..parsed.positional_len() {
        let path = parsed.positional(i, "file.xml")?;
        registry.insert(load_state(path, snapshot_dir.as_deref())?);
    }

    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: parsed.value("addr").unwrap_or("127.0.0.1:7878").to_string(),
        workers: parsed.number("workers", defaults.workers)?,
        queue_depth: parsed.number("queue-depth", defaults.queue_depth)?,
        max_inflight: parsed.number("max-inflight", defaults.max_inflight)?,
        capacity_ops: parsed.number("capacity-ops", defaults.capacity_ops)?,
        base_deadline: Duration::from_millis(
            parsed.number("deadline-ms", defaults.base_deadline.as_millis() as u64)?,
        ),
        retries: parsed.number("retries", defaults.retries)?,
        snapshot_dir,
        max_resident: parsed.number("max-resident", defaults.max_resident)?,
        ..defaults
    };
    Ok((config, registry))
}

pub fn run(argv: &[&str], out: &mut dyn Write) -> Result<(), CliError> {
    let (config, registry) = configure(argv)?;
    let warm = registry
        .docs()
        .filter(|d| !matches!(d.prepare, Prepare::Indexed { .. }))
        .count();
    writeln!(
        out,
        "loaded {} document(s) ({warm} warm-attached); listening on {} \
         ({} workers, {} inflight, {}ms deadline)",
        registry.len(),
        config.addr,
        config.workers,
        config.max_inflight,
        config.base_deadline.as_millis(),
    )?;
    out.flush()?;
    whirlpool_serve::serve_blocking(config, registry)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_doc(dir: &std::path::Path, name: &str, xml: &str) -> String {
        let path = dir.join(name);
        std::fs::write(&path, xml).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn configure_loads_documents_and_flags() {
        let dir = std::env::temp_dir().join(format!("wp-serve-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = write_doc(&dir, "alpha.xml", "<r><a/></r>");
        let b = write_doc(&dir, "beta.xml", "<r><b/></r>");

        let (config, registry) = configure(&[
            &a,
            &b,
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--deadline-ms",
            "500",
        ])
        .unwrap();
        assert_eq!(registry.len(), 2);
        assert!(registry.get("alpha").is_some(), "named by file stem");
        assert!(registry.get("beta").is_some());
        assert_eq!(config.workers, 2);
        assert_eq!(config.base_deadline, Duration::from_millis(500));
        assert_eq!(config.addr, "127.0.0.1:0");
        assert!(config.snapshot_dir.is_none());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_without_documents_is_a_usage_error() {
        match configure(&[]) {
            Err(CliError::Usage(m)) => assert!(m.contains("file.xml"), "{m}"),
            Err(other) => panic!("wrong error class: {other:?}"),
            Ok(_) => panic!("no documents must not configure a daemon"),
        }
    }

    #[test]
    fn snapshot_positionals_and_snapshot_dir_warm_start() {
        let dir = std::env::temp_dir().join(format!("wp-serve-warm-{}", std::process::id()));
        let cache = dir.join("snaps");
        std::fs::create_dir_all(&cache).unwrap();
        let xml = write_doc(
            &dir,
            "books.xml",
            "<shelf><book><title>dune</title></book></shelf>",
        );

        // A .wps positional attaches directly.
        let doc = crate::commands::load_document(&xml).unwrap();
        let index = whirlpool_index::TagIndex::build(&doc);
        let wps = dir.join("direct.wps");
        whirlpool_store::save_snapshot(&doc, &index, &wps).unwrap();
        let (_, registry) = configure(&[&wps.to_string_lossy()]).unwrap();
        let state = registry.get("direct").unwrap();
        assert_eq!(
            state.prepare.stat_name(),
            "snapshot_attach_ms",
            "positional .wps must warm-attach"
        );

        // Cold boot with --snapshot-dir: parsed (cache empty).
        let dir_flag = cache.to_string_lossy().into_owned();
        let (config, registry) = configure(&[&xml, "--snapshot-dir", &dir_flag]).unwrap();
        assert_eq!(config.snapshot_dir.as_deref(), Some(cache.as_path()));
        assert_eq!(
            registry.get("books").unwrap().prepare.stat_name(),
            "index_build_ms"
        );

        // Once the cache holds a fresh books.wps, the same boot warms —
        // lazily: only the synopsis loads until a query needs more.
        whirlpool_store::save_snapshot(&doc, &index, cache.join("books.wps")).unwrap();
        let (config, registry) =
            configure(&[&xml, "--snapshot-dir", &dir_flag, "--max-resident", "2"]).unwrap();
        assert_eq!(config.max_resident, 2);
        let state = registry.get("books").unwrap();
        assert_eq!(
            state.prepare.stat_name(),
            "snapshot_peek_ms",
            "fresh cached snapshots load lazily"
        );
        assert!(
            !state.shard().is_resident(),
            "nothing attached before a query"
        );

        // A fresh cached snapshot of a retired version boots cold.
        let mut bytes = std::fs::read(cache.join("books.wps")).unwrap();
        bytes[4] = 2;
        std::fs::write(cache.join("books.wps"), bytes).unwrap();
        let (_, registry) = configure(&[&xml, "--snapshot-dir", &dir_flag]).unwrap();
        assert_eq!(
            registry.get("books").unwrap().prepare.stat_name(),
            "index_build_ms",
            "a version-2 snapshot must fall back to a parse"
        );

        // A stale snapshot (source rewritten after it) is ignored.
        whirlpool_store::save_snapshot(&doc, &index, cache.join("books.wps")).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let xml = write_doc(
            &dir,
            "books.xml",
            "<shelf><book><title>emma</title></book></shelf>",
        );
        let (_, registry) = configure(&[&xml, "--snapshot-dir", &dir_flag]).unwrap();
        assert_eq!(
            registry.get("books").unwrap().prepare.stat_name(),
            "index_build_ms",
            "stale snapshot must fall back to a parse"
        );

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
