//! Times attaching every `.wps` file in a directory, best of `REPS`
//! (default 30): a full attach, and a trusted re-attach on the record
//! of a full one. Each time covers open, `fstat`, map, validation and
//! the unmap when the snapshot drops.
//!
//! ```text
//! cargo run --release -p whirlpool-store --example attach_probe -- DIR [REPS]
//! ```
//!
//! A record vouches for a file only once the file is older than
//! `TRUST_MARGIN`; the probe reports "untrusted" for a younger one.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use whirlpool_store::{Snapshot, SnapshotFile};

fn best(reps: usize, mut attach: impl FnMut()) -> Duration {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            attach();
            start.elapsed()
        })
        .min()
        .unwrap_or_default()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = args.next().expect("usage: attach_probe DIR [REPS]");
    let reps = args
        .next()
        .map_or(30, |r| r.parse().expect("REPS: a number"));
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("DIR: a readable directory")
        .map(|e| e.expect("a directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "wps"))
        .collect();
    paths.sort();
    println!(
        "{:>10} {:>9} {:>11}  file",
        "bytes", "full_us", "trusted_us"
    );
    for path in &paths {
        let snap = Snapshot::attach(path).expect("a valid snapshot");
        let (bytes, record) = (snap.file_len(), snap.verification());
        drop(snap);
        let open = || SnapshotFile::open(path).expect("the file opened a moment ago");
        let full = best(reps, || {
            drop(open().attach(None).expect("a valid snapshot"))
        });
        let trusted = match record.filter(|r| r.vouches_for(&open())) {
            Some(r) => {
                let t = best(reps, || {
                    drop(open().attach(Some(&r)).expect("a valid snapshot"))
                });
                format!("{:.1}", t.as_secs_f64() * 1e6)
            }
            None => "untrusted".into(),
        };
        let full = full.as_secs_f64() * 1e6;
        println!("{bytes:>10} {full:>9.1} {trusted:>11}  {}", path.display());
    }
}
