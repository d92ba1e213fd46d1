//! End-to-end tests of the `whirlpool` CLI (library entry point; no
//! subprocess spawning needed).

use std::path::PathBuf;
use std::sync::OnceLock;
use whirlpool_cli::{run, CliError};

fn run_ok(argv: &[&str]) -> String {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    run(&argv, &mut out).unwrap_or_else(|e| panic!("{argv:?} failed: {e}"));
    String::from_utf8(out).unwrap()
}

fn run_err(argv: &[&str]) -> String {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    run(&argv, &mut out)
        .expect_err("expected failure")
        .to_string()
}

/// A path in this test binary's scratch directory, under cargo's
/// per-package temporary directory (inside the target directory, not
/// the system's). The directory is emptied once per run.
fn scratch(name: &str) -> PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-tests");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    })
    .join(name)
}

/// Writes `contents` to the scratch file `name` and returns its path.
/// For fixtures several tests read, call through a `OnceLock`: tests run
/// on parallel threads, and a second write would truncate the file under
/// a test that is reading it.
fn write_fixture(name: &str, contents: &str) -> PathBuf {
    let path = scratch(name);
    std::fs::write(&path, contents).unwrap();
    path
}

fn sample_file() -> PathBuf {
    static SAMPLE: OnceLock<PathBuf> = OnceLock::new();
    SAMPLE
        .get_or_init(|| {
            write_fixture(
                "sample.xml",
                "<shelf>\
                 <book id=\"a\"><title>wodehouse</title><isbn>1</isbn></book>\
                 <book id=\"b\"><title>tolkien</title></book>\
                 <book id=\"c\"><deep><title>wodehouse</title></deep></book>\
                 </shelf>",
            )
        })
        .clone()
}

#[test]
fn query_returns_ranked_answers() {
    let file = sample_file();
    let out = run_ok(&[
        "query",
        file.to_str().unwrap(),
        "//book[./title and ./isbn]",
        "--k",
        "3",
    ]);
    assert!(out.contains("answers:   3"), "{out}");
    assert!(out.contains("#1"), "{out}");
    assert!(out.contains("id=a"), "{out}");
    assert!(out.contains("server ops"), "{out}");
}

#[test]
fn query_exact_mode_filters() {
    let file = sample_file();
    let out = run_ok(&[
        "query",
        file.to_str().unwrap(),
        "//book[./title = 'wodehouse']",
        "--exact",
    ]);
    assert!(out.contains("answers:   1"), "{out}");
}

#[test]
fn query_xml_flag_prints_fragments() {
    let file = sample_file();
    let out = run_ok(&[
        "query",
        file.to_str().unwrap(),
        "//book[./isbn]",
        "--k",
        "1",
        "--xml",
    ]);
    assert!(out.contains("<isbn>"), "{out}");
}

#[test]
fn query_all_algorithms_accepted() {
    let file = sample_file();
    for alg in ["whirlpool-s", "whirlpool-m", "lockstep", "noprune"] {
        let out = run_ok(&[
            "query",
            file.to_str().unwrap(),
            "//book[./title]",
            "--algorithm",
            alg,
        ]);
        assert!(out.contains("answers:"), "alg={alg}: {out}");
    }
}

#[test]
fn query_json_output_is_parseable_shape() {
    let file = sample_file();
    let out = run_ok(&[
        "query",
        file.to_str().unwrap(),
        "//book[./title and ./isbn]",
        "--k",
        "2",
        "--json",
    ]);
    assert!(out.trim_start().starts_with('{'), "{out}");
    assert!(out.trim_end().ends_with('}'), "{out}");
    assert!(out.contains("\"answers\": ["), "{out}");
    assert!(out.contains("\"rank\": 1"), "{out}");
    assert!(out.contains("\"id\": \"a\""), "{out}");
    assert!(out.contains("\"server_ops\""), "{out}");
    assert!(out.contains("\"roots_unseeded\""), "{out}");
    // Balanced braces/brackets (cheap well-formedness check).
    assert_eq!(out.matches('{').count(), out.matches('}').count());
    assert_eq!(out.matches('[').count(), out.matches(']').count());
}

/// The `--json` counters are one line of single-spaced fields.
#[test]
fn query_json_metrics_line_is_pinned() {
    let file = sample_file();
    let out = run_ok(&["query", file.to_str().unwrap(), "//book[./title]", "--json"]);
    let line = out
        .lines()
        .find(|l| l.starts_with("  \"metrics\": "))
        .unwrap_or_else(|| panic!("no metrics line: {out}"));
    let fields: Vec<&str> = line
        .trim_start_matches("  \"metrics\": {")
        .trim_end_matches("},")
        .split(", ")
        .map(|f| f.split(": ").next().unwrap())
        .collect();
    assert_eq!(
        fields,
        [
            "\"server_ops\"",
            "\"server_op_batches\"",
            "\"predicate_comparisons\"",
            "\"partials_created\"",
            "\"pruned\"",
            "\"roots_unseeded\"",
            "\"routing_decisions\"",
            "\"deadline_hits\"",
            "\"servers_failed\"",
        ],
        "{line}"
    );
    assert!(
        !line.trim_start().contains("  "),
        "a run of spaces inside the object: {line}"
    );
}

#[test]
fn query_rejects_bad_options() {
    let file = sample_file();
    let f = file.to_str().unwrap();
    assert!(run_err(&["query", f, "//b[./t]", "--algorithm", "nope"]).contains("unknown"));
    assert!(run_err(&["query", f, "//b[./t]", "--routing", "nope"]).contains("unknown"));
    assert!(run_err(&["query", f, "//b[./t]", "--norm", "nope"]).contains("unknown"));
    assert!(run_err(&["query", f, "not a query"]).contains("query"));
    // One node past the pattern cap is a parse error, not a panic.
    let too_big = format!("//a{}{}", "[./a".repeat(64), "]".repeat(64));
    assert!(run_err(&["query", f, &too_big]).contains("limited to 64 nodes"));
    assert!(run_err(&["query", "/nonexistent.xml", "//a"]).contains("cannot read"));
    assert!(run_err(&["query"]).contains("missing"));
    // A document nested past the parser's depth cap is the parse error
    // it is (uncapped, a 140 kB chain of 20 000 cost 773 MB). Not an
    // `.xml` name: other tests query the scratch directory as a
    // collection.
    let deep = write_fixture("deep.chain", &"<a>".repeat(4097));
    let err = run_err(&["query", deep.to_str().unwrap(), "//a[./a]", "--k", "1"]);
    assert!(err.contains("depth limit of 4096"), "{err}");
    // `--k 0` is a usage error naming the flag, not the top-k set's
    // assertion, in single-document and collection mode alike.
    assert!(run_err(&["query", f, "//b[./t]", "--k", "0"]).contains("--k must be at least 1"));
    let dir = file.parent().unwrap().to_str().unwrap();
    assert!(
        run_err(&["query", "--collection", dir, "//b[./t]", "--k", "0"])
            .contains("--k must be at least 1")
    );
}

#[test]
fn query_without_budget_reports_exact() {
    let file = sample_file();
    let out = run_ok(&["query", file.to_str().unwrap(), "//book[./title]"]);
    assert!(out.contains("result:    exact"), "{out}");
}

#[test]
fn query_with_zero_op_budget_reports_truncated() {
    let file = sample_file();
    let f = file.to_str().unwrap();
    let out = run_ok(&["query", f, "//book[./title and ./isbn]", "--max-ops", "0"]);
    assert!(out.contains("result:    truncated"), "{out}");
    assert!(out.contains("can score above"), "{out}");

    let json = run_ok(&[
        "query",
        f,
        "//book[./title and ./isbn]",
        "--max-ops",
        "0",
        "--json",
    ]);
    assert!(json.contains("\"result\": \"truncated\""), "{json}");
    assert!(json.contains("\"pending_matches\""), "{json}");
    assert!(json.contains("\"score_bound\""), "{json}");
}

#[test]
fn query_stats_flag_prints_robustness_counters() {
    let file = sample_file();
    let out = run_ok(&[
        "query",
        file.to_str().unwrap(),
        "//book[./title]",
        "--stats",
    ]);
    assert!(out.contains("deadline hits"), "{out}");
    assert!(out.contains("servers failed"), "{out}");
    assert!(out.contains("roots never seeded"), "{out}");
}

#[test]
fn query_fault_injection_survives_and_is_reported() {
    let file = sample_file();
    let f = file.to_str().unwrap();
    for alg in ["whirlpool-s", "whirlpool-m", "lockstep", "noprune"] {
        let out = run_ok(&[
            "query",
            f,
            "//book[./title and ./isbn]",
            "--algorithm",
            alg,
            "--fault",
            "server=1:fail@0",
            "--fault-seed",
            "3",
            "--stats",
            "--json",
        ]);
        assert!(
            out.contains("\"result\": \"truncated\""),
            "alg={alg}: {out}"
        );
        assert!(out.contains("\"servers_failed\": 1"), "alg={alg}: {out}");
    }
}

#[test]
fn query_rejects_bad_fault_specs() {
    let file = sample_file();
    let f = file.to_str().unwrap();
    for bad in ["nope", "server=0:panic@1", "server=1:explode@3"] {
        let err = run_err(&["query", f, "//book[./title]", "--fault", bad]);
        assert!(err.contains("fault"), "spec={bad}: {err}");
    }
}

/// A fault on a server the query does not have would never fire, and
/// the run would report an exact answer: the spec is refused instead.
#[test]
fn query_refuses_a_fault_on_a_server_the_query_lacks() {
    let file = sample_file();
    let f = file.to_str().unwrap();
    for (query, spec) in [
        ("//book[./title]", "server=9:panic@0"),
        ("//book[./title]", "server=1:fail@0,server=2:fail@0"),
        ("//book", "server=1:delay@5"),
    ] {
        let argv: Vec<String> = ["query", f, query, "--fault", spec, "--stats"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match run(&argv, &mut Vec::new()) {
            Err(CliError::Usage(err)) => {
                assert!(err.contains("--fault: fault names server"), "{spec}: {err}")
            }
            other => panic!("{spec}: expected a usage error, got {other:?}"),
        }
    }
    let out = run_ok(&["query", f, "//book[./title]", "--fault", "server=1:delay@0"]);
    assert!(out.contains("result:    exact"), "{out}");
}

#[test]
fn generate_then_stats_then_query_pipeline() {
    let out_path = scratch("generated.xml");
    let generated = run_ok(&[
        "generate",
        out_path.to_str().unwrap(),
        "--items",
        "40",
        "--seed",
        "7",
    ]);
    assert!(generated.contains("40 items"), "{generated}");

    let stats = run_ok(&["stats", out_path.to_str().unwrap()]);
    assert!(stats.contains("elements:"), "{stats}");
    assert!(stats.contains("item"), "{stats}");

    let result = run_ok(&[
        "query",
        out_path.to_str().unwrap(),
        "//item[./description/parlist]",
        "--k",
        "5",
    ]);
    assert!(result.contains("answers:   5"), "{result}");
}

#[test]
fn generate_is_seed_deterministic() {
    let p1 = scratch("gen1.xml");
    let p2 = scratch("gen2.xml");
    run_ok(&[
        "generate",
        p1.to_str().unwrap(),
        "--items",
        "20",
        "--seed",
        "9",
    ]);
    run_ok(&[
        "generate",
        p2.to_str().unwrap(),
        "--items",
        "20",
        "--seed",
        "9",
    ]);
    assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
}

/// Binary store files reach the XML-reading commands only by mistake:
/// they are refused by magic with an error that names the way forward,
/// never handed to the XML parser.
#[test]
fn binary_stores_get_a_typed_error_from_xml_commands() {
    // A file of the retired v1 store format: magic, version 1, a body.
    let v1 = scratch("legacy.wpx");
    std::fs::write(&v1, b"WPLX\x01\x00\x00\x00\x06\x00\x00\x00legacy").unwrap();
    let xml = sample_file();
    let snap = scratch("typed-error.wps");
    let (v1, xml, snap) = (
        v1.to_str().unwrap(),
        xml.to_str().unwrap(),
        snap.to_str().unwrap(),
    );
    run_ok(&["snapshot", "build", xml, snap]);

    // Version-2, version-3 and version-4 snapshots (the layout before
    // stored synopses, the one under a serial FNV checksum, and the one
    // with value postings) are retired stores too, given directly or
    // inside a collection.
    let retired = [2u8, 3, 4].map(|version| {
        let dir = scratch(&format!("v{version}-store"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = std::fs::read(snap).unwrap();
        bytes[4] = version;
        let file = dir.join("old.wps");
        std::fs::write(&file, bytes).unwrap();
        (
            file.to_str().unwrap().to_owned(),
            dir.to_str().unwrap().to_owned(),
        )
    });
    let [(v2, v2_dir), (v3, v3_dir), (v4, v4_dir)] = &retired;

    let argvs: [&[&str]; 12] = [
        &["query", v1, "//book[./title]"],
        &["query", v1, xml, "//book[./title]"],
        &["stats", v1],
        &["explain", v1, "//book[./title]"],
        &["stats", snap],
        &["explain", snap, "//book[./title]"],
        &["query", v2, "//book[./title]"],
        &["query", "--collection", v2_dir, "//book[./title]"],
        &["query", v3, "//book[./title]"],
        &["query", "--collection", v3_dir, "//book[./title]"],
        &["query", v4, "//book[./title]"],
        &["query", "--collection", v4_dir, "//book[./title]"],
    ];
    for argv in argvs {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let err = run(&argv, &mut Vec::new()).expect_err("binary input must be refused");
        assert!(
            matches!(err, whirlpool_cli::CliError::Usage(_)),
            "{argv:?}: {err:?}"
        );
        let text = err.to_string();
        assert!(text.contains("binary store"), "{argv:?}: {text}");
        for v in ["v3", "v4"] {
            if argv.iter().any(|a| a.contains(&format!("{v}-store"))) {
                assert!(
                    text.contains(&format!("binary store (format {v})")),
                    "{text}"
                );
            }
        }
        assert!(
            text.contains("whirlpool snapshot build"),
            "{argv:?}: {text}"
        );
    }
    // The snapshot itself still answers queries.
    let out = run_ok(&["query", snap, "//book[./title]"]);
    assert!(out.contains("answers:   3"), "{out}");

    assert!(run_err(&["index", "in.xml", "out.wpx"]).contains("unknown command"));
}

/// A flag a command does not declare is a usage error naming it, never
/// silently ignored.
#[test]
fn unknown_flags_are_usage_errors_naming_the_flag() {
    let xml = sample_file();
    let xml = xml.to_str().unwrap();
    let out = scratch("never-written.wps");
    let argvs: [&[&str]; 2] = [
        &["query", xml, "//book[./title]", "--stat"],
        &[
            "snapshot",
            "build",
            xml,
            out.to_str().unwrap(),
            "--no-path-synopsis",
        ],
    ];
    for argv in argvs {
        let flag = argv.last().unwrap();
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let err = run(&argv, &mut Vec::new()).expect_err("an unknown flag must be refused");
        assert!(
            matches!(&err, whirlpool_cli::CliError::Usage(m) if m.contains(flag)),
            "{argv:?}: {err:?}"
        );
    }
    assert!(!out.exists(), "a refused build writes nothing");
}

#[test]
fn relax_lists_relaxations() {
    let out = run_ok(&["relax", "//item[./description/parlist]"]);
    assert!(out.contains("edge-generalization(description)"), "{out}");
    assert!(out.contains("leaf-deletion(parlist)"), "{out}");
    assert!(out.contains("closure size:"), "{out}");
}

#[test]
fn explain_shows_weights_and_selectivity() {
    let file = sample_file();
    let out = run_ok(&[
        "explain",
        file.to_str().unwrap(),
        "//book[./title and ./isbn]",
    ]);
    assert!(out.contains("root candidates: 3 ("), "{out}");
    assert!(out.contains("never seeded by Whirlpool-S"), "{out}");
    assert!(out.contains("title"), "{out}");
    assert!(out.contains("w-exact"), "{out}");
    // The router's fractions are the idf counts: 2 of the 3 books have
    // a child title, all 3 a descendant one, and 1 has an isbn.
    assert!(out.contains("exact%  relaxed%  empty%"), "{out}");
    let row = |tag: &str| out.lines().find(|l| l.starts_with(tag)).unwrap_or("");
    assert!(row("title").ends_with("66.7%    100.0%    0.0%"), "{out}");
    assert!(row("isbn").ends_with("33.3%     33.3%   66.7%"), "{out}");
}

#[test]
fn help_and_unknown_command() {
    let out = run_ok(&["help"]);
    assert!(out.contains("USAGE"), "{out}");
    assert!(run_err(&["bogus"]).contains("unknown command"));
}

/// Two shard files for collection-mode tests: one rich (full matches),
/// one poor (title-only books).
fn collection_files() -> (PathBuf, PathBuf) {
    static FILES: OnceLock<(PathBuf, PathBuf)> = OnceLock::new();
    FILES
        .get_or_init(|| {
            let rich = write_fixture(
                "coll-rich.xml",
                "<shelf>\
                 <book id=\"r1\"><title>dune</title><isbn>1</isbn></book>\
                 <book id=\"r2\"><title>atlas</title><isbn>2</isbn></book>\
                 </shelf>",
            );
            let poor = write_fixture(
                "coll-poor.xml",
                "<shelf>\
                 <book id=\"p1\"><title>void</title></book>\
                 <book id=\"p2\"><title>blank</title></book>\
                 </shelf>",
            );
            (rich, poor)
        })
        .clone()
}

#[test]
fn query_multiple_files_runs_a_collection() {
    let (rich, poor) = collection_files();
    let out = run_ok(&[
        "query",
        rich.to_str().unwrap(),
        poor.to_str().unwrap(),
        "//book[./title and ./isbn]",
        "--k",
        "2",
    ]);
    assert!(out.contains("collection: 2 shards"), "{out}");
    assert!(out.contains("shard coll-rich"), "{out}");
    assert!(out.contains("id=r1"), "{out}");
    // k=2 filled by the rich shard's full matches: the poor shard's
    // ceiling (title-only) cannot beat the threshold and is pruned.
    assert!(out.contains("1 pruned"), "{out}");
}

#[test]
fn query_collection_dir_and_json_shape() {
    let (rich, poor) = collection_files();
    let dir = rich.parent().unwrap().join("coll-dir");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(&rich, dir.join("rich.xml")).unwrap();
    std::fs::copy(&poor, dir.join("poor.xml")).unwrap();
    let out = run_ok(&[
        "query",
        "--collection",
        dir.to_str().unwrap(),
        "//book[./title]",
        "--k",
        "4",
        "--json",
    ]);
    assert!(
        out.contains("\"collection\": {\"shards_total\": 2"),
        "{out}"
    );
    assert!(out.contains("\"shard\": \"rich\""), "{out}");
    assert!(out.contains("\"shard\": \"poor\""), "{out}");
    assert!(out.trim_start().starts_with('{'), "{out}");
    assert!(out.trim_end().ends_with('}'), "{out}");
}

/// The unsigned integer after `"<field>": ` in a JSON rendering.
fn json_u64(json: &str, field: &str) -> u64 {
    let at = json
        .find(&format!("\"{field}\": "))
        .unwrap_or_else(|| panic!("no {field} in {json}"));
    json[at + field.len() + 4..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn query_collection_op_budget_bounds_the_whole_run() {
    let dir = scratch("coll-budget");
    std::fs::create_dir_all(&dir).unwrap();
    let mut shelf = String::from("<shelf>");
    for i in 0..600 {
        shelf.push_str("<book><title>t</title>");
        if i % 3 == 0 {
            shelf.push_str("<isbn>1</isbn>");
        }
        shelf.push_str("</book>");
    }
    shelf.push_str("</shelf>");
    for i in 0..4 {
        std::fs::write(dir.join(format!("s{i}.xml")), &shelf).unwrap();
    }
    let query = |extra: &[&str]| {
        let mut argv = vec![
            "query",
            "--collection",
            dir.to_str().unwrap(),
            "//book[./title and ./isbn]",
            // Above every shard's 600 roots, so nothing is pruned and
            // the corpus needs 4 × 600 × 2 operations.
            "--k",
            "2000",
            "--json",
        ];
        argv.extend_from_slice(extra);
        run_ok(&argv)
    };
    let full = query(&[]);
    assert!(full.contains("\"result\": \"exact\""), "{full}");
    // A third of the corpus's work: more than any one of the four
    // shards needs, so only a corpus-wide budget binds.
    let budget = json_u64(&full, "server_ops") / 3;
    let allowance = budget + whirlpool_core::INTERRUPT_SPAN as u64;
    assert!(
        json_u64(&full, "server_ops") > allowance,
        "fixture too small"
    );

    let cut = query(&["--max-ops", &budget.to_string()]);
    assert!(cut.contains("\"result\": \"truncated\""), "{cut}");
    assert!(json_u64(&cut, "server_ops") <= allowance, "{cut}");
    assert!(json_u64(&cut, "shards_skipped_budget") >= 1, "{cut}");
}

#[test]
fn query_split_shards_one_document() {
    let file = sample_file();
    let out = run_ok(&[
        "query",
        file.to_str().unwrap(),
        "//book[./title]",
        "--split",
        "3",
        "--k",
        "3",
    ]);
    assert!(out.contains("collection: 3 shards"), "{out}");
    assert!(out.contains("shard split-0"), "{out}");
}

/// A fault spec names servers by query node, the same in every shard,
/// so `--fault` runs in a corpus scope too; the trace and the explain
/// view stay per-document.
#[test]
fn query_collection_rejects_per_document_features() {
    let (rich, poor) = collection_files();
    let files = [rich.to_str().unwrap(), poor.to_str().unwrap()];
    for flag in [&["--trace-out", "never.json"][..], &["--explain"]] {
        let argv = [&["query"], &files[..], &["//book[./title]"], flag].concat();
        let err = run_err(&argv);
        assert!(err.contains("collection mode"), "{flag:?}: {err}");
    }
    let out = run_ok(&[
        "query",
        files[0],
        files[1],
        "//book[./title and ./isbn]",
        "--fault",
        "server=1:fail@0",
        "--json",
    ]);
    assert!(out.contains("\"result\": \"truncated\""), "{out}");
    assert!(json_u64(&out, "servers_failed") >= 1, "{out}");
    let err = run_err(&[
        "query",
        "--split",
        "2",
        "--collection",
        "somewhere",
        "//book[./title]",
    ]);
    assert!(err.contains("--split"), "{err}");
}

#[test]
fn snapshot_build_verify_info_and_query_pipeline() {
    let file = sample_file();
    let snap = scratch("sample.wps");
    let out = run_ok(&[
        "snapshot",
        "build",
        file.to_str().unwrap(),
        snap.to_str().unwrap(),
    ]);
    assert!(out.contains("snapshot"), "{out}");

    let verify = run_ok(&["snapshot", "verify", snap.to_str().unwrap()]);
    assert!(verify.starts_with("ok:"), "{verify}");
    let info = run_ok(&["snapshot", "info", snap.to_str().unwrap()]);
    assert!(info.contains("elements:  9"), "{info}");
    assert!(info.contains("version:   5"), "{info}");
    assert!(info.contains("paths:"), "{info}");
    assert!(info.contains("book"), "{info}");

    // Query through --snapshot: same answers as the parsed run, and the
    // stats line reports the attach cost instead of an index build.
    let parsed_run = run_ok(&[
        "query",
        file.to_str().unwrap(),
        "//book[./title and ./isbn]",
        "--k",
        "3",
    ]);
    let snap_run = run_ok(&[
        "query",
        "--snapshot",
        snap.to_str().unwrap(),
        "//book[./title and ./isbn]",
        "--k",
        "3",
        "--stats",
        "--xml",
    ]);
    assert!(snap_run.contains("answers:   3"), "{snap_run}");
    assert!(snap_run.contains("id=a"), "{snap_run}");
    assert!(snap_run.contains("<isbn>"), "{snap_run}");
    assert!(snap_run.contains("snapshot_attach_ms"), "{snap_run}");
    assert!(
        snap_run.contains("prepare:   model_build_ms "),
        "{snap_run}"
    );
    assert!(
        snap_run.contains("prepare:   idf counted in 1 shard\n"),
        "{snap_run}"
    );
    for line in parsed_run.lines().filter(|l| l.contains("score")) {
        assert!(snap_run.contains(line), "missing {line:?} in {snap_run}");
    }

    // A snapshot given as a plain positional attaches automatically.
    let auto = run_ok(&[
        "query",
        snap.to_str().unwrap(),
        "//book[./title and ./isbn]",
        "--json",
    ]);
    assert!(auto.contains("\"snapshot_attach_ms\""), "{auto}");
    // And the parsed path reports the build cost under the same scheme.
    let parsed_json = run_ok(&["query", file.to_str().unwrap(), "//book[./title]", "--json"]);
    assert!(parsed_json.contains("\"index_build_ms\""), "{parsed_json}");
    // Both report the scoring model's build, the cost every query pays.
    assert!(auto.contains("\"model_build_ms\""), "{auto}");
    assert!(parsed_json.contains("\"model_build_ms\""), "{parsed_json}");

    // --snapshot insists on a real snapshot file.
    let err = run_err(&[
        "query",
        "--snapshot",
        file.to_str().unwrap(),
        "//book[./title]",
    ]);
    assert!(err.contains("not a snapshot"), "{err}");
}

#[test]
fn collection_attaches_snapshot_shards() {
    let dir = scratch("snapcoll");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("rich.xml"),
        "<shelf><book><title>dune</title><isbn>1</isbn></book></shelf>",
    )
    .unwrap();
    let poor_xml = scratch("poor-src.xml");
    std::fs::write(&poor_xml, "<shelf><book><title>ubik</title></book></shelf>").unwrap();
    run_ok(&[
        "snapshot",
        "build",
        poor_xml.to_str().unwrap(),
        dir.join("poor.wps").to_str().unwrap(),
    ]);
    let out = run_ok(&[
        "query",
        "--collection",
        dir.to_str().unwrap(),
        "//book[./title and ./isbn]",
        "--k",
        "2",
    ]);
    assert!(out.contains("collection: 2 shards"), "{out}");
    assert!(out.contains("shard poor"), "{out}");
    assert!(out.contains("shard rich"), "{out}");
}

#[test]
fn query_collection_reports_full_verifications() {
    let dir = scratch("verified-dir");
    std::fs::create_dir_all(&dir).unwrap();
    for name in ["a.wps", "b.wps"] {
        run_ok(&[
            "snapshot",
            "build",
            sample_file().to_str().unwrap(),
            dir.join(name).to_str().unwrap(),
        ]);
    }
    let argv = [
        "query",
        "--collection",
        dir.to_str().unwrap(),
        "//book[./title]",
        "--max-resident",
        "1",
    ];
    let out = run_ok(&argv);
    // The query's shape is new, so each shard is attached once to count
    // it. The shard counted last stays resident and is visited first
    // (equal ceilings go by shard, last first), so one more attach
    // visits the other. Every attach verifies its file in full.
    let lazy = out.lines().find(|l| l.starts_with("lazy:")).expect(&out);
    assert!(lazy.contains(", 3 attached, "), "{out}");
    let json = run_ok(&[&argv[..], &["--json"]].concat());
    assert!(json.contains("\"shards_attached\": 3, "), "{json}");
    // A peeked corpus counts its idf like any other.
    assert!(json.contains("\"shards_counted\": 2}"), "{json}");
}
