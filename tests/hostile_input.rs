//! Hostile XML and XPath input: every single-bit flip of a small XMark
//! document and of the benchmark queries, plus two-cut splices
//! `src[..i] + src[j..]`, must parse or fail with a typed error, never
//! panic. A mutated document that still parses must also survive the
//! index, the path synopsis and a Whirlpool-S run, and its snapshot must
//! attach to the same document and index arrays; a mutated query that
//! still parses, a Whirlpool-S run over the unmutated document.

use std::panic::{catch_unwind, AssertUnwindSafe};
use whirlpool_core::{evaluate, Algorithm, EvalOptions};
use whirlpool_index::{PathSynopsis, TagIndex};
use whirlpool_pattern::{parse_pattern, TreePattern};
use whirlpool_score::{Normalization, TfIdfModel};
use whirlpool_store::{build_snapshot_bytes, Snapshot};
use whirlpool_xmark::{generate, queries, GeneratorConfig};
use whirlpool_xml::{
    parse_document, parse_document_split, write_document, DocView, Document, ParseError,
    WriteOptions,
};

const QUERIES: [&str; 4] = [queries::Q1, queries::Q2, queries::Q3, queries::Q4];

/// Every single-bit flip of `src`, then the splices `src[..i] + src[j..]`
/// for cut points `i < j` on a grid of `stride` bytes (the end
/// included), each labelled for the failure message.
fn mutants(src: &[u8], stride: usize) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let flips = (0..src.len() * 8).map(move |bit| {
        let mut bytes = src.to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        (format!("bit {bit} flipped"), bytes)
    });
    let cuts: Vec<usize> = (0..src.len()).step_by(stride).chain([src.len()]).collect();
    let splices = cuts.clone().into_iter().flat_map(move |i| {
        cuts.iter()
            .filter(move |&&j| j > i)
            .map(move |&j| {
                let bytes = [&src[..i], &src[j..]].concat();
                (format!("bytes {i}..{j} cut"), bytes)
            })
            .collect::<Vec<_>>()
    });
    flips.chain(splices)
}

/// Runs `check` on `input`, turning a panic into a test failure that
/// names the mutant.
fn survives(label: &str, input: &[u8], check: impl FnOnce(&str)) {
    let text = String::from_utf8_lossy(input);
    if catch_unwind(AssertUnwindSafe(|| check(&text))).is_err() {
        panic!("{label} panicked on {text:?}");
    }
}

fn whirlpool_s(doc: &Document, index: &TagIndex, query: &TreePattern) {
    let model = TfIdfModel::build(doc, index, query, Normalization::Sparse);
    let result = evaluate(
        doc,
        index,
        query,
        &model,
        &Algorithm::WhirlpoolS,
        &EvalOptions::top_k(3),
    );
    assert!(result.answers.len() <= 3);
}

fn small_document() -> String {
    write_document(
        &generate(&GeneratorConfig::items(2)),
        &WriteOptions::default(),
    )
}

#[test]
fn hostile_xml_parses_or_fails_cleanly() {
    let src = small_document();
    let q2 = parse_pattern(queries::Q2).unwrap();
    assert!(parse_document(&src).is_ok());
    let mut parsed = 0usize;
    let mut total = 0usize;
    for (label, bytes) in mutants(src.as_bytes(), src.len() / 24) {
        total += 1;
        survives(&label, &bytes, |text| {
            if let Ok(doc) = parse_document(text) {
                parsed += 1;
                let index = TagIndex::build(&doc);
                PathSynopsis::build(&doc);
                whirlpool_s(&doc, &index, &q2);
                // Bit flips make entity, CDATA and mixed-content shapes
                // the hand-written cases lack.
                let snap = Snapshot::from_bytes(&build_snapshot_bytes(&doc, &index)).unwrap();
                assert_eq!(snap.doc_view(), doc.view());
                assert_eq!(snap.index_view(), index.view());
            }
        });
    }
    // Both outcomes are exercised: most flips land in text and still
    // parse, most cuts break the nesting.
    assert!(0 < parsed && parsed < total, "{parsed} of {total} parsed");
}

#[test]
fn hostile_xpath_parses_or_fails_cleanly() {
    let doc = generate(&GeneratorConfig::items(2));
    let index = TagIndex::build(&doc);
    let mut parsed = 0usize;
    let mut total = 0usize;
    for query in QUERIES {
        assert!(parse_pattern(query).is_ok(), "{query}");
        for (label, bytes) in mutants(query.as_bytes(), 1) {
            total += 1;
            survives(&label, &bytes, |text| {
                if let Ok(pattern) = parse_pattern(text) {
                    parsed += 1;
                    whirlpool_s(&doc, &index, &pattern);
                }
            });
        }
    }
    assert!(0 < parsed && parsed < total, "{parsed} of {total} parsed");
}

/// The parser counts no lines while it scans; an error derives its line
/// and column from its byte offset. Over the mutant grid of a compact
/// and an indented document, every error's position must equal a char
/// by char recount up to its offset.
#[test]
fn hostile_xml_error_positions_match_a_recount() {
    let doc = generate(&GeneratorConfig::items(2));
    let indented = WriteOptions {
        indent: Some(2),
        ..WriteOptions::default()
    };
    let mut errors = 0usize;
    for src in [small_document(), write_document(&doc, &indented)] {
        for (label, bytes) in mutants(src.as_bytes(), src.len() / 24) {
            let text = String::from_utf8_lossy(&bytes);
            let Err(err) = parse_document(&text) else {
                continue;
            };
            errors += 1;
            let at = err.position;
            let (mut line, mut column) = (1, 1);
            for c in text[..at.offset].chars() {
                if c == '\n' {
                    (line, column) = (line + 1, 1);
                } else {
                    column += 1;
                }
            }
            assert_eq!((at.line, at.column), (line, column), "{label}: {err}");
        }
    }
    assert!(errors > 0);
}

/// The parse on several cores is the parse on one: every mutant of the
/// grid, cut at the first `<` after each quarter, parses to the same
/// document arrays or fails with the same error at the same offset.
#[test]
fn hostile_xml_parses_alike_in_pieces() {
    fn view(parsed: &Result<Document, ParseError>) -> Result<DocView<'_>, &ParseError> {
        parsed.as_ref().map(Document::view)
    }
    let src = small_document();
    let (mut parsed, mut total) = (0usize, 0usize);
    for (label, bytes) in mutants(src.as_bytes(), src.len() / 24) {
        let text = String::from_utf8_lossy(&bytes);
        let cuts = [1, 2, 3].map(|k| {
            let from = text.len() * k / 4;
            text.as_bytes()[from..]
                .iter()
                .position(|&b| b == b'<')
                .map_or(0, |at| from + at)
        });
        let one = parse_document_split(&text, &[]);
        let split = parse_document_split(&text, &cuts);
        assert_eq!(view(&split), view(&one), "{label}");
        parsed += usize::from(one.is_ok());
        total += 1;
    }
    assert!(0 < parsed && parsed < total, "{parsed} of {total} parsed");
}
