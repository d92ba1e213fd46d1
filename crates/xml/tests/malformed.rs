//! Regression tests: the parser must reject — never panic on —
//! truncated and ill-nested documents, and report a structured error
//! with a sane position.

use whirlpool_xml::{parse_document, ParseErrorKind};

const WELL_FORMED: &str = "<site><regions><item id=\"i1\"><name>gold &amp; \
    silver</name><desc><![CDATA[5 < 7]]></desc></item><!-- c --></regions></site>";

/// Truncating a valid document at every non-empty byte boundary yields
/// a structured error — never a panic, never a success with a mangled
/// tree. (The empty prefix parses as the empty document and is skipped.)
#[test]
fn every_prefix_truncation_is_rejected_cleanly() {
    assert!(parse_document(WELL_FORMED).is_ok());
    for cut in 1..WELL_FORMED.len() {
        if !WELL_FORMED.is_char_boundary(cut) {
            continue;
        }
        let prefix = &WELL_FORMED[..cut];
        let result = parse_document(prefix);
        assert!(
            result.is_err(),
            "prefix of length {cut} unexpectedly parsed: {prefix:?}"
        );
        let err = result.unwrap_err();
        // The reported position must lie within the input.
        assert!(
            err.position.offset <= prefix.len(),
            "error position {} beyond input length {} for {prefix:?}",
            err.position.offset,
            prefix.len()
        );
    }
}

/// Ill-nested closing tags are rejected at every depth, naming the
/// mismatched pair.
#[test]
fn ill_nesting_is_rejected_at_depth() {
    for (src, opened, closed) in [
        ("<a><b></a></b>", "b", "a"),
        ("<a><b><c></b></c></a>", "c", "b"),
        ("<r><x/><y></r></y>", "y", "r"),
    ] {
        match parse_document(src) {
            Err(e) => match e.kind {
                ParseErrorKind::MismatchedClosingTag {
                    opened: o,
                    closed: c,
                } => {
                    assert_eq!((o.as_str(), c.as_str()), (opened, closed), "{src:?}");
                }
                other => panic!("{src:?}: expected MismatchedClosingTag, got {other:?}"),
            },
            Ok(_) => panic!("{src:?} unexpectedly parsed"),
        }
    }
}

/// Errors render through Display without panicking (the CLI prints
/// them straight to the user).
#[test]
fn errors_display_cleanly() {
    let err = parse_document("<a><b></a></b>").unwrap_err();
    let text = err.to_string();
    assert!(text.contains('a') && text.contains('b'), "{text}");
    let err = parse_document("<a>").unwrap_err();
    assert!(!err.to_string().is_empty());
}

/// `depth` nested `<a>` elements.
fn chain(depth: usize) -> String {
    "<a>".repeat(depth) + &"</a>".repeat(depth)
}

/// Nesting is capped to protect what runs on a parsed document — the
/// index's `u16` depth column and the recursive serializers. The
/// deepest accepted document parses; one level more is a typed error at
/// the offending tag, raised before the node exists.
#[test]
fn nesting_beyond_the_depth_limit_is_a_typed_error() {
    let doc = parse_document(&chain(4096)).expect("4 096 deep is accepted");
    assert_eq!(doc.len(), 4096 + 1);

    let src = chain(4097);
    let start = std::time::Instant::now();
    let err = parse_document(&src).unwrap_err();
    assert_eq!(
        err.kind,
        ParseErrorKind::TooDeep {
            depth: 4097,
            limit: 4096
        }
    );
    assert_eq!(err.position.offset, 3 * 4096);
    assert!(err.to_string().contains("depth limit of 4096"), "{err}");
    // The rejection is immediate: the parse stops at the offending tag.
    assert!(start.elapsed().as_millis() < 50, "{:?}", start.elapsed());

    // A self-closing element is an element too.
    let err = parse_document(&("<a>".repeat(4096) + "<b/>")).unwrap_err();
    assert!(matches!(
        err.kind,
        ParseErrorKind::TooDeep { depth: 4097, .. }
    ));
}
