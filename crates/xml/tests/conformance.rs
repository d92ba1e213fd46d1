//! Parser conformance battery: a wide spread of well-formed documents
//! that must parse (with the expected shape) and malformed documents
//! that must fail with the right error class — plus invariants that
//! hold for anything that parses.

use whirlpool_xml::{parse_document, ParseErrorKind};

#[track_caller]
fn ok(src: &str) -> whirlpool_xml::Document {
    parse_document(src).unwrap_or_else(|e| panic!("{src:?} should parse: {e}"))
}

#[track_caller]
fn fails(src: &str) -> ParseErrorKind {
    parse_document(src)
        .expect_err(&format!("{src:?} should NOT parse"))
        .kind
}

#[test]
fn well_formed_battery() {
    // Minimal and self-closing forms.
    ok("<a/>");
    ok("<a></a>");
    ok("<a ></a >");
    ok("<a  x=\"1\"  y=\"2\" />");
    // Unicode content and tags.
    ok("<données>café ☕ 中文</données>");
    // Deep nesting, as deep as the parser accepts (it is recursion-free
    // and must not blow the stack; `malformed.rs` pins the cap).
    let deep = format!("{}{}", "<a>".repeat(4_096), "</a>".repeat(4_096));
    ok(&deep);
    // Wide fanout.
    let wide = format!("<r>{}</r>", "<x/>".repeat(50_000));
    assert_eq!(ok(&wide).len(), 50_002);
    // All entity forms.
    ok("<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x41;&#x2603;</a>");
    // Comments everywhere, including double dashes inside text.
    ok("<!--c--><a><!----><b/><!--x-y--></a><!--end-->");
    // Processing instructions & declaration.
    ok("<?xml version=\"1.0\" encoding=\"UTF-8\" standalone=\"yes\"?><a><?target data?></a>");
    // DOCTYPE with internal subset.
    ok("<!DOCTYPE r [ <!ELEMENT r (#PCDATA)> <!ENTITY % p \"x\"> ]><r/>");
    // CDATA with markup-like content.
    ok("<a><![CDATA[<not><xml>&amp;]]></a>");
    // Empty CDATA.
    ok("<a><![CDATA[]]></a>");
    // Whitespace-only text outside the root is fine.
    ok("  \n\t <a/> \n ");
    // Names with the full allowed character set.
    ok("<ns:tag-name_1.2 attr-x=\"v\"/>");
    // A forest of roots.
    let forest = ok("<a/><b/><c/>");
    assert_eq!(forest.children(forest.document_root()).count(), 3);
}

#[test]
fn text_content_is_decoded_and_trimmed() {
    let doc = ok("<a>  one &amp; two  </a>");
    let a = doc.children(doc.document_root()).next().unwrap();
    assert_eq!(doc.text(a), Some("one & two"));

    let doc = ok("<a>start<b/>middle<c/>end</a>");
    let a = doc.children(doc.document_root()).next().unwrap();
    assert_eq!(doc.text(a), Some("start middle end"));
}

#[test]
fn malformed_battery() {
    use ParseErrorKind as K;
    // Tag soup.
    assert!(matches!(fails("<a>"), K::UnclosedElements { .. }));
    assert!(matches!(fails("</a>"), K::UnmatchedClosingTag { .. }));
    assert!(matches!(fails("<a></b>"), K::MismatchedClosingTag { .. }));
    assert!(matches!(
        fails("<a><b></a></b>"),
        K::MismatchedClosingTag { .. }
    ));
    // Truncations of every construct.
    assert!(matches!(fails("<a"), K::UnexpectedEof { .. }));
    assert!(matches!(fails("<a x="), K::UnexpectedEof { .. }));
    assert!(matches!(fails("<a x=\"v"), K::UnexpectedEof { .. }));
    assert!(matches!(
        fails("<!-- never closed"),
        K::UnexpectedEof { .. }
    ));
    assert!(matches!(
        fails("<a><![CDATA[oops</a>"),
        K::UnexpectedEof { .. }
    ));
    assert!(matches!(fails("<!DOCTYPE r ["), K::UnexpectedEof { .. }));
    assert!(matches!(fails("<a><?pi"), K::UnexpectedEof { .. }));
    // Attribute problems.
    assert!(matches!(fails("<a x=1/>"), K::UnexpectedChar { .. }));
    assert!(matches!(fails("<a x \"1\"/>"), K::UnexpectedChar { .. }));
    assert!(matches!(
        fails("<a x=\"1\" x=\"2\"/>"),
        K::DuplicateAttribute { .. }
    ));
    // Bad names.
    assert!(matches!(fails("<1a/>"), K::UnexpectedChar { .. }));
    assert!(matches!(fails("< a/>"), K::UnexpectedChar { .. }));
    // Entities.
    assert!(matches!(fails("<a>&bogus;</a>"), K::InvalidEntity { .. }));
    assert!(matches!(fails("<a>&#xZZ;</a>"), K::InvalidEntity { .. }));
    assert!(matches!(
        fails("<a>&#1114112;</a>"),
        K::InvalidEntity { .. }
    )); // > U+10FFFF
    assert!(matches!(fails("<a>& amp;</a>"), K::InvalidEntity { .. }));
    // Content outside the root.
    assert!(matches!(fails("junk<a/>"), K::TextOutsideRoot));
    assert!(matches!(fails("<a/>junk"), K::TextOutsideRoot));
    // Self-closing slash in the wrong place.
    assert!(matches!(fails("<a /b>"), K::UnexpectedChar { .. }));
}

#[test]
fn structural_invariants_hold_for_parsed_documents() {
    let doc = ok("<site><regions><europe><item id=\"i0\"><name>n</name>\
         <description><parlist><listitem><text>t<bold>b</bold></text>\
         </listitem></parlist></description></item></europe></regions></site>");
    // Every element sits one level below its parent, and NodeIds are
    // assigned in document order.
    for id in doc.elements() {
        let parent = doc.parent(id).expect("elements have parents");
        assert!(doc.is_parent(parent, id));
        assert_eq!(doc.depth(id), doc.depth(parent) + 1);
        assert!(parent < id);
    }
    let order: Vec<_> = doc.descendants_or_self(doc.document_root()).collect();
    assert_eq!(order, doc.all_nodes().collect::<Vec<_>>(), "document order");
    // descendants_or_self agrees with ancestry.
    for a in doc.elements() {
        for b in doc.descendants_or_self(a).skip(1) {
            assert!(doc.is_ancestor(a, b));
        }
    }
}

#[test]
fn error_positions_are_line_accurate() {
    let err = parse_document("<a>\n<b>\n<c></d>\n</b>\n</a>").unwrap_err();
    assert_eq!(err.position.line, 3);
    let err = parse_document("<a x=\"1\"\n  x=\"2\"/>").unwrap_err();
    assert_eq!(err.position.line, 2);
}

#[test]
fn huge_attribute_values_round_trip() {
    let big = "v".repeat(100_000);
    let doc = ok(&format!("<a x=\"{big}\"/>"));
    let a = doc.children(doc.document_root()).next().unwrap();
    assert_eq!(doc.attribute(a, "x").map(str::len), Some(100_000));
}
