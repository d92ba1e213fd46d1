//! The parallel parse is the sequential parse: for any input and any
//! cut of it into pieces, `parse_document_split` returns what a parse on
//! one thread returns — the same document arrays, tag ids and text, or
//! the same error at the same position. Cuts at every `<` exercise the
//! stitch; cuts elsewhere must fall back to the sequential parse.

use proptest::prelude::*;
use whirlpool_xml::{parse_document_split, DocView, Document, ParseError};

/// Asserts that cutting `src` at `boundaries` changes nothing.
#[track_caller]
fn same(src: &str, boundaries: &[usize]) {
    let sequential = parse_document_split(src, &[]);
    let split = parse_document_split(src, boundaries);
    assert_eq!(
        view(&split),
        view(&sequential),
        "{src:?} cut at {boundaries:?}"
    );
}

fn view(parsed: &Result<Document, ParseError>) -> Result<DocView<'_>, &ParseError> {
    parsed.as_ref().map(Document::view)
}

/// The offsets of every `<` in `src`.
fn markup(src: &str) -> Vec<usize> {
    (src.bytes().enumerate())
        .filter_map(|(i, b)| (b == b'<').then_some(i))
        .collect()
}

/// Every cut of `src`: all `<`s at once, then each char boundary alone.
fn every_cut(src: &str) {
    same(src, &markup(src));
    for at in (1..src.len()).filter(|&at| src.is_char_boundary(at)) {
        same(src, &[at]);
    }
}

/// The truncation battery's document.
const WELL_FORMED: &str = "<site><regions><item id=\"i1\"><name>gold &amp; \
    silver</name><desc><![CDATA[5 < 7]]></desc></item><!-- c --></regions></site>";

/// The inputs of `conformance.rs` and `malformed.rs`, well-formed and
/// not.
const INPUTS: &[&str] = &[
    "<a/>",
    "<a></a>",
    "<a ></a >",
    "<a  x=\"1\"  y=\"2\" />",
    "<données>café ☕ 中文</données>",
    "<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x41;&#x2603;</a>",
    "<!--c--><a><!----><b/><!--x-y--></a><!--end-->",
    "<?xml version=\"1.0\" encoding=\"UTF-8\" standalone=\"yes\"?><a><?target data?></a>",
    "<!DOCTYPE r [ <!ELEMENT r (#PCDATA)> <!ENTITY % p \"x\"> ]><r/>",
    "<a><![CDATA[<not><xml>&amp;]]></a>",
    "<a><![CDATA[]]></a>",
    "  \n\t <a/> \n ",
    "<ns:tag-name_1.2 attr-x=\"v\"/>",
    "<a/><b/><c/>",
    "<a>  one &amp; two  </a>",
    "<a>start<b/>middle<c/>end</a>",
    "<a>",
    "</a>",
    "<a></b>",
    "<a><b></a></b>",
    "<a",
    "<a x=",
    "<a x=\"v",
    "<!-- never closed",
    "<a><![CDATA[oops</a>",
    "<!DOCTYPE r [",
    "<a><?pi",
    "<a x=1/>",
    "<a x \"1\"/>",
    "<a x=\"1\" x=\"2\"/>",
    "<1a/>",
    "< a/>",
    "<a>&bogus;</a>",
    "<a>&#xZZ;</a>",
    "<a>&#1114112;</a>",
    "<a>& amp;</a>",
    "junk<a/>",
    "<a/>junk",
    "<a /b>",
    "<site><regions><europe><item id=\"i0\"><name>n</name>\
     <description><parlist><listitem><text>t<bold>b</bold></text>\
     </listitem></parlist></description></item></europe></regions></site>",
    "<a>\n<b>\n<c></d>\n</b>\n</a>",
    "<a x=\"1\"\n  x=\"2\"/>",
    WELL_FORMED,
    "<a><b><c></b></c></a>",
    "<r><x/><y></r></y>",
    // The parser's own unit-test inputs: late text, forests, prologs.
    "<p>one <b>bold</b> two</p>",
    "<a><b><c/></b><b/></a>",
    "<?xml version=\"1.0\"?>\n<!DOCTYPE site [ <!ELEMENT site (a)> ]>\n<!-- a comment -->\n\
     <site><?pi data?><a><!-- inner --></a></site>",
    "<a>\r\n<b>\r\n</c></a>",
    "<a>é\n  <b>ü</c>",
    "<a>\n<!-- one\ntwo",
    "<a x=\"1\n2 &bad;\n3\">",
    "hello <a/>",
    "<a/></b>",
    // Orphan text and closes across a cut.
    "<a>x<!--c-->y<!--d-->z</a>",
    "<a>x<b/>y<?p?>z</a><c>w</c>",
    "<a><b>t</b>u</a>v",
    "<a></a></a>",
    "<a><b></b></c></a>",
];

#[test]
fn every_cut_of_the_parser_batteries_parses_as_one_piece() {
    for src in INPUTS {
        every_cut(src);
    }
    // Every prefix of the truncation battery's document.
    for cut in (1..WELL_FORMED.len()).filter(|&c| WELL_FORMED.is_char_boundary(c)) {
        every_cut(&WELL_FORMED[..cut]);
    }
}

#[test]
fn large_battery_inputs_split_alike() {
    let chain = |depth: usize| "<a>".repeat(depth) + &"</a>".repeat(depth);
    let big = "v".repeat(100_000);
    for src in [
        chain(4096),
        chain(4097),
        "<a>".repeat(4096) + "<b/>",
        format!("<r>{}</r>", "<x/>".repeat(50_000)),
        format!("<a x=\"{big}\"/>"),
    ] {
        let cuts = markup(&src);
        for step in [1, 7, 997] {
            let picked: Vec<usize> = cuts.iter().copied().step_by(step).take(64).collect();
            same(&src, &picked);
        }
        for &at in cuts.iter().step_by(cuts.len() / 40 + 1) {
            same(&src, &[at]);
            same(&src, &[at, at + 1, src.len() - 4]);
        }
    }
}

/// Random well-formed-ish documents: elements with attributes (repeats
/// included), text needing entities, CDATA, comments and PIs between
/// and inside elements, several top-level elements, and sometimes a
/// wrapper nested close to the depth limit, a closing tag renamed or
/// text between the top-level elements.
fn document() -> impl Strategy<Value = String> {
    const NAMES: [&str; 6] = ["a", "b", "item", "name", "x:y", "t"];
    let attrs = prop::collection::vec((0usize..3, "[a-z<]{0,3}"), 0..3);
    let leaf =
        (0usize..5, "[a-z &<>]{0,6}", 0usize..6, attrs).prop_map(|(kind, text, tag, attrs)| {
            match kind {
                0 => text.replace('&', "&amp;").replace('<', "&lt;"),
                1 => format!("<![CDATA[{text}]]>"),
                2 => format!("<!--{}-->", text.replace('>', "")),
                3 => format!("<?pi {}?>", text.replace('>', "")),
                _ => {
                    let attrs: String = (attrs.iter())
                        .map(|(n, v)| format!(" {}=\"{v}\"", ["id", "k", "v"][*n]))
                        .collect();
                    format!("<{}{attrs}/>", NAMES[tag])
                }
            }
        });
    let tree = leaf.prop_recursive(5, 64, 5, |inner| {
        (0usize..6, prop::collection::vec(inner, 0..5), 0usize..12).prop_map(
            |(tag, children, wrong)| {
                let close = if wrong == 0 {
                    NAMES[(tag + 1) % 6]
                } else {
                    NAMES[tag]
                };
                format!("<{}>{}</{close}>", NAMES[tag], children.concat())
            },
        )
    });
    (prop::collection::vec(tree, 1..4), 0usize..6, 0usize..4).prop_map(|(tops, deep, gap)| {
        let body = tops.join(["", " ", "\n", "x"][gap]);
        match deep {
            // Close to the limit: some pieces reach past it.
            0 => format!("{}{body}{}", "<d>".repeat(4090), "</d>".repeat(4090)),
            _ => body,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Two or three cuts, mostly at a `<`, sometimes anywhere.
    #[test]
    fn random_documents_split_alike(
        src in document(),
        picks in prop::collection::vec((any::<usize>(), 0u8..8), 2..4),
    ) {
        let cuts = markup(&src);
        let boundaries: Vec<usize> = (picks.iter())
            .map(|&(pick, how)| match how {
                0 => pick % (src.len() + 1),
                _ => cuts.get(pick % cuts.len().max(1)).copied().unwrap_or(0),
            })
            .filter(|&at| src.is_char_boundary(at))
            .collect();
        same(&src, &boundaries);
    }
}
