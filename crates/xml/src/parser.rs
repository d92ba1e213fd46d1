//! A from-scratch, dependency-free XML parser.
//!
//! Supports the subset of XML the evaluation data needs — elements,
//! attributes, character data, CDATA sections, comments, processing
//! instructions, an XML declaration, a (skipped) DOCTYPE, and the
//! predefined plus numeric character entities — with positioned errors.
//! Namespaces are not interpreted (prefixed names are kept verbatim),
//! and DTD-defined entities are not expanded.

use crate::builder::DocumentBuilder;
use crate::error::{ParseError, ParseErrorKind, Position};
use crate::node::Document;
use std::borrow::Cow;

/// Deepest element nesting accepted. Parsing itself is linear in depth;
/// the cap protects what runs on a parsed document: the `u16` depth
/// column ([`DocumentBuilder::open`] panics past 65 535) and the
/// recursive serializer (`write_node`), whose stack grows with nesting.
/// Real documents are nowhere near the cap (XMark is 12 deep).
const MAX_DEPTH: usize = 4096;

/// Parses `input` into a [`Document`].
///
/// Multiple top-level elements are accepted (they become siblings under
/// the synthetic document root), which lets a *forest* — the paper's data
/// model — be read from a single file. Elements nested more than 4 096
/// deep are rejected with [`ParseErrorKind::TooDeep`].
pub fn parse_document(input: &str) -> Result<Document, ParseError> {
    Parser::new(input).run()
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    line_start: usize,
    /// The document so far; its stack holds the open elements.
    builder: DocumentBuilder,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            line_start: 0,
            builder: DocumentBuilder::new(),
        }
    }

    fn run(mut self) -> Result<Document, ParseError> {
        loop {
            let text_start = self.pos;
            // Scan character data until the next markup.
            while self.pos < self.bytes.len() && self.bytes[self.pos] != b'<' {
                if self.bytes[self.pos] == b'\n' {
                    self.line += 1;
                    self.line_start = self.pos + 1;
                }
                self.pos += 1;
            }
            if self.pos > text_start {
                self.handle_text(text_start, self.pos)?;
            }
            if self.pos >= self.bytes.len() {
                break;
            }
            // At a '<'.
            if self.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.starts_with("<![CDATA[") {
                self.parse_cdata()?;
            } else if self.starts_with("<!") {
                self.skip_doctype()?;
            } else if self.starts_with("<?") {
                self.skip_pi()?;
            } else if self.starts_with("</") {
                self.parse_closing_tag()?;
            } else {
                self.parse_opening_tag()?;
            }
        }
        if !self.builder.stack.is_empty() {
            let doc = &self.builder.doc;
            let tags = (self.builder.stack.iter())
                .map(|&id| doc.tag_str(id).to_string())
                .collect::<Vec<_>>();
            return Err(self.error(ParseErrorKind::UnclosedElements { tags }));
        }
        Ok(self.builder.finish())
    }

    // -- low-level cursor helpers ---------------------------------------

    fn position(&self) -> Position {
        let column = self.src[self.line_start..self.pos].chars().count() as u32 + 1;
        Position {
            line: self.line,
            column,
            offset: self.pos,
        }
    }

    fn error(&self, kind: ParseErrorKind) -> ParseError {
        ParseError {
            kind,
            position: self.position(),
        }
    }

    fn eof_error(&self, context: &'static str) -> ParseError {
        self.error(ParseErrorKind::UnexpectedEof { context })
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.pos + 1;
        }
        self.pos += 1;
        Some(b)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    /// Advances past `needle`, returning an error mentioning `context` if
    /// it never occurs.
    fn skip_until(&mut self, needle: &str, context: &'static str) -> Result<(), ParseError> {
        while self.pos < self.bytes.len() {
            if self.starts_with(needle) {
                for _ in 0..needle.len() {
                    self.bump();
                }
                return Ok(());
            }
            self.bump();
        }
        Err(self.eof_error(context))
    }

    // -- names, entities --------------------------------------------------

    fn is_name_start(b: u8) -> bool {
        b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
    }

    fn is_name_char(b: u8) -> bool {
        Self::is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
    }

    fn parse_name(&mut self, what: &'static str) -> Result<&'a str, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if Self::is_name_start(b) => {
                self.bump();
            }
            Some(b) => {
                return Err(self.error(ParseErrorKind::UnexpectedChar {
                    found: b as char,
                    expected: what,
                }))
            }
            None => return Err(self.eof_error(what)),
        }
        while matches!(self.peek(), Some(b) if Self::is_name_char(b)) {
            self.bump();
        }
        Ok(&self.src[start..self.pos])
    }

    /// Decodes the text range `[start, end)` of the source, expanding
    /// entity references.
    fn decode_text(&self, start: usize, end: usize) -> Result<Cow<'a, str>, ParseError> {
        let raw = &self.src[start..end];
        if !raw.contains('&') {
            return Ok(Cow::Borrowed(raw));
        }
        let mut out = String::with_capacity(raw.len());
        let mut rest = raw;
        while let Some(amp) = rest.find('&') {
            out.push_str(&rest[..amp]);
            let after = &rest[amp + 1..];
            let semi = after.find(';').ok_or_else(|| {
                self.error(ParseErrorKind::InvalidEntity {
                    entity: truncate(after),
                })
            })?;
            let entity = &after[..semi];
            out.push(decode_entity(entity).ok_or_else(|| {
                self.error(ParseErrorKind::InvalidEntity {
                    entity: entity.to_string(),
                })
            })?);
            rest = &after[semi + 1..];
        }
        out.push_str(rest);
        Ok(Cow::Owned(out))
    }

    // -- constructs -------------------------------------------------------

    fn handle_text(&mut self, start: usize, end: usize) -> Result<(), ParseError> {
        let decoded = self.decode_text(start, end)?;
        self.text(&decoded)
    }

    /// Character data for the open element; outside the root only
    /// whitespace is allowed.
    fn text(&mut self, text: &str) -> Result<(), ParseError> {
        if !self.builder.stack.is_empty() {
            self.builder.text(text);
        } else if !text.trim().is_empty() {
            return Err(self.error(ParseErrorKind::TextOutsideRoot));
        }
        Ok(())
    }

    fn skip_comment(&mut self) -> Result<(), ParseError> {
        self.pos += 4; // "<!--"
        self.skip_until("-->", "comment")
    }

    fn skip_pi(&mut self) -> Result<(), ParseError> {
        self.pos += 2; // "<?"
        self.skip_until("?>", "processing instruction")
    }

    fn skip_doctype(&mut self) -> Result<(), ParseError> {
        // "<!DOCTYPE ...>" possibly with an internal subset in [ ... ].
        self.pos += 2; // "<!"
        let mut depth = 1usize; // counts '<' ... '>' nesting
        let mut in_subset = false;
        while let Some(b) = self.bump() {
            match b {
                b'[' => in_subset = true,
                b']' => in_subset = false,
                b'<' if !in_subset => depth += 1,
                b'>' if !in_subset => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                _ => {}
            }
        }
        Err(self.eof_error("DOCTYPE declaration"))
    }

    fn parse_cdata(&mut self) -> Result<(), ParseError> {
        self.pos += 9; // "<![CDATA["
        let start = self.pos;
        while self.pos < self.bytes.len() && !self.starts_with("]]>") {
            self.bump();
        }
        if self.pos >= self.bytes.len() {
            return Err(self.eof_error("CDATA section"));
        }
        let content = &self.src[start..self.pos];
        self.pos += 3; // "]]>"
        self.text(content)
    }

    fn parse_closing_tag(&mut self) -> Result<(), ParseError> {
        self.pos += 2; // "</"
        let name = self.parse_name("element name")?;
        self.skip_whitespace();
        match self.peek() {
            Some(b'>') => {
                self.bump();
            }
            Some(b) => {
                return Err(self.error(ParseErrorKind::UnexpectedChar {
                    found: b as char,
                    expected: "'>' closing the tag",
                }))
            }
            None => return Err(self.eof_error("closing tag")),
        }
        match self.builder.stack.last() {
            Some(&open) => {
                let opened = self.builder.doc.tag_str(open);
                if opened != name {
                    return Err(self.error(ParseErrorKind::MismatchedClosingTag {
                        opened: opened.to_string(),
                        closed: name.to_string(),
                    }));
                }
                self.builder.close();
                Ok(())
            }
            None => Err(self.error(ParseErrorKind::UnmatchedClosingTag {
                tag: name.to_string(),
            })),
        }
    }

    fn parse_opening_tag(&mut self) -> Result<(), ParseError> {
        let depth = self.builder.depth() + 1;
        if depth > MAX_DEPTH {
            return Err(self.error(ParseErrorKind::TooDeep {
                depth,
                limit: MAX_DEPTH,
            }));
        }
        self.pos += 1; // "<"
        let name = self.parse_name("element name")?;
        let node = self.builder.open(name);

        // Attributes.
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'>') => {
                    self.bump();
                    return Ok(());
                }
                Some(b'/') => {
                    self.bump();
                    match self.peek() {
                        Some(b'>') => {
                            self.bump();
                            self.builder.close(); // self-closing element
                            return Ok(());
                        }
                        Some(b) => {
                            return Err(self.error(ParseErrorKind::UnexpectedChar {
                                found: b as char,
                                expected: "'>' after '/'",
                            }))
                        }
                        None => return Err(self.eof_error("element tag")),
                    }
                }
                Some(_) => {
                    let attr_name = self.parse_name("attribute name")?;
                    self.skip_whitespace();
                    match self.peek() {
                        Some(b'=') => {
                            self.bump();
                        }
                        Some(b) => {
                            return Err(self.error(ParseErrorKind::UnexpectedChar {
                                found: b as char,
                                expected: "'=' after attribute name",
                            }))
                        }
                        None => return Err(self.eof_error("attribute")),
                    }
                    self.skip_whitespace();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => {
                            self.bump();
                            q
                        }
                        Some(b) => {
                            return Err(self.error(ParseErrorKind::UnexpectedChar {
                                found: b as char,
                                expected: "quoted attribute value",
                            }))
                        }
                        None => return Err(self.eof_error("attribute value")),
                    };
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != quote) {
                        self.bump();
                    }
                    if self.peek().is_none() {
                        return Err(self.eof_error("attribute value"));
                    }
                    let value = self.decode_text(start, self.pos)?;
                    self.bump(); // closing quote
                    let doc = self.builder.doc.view();
                    if doc
                        .attributes(node)
                        .any(|(n, _)| doc.tag_name(n) == attr_name)
                    {
                        return Err(self.error(ParseErrorKind::DuplicateAttribute {
                            name: attr_name.to_string(),
                        }));
                    }
                    self.builder.attribute(attr_name, &value);
                }
                None => return Err(self.eof_error("element tag")),
            }
        }
    }
}

fn decode_entity(entity: &str) -> Option<char> {
    match entity {
        "lt" => Some('<'),
        "gt" => Some('>'),
        "amp" => Some('&'),
        "apos" => Some('\''),
        "quot" => Some('"'),
        _ => {
            let rest = entity.strip_prefix('#')?;
            let code = if let Some(hex) = rest.strip_prefix('x').or_else(|| rest.strip_prefix('X'))
            {
                u32::from_str_radix(hex, 16).ok()?
            } else {
                rest.parse::<u32>().ok()?
            };
            char::from_u32(code)
        }
    }
}

fn truncate(s: &str) -> String {
    s.chars().take(16).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_elements() {
        let doc = parse_document("<a><b><c/></b><b/></a>").unwrap();
        let a = doc.children(doc.document_root()).next().unwrap();
        assert_eq!(doc.tag_str(a), "a");
        let bs: Vec<_> = doc.children(a).collect();
        assert_eq!(bs.len(), 2);
        assert_eq!(doc.children(bs[0]).count(), 1);
        assert_eq!(doc.children(bs[1]).count(), 0);
    }

    #[test]
    fn parses_text_and_entities() {
        let doc = parse_document("<p>a &lt;b&gt; &amp; &#65;&#x42;</p>").unwrap();
        let p = doc.children(doc.document_root()).next().unwrap();
        assert_eq!(doc.text(p), Some("a <b> & AB"));
    }

    #[test]
    fn parses_attributes() {
        let doc = parse_document(r#"<item id="i1" class='x &amp; y'/>"#).unwrap();
        let item = doc.children(doc.document_root()).next().unwrap();
        assert_eq!(doc.attribute(item, "id"), Some("i1"));
        assert_eq!(doc.attribute(item, "class"), Some("x & y"));
    }

    #[test]
    fn skips_prolog_comments_pis_doctype() {
        let src = r#"<?xml version="1.0"?>
<!DOCTYPE site [ <!ELEMENT site (a)> ]>
<!-- a comment -->
<site><?pi data?><a><!-- inner --></a></site>"#;
        let doc = parse_document(src).unwrap();
        let site = doc.children(doc.document_root()).next().unwrap();
        assert_eq!(doc.tag_str(site), "site");
        assert_eq!(doc.children(site).count(), 1);
    }

    #[test]
    fn parses_cdata() {
        let doc = parse_document("<p><![CDATA[<raw> & text]]></p>").unwrap();
        let p = doc.children(doc.document_root()).next().unwrap();
        assert_eq!(doc.text(p), Some("<raw> & text"));
    }

    #[test]
    fn accepts_a_forest() {
        let doc = parse_document("<a/><b/><c/>").unwrap();
        assert_eq!(doc.children(doc.document_root()).count(), 3);
    }

    #[test]
    fn rejects_mismatched_tags() {
        let err = parse_document("<a><b></a></b>").unwrap_err();
        assert!(
            matches!(err.kind, ParseErrorKind::MismatchedClosingTag { .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_unclosed_elements() {
        let err = parse_document("<a><b>").unwrap_err();
        assert!(
            matches!(err.kind, ParseErrorKind::UnclosedElements { .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_unmatched_closing_tag() {
        let err = parse_document("<a/></b>").unwrap_err();
        assert!(
            matches!(err.kind, ParseErrorKind::UnmatchedClosingTag { .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_text_outside_root() {
        let err = parse_document("hello <a/>").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TextOutsideRoot);
    }

    #[test]
    fn rejects_bad_entity() {
        let err = parse_document("<a>&nosuch;</a>").unwrap_err();
        assert!(
            matches!(err.kind, ParseErrorKind::InvalidEntity { .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_duplicate_attribute() {
        let err = parse_document(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(
            matches!(err.kind, ParseErrorKind::DuplicateAttribute { .. }),
            "{err}"
        );
    }

    #[test]
    fn error_positions_point_at_the_problem() {
        let err = parse_document("<a>\n  <b></c>\n</a>").unwrap_err();
        assert_eq!(err.position.line, 2);
        assert!(err.position.column > 1);
    }

    #[test]
    fn depths_and_order_match_parsed_structure() {
        let doc = parse_document("<a><b/><b><c/></b></a>").unwrap();
        let root = doc.document_root();
        let a = doc.children(root).next().unwrap();
        let bs: Vec<_> = doc.children(a).collect();
        let c = doc.children(bs[1]).next().unwrap();
        assert_eq!([a, bs[0], bs[1], c].map(|n| doc.depth(n)), [1, 2, 2, 3]);
        assert_eq!(doc.parent(c), Some(bs[1]));
        assert!(root < a && a < bs[0] && bs[0] < bs[1] && bs[1] < c);
        assert!(doc.is_ancestor(a, c) && !doc.is_ancestor(bs[0], c));
    }

    #[test]
    fn mixed_content_concatenates() {
        let doc = parse_document("<p>one <b>bold</b> two</p>").unwrap();
        let p = doc.children(doc.document_root()).next().unwrap();
        assert_eq!(doc.text(p), Some("one two"));
        let b = doc.children(p).next().unwrap();
        assert_eq!(doc.text(b), Some("bold"));
    }
}
