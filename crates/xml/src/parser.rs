//! A from-scratch, dependency-free XML parser.
//!
//! Supports the subset of XML the evaluation data needs — elements,
//! attributes, character data, CDATA sections, comments, processing
//! instructions, an XML declaration, a (skipped) DOCTYPE, and the
//! predefined plus numeric character entities — with positioned errors.
//! Namespaces are not interpreted (prefixed names are kept verbatim),
//! and DTD-defined entities are not expanded.
//!
//! The scan touches each byte about once: character data is searched
//! for the next `<` eight bytes at a time, noting on the way whether an
//! `&` needs decoding, markup is dispatched on the byte after it, a closing tag is compared with the open element's
//! name, and comments, CDATA and attribute values are skipped by
//! substring search. Nothing counts lines while scanning; an error
//! derives its line and column from its byte offset.
//!
//! An input of at least two [`MIN_PIECE`]s is parsed on every core: it
//! is cut at `<` boundaries into one piece per core, each later piece is
//! parsed on a thread of its own, and the pieces are stitched into the
//! one [`Document`] the sequential parse builds. A piece parser starts
//! with no open element; what its input closes or says outside its own
//! elements it records as *orphans*, and the stitch checks them against
//! the elements open where the piece starts. The parser before a
//! boundary hands over only if its main loop lands on the boundary in
//! content state; where it does not, or the stitch refuses a piece, the
//! parser goes on sequentially from there, so every error is the
//! sequential parser's, at the same position.

use crate::builder::{DocumentBuilder, Orphan, Piece};
use crate::error::{ParseError, ParseErrorKind, Position};
use crate::node::Document;
use std::borrow::Cow;
use std::thread::{self, ScopedJoinHandle};

/// Deepest element nesting accepted. Parsing itself is linear in depth;
/// the cap protects what runs on a parsed document: the `u16` depth
/// column ([`DocumentBuilder::open`] panics past 65 535) and the
/// recursive serializer (`write_node`), whose stack grows with nesting.
/// Real documents are nowhere near the cap (XMark is 12 deep).
pub(crate) const MAX_DEPTH: usize = 4096;

/// The smallest piece worth a thread of its own. A scoped spawn and
/// join costs 27–41 µs on a 2-vCPU host and parsing about 4 ms per MB,
/// so a 128 KiB piece (0.5 ms) repays its thread many times over; a
/// 100 kB document stays on one thread.
const MIN_PIECE: usize = 128 << 10;

/// Parses `input` into a [`Document`].
///
/// Multiple top-level elements are accepted (they become siblings under
/// the synthetic document root), which lets a *forest* — the paper's data
/// model — be read from a single file. Elements nested more than 4 096
/// deep are rejected with [`ParseErrorKind::TooDeep`].
///
/// An input of at least 256 KiB is parsed in up to
/// [`available_parallelism`](std::thread::available_parallelism) pieces
/// at once; the document, and any error, are the ones a parse on one
/// thread gives.
pub fn parse_document(input: &str) -> Result<Document, ParseError> {
    let threads = thread::available_parallelism().map_or(1, usize::from);
    let pieces = threads.min(input.len() / MIN_PIECE);
    let boundaries: Vec<usize> = (1..pieces)
        .filter_map(|k| find_byte(input.as_bytes(), input.len() / pieces * k, b'<'))
        .collect();
    parse_document_split(input, &boundaries)
}

/// [`parse_document`] with the input cut at `boundaries` (byte offsets,
/// in any order): the piece from each boundary to the next is parsed on
/// a thread of its own. A boundary that is not at a `<` is never landed
/// on, so the parse goes on sequentially over it. With no boundaries the
/// parse is sequential. The result equals [`parse_document`]'s, which is
/// what the tests that call this check.
#[doc(hidden)]
pub fn parse_document_split(input: &str, boundaries: &[usize]) -> Result<Document, ParseError> {
    let mut starts: Vec<usize> = (boundaries.iter().copied())
        .filter(|&at| 0 < at && at < input.len())
        .collect();
    starts.sort_unstable();
    starts.dedup();
    if starts.is_empty() {
        return Parser::new(input).run(Vec::new());
    }
    let clean = |at: usize| input.as_bytes().get(at).map_or(true, |&b| b == b'<');
    let ends = starts[1..].iter().copied().chain([input.len()]);
    thread::scope(|scope| {
        let pieces = (starts.iter().copied().zip(ends))
            .map(|(start, end)| {
                let piece = (clean(start) && clean(end)).then(|| {
                    let parser = Parser::piece(&input[start..end]);
                    thread::Builder::new()
                        .spawn_scoped(scope, move || parser.run_piece())
                        .ok()
                });
                (start, piece.flatten())
            })
            .collect();
        Parser::new(input).run(pieces)
    })
}

/// A piece's start and the thread parsing it, if one does.
type Pending<'s, 'a> = (usize, Option<ScopedJoinHandle<'s, Option<Piece<'a>>>>);

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// The document so far; its stack holds the open elements.
    builder: DocumentBuilder,
    /// In a piece, what it closes and says outside its own elements.
    orphans: Option<Vec<Orphan<'a>>>,
    /// Per tag id, the last element that had an attribute of that name:
    /// the duplicate-attribute check is one lookup, not a scan of the
    /// element's attributes.
    attr_seen: Vec<u32>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            builder: DocumentBuilder::new(),
            orphans: None,
            attr_seen: Vec::new(),
        }
    }

    /// A parser for `src`, a piece of a larger input. It is made on the
    /// calling thread with every column allocated: glibc grows a block
    /// in the arena that made it, so the piece's columns live in the
    /// caller's arena, and what the stitch frees is reused by the rest
    /// of the set-up instead of staying with a finished thread's arena
    /// (about 3 MB of peak RSS on the 10 Mb document).
    fn piece(src: &'a str) -> Self {
        let mut parser = Parser::new(src);
        parser.orphans = Some(Vec::new());
        parser.builder.base = MAX_DEPTH;
        let doc = &mut parser.builder.doc;
        doc.text_blob.reserve(1);
        doc.attr_blob.reserve(1);
        doc.attr_entries.reserve(1);
        parser
    }

    /// Parses a piece; `None` if it has an error of its own (the
    /// sequential parse will report it).
    fn run_piece(mut self) -> Option<Piece<'a>> {
        self.parse(Vec::new()).ok()?;
        Some(Piece {
            builder: self.builder,
            orphans: self.orphans?,
        })
    }

    fn run(mut self, pieces: Vec<Pending<'_, 'a>>) -> Result<Document, ParseError> {
        self.parse(pieces)?;
        if !self.builder.stack.is_empty() {
            let doc = &self.builder.doc;
            let tags = (self.builder.stack.iter())
                .map(|&id| doc.tag_str(id).to_string())
                .collect::<Vec<_>>();
            return Err(self.error(ParseErrorKind::UnclosedElements { tags }));
        }
        Ok(self.builder.finish())
    }

    /// Parses to the end of `src`. On landing at the first piece's start
    /// it waits for the pieces, stitches them and goes on from the end
    /// of the last one stitched; if it passes over that start, it drops
    /// them.
    fn parse(&mut self, mut pieces: Vec<Pending<'_, 'a>>) -> Result<(), ParseError> {
        let mut stop = pieces.first().map_or(usize::MAX, |&(start, _)| start);
        loop {
            // Character data runs to the next markup.
            let text_start = self.pos;
            let (end, entities) = scan_text(self.bytes, self.pos);
            self.pos = end;
            if end > text_start {
                let text = match entities {
                    true => self.decode_text(text_start, end)?,
                    false => Cow::Borrowed(&self.src[text_start..end]),
                };
                self.text(&text)?;
            }
            if self.pos >= stop {
                let pieces = std::mem::take(&mut pieces);
                if self.pos == stop {
                    self.pos = self.stitch(pieces);
                }
                stop = usize::MAX;
            }
            if self.pos >= self.bytes.len() {
                break;
            }
            // At a '<', dispatched on the byte after it.
            match self.bytes.get(self.pos + 1) {
                Some(b'/') => self.parse_closing_tag()?,
                Some(b'!') if self.starts_with("<!--") => self.skip_comment()?,
                Some(b'!') if self.starts_with("<![CDATA[") => self.parse_cdata()?,
                Some(b'!') => self.skip_doctype()?,
                Some(b'?') => self.skip_pi()?,
                _ => self.parse_opening_tag()?,
            }
        }
        Ok(())
    }

    /// Stitches `pieces`, the first starting where the parser stands,
    /// and returns where to go on: the end of the input, or the start of
    /// the first piece the builder refused.
    fn stitch(&mut self, pieces: Vec<Pending<'_, 'a>>) -> usize {
        let (starts, pieces): (Vec<usize>, Vec<_>) = (pieces.into_iter())
            .map(|(start, thread)| {
                let piece =
                    thread.and_then(|t| t.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
                (start, piece)
            })
            .unzip();
        let taken = self.builder.stitch(pieces);
        starts.get(taken).copied().unwrap_or(self.bytes.len())
    }

    // -- low-level cursor helpers ---------------------------------------

    fn error(&self, kind: ParseErrorKind) -> ParseError {
        ParseError {
            kind,
            position: position_at(self.src, self.pos),
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
        match self.src[self.pos..].find(needle) {
            Some(at) => {
                self.pos += at + needle.len();
                Ok(())
            }
            None => {
                self.pos = self.bytes.len();
                Err(self.eof_error(context))
            }
        }
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
        let rest = &self.bytes[self.pos..];
        self.pos += (rest.iter())
            .position(|&b| !Self::is_name_char(b))
            .unwrap_or(rest.len());
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

    /// Character data for the open element; outside the root only
    /// whitespace is allowed.
    fn text(&mut self, text: &str) -> Result<(), ParseError> {
        if !self.builder.stack.is_empty() {
            self.builder.text(text);
        } else if !text.trim().is_empty() {
            let at = self.builder.doc.len() as u32 - 1;
            let Some(orphans) = &mut self.orphans else {
                return Err(self.error(ParseErrorKind::TextOutsideRoot));
            };
            let text = text.trim().to_owned();
            orphans.push(Orphan::Text { text, at });
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
        self.skip_until("]]>", "CDATA section")?;
        self.text(&self.src[start..self.pos - 3])
    }

    fn parse_closing_tag(&mut self) -> Result<(), ParseError> {
        self.pos += 2; // "</"

        // The usual case, the open element's name in full, is a compare;
        // anything else is parsed as a name, and that reports the error.
        let opened = (self.builder.stack.last()).map(|&open| self.builder.doc.tag_str(open));
        let name = match opened {
            Some(opened)
                if self.bytes[self.pos..].starts_with(opened.as_bytes())
                    && !(self.bytes.get(self.pos + opened.len()))
                        .is_some_and(|&b| Self::is_name_char(b)) =>
            {
                self.pos += opened.len();
                &self.src[self.pos - opened.len()..self.pos]
            }
            _ => self.parse_name("element name")?,
        };
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
            // A piece records it; a piece closes at most `MAX_DEPTH`.
            None => match &mut self.orphans {
                Some(orphans) if self.builder.base > 0 => {
                    let at = self.builder.doc.len() as u32 - 1;
                    orphans.push(Orphan::Close { name, at });
                    self.builder.base -= 1;
                    Ok(())
                }
                _ => Err(self.error(ParseErrorKind::UnmatchedClosingTag {
                    tag: name.to_string(),
                })),
            },
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
                    let Some(end) = find_byte(self.bytes, self.pos, quote) else {
                        self.pos = self.bytes.len();
                        return Err(self.eof_error("attribute value"));
                    };
                    self.pos = end;
                    let value = self.decode_text(start, self.pos)?;
                    self.bump(); // closing quote
                    let tag = self.builder.intern(attr_name);
                    if self.attr_seen.len() <= tag.index() {
                        self.attr_seen.resize(tag.index() + 1, 0);
                    }
                    if std::mem::replace(&mut self.attr_seen[tag.index()], node.0) == node.0 {
                        return Err(self.error(ParseErrorKind::DuplicateAttribute {
                            name: attr_name.to_string(),
                        }));
                    }
                    self.builder.attribute_tag(tag, &value);
                }
                None => return Err(self.eof_error("element tag")),
            }
        }
    }
}

/// The line and column of byte `offset` in `src`: lines counted by
/// `\n`, columns in chars, both from 1. Only an error needs one, so the
/// parser counts nothing while it scans.
fn position_at(src: &str, offset: usize) -> Position {
    let before = &src.as_bytes()[..offset];
    let line_start = before
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |nl| nl + 1);
    Position {
        line: before.iter().filter(|&&b| b == b'\n').count() as u32 + 1,
        column: src[line_start..offset].chars().count() as u32 + 1,
        offset,
    }
}

/// The end of the character data at `from` (the next `<`, or the end of
/// input) and whether an `&` comes before it, eight bytes at a time as
/// in [`find_byte`]. A zero-byte mask is exact at its lowest set byte
/// and can be wrong only above a true match, so an `&` mask bit below
/// the first `<` is a true `&`.
fn scan_text(bytes: &[u8], from: usize) -> (usize, bool) {
    let mut entities = false;
    let mut i = from;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        let (lt, amp) = (
            zero_bytes(word ^ (LO * u64::from(b'<'))),
            zero_bytes(word ^ (LO * u64::from(b'&'))),
        );
        if lt != 0 {
            let below = (1u64 << lt.trailing_zeros()) - 1;
            return (
                i + lt.trailing_zeros() as usize / 8,
                entities || amp & below != 0,
            );
        }
        entities |= amp != 0;
        i += 8;
    }
    let end = find_byte(bytes, i, b'<').unwrap_or(bytes.len());
    (end, entities || bytes[i..end].contains(&b'&'))
}

const LO: u64 = 0x0101_0101_0101_0101;

/// The high bit of every zero byte of `x`. Above the lowest zero byte a
/// borrow can also mark a `0x01` byte; borrows run only upward, so no
/// byte below the lowest zero byte is marked.
fn zero_bytes(x: u64) -> u64 {
    x.wrapping_sub(LO) & !x & 0x8080_8080_8080_8080
}

/// The first index at or after `from` that holds `needle`, eight bytes
/// at a time: a word holds `needle` where `word ^ needle×8` has a zero
/// byte, and the lowest bit [`zero_bytes`] sets marks the first one.
fn find_byte(bytes: &[u8], from: usize, needle: u8) -> Option<usize> {
    let splat = LO * u64::from(needle);
    let mut i = from;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let zero = zero_bytes(u64::from_le_bytes(chunk.try_into().expect("8 bytes")) ^ splat);
        if zero != 0 {
            return Some(i + zero.trailing_zeros() as usize / 8);
        }
        i += 8;
    }
    (bytes.get(i..)?.iter())
        .position(|&b| b == needle)
        .map(|at| i + at)
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

    /// The duplicate check is one stamp per attribute name, not a scan
    /// of the element's earlier attributes: four times the attributes
    /// take about four times as long (a scan took about sixteen).
    #[test]
    fn duplicate_attribute_check_is_linear() {
        let element = |n: usize| {
            let attrs: String = (0..n).map(|i| format!(" a{i}=\"\"")).collect();
            format!("<e{attrs}/>")
        };
        let time = |src: &str| {
            let start = std::time::Instant::now();
            assert_eq!(parse_document(src).unwrap().len(), 2);
            start.elapsed()
        };
        // The two sizes alternate, so a slow phase of a shared host slows
        // both alike, and each keeps its best of seven runs.
        let (small_src, large_src) = (element(8_000), element(32_000));
        let (mut small, mut large) = (std::time::Duration::MAX, std::time::Duration::MAX);
        for _ in 0..7 {
            small = small.min(time(&small_src));
            large = large.min(time(&large_src));
        }
        assert!(
            large < small * 8,
            "{small:?} for 8 000, {large:?} for 32 000"
        );

        let err = parse_document(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert_eq!(err.position.offset, 14);
        let err = parse_document(&(element(32_000).replace("/>", " a7=\"\"/>"))).unwrap_err();
        let name = "a7".to_string();
        assert_eq!(err.kind, ParseErrorKind::DuplicateAttribute { name });
    }

    #[test]
    fn error_positions_point_at_the_problem() {
        let err = parse_document("<a>\n  <b></c>\n</a>").unwrap_err();
        assert_eq!(err.position.line, 2);
        assert!(err.position.column > 1);
    }

    /// The line and column of byte `offset`, recounted char by char.
    fn recount(src: &str, offset: usize) -> (u32, u32) {
        let (mut line, mut column) = (1, 1);
        for c in src[..offset].chars() {
            if c == '\n' {
                (line, column) = (line + 1, 1);
            } else {
                column += 1;
            }
        }
        (line, column)
    }

    #[test]
    fn error_positions_are_recounted_from_the_offset() {
        for (src, line, column) in [
            // CRLF line ends: the '\r' ends its line's chars.
            ("<a>\r\n<b>\r\n</c></a>", 3, 5),
            // Multi-byte chars count once in the column.
            ("<a>é\n  <b>ü</c>", 2, 11),
            // Constructs that span lines and run into the end.
            ("<a>\n<!-- one\ntwo", 3, 4),
            ("<a><![CDATA[x\ny\nzz", 3, 3),
            ("<a x=\"1\n22", 2, 3),
            // An entity error in a value that spans lines is reported
            // at the closing quote.
            ("<a x=\"1\n2 &bad;\n3\">", 3, 2),
            // End of input with elements open.
            ("<a>\n<b>", 2, 4),
        ] {
            let err = parse_document(src).unwrap_err();
            let at = err.position;
            assert_eq!((at.line, at.column), (line, column), "{src:?}: {err}");
            assert_eq!(recount(src, at.offset), (line, column), "{src:?}");
        }
    }

    proptest::proptest! {
        /// The word-at-a-time scans equal a byte-by-byte search, on
        /// strings dense in the bytes that trip a zero-byte test: the
        /// needles, their neighbours and the bytes a borrow turns
        /// into a false match.
        #[test]
        fn word_scans_equal_a_byte_search(
            picks in proptest::prelude::prop::collection::vec(0usize..8, 0..40),
            from in 0usize..40,
        ) {
            let bytes: Vec<u8> = picks.iter().map(|&i| b"<&a=;\x01\x00\xff"[i]).collect();
            let from = from.min(bytes.len());
            let lt = (from..bytes.len()).find(|&i| bytes[i] == b'<');
            let end = lt.unwrap_or(bytes.len());
            proptest::prop_assert_eq!(find_byte(&bytes, from, b'<'), lt);
            proptest::prop_assert_eq!(
                scan_text(&bytes, from),
                (end, bytes[from..end].contains(&b'&'))
            );
        }
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
