//! Parser error types with source positions.

use std::fmt;

/// A line/column position in the XML source (1-based, columns in chars).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Position {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number, counted in characters.
    pub column: u32,
    /// Byte offset into the source.
    pub offset: usize,
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}", self.line, self.column)
    }
}

/// What went wrong during parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Input ended inside a construct (tag, comment, CDATA, ...).
    UnexpectedEof {
        /// The construct being parsed when input ran out.
        context: &'static str,
    },
    /// A character that cannot start/continue the current construct.
    UnexpectedChar {
        /// The offending character.
        found: char,
        /// What the parser was expecting instead.
        expected: &'static str,
    },
    /// `</b>` closing an element opened as `<a>`.
    MismatchedClosingTag {
        /// Tag of the innermost open element.
        opened: String,
        /// Tag found in the closing tag.
        closed: String,
    },
    /// A closing tag with no matching open element.
    UnmatchedClosingTag {
        /// The closing tag's name.
        tag: String,
    },
    /// Elements left open at end of input.
    UnclosedElements {
        /// The open tags, innermost last.
        tags: Vec<String>,
    },
    /// An invalid or unsupported entity reference such as `&unknown;`.
    InvalidEntity {
        /// The entity name (without `&`/`;`).
        entity: String,
    },
    /// An invalid element or attribute name.
    InvalidName {
        /// The rejected name.
        name: String,
    },
    /// The same attribute appears twice on one element.
    DuplicateAttribute {
        /// The repeated attribute name.
        name: String,
    },
    /// Non-whitespace text outside any element.
    TextOutsideRoot,
    /// An element nested deeper than the parser accepts.
    TooDeep {
        /// Depth of the rejected element (top-level elements are at 1).
        depth: usize,
        /// The deepest nesting accepted.
        limit: usize,
    },
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseErrorKind::UnexpectedEof { context } => {
                write!(f, "unexpected end of input while parsing {context}")
            }
            ParseErrorKind::UnexpectedChar { found, expected } => {
                write!(f, "unexpected character {found:?}, expected {expected}")
            }
            ParseErrorKind::MismatchedClosingTag { opened, closed } => {
                write!(
                    f,
                    "closing tag </{closed}> does not match open element <{opened}>"
                )
            }
            ParseErrorKind::UnmatchedClosingTag { tag } => {
                write!(f, "closing tag </{tag}> has no matching open element")
            }
            ParseErrorKind::UnclosedElements { tags } => {
                write!(f, "input ended with unclosed elements: {}", tags.join(", "))
            }
            ParseErrorKind::InvalidEntity { entity } => {
                write!(f, "invalid entity reference &{entity};")
            }
            ParseErrorKind::InvalidName { name } => write!(f, "invalid name {name:?}"),
            ParseErrorKind::DuplicateAttribute { name } => {
                write!(f, "duplicate attribute {name:?}")
            }
            ParseErrorKind::TextOutsideRoot => write!(f, "text content outside any element"),
            ParseErrorKind::TooDeep { depth, limit } => write!(
                f,
                "element nested {depth} deep exceeds the depth limit of {limit}"
            ),
        }
    }
}

/// A positioned XML parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub kind: ParseErrorKind,
    /// Where in the source it went wrong.
    pub position: Position,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.kind, self.position)
    }
}

impl std::error::Error for ParseError {}
