//! Parser for the XPath subset the paper's queries use.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! Query    := ('/' | '//') Name Predicate?
//! Predicate:= '[' RelPath ('and' RelPath)* ']'
//! RelPath  := '.'? ('/' | '//') Name (('/' | '//') Name)* Predicate? ValueTest?
//! ValueTest:= '=' Literal
//! Literal  := '\'' chars '\'' | '"' chars '"'
//! ```
//!
//! This covers all queries in the paper, e.g.
//! `/book[.//title = 'wodehouse' and ./info/publisher/name = 'psmith']`
//! and `//item[./mailbox/mail/text[./bold and ./keyword] and ./name]`.
//!
//! The returned node is the single absolute step (the paper's tree
//! patterns are rooted at the returned node); multi-step absolute paths
//! are rejected with an explanatory error.

use crate::ast::{AttrTest, Axis, QNodeId, TreePattern, ValueTest, MAX_NODES};
use std::fmt;

/// Error produced by [`parse_pattern`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternParseError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Byte offset into the query string.
    pub offset: usize,
}

impl fmt::Display for PatternParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for PatternParseError {}

/// Parses an XPath-subset query into a [`TreePattern`].
///
/// # Example
/// ```
/// use whirlpool_pattern::parse_pattern;
/// let q = parse_pattern("//item[./description/parlist]").unwrap();
/// assert_eq!(q.len(), 3);
/// assert_eq!(q.node(q.root()).tag, "item");
/// ```
pub fn parse_pattern(input: &str) -> Result<TreePattern, PatternParseError> {
    let mut p = P { src: input, pos: 0 };
    p.skip_ws();
    let axis = p
        .parse_axis()?
        .ok_or_else(|| p.err("query must start with '/' or '//'"))?;
    let name = p.parse_name()?;
    let mut pattern = TreePattern::new(name, axis);
    p.skip_ws();
    // XPath allows chained predicate blocks: a[.x][.y] = a[.x and .y].
    while p.peek() == Some('[') {
        p.parse_predicate(&mut pattern, QNodeId::ROOT)?;
        p.skip_ws();
    }
    if p.peek() == Some('/') {
        return Err(p.err(
            "multi-step absolute paths are not supported: the tree-pattern root is the returned \
             node; express further steps as predicates, e.g. /a[./b] instead of /a/b",
        ));
    }
    if p.pos < p.src.len() {
        return Err(p.err("trailing input after query"));
    }
    Ok(pattern)
}

struct P<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> P<'a> {
    fn err(&self, message: impl Into<String>) -> PatternParseError {
        PatternParseError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.src[self.pos..].starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    /// Parses `/` or `//` if present.
    fn parse_axis(&mut self) -> Result<Option<Axis>, PatternParseError> {
        if self.eat("//") {
            Ok(Some(Axis::Descendant))
        } else if self.eat("/") {
            Ok(Some(Axis::Child))
        } else {
            Ok(None)
        }
    }

    fn parse_name(&mut self) -> Result<String, PatternParseError> {
        // The wildcard node test.
        if self.peek() == Some('*') {
            self.bump();
            return Ok(crate::ast::WILDCARD.to_string());
        }
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || c == '_' || c == '-' || c == ':')
        {
            self.bump();
        }
        if self.pos == start {
            return Err(self.err("expected an element name"));
        }
        Ok(self.src[start..self.pos].to_string())
    }

    /// Parses `[ Item (and Item)* ]` where an item is a relative path
    /// or an attribute test (`@name`, `@name = 'v'`), attaching to
    /// `context`.
    fn parse_predicate(
        &mut self,
        pattern: &mut TreePattern,
        context: QNodeId,
    ) -> Result<(), PatternParseError> {
        assert_eq!(self.bump(), Some('['));
        loop {
            self.skip_ws();
            if self.peek() == Some('@') {
                self.parse_attr_test(pattern, context)?;
            } else {
                self.parse_rel_path(pattern, context)?;
            }
            self.skip_ws();
            if self.eat("and") {
                continue;
            }
            break;
        }
        self.skip_ws();
        if !self.eat("]") {
            return Err(self.err("expected ']' or 'and'"));
        }
        Ok(())
    }

    /// Parses `@name` or `@name = 'value'` as a test on `context`.
    fn parse_attr_test(
        &mut self,
        pattern: &mut TreePattern,
        context: QNodeId,
    ) -> Result<(), PatternParseError> {
        assert_eq!(self.bump(), Some('@'));
        let name = self.parse_name()?;
        if name == crate::ast::WILDCARD {
            return Err(self.err("attribute names cannot be wildcards"));
        }
        self.skip_ws();
        let value = if self.peek() == Some('=') {
            self.bump();
            self.skip_ws();
            Some(self.parse_literal()?)
        } else {
            None
        };
        pattern.add_attr_test(context, AttrTest { name, value });
        Ok(())
    }

    /// Parses one relative path inside a predicate, attaching its node
    /// chain under `context`.
    fn parse_rel_path(
        &mut self,
        pattern: &mut TreePattern,
        context: QNodeId,
    ) -> Result<(), PatternParseError> {
        // Optional leading '.' as in './a' and './/a'.
        if self.peek() == Some('.') {
            self.bump();
        }
        let mut current = context;
        let mut first = true;
        loop {
            let step = self.pos;
            let axis = match self.parse_axis()? {
                Some(a) => a,
                None if first => return Err(self.err("expected './', './/', '/' or '//'")),
                None => break,
            };
            first = false;
            let name = self.parse_name()?;
            // `add_node` panics past the cap; query text comes from
            // outside, so the parser refuses it with an error. Every
            // level of predicate nesting adds a node first, so the cap
            // also bounds this parser's recursion — XPath needs no
            // separate depth limit.
            if pattern.len() == MAX_NODES {
                return Err(PatternParseError {
                    message: format!("tree patterns are limited to {MAX_NODES} nodes"),
                    offset: step,
                });
            }
            current = pattern.add_node(current, axis, name, None);
            self.skip_ws();
            if self.peek() == Some('[') {
                while self.peek() == Some('[') {
                    self.parse_predicate(pattern, current)?;
                    self.skip_ws();
                }
                // Steps cannot continue after a nested predicate in this
                // subset.
                break;
            }
            self.skip_ws();
            if self.peek() == Some('=') {
                self.bump();
                self.skip_ws();
                let value = self.parse_literal()?;
                // Attach the value test to the node just created.
                // TreePattern doesn't expose node mutation; rebuild via
                // internal access below.
                set_value(pattern, current, ValueTest::Eq(value));
                break;
            }
            if !matches!(self.peek(), Some('/')) {
                break;
            }
        }
        Ok(())
    }

    fn parse_literal(&mut self) -> Result<String, PatternParseError> {
        let quote = match self.peek() {
            Some(q @ ('\'' | '"')) => {
                self.bump();
                q
            }
            _ => return Err(self.err("expected a quoted literal")),
        };
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c != quote) {
            self.bump();
        }
        if self.peek().is_none() {
            return Err(self.err("unterminated literal"));
        }
        let value = self.src[start..self.pos].to_string();
        self.bump(); // closing quote
        Ok(value)
    }
}

/// Sets a node's value test after construction (parser-internal helper).
fn set_value(pattern: &mut TreePattern, id: QNodeId, value: ValueTest) {
    // Rebuild the pattern with the value attached: patterns are tiny
    // (≤ 64 nodes), and keeping `TreePattern`'s public surface immutable
    // except for `add_node` preserves its invariants.
    let mut rebuilt = TreePattern::new(
        pattern.node(QNodeId::ROOT).tag.clone(),
        pattern.node(QNodeId::ROOT).axis,
    );
    if id == QNodeId::ROOT {
        set_root_value(&mut rebuilt, value.clone());
    }
    for qid in pattern.node_ids().skip(1) {
        let node = pattern.node(qid);
        let v = if qid == id {
            Some(value.clone())
        } else {
            node.value.clone()
        };
        let new_id = rebuilt.add_node(node.parent.unwrap(), node.axis, node.tag.clone(), v);
        debug_assert_eq!(new_id, qid);
    }
    *pattern = rebuilt;
}

fn set_root_value(pattern: &mut TreePattern, _value: ValueTest) {
    // Value tests on the returned node are not part of the paper's query
    // set; the parser grammar cannot produce them either ('=' only
    // appears inside predicates). Unreachable by construction.
    let _ = pattern;
    unreachable!("value test on the pattern root");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Axis;

    #[test]
    fn parses_q1() {
        let q = parse_pattern("//item[./description/parlist]").unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.node(QNodeId(0)).tag, "item");
        assert_eq!(q.node(QNodeId(0)).axis, Axis::Descendant);
        assert_eq!(q.node(QNodeId(1)).tag, "description");
        assert_eq!(q.node(QNodeId(1)).axis, Axis::Child);
        assert_eq!(q.node(QNodeId(2)).tag, "parlist");
        assert_eq!(q.node(QNodeId(2)).parent, Some(QNodeId(1)));
    }

    #[test]
    fn parses_q2() {
        let q = parse_pattern("//item[./description/parlist and ./mailbox/mail/text]").unwrap();
        assert_eq!(q.len(), 6);
        let tags: Vec<_> = q.node_ids().map(|id| q.node(id).tag.clone()).collect();
        assert_eq!(
            tags,
            vec!["item", "description", "parlist", "mailbox", "mail", "text"]
        );
    }

    #[test]
    fn parses_q3_with_nested_predicate() {
        let q = parse_pattern(
            "//item[./mailbox/mail/text[./bold and ./keyword] and ./name and ./incategory]",
        )
        .unwrap();
        assert_eq!(q.len(), 8);
        // text has two children: bold and keyword.
        let text = q.node_ids().find(|&id| q.node(id).tag == "text").unwrap();
        let child_tags: Vec<_> = q
            .node(text)
            .children
            .iter()
            .map(|&c| q.node(c).tag.clone())
            .collect();
        assert_eq!(child_tags, vec!["bold", "keyword"]);
        // name and incategory hang off the root.
        let root_children: Vec<_> = q
            .node(q.root())
            .children
            .iter()
            .map(|&c| q.node(c).tag.clone())
            .collect();
        assert_eq!(root_children, vec!["mailbox", "name", "incategory"]);
    }

    #[test]
    fn parses_value_tests() {
        let q = parse_pattern("/book[.//title = 'wodehouse' and ./info/publisher/name = 'psmith']")
            .unwrap();
        assert_eq!(q.len(), 5);
        let title = q.node_ids().find(|&id| q.node(id).tag == "title").unwrap();
        assert_eq!(q.node(title).axis, Axis::Descendant);
        assert_eq!(q.node(title).value, Some(ValueTest::Eq("wodehouse".into())));
        let name = q.node_ids().find(|&id| q.node(id).tag == "name").unwrap();
        assert_eq!(q.node(name).value, Some(ValueTest::Eq("psmith".into())));
    }

    #[test]
    fn parses_double_quotes_and_whitespace() {
        let q = parse_pattern("  /a[ ./b = \"v w\" and .//c ]  ").unwrap();
        assert_eq!(q.len(), 3);
        let b = QNodeId(1);
        assert_eq!(q.node(b).value, Some(ValueTest::Eq("v w".into())));
    }

    #[test]
    fn roundtrips_through_display() {
        for src in [
            "//item[./description[./parlist]]",
            "/book[./title = 'wodehouse' and ./info[./publisher[./name = 'psmith']]]",
        ] {
            let q = parse_pattern(src).unwrap();
            let q2 = parse_pattern(&q.to_string()).unwrap();
            assert_eq!(q.canonical_form(), q2.canonical_form());
        }
    }

    #[test]
    fn rejects_multi_step_absolute_paths() {
        let err = parse_pattern("/a/b").unwrap_err();
        assert!(err.message.contains("multi-step"), "{err}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_pattern("").is_err());
        assert!(parse_pattern("item").is_err());
        assert!(parse_pattern("//item[").is_err());
        assert!(parse_pattern("//item[./a").is_err());
        assert!(parse_pattern("//item[./a = 'x]").is_err());
        assert!(parse_pattern("//item]").is_err());
        assert!(parse_pattern("//item[and]").is_err());
    }

    #[test]
    fn node_count_is_capped_with_an_error_not_a_panic() {
        // A root plus `extra` nodes, as nested predicates, as one chain
        // of steps, and as a flat conjunction.
        let nested = |extra: usize| format!("//a{}{}", "[./a".repeat(extra), "]".repeat(extra));
        let chain = |extra: usize| format!("//a[.{}]", "/a".repeat(extra));
        let flat = |extra: usize| format!("//a[{}]", vec!["./a"; extra].join(" and "));
        for shape in [&nested as &dyn Fn(usize) -> String, &chain, &flat] {
            assert_eq!(
                parse_pattern(&shape(MAX_NODES - 1)).unwrap().len(),
                MAX_NODES
            );
            let src = shape(MAX_NODES);
            let err = parse_pattern(&src).unwrap_err();
            assert!(err.message.contains("limited to 64 nodes"), "{err}");
            assert!(src[err.offset..].starts_with("/a"), "{err}");
        }
        // Far past the cap the parser has long stopped recursing.
        assert!(parse_pattern(&nested(100_000)).is_err());
    }

    #[test]
    fn error_carries_offset() {
        let err = parse_pattern("//item[./a ??]").unwrap_err();
        assert!(err.offset >= 10, "{err:?}");
    }
}
