//! The tree-pattern query model.

use std::fmt;

/// Index of a query node within its [`TreePattern`]. Node 0 is always
/// the pattern root — the returned node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QNodeId(pub u8);

impl QNodeId {
    /// The pattern root (the returned node).
    pub const ROOT: QNodeId = QNodeId(0);

    /// The raw index, usable as a dense array key.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Is this the pattern root?
    pub fn is_root(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for QNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// An XPath axis labelling a pattern edge: `pc` (parent-child) or `ad`
/// (ancestor-descendant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `pc`: `/` in XPath.
    Child,
    /// `ad`: `//` in XPath.
    Descendant,
}

impl Axis {
    /// The XPath spelling of the axis.
    pub fn xpath(&self) -> &'static str {
        match self {
            Axis::Child => "/",
            Axis::Descendant => "//",
        }
    }
}

/// The wildcard node test: matches any element tag. Spelled `*` in
/// queries.
pub const WILDCARD: &str = "*";

/// Most nodes a [`TreePattern`] can hold: the engine packs per-match
/// visited-server sets into a `u64` bitmask.
pub(crate) const MAX_NODES: usize = 64;

/// An attribute predicate on a pattern node: `[@name]` (presence) or
/// `[@name = 'value']` (equality).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttrTest {
    /// Attribute name.
    pub name: String,
    /// Required value; `None` = presence test only.
    pub value: Option<String>,
}

impl AttrTest {
    /// Applies the test to an element's attribute lookup result, as
    /// bytes or as text: equality compares bytes.
    #[inline]
    pub fn matches<V: AsRef<[u8]> + ?Sized>(&self, attribute_value: Option<&V>) -> bool {
        self.matches_bytes(attribute_value.map(AsRef::as_ref))
    }

    fn matches_bytes(&self, attribute_value: Option<&[u8]>) -> bool {
        match (&self.value, attribute_value) {
            (_, None) => false,
            (None, Some(_)) => true,
            (Some(want), Some(got)) => want.as_bytes() == got,
        }
    }
}

/// A content predicate on a pattern leaf (tag *and value*, as in the
/// paper's Figure 2 leaves such as `title (wodehouse)`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ValueTest {
    /// Element's direct text equals the value (whitespace-trimmed).
    Eq(String),
    /// Element's direct text contains the value as a substring.
    Contains(String),
}

impl ValueTest {
    /// Applies the test to an element's direct text content, as bytes
    /// or as text. Over UTF-8 a byte comparison and a byte substring
    /// search agree with the `str` ones; over other bytes they still
    /// give an answer.
    #[inline]
    pub fn matches<T: AsRef<[u8]> + ?Sized>(&self, text: Option<&T>) -> bool {
        self.matches_bytes(text.map(AsRef::as_ref))
    }

    /// The comparison, one body for every caller's type.
    fn matches_bytes(&self, text: Option<&[u8]>) -> bool {
        match (self, text) {
            (ValueTest::Eq(v), Some(t)) => t == v.as_bytes(),
            (ValueTest::Contains(v), Some(t)) => contains(t, v.as_bytes()),
            (_, None) => false,
        }
    }
}

/// Whether `needle` occurs in `haystack`.
fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    needle.is_empty() || haystack.windows(needle.len()).any(|w| w == needle)
}

/// One node of a tree pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PatternNode {
    /// Element tag this node must match ([`WILDCARD`] matches any).
    pub tag: String,
    /// Optional content predicate.
    pub value: Option<ValueTest>,
    /// Attribute predicates (all must hold).
    pub attrs: Vec<AttrTest>,
    /// Parent query node; `None` only for the root.
    pub parent: Option<QNodeId>,
    /// Axis of the edge from the parent (for the root: the axis from the
    /// synthetic document root, i.e. `/a` vs `//a`).
    pub axis: Axis,
    /// Children in insertion order.
    pub children: Vec<QNodeId>,
}

/// A tree-pattern query: "an expressive subset of XPath" (paper §2).
///
/// The root (node 0) is the returned node. Every other node constrains
/// the answer through the axis path connecting it to the root.
#[derive(Clone, PartialEq, Eq)]
pub struct TreePattern {
    nodes: Vec<PatternNode>,
}

impl TreePattern {
    /// Creates a pattern containing only a root node.
    ///
    /// `root_axis` is the axis from the synthetic document root:
    /// [`Axis::Child`] for `/tag`, [`Axis::Descendant`] for `//tag`.
    pub fn new(root_tag: impl Into<String>, root_axis: Axis) -> Self {
        TreePattern {
            nodes: vec![PatternNode {
                tag: root_tag.into(),
                value: None,
                attrs: Vec::new(),
                parent: None,
                axis: root_axis,
                children: Vec::new(),
            }],
        }
    }

    /// Adds a node under `parent` and returns its id.
    ///
    /// # Panics
    /// Panics if the pattern already has 64 nodes (the engine packs
    /// per-match visited-server sets into a `u64` bitmask) or if
    /// `parent` is out of range. [`parse_pattern`](crate::parse_pattern)
    /// checks the count first and returns an error instead.
    pub fn add_node(
        &mut self,
        parent: QNodeId,
        axis: Axis,
        tag: impl Into<String>,
        value: Option<ValueTest>,
    ) -> QNodeId {
        assert!(
            self.nodes.len() < MAX_NODES,
            "tree patterns are limited to {MAX_NODES} nodes"
        );
        assert!(parent.index() < self.nodes.len(), "parent out of range");
        let id = QNodeId(self.nodes.len() as u8);
        self.nodes.push(PatternNode {
            tag: tag.into(),
            value,
            attrs: Vec::new(),
            parent: Some(parent),
            axis,
            children: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Adds an attribute predicate to `node`.
    pub fn add_attr_test(&mut self, node: QNodeId, test: AttrTest) {
        self.nodes[node.index()].attrs.push(test);
    }

    /// Does `tag` satisfy this node's tag test (named tag or wildcard)?
    pub fn tag_matches(&self, node: QNodeId, tag: &str) -> bool {
        let t = &self.nodes[node.index()].tag;
        t == WILDCARD || t == tag
    }

    /// The returned node.
    pub fn root(&self) -> QNodeId {
        QNodeId::ROOT
    }

    /// Number of query nodes (root included).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false: a pattern has at least its root node.
    pub fn is_empty(&self) -> bool {
        false // a pattern always has a root
    }

    /// Borrows a node.
    pub fn node(&self, id: QNodeId) -> &PatternNode {
        &self.nodes[id.index()]
    }

    /// All node ids, root first, in insertion (pre-order-compatible) order.
    pub fn node_ids(&self) -> impl Iterator<Item = QNodeId> {
        (0..self.nodes.len() as u8).map(QNodeId)
    }

    /// Non-root node ids — one evaluation *server* per entry (paper §5.1:
    /// "servers, one for each node in the XPath tree pattern" besides the
    /// root generator).
    pub fn server_ids(&self) -> impl Iterator<Item = QNodeId> {
        (1..self.nodes.len() as u8).map(QNodeId)
    }

    /// True iff `anc` is a proper ancestor of `desc` in the pattern.
    pub fn is_pattern_ancestor(&self, anc: QNodeId, desc: QNodeId) -> bool {
        let mut cur = self.nodes[desc.index()].parent;
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.nodes[p.index()].parent;
        }
        false
    }

    /// The path of `(axis, node)` steps from `from` down to `to`,
    /// assuming `from` is an ancestor of `to` (or `to` itself, giving an
    /// empty path). Returns `None` if `from` is not an ancestor-or-self
    /// of `to`.
    pub fn path_between(&self, from: QNodeId, to: QNodeId) -> Option<Vec<(Axis, QNodeId)>> {
        let mut rev = Vec::new();
        let mut cur = to;
        while cur != from {
            let node = &self.nodes[cur.index()];
            rev.push((node.axis, cur));
            cur = node.parent?;
        }
        rev.reverse();
        Some(rev)
    }

    /// Depth of a node in the pattern (root = 0).
    pub fn depth(&self, id: QNodeId) -> usize {
        let mut d = 0;
        let mut cur = self.nodes[id.index()].parent;
        while let Some(p) = cur {
            d += 1;
            cur = self.nodes[p.index()].parent;
        }
        d
    }

    /// Leaves of the pattern (nodes with no children).
    pub fn leaves(&self) -> impl Iterator<Item = QNodeId> + '_ {
        self.node_ids()
            .filter(|id| self.nodes[id.index()].children.is_empty())
    }

    /// A canonical text form: children are serialized sorted, so two
    /// patterns equal up to sibling reordering canonicalize identically.
    /// Used to deduplicate the relaxation closure.
    pub fn canonical_form(&self) -> String {
        let mut s = String::new();
        self.canonicalize_into(QNodeId::ROOT, &mut s);
        s
    }

    fn canonicalize_into(&self, id: QNodeId, out: &mut String) {
        let node = &self.nodes[id.index()];
        out.push_str(node.axis.xpath());
        out.push_str(&node.tag);
        let mut attrs: Vec<String> = node
            .attrs
            .iter()
            .map(|a| match &a.value {
                Some(v) => format!("@{}='{}'", a.name, v),
                None => format!("@{}", a.name),
            })
            .collect();
        attrs.sort();
        for a in attrs {
            out.push('{');
            out.push_str(&a);
            out.push('}');
        }
        match &node.value {
            Some(ValueTest::Eq(v)) => {
                out.push_str("='");
                out.push_str(v);
                out.push('\'');
            }
            Some(ValueTest::Contains(v)) => {
                out.push_str("~'");
                out.push_str(v);
                out.push('\'');
            }
            None => {}
        }
        if !node.children.is_empty() {
            let mut parts: Vec<String> = node
                .children
                .iter()
                .map(|&c| {
                    let mut s = String::new();
                    self.canonicalize_into(c, &mut s);
                    s
                })
                .collect();
            parts.sort();
            out.push('[');
            out.push_str(&parts.join(" and "));
            out.push(']');
        }
    }
}

impl fmt::Debug for TreePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TreePattern({})", self)
    }
}

impl fmt::Display for TreePattern {
    /// Renders the pattern in XPath-like syntax (children in insertion
    /// order, unlike [`TreePattern::canonical_form`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(p: &TreePattern, id: QNodeId, top: bool, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let node = p.node(id);
            if top {
                write!(f, "{}{}", node.axis.xpath(), node.tag)?;
            } else {
                let dot = ".";
                write!(f, "{}{}{}", dot, node.axis.xpath(), node.tag)?;
            }
            for a in &node.attrs {
                match &a.value {
                    Some(v) => write!(f, "[@{} = '{}']", a.name, v)?,
                    None => write!(f, "[@{}]", a.name)?,
                }
            }
            if let Some(v) = &node.value {
                match v {
                    ValueTest::Eq(v) => write!(f, " = '{v}'")?,
                    ValueTest::Contains(v) => write!(f, " ~ '{v}'")?,
                }
            }
            if !node.children.is_empty() {
                write!(f, "[")?;
                for (i, &c) in node.children.iter().enumerate() {
                    if i > 0 {
                        write!(f, " and ")?;
                    }
                    rec(p, c, false, f)?;
                }
                write!(f, "]")?;
            }
            Ok(())
        }
        rec(self, QNodeId::ROOT, true, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the paper's Figure 2(a) query:
    /// `/book[./title = 'wodehouse' and ./info/publisher/name = 'psmith']`
    fn fig2a() -> TreePattern {
        let mut p = TreePattern::new("book", Axis::Child);
        p.add_node(
            p.root(),
            Axis::Child,
            "title",
            Some(ValueTest::Eq("wodehouse".into())),
        );
        let info = p.add_node(p.root(), Axis::Child, "info", None);
        let publisher = p.add_node(info, Axis::Child, "publisher", None);
        p.add_node(
            publisher,
            Axis::Child,
            "name",
            Some(ValueTest::Eq("psmith".into())),
        );
        p
    }

    #[test]
    fn structure_accessors() {
        let p = fig2a();
        assert_eq!(p.len(), 5);
        assert_eq!(p.node(QNodeId(0)).tag, "book");
        assert_eq!(p.node(QNodeId(1)).tag, "title");
        assert_eq!(p.server_ids().count(), 4);
        assert_eq!(p.depth(QNodeId(4)), 3);
        let leaves: Vec<_> = p.leaves().collect();
        assert_eq!(leaves, vec![QNodeId(1), QNodeId(4)]);
    }

    #[test]
    fn pattern_ancestry() {
        let p = fig2a();
        assert!(p.is_pattern_ancestor(QNodeId(0), QNodeId(4)));
        assert!(p.is_pattern_ancestor(QNodeId(2), QNodeId(3)));
        assert!(!p.is_pattern_ancestor(QNodeId(1), QNodeId(4)));
        assert!(!p.is_pattern_ancestor(QNodeId(4), QNodeId(0)));
    }

    #[test]
    fn path_between_composes_edges() {
        let p = fig2a();
        let path = p.path_between(QNodeId(0), QNodeId(4)).unwrap();
        let tags: Vec<_> = path
            .iter()
            .map(|(_, id)| p.node(*id).tag.as_str())
            .collect();
        assert_eq!(tags, vec!["info", "publisher", "name"]);
        assert!(p.path_between(QNodeId(1), QNodeId(4)).is_none());
        assert_eq!(p.path_between(QNodeId(2), QNodeId(2)).unwrap().len(), 0);
    }

    #[test]
    fn display_is_readable() {
        let p = fig2a();
        assert_eq!(
            p.to_string(),
            "/book[./title = 'wodehouse' and ./info[./publisher[./name = 'psmith']]]"
        );
    }

    #[test]
    fn canonical_form_ignores_sibling_order() {
        let mut a = TreePattern::new("r", Axis::Descendant);
        a.add_node(a.root(), Axis::Child, "x", None);
        a.add_node(a.root(), Axis::Descendant, "y", None);

        let mut b = TreePattern::new("r", Axis::Descendant);
        b.add_node(b.root(), Axis::Descendant, "y", None);
        b.add_node(b.root(), Axis::Child, "x", None);

        assert_eq!(a.canonical_form(), b.canonical_form());
        assert_ne!(a.to_string(), b.to_string());
    }

    #[test]
    fn value_tests() {
        assert!(ValueTest::Eq("x".into()).matches(Some("x")));
        assert!(!ValueTest::Eq("x".into()).matches(Some("xy")));
        assert!(!ValueTest::Eq("x".into()).matches(None::<&str>));
        assert!(ValueTest::Contains("od".into()).matches(Some("wodehouse")));
        assert!(!ValueTest::Contains("zz".into()).matches(Some("wodehouse")));
        assert!(ValueTest::Contains(String::new()).matches(Some("")));
        assert!(!ValueTest::Contains("wodehouses".into()).matches(Some("wodehouse")));
        // Bytes that are not UTF-8 compare as bytes.
        assert!(ValueTest::Contains("x".into()).matches(Some(&b"\xffx\xfe"[..])));
        assert!(!ValueTest::Eq("x".into()).matches(Some(&b"x\xff"[..])));
        let id = AttrTest {
            name: "id".into(),
            value: Some("i1".into()),
        };
        assert!(id.matches(Some("i1")));
        assert!(id.matches(Some(&b"i1"[..])));
        assert!(!id.matches(Some(&b"i1\xff"[..])));
        assert!(!id.matches(None::<&str>));
    }
}
