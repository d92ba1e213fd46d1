//! Axis composition algebra.
//!
//! The paper's component predicates (Definition 4.1) relate the returned
//! node to every other query node by *composing* the axes along the
//! pattern path between them: for
//! `/a[./c[.//d]]` the component predicate between `a` and `d` is
//! `a[.//d]` — `pc` composed with `ad` is `ad`. A chain of `pc` edges
//! composes to "descendant at exactly this depth", which the index's
//! structural columns decide with one containment and one depth compare.

use crate::ast::Axis;

/// The composition of a path of `pc`/`ad` axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComposedAxis {
    /// A chain of exactly `n ≥ 1` `pc` edges: descendant at exactly depth
    /// `n`. `ChildChain(1)` is plain `pc`.
    ChildChain(u32),
    /// At least one `ad` edge somewhere in the path: any proper
    /// descendant (conservatively, as in the paper's `a[.//d]` example).
    Descendant,
}

impl ComposedAxis {
    /// The identity-ish start of a composition: a single axis.
    pub fn from_axis(axis: Axis) -> Self {
        match axis {
            Axis::Child => ComposedAxis::ChildChain(1),
            Axis::Descendant => ComposedAxis::Descendant,
        }
    }

    /// Composes `self` (upper path segment) with one more `axis` step
    /// below it.
    pub fn then(self, axis: Axis) -> Self {
        match (self, axis) {
            (ComposedAxis::ChildChain(n), Axis::Child) => ComposedAxis::ChildChain(n + 1),
            _ => ComposedAxis::Descendant,
        }
    }

    /// Composes a whole path of axes. Empty paths are not meaningful for
    /// component predicates; `None` is returned for them.
    pub fn compose(path: &[Axis]) -> Option<Self> {
        let mut iter = path.iter();
        let first = ComposedAxis::from_axis(*iter.next()?);
        Some(iter.fold(first, |acc, &a| acc.then(a)))
    }

    /// The fully relaxed form (after edge generalization and subtree
    /// promotion every structural constraint weakens to
    /// ancestor-descendant).
    pub fn relaxed(self) -> Self {
        ComposedAxis::Descendant
    }

    /// True iff this is already the weakest form.
    pub fn is_relaxed(self) -> bool {
        matches!(self, ComposedAxis::Descendant)
    }

    /// The number of `pc` steps, if this is a pure child chain.
    pub fn exact_depth(self) -> Option<u32> {
        match self {
            ComposedAxis::ChildChain(n) => Some(n),
            ComposedAxis::Descendant => None,
        }
    }

    /// XPath-like rendering: `/` for `pc`, `/*/` chains for deeper exact
    /// compositions, `//` for descendant.
    pub fn xpath(self) -> String {
        match self {
            ComposedAxis::ChildChain(1) => "/".to_string(),
            ComposedAxis::ChildChain(n) => {
                let mut s = String::new();
                for _ in 1..n {
                    s.push_str("/*");
                }
                s.push('/');
                s
            }
            ComposedAxis::Descendant => "//".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composition_rules() {
        use Axis::*;
        assert_eq!(
            ComposedAxis::compose(&[Child]),
            Some(ComposedAxis::ChildChain(1))
        );
        assert_eq!(
            ComposedAxis::compose(&[Child, Child]),
            Some(ComposedAxis::ChildChain(2))
        );
        // The paper's example: pc ∘ ad = ad  (a[./c[.//d]] ⇒ a[.//d]).
        assert_eq!(
            ComposedAxis::compose(&[Child, Descendant]),
            Some(ComposedAxis::Descendant)
        );
        assert_eq!(
            ComposedAxis::compose(&[Descendant, Child]),
            Some(ComposedAxis::Descendant)
        );
        assert_eq!(ComposedAxis::compose(&[]), None);
    }

    #[test]
    fn exact_implies_relaxed() {
        // Relaxing drops the depth constraint and is idempotent; only a
        // pure child chain keeps an exact depth.
        for axis in [
            ComposedAxis::ChildChain(1),
            ComposedAxis::ChildChain(2),
            ComposedAxis::ChildChain(3),
            ComposedAxis::Descendant,
        ] {
            assert!(axis.relaxed().is_relaxed());
            assert_eq!(axis.relaxed().relaxed(), axis.relaxed());
            assert_eq!(axis.relaxed().exact_depth(), None);
            assert_eq!(axis.is_relaxed(), axis.exact_depth().is_none());
        }
        assert_eq!(ComposedAxis::ChildChain(3).exact_depth(), Some(3));
    }

    #[test]
    fn xpath_rendering() {
        assert_eq!(ComposedAxis::ChildChain(1).xpath(), "/");
        assert_eq!(ComposedAxis::ChildChain(3).xpath(), "/*/*/");
        assert_eq!(ComposedAxis::Descendant.xpath(), "//");
    }
}
