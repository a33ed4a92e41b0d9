//! Evaluation contexts.
//!
//! XPath expressions are evaluated relative to a *context*: a triple of a
//! context node, a context position and a context size (XPath 1.0 §1, and
//! Section 2.2 of the paper).  The dynamic-programming evaluator memoizes on
//! [`ContextKey`]s: subexpressions that do not mention `position()`/`last()`
//! only depend on the context node, which is what keeps the number of
//! distinct table entries — and hence the combined complexity — polynomial.
//! Subexpressions that do not depend on the context at all (literals,
//! variables, absolute paths and what is built from them) get one row.

use xpeval_dom::{Document, NodeId};

/// A context triple `(node, position, size)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Context {
    /// The context node.
    pub node: NodeId,
    /// The context position (1-based).
    pub position: usize,
    /// The context size.
    pub size: usize,
}

impl Context {
    /// Creates a context triple.
    pub fn new(node: NodeId, position: usize, size: usize) -> Self {
        Context {
            node,
            position,
            size,
        }
    }

    /// The canonical initial context for evaluating a complete query on a
    /// document: the conceptual root with position and size 1.
    pub fn root(doc: &Document) -> Self {
        Context {
            node: doc.root(),
            position: 1,
            size: 1,
        }
    }

    /// Context with the same position/size but a different node.
    pub fn with_node(self, node: NodeId) -> Self {
        Context { node, ..self }
    }
}

/// Memoization key of the context-value tables: the full triple (for
/// position-sensitive subexpressions), just the context node, or nothing
/// at all (for context-free subexpressions).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ContextKey {
    /// The subexpression has one value for every context.
    Free,
    /// The subexpression's value depends only on the context node.
    Node(NodeId),
    /// The subexpression's value depends on the full context triple.
    Full(NodeId, usize, usize),
}

impl ContextKey {
    /// Builds the appropriate key for a context given the subexpression's
    /// position-sensitivity.
    pub fn for_context(ctx: Context, position_sensitive: bool) -> Self {
        if position_sensitive {
            ContextKey::Full(ctx.node, ctx.position, ctx.size)
        } else {
            ContextKey::Node(ctx.node)
        }
    }

    /// Like [`ContextKey::for_context`], but collapsing to
    /// [`ContextKey::Free`] for a context-free subexpression.
    pub fn for_op(ctx: Context, position_sensitive: bool, context_free: bool) -> Self {
        if context_free {
            ContextKey::Free
        } else {
            ContextKey::for_context(ctx, position_sensitive)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpeval_dom::parse_xml;

    #[test]
    fn root_context() {
        let doc = parse_xml("<a/>").unwrap();
        let ctx = Context::root(&doc);
        assert_eq!(ctx.node, doc.root());
        assert_eq!(ctx.position, 1);
        assert_eq!(ctx.size, 1);
    }

    #[test]
    fn with_node_keeps_position() {
        let doc = parse_xml("<a/>").unwrap();
        let a = doc.first_child(doc.root()).unwrap();
        let ctx = Context::new(doc.root(), 3, 7).with_node(a);
        assert_eq!(ctx.node, a);
        assert_eq!(ctx.position, 3);
        assert_eq!(ctx.size, 7);
    }

    #[test]
    fn context_key_collapses_when_insensitive() {
        let doc = parse_xml("<a/>").unwrap();
        let a = doc.first_child(doc.root()).unwrap();
        let c1 = Context::new(a, 1, 10);
        let c2 = Context::new(a, 5, 10);
        assert_eq!(
            ContextKey::for_context(c1, false),
            ContextKey::for_context(c2, false)
        );
        assert_ne!(
            ContextKey::for_context(c1, true),
            ContextKey::for_context(c2, true)
        );
        // A context-free key ignores the node as well.
        let c3 = Context::new(doc.root(), 1, 1);
        assert_eq!(ContextKey::for_op(c1, false, true), ContextKey::Free);
        assert_eq!(
            ContextKey::for_op(c3, false, true),
            ContextKey::for_op(c2, false, true)
        );
        assert_eq!(
            ContextKey::for_op(c2, true, false),
            ContextKey::for_context(c2, true)
        );
    }
}
