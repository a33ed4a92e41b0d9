//! Linear-time evaluator for Core XPath.
//!
//! Proposition 2.7 of the paper: Core XPath queries can be evaluated in time
//! `O(|D| · |Q|)`.  The algorithm (from Gottlob & Koch's VLDB'02 paper) works
//! *set-at-a-time*: node sets are bitsets over the document, every location
//! step is a single image computation under the axis relation (O(|D|) per
//! step), and conditions are evaluated bottom-up as the set of nodes at
//! which they hold — negation is simply bitset complement, which is why this
//! evaluator handles full Core XPath including `not(..)`.
//!
//! The trick that avoids quadratic behaviour for predicates is to evaluate
//! the relative paths inside conditions *backwards* through inverse axes:
//! `sat(χ1::t1/χ2::t2/…)` — the set of nodes from which the path matches at
//! least one node — is computed right-to-left with one inverse-axis image
//! per step.

use crate::error::EvalError;
use crate::stats::EvalStats;
use std::borrow::Cow;
use std::cell::Cell;
use xpeval_dom::{Axis, AxisSource, Document, NodeId, NodeTest};
use xpeval_syntax::{classify, Expr, Fragment, LocationPath, Step};

/// A set of document nodes represented as a bitset over arena indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeBitSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeBitSet {
    /// Empty set over a universe of `len` nodes.
    pub fn empty(len: usize) -> Self {
        NodeBitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Full set over a universe of `len` nodes.
    pub fn full(len: usize) -> Self {
        let mut s = Self::empty(len);
        for i in 0..len {
            s.insert_index(i);
        }
        s
    }

    /// Singleton set.
    pub fn singleton(len: usize, node: NodeId) -> Self {
        let mut s = Self::empty(len);
        s.insert(node);
        s
    }

    #[inline]
    fn insert_index(&mut self, ix: usize) {
        self.words[ix / 64] |= 1 << (ix % 64);
    }

    /// Inserts a node.
    #[inline]
    pub fn insert(&mut self, node: NodeId) {
        self.insert_index(node.index());
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        let ix = node.index();
        ix < self.len && (self.words[ix / 64] >> (ix % 64)) & 1 == 1
    }

    /// Number of nodes in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no node is in the set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &NodeBitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &NodeBitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place complement relative to the universe.
    pub fn complement(&mut self) {
        for w in self.words.iter_mut() {
            *w = !*w;
        }
        // Clear bits beyond the universe.
        let excess = self.words.len() * 64 - self.len;
        if excess > 0 {
            let last = self.words.len() - 1;
            self.words[last] &= u64::MAX >> excess;
        }
    }

    /// The member nodes in arena-index order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len)
            .filter(|&i| (self.words[i / 64] >> (i % 64)) & 1 == 1)
            .map(NodeId::from_index)
    }
}

/// Set-at-a-time Core XPath evaluator.
///
/// Generic over the document access layer: a plain [`Document`] rebuilds
/// the document-order table per evaluator and scans for name tests, a
/// [`xpeval_dom::PreparedDocument`] borrows its precomputed order and
/// answers name tests from the tag index.
pub struct CoreXPathEvaluator<'d, S: AxisSource + ?Sized = Document> {
    src: &'d S,
    doc: &'d Document,
    /// Document order (pre order) listing of all nodes; borrowed from the
    /// prepared index when available.
    order: Cow<'d, [NodeId]>,
    n: usize,
    /// Condition/node-set expressions evaluated (set-at-a-time, so one per
    /// expression node per evaluation).
    evaluations: Cell<u64>,
    /// Location-step applications (one axis image per step, forward or
    /// inverse).
    steps_applied: Cell<u64>,
}

impl<'d, S: AxisSource + ?Sized> CoreXPathEvaluator<'d, S> {
    /// Creates an evaluator for the given document.
    pub fn new(src: &'d S) -> Self {
        let doc = src.document();
        let order = src.document_order();
        let n = doc.len();
        CoreXPathEvaluator {
            src,
            doc,
            order,
            n,
            evaluations: Cell::new(0),
            steps_applied: Cell::new(0),
        }
    }

    /// Work counters accumulated so far: `evaluations` counts set-at-a-time
    /// expression evaluations, `step_context_evaluations` counts location
    /// step applications (each handling all contexts at once).
    pub fn stats(&self) -> EvalStats {
        EvalStats {
            evaluations: self.evaluations.get(),
            step_context_evaluations: self.steps_applied.get(),
            ..EvalStats::default()
        }
    }

    /// Evaluates a Core XPath query starting from the root context and
    /// returns the selected nodes in document order.
    ///
    /// Returns [`EvalError::UnsupportedFragment`] if the query is not in
    /// Core XPath (Definition 2.5).
    pub fn evaluate_query(&self, query: &Expr) -> Result<Vec<NodeId>, EvalError> {
        self.evaluate_from(query, &[self.doc.root()])
    }

    /// Evaluates a Core XPath query from an explicit set of context nodes.
    pub fn evaluate_from(
        &self,
        query: &Expr,
        context_nodes: &[NodeId],
    ) -> Result<Vec<NodeId>, EvalError> {
        let result = self.evaluate_bits(query, context_nodes)?;
        let mut nodes: Vec<NodeId> = result.iter_nodes().collect();
        self.doc.sort_document_order(&mut nodes);
        Ok(nodes)
    }

    /// Evaluates a Core XPath query from explicit context nodes, returning
    /// the raw result **bitset** instead of a materialized vector — the
    /// entry point of the streaming API ([`crate::NodeStream`]).
    pub fn evaluate_bits(
        &self,
        query: &Expr,
        context_nodes: &[NodeId],
    ) -> Result<NodeBitSet, EvalError> {
        self.check_fragment(query)?;
        let mut start = NodeBitSet::empty(self.n);
        for &c in context_nodes {
            start.insert(c);
        }
        self.eval_nodeset(query, &start)
    }

    /// Computes the set of nodes at which a Core XPath condition holds
    /// (`{v : v ∈ [[e]]}` in the notation of the paper's Theorem 3.2 proof).
    pub fn satisfying_nodes(&self, condition: &Expr) -> Result<Vec<NodeId>, EvalError> {
        self.check_fragment(condition)?;
        let sat = self.sat(condition)?;
        let mut nodes: Vec<NodeId> = sat.iter_nodes().collect();
        self.doc.sort_document_order(&mut nodes);
        Ok(nodes)
    }

    fn check_fragment(&self, query: &Expr) -> Result<(), EvalError> {
        let report = classify(query);
        if report.fragment > Fragment::CoreXPath {
            return Err(EvalError::fragment(
                Fragment::CoreXPath,
                format!("a {} construct", report.fragment),
            ));
        }
        Ok(())
    }

    /// Forward evaluation of a node-set expression from a set of context nodes.
    fn eval_nodeset(&self, expr: &Expr, from: &NodeBitSet) -> Result<NodeBitSet, EvalError> {
        self.evaluations.set(self.evaluations.get() + 1);
        match expr {
            Expr::Path(path) => self.eval_path(path, from),
            Expr::Union(a, b) => {
                let mut left = self.eval_nodeset(a, from)?;
                let right = self.eval_nodeset(b, from)?;
                left.union_with(&right);
                Ok(left)
            }
            // The set operators are native bitset operations here — this is
            // the evaluator where `intersect`/`except` are closest to free.
            Expr::Intersect(a, b) => {
                let mut left = self.eval_nodeset(a, from)?;
                let right = self.eval_nodeset(b, from)?;
                left.intersect_with(&right);
                Ok(left)
            }
            Expr::Except(a, b) => {
                let mut left = self.eval_nodeset(a, from)?;
                let mut right = self.eval_nodeset(b, from)?;
                right.complement();
                left.intersect_with(&right);
                Ok(left)
            }
            other => Err(EvalError::fragment(
                Fragment::CoreXPath,
                format!("non-path expression {other} in node-set position"),
            )),
        }
    }

    fn eval_path(&self, path: &LocationPath, from: &NodeBitSet) -> Result<NodeBitSet, EvalError> {
        let mut current = if path.absolute {
            NodeBitSet::singleton(self.n, self.doc.root())
        } else {
            from.clone()
        };
        for step in &path.steps {
            current = self.apply_step_forward(step, &current)?;
        }
        Ok(current)
    }

    /// One forward step: image under the axis, intersected with the node
    /// test and with the satisfaction set of every predicate.
    fn apply_step_forward(&self, step: &Step, from: &NodeBitSet) -> Result<NodeBitSet, EvalError> {
        self.steps_applied.set(self.steps_applied.get() + 1);
        let mut image = self.axis_image(step.axis, from);
        image.intersect_with(&self.test_set(&step.node_test, step.axis));
        for pred in &step.predicates {
            image.intersect_with(&self.sat(pred)?);
        }
        Ok(image)
    }

    /// The satisfaction set of a Core XPath condition: all nodes `v` such
    /// that the condition holds with `v` as the context node.
    fn sat(&self, expr: &Expr) -> Result<NodeBitSet, EvalError> {
        self.evaluations.set(self.evaluations.get() + 1);
        match expr {
            Expr::And(a, b) => {
                let mut l = self.sat(a)?;
                l.intersect_with(&self.sat(b)?);
                Ok(l)
            }
            Expr::Or(a, b) => {
                let mut l = self.sat(a)?;
                l.union_with(&self.sat(b)?);
                Ok(l)
            }
            Expr::Not(e) => {
                let mut s = self.sat(e)?;
                s.complement();
                Ok(s)
            }
            Expr::Union(a, b) => {
                let mut l = self.sat(a)?;
                l.union_with(&self.sat(b)?);
                Ok(l)
            }
            Expr::Path(path) => self.sat_path(path),
            other => Err(EvalError::fragment(
                Fragment::CoreXPath,
                format!("condition {other}"),
            )),
        }
    }

    /// `sat(π)` for a location path condition: the set of context nodes from
    /// which the path selects at least one node.  Computed right-to-left
    /// through inverse axes in O(|D| · #steps).
    fn sat_path(&self, path: &LocationPath) -> Result<NodeBitSet, EvalError> {
        // Nodes that satisfy the suffix starting at step i, i.e. from which
        // steps[i..] select something.  Start with the full universe (empty
        // suffix is always satisfied) and walk backwards.
        let mut suffix_ok = NodeBitSet::full(self.n);
        for step in path.steps.iter().rev() {
            self.steps_applied.set(self.steps_applied.get() + 1);
            // Nodes that match this step's node test and predicates and
            // already satisfy the remaining suffix...
            let mut target = self.test_set(&step.node_test, step.axis);
            for pred in &step.predicates {
                target.intersect_with(&self.sat(pred)?);
            }
            target.intersect_with(&suffix_ok);
            // ...and the nodes from which such a target is reachable via the
            // axis: the image of the target under the inverse axis.
            suffix_ok = self.axis_image(step.axis.inverse(), &target);
        }
        if path.absolute {
            // An absolute path does not depend on the context node: it holds
            // at every node or at none, depending on whether the root
            // satisfies the suffix.
            if suffix_ok.contains(self.doc.root()) {
                Ok(NodeBitSet::full(self.n))
            } else {
                Ok(NodeBitSet::empty(self.n))
            }
        } else {
            Ok(suffix_ok)
        }
    }

    /// All nodes matching a node test (taking the axis' principal node type
    /// into account).
    pub(crate) fn test_set(&self, test: &NodeTest, axis: Axis) -> NodeBitSet {
        // Indexed fast path: a tag-name test on an element-principal axis
        // is exactly the tag index — no per-node string comparison.  A
        // pre-resolved test skips even the one string hash.
        if !axis.principal_is_attribute() {
            let indexed = match test {
                NodeTest::Name(name) => Some(self.src.elements_named(name)),
                NodeTest::Resolved { id: Some(id), .. } => Some(self.src.elements_by_tag(*id)),
                // Resolved-absent still carries the name so evaluation stays
                // correct on sources other than the one it resolved against.
                NodeTest::Resolved { name, id: None } => Some(self.src.elements_named(name)),
                _ => None,
            };
            if let Some(Some(elements)) = indexed {
                let mut s = NodeBitSet::empty(self.n);
                for &node in elements {
                    s.insert(node);
                }
                return s;
            }
        }
        let mut s = NodeBitSet::empty(self.n);
        for node in self.doc.all_nodes() {
            if self.doc.matches_on_axis(node, test, axis) {
                s.insert(node);
            }
        }
        s
    }

    /// Image of a node set under an axis relation, computed in O(|D|).
    pub fn axis_image(&self, axis: Axis, s: &NodeBitSet) -> NodeBitSet {
        let doc = self.doc;
        let mut out = NodeBitSet::empty(self.n);
        match axis {
            Axis::SelfAxis => out = s.clone(),
            Axis::Child => {
                for node in s.iter_nodes() {
                    let mut c = doc.first_child(node);
                    while let Some(ch) = c {
                        out.insert(ch);
                        c = doc.next_sibling(ch);
                    }
                }
            }
            Axis::Parent => {
                for node in s.iter_nodes() {
                    if let Some(p) = doc.parent(node) {
                        out.insert(p);
                    }
                }
            }
            Axis::Attribute => {
                for node in s.iter_nodes() {
                    for &a in doc.attributes(node) {
                        out.insert(a);
                    }
                }
            }
            Axis::Descendant | Axis::DescendantOrSelf => {
                // Preorder sweep: a node is in the image iff its parent is in
                // S or already in the image.
                for &node in self.order.iter() {
                    if let Some(p) = doc.parent(node) {
                        if s.contains(p) || out.contains(p) {
                            out.insert(node);
                        }
                    }
                }
                if axis == Axis::DescendantOrSelf {
                    out.union_with(s);
                }
            }
            Axis::Ancestor | Axis::AncestorOrSelf => {
                // Reverse preorder sweep: a node is in the image iff one of
                // its children is in S or in the image.
                for &node in self.order.iter().rev() {
                    if let Some(p) = doc.parent(node) {
                        if s.contains(node) || out.contains(node) {
                            out.insert(p);
                        }
                    }
                }
                if axis == Axis::AncestorOrSelf {
                    out.union_with(s);
                }
            }
            Axis::FollowingSibling => {
                // Document-order sweep along sibling chains.
                for &node in self.order.iter() {
                    if let Some(prev) = doc.prev_sibling(node) {
                        if s.contains(prev) || out.contains(prev) {
                            out.insert(node);
                        }
                    }
                }
            }
            Axis::PrecedingSibling => {
                for &node in self.order.iter().rev() {
                    if let Some(next) = doc.next_sibling(node) {
                        if s.contains(next) || out.contains(next) {
                            out.insert(node);
                        }
                    }
                }
            }
            Axis::Following => {
                // v is following of some u ∈ S iff pre(v) >= min over u of
                // the end of u's subtree interval (the pre of the first node
                // after the subtree).  The prepared index answers the
                // interval end in O(1); the fallback walks sibling/parent
                // links.
                let mut min_start = u32::MAX;
                for u in s.iter_nodes() {
                    if doc.kind(u).is_attribute() {
                        continue;
                    }
                    min_start = min_start.min(subtree_end(self.src, u));
                }
                if min_start != u32::MAX {
                    // Preorder keys are gapped, so locate the complement
                    // range in the document-order table by binary search.
                    let lo = self.order.partition_point(|&m| doc.pre(m) < min_start);
                    for &node in &self.order[lo..] {
                        if !doc.kind(node).is_attribute() {
                            out.insert(node);
                        }
                    }
                }
            }
            Axis::Preceding => {
                // v precedes some u ∈ S iff u is following of v, i.e. iff
                // the end of v's subtree interval is <= max over u of pre(u).
                // Only nodes with pre < max_pre can satisfy that, so the
                // sweep is one range scan of the document order.
                let mut max_pre = None;
                for u in s.iter_nodes() {
                    if doc.kind(u).is_attribute() {
                        continue;
                    }
                    max_pre = Some(max_pre.map_or(doc.pre(u), |m: u32| m.max(doc.pre(u))));
                }
                if let Some(max_pre) = max_pre {
                    let hi = self.order.partition_point(|&m| doc.pre(m) < max_pre);
                    for &node in &self.order[..hi] {
                        if doc.kind(node).is_attribute() {
                            continue;
                        }
                        if subtree_end(self.src, node) <= max_pre {
                            out.insert(node);
                        }
                    }
                }
            }
        }
        out
    }
}

/// Exclusive end of `n`'s preorder subtree interval in key space: from the
/// prepared index when available, otherwise the preorder key of the first
/// node after the subtree (no node's key falls in the gap between a
/// subtree's exit key and that node, so both bounds separate the same node
/// sets; `u32::MAX` when nothing follows).
pub(crate) fn subtree_end<S: AxisSource + ?Sized>(src: &S, n: NodeId) -> u32 {
    if let Some((_, end)) = src.subtree_interval(n) {
        return end;
    }
    let doc = src.document();
    first_following(doc, n).map_or(u32::MAX, |f| doc.pre(f))
}

/// First node following the whole subtree of `n` in document order.
fn first_following(doc: &Document, n: NodeId) -> Option<NodeId> {
    let mut cur = n;
    loop {
        if let Some(s) = doc.next_sibling(cur) {
            return Some(s);
        }
        cur = doc.parent(cur)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::DpEvaluator;
    use xpeval_dom::parse_xml;
    use xpeval_syntax::parse_query;

    const DOC: &str =
        "<r><a><b><c/></b><b/><d/></a><a><b><c/></b><d/><b><c/></b></a><e><a><b/></a></e></r>";

    fn agree(xml: &str, query: &str) {
        let doc = parse_xml(xml).unwrap();
        let q = parse_query(query).unwrap();
        let core = CoreXPathEvaluator::new(&doc).evaluate_query(&q).unwrap();
        let dp = DpEvaluator::new(&doc, &q)
            .evaluate()
            .unwrap()
            .into_nodes()
            .unwrap();
        assert_eq!(core, dp, "disagreement on {query}");
    }

    #[test]
    fn bitset_operations() {
        let mut s = NodeBitSet::empty(130);
        assert!(s.is_empty());
        s.insert(NodeId::from_index(0));
        s.insert(NodeId::from_index(64));
        s.insert(NodeId::from_index(129));
        assert_eq!(s.count(), 3);
        assert!(s.contains(NodeId::from_index(64)));
        assert!(!s.contains(NodeId::from_index(63)));
        let mut t = NodeBitSet::empty(130);
        t.insert(NodeId::from_index(1));
        t.insert(NodeId::from_index(64));
        let mut u = s.clone();
        u.union_with(&t);
        assert_eq!(u.count(), 4);
        let mut i = s.clone();
        i.intersect_with(&t);
        assert_eq!(i.count(), 1);
        let mut c = s.clone();
        c.complement();
        assert_eq!(c.count(), 130 - 3);
        let full = NodeBitSet::full(130);
        assert_eq!(full.count(), 130);
        assert_eq!(
            NodeBitSet::singleton(130, NodeId::from_index(5))
                .iter_nodes()
                .collect::<Vec<_>>(),
            vec![NodeId::from_index(5)]
        );
    }

    #[test]
    fn agrees_with_dp_on_core_queries() {
        for q in [
            "/descendant::a/child::b",
            "/descendant::a/child::b[descendant::c]",
            "/descendant::a/child::b[descendant::c and not(following-sibling::d)]",
            "//a[not(child::d)]",
            "//b[parent::a and not(descendant::c)]",
            "//a/ancestor-or-self::*",
            "//c/preceding::b",
            "//b/following::d",
            "//b/following-sibling::*",
            "//d/preceding-sibling::b",
            "//a[child::b or child::d]/child::b",
            "/r/e/a | //d",
            "//*[not(descendant::c) and not(self::c)]",
            "//a[not(not(child::b))]",
        ] {
            agree(DOC, q);
        }
    }

    #[test]
    fn agrees_with_dp_on_deeper_document() {
        let xml = "<x><y><z><x><y/></x></z></y><z><x/></z></x>";
        for q in [
            "//x[ancestor::z]",
            "//y[not(ancestor::y)]",
            "//z[descendant::y or parent::x]",
            "/x/z/x",
            "//x[following::z]",
            "//z[preceding::y]",
        ] {
            agree(xml, q);
        }
    }

    #[test]
    fn satisfying_nodes_matches_definition() {
        // [[child::b]] = set of nodes with at least one b child.
        let doc = parse_xml(DOC).unwrap();
        let cond = parse_query("child::b").unwrap();
        let ev = CoreXPathEvaluator::new(&doc);
        let sat = ev.satisfying_nodes(&cond).unwrap();
        let expected: Vec<NodeId> = doc
            .all_nodes()
            .filter(|&n| doc.count_children_named(n, "b") > 0)
            .collect();
        assert_eq!(sat, expected);
        // not(child::b) is the complement.
        let cond = parse_query("not(child::b)").unwrap();
        let nsat = ev.satisfying_nodes(&cond).unwrap();
        assert_eq!(nsat.len(), doc.len() - expected.len());
    }

    #[test]
    fn absolute_paths_in_conditions() {
        let doc = parse_xml(DOC).unwrap();
        let ev = CoreXPathEvaluator::new(&doc);
        // The absolute condition /descendant::c holds at *every* node
        // because the document does contain a c.
        let sat = ev
            .satisfying_nodes(&parse_query("/descendant::c").unwrap())
            .unwrap();
        assert_eq!(sat.len(), doc.len());
        let sat = ev
            .satisfying_nodes(&parse_query("/descendant::nosuch").unwrap())
            .unwrap();
        assert!(sat.is_empty());
        // And it can be used inside predicates.
        agree(DOC, "//a[/descendant::c]");
        agree(DOC, "//a[not(/descendant::nosuch)]");
    }

    #[test]
    fn set_operators_run_on_bitsets() {
        for q in [
            "//b intersect //a/b",
            "//b except //a/b",
            "//b[child::c] intersect //a/b",
            "(//b | //d) except //a[child::d]/b",
            "//c except //nosuch",
            "//nosuch intersect //b",
        ] {
            agree(DOC, q);
        }
    }

    #[test]
    fn rejects_non_core_queries() {
        let doc = parse_xml(DOC).unwrap();
        let ev = CoreXPathEvaluator::new(&doc);
        for q in [
            "//a[position() = 2]",
            "count(//a)",
            "//a[@id = 1]",
            "//a[1]",
        ] {
            let query = parse_query(q).unwrap();
            assert!(
                matches!(
                    ev.evaluate_query(&query),
                    Err(EvalError::UnsupportedFragment { .. })
                ),
                "{q} should be rejected"
            );
        }
    }

    #[test]
    fn evaluate_from_arbitrary_context_nodes() {
        let doc = parse_xml(DOC).unwrap();
        let ev = CoreXPathEvaluator::new(&doc);
        let first_a = doc
            .all_elements()
            .find(|&n| doc.name(n) == Some("a"))
            .unwrap();
        let q = parse_query("child::b").unwrap();
        let res = ev.evaluate_from(&q, &[first_a]).unwrap();
        assert_eq!(res.len(), 2);
        // From both a's simultaneously.
        let all_a: Vec<NodeId> = doc
            .all_elements()
            .filter(|&n| doc.name(n) == Some("a"))
            .collect();
        let res = ev.evaluate_from(&q, &all_a).unwrap();
        assert_eq!(res.len(), 5);
    }

    #[test]
    fn work_scales_linearly_with_document_size() {
        // Build chains of increasing size and check the evaluator's result
        // on a fixed query; this is a correctness smoke test for large inputs
        // (the timing claim is exercised by the Criterion bench).
        for n in [10usize, 100, 1000] {
            // Deep chains are built with the (iterative) builder; the
            // recursive XML parser is only meant for modestly nested inputs.
            let mut b = xpeval_dom::DocumentBuilder::new();
            b.open_element("r");
            for _ in 0..n {
                b.open_element("a");
                b.leaf_element("b");
            }
            b.leaf_element("c");
            let doc = b.finish();
            let q = parse_query("//a[child::b and not(child::c)]").unwrap();
            let ev = CoreXPathEvaluator::new(&doc);
            let res = ev.evaluate_query(&q).unwrap();
            assert_eq!(res.len(), n - 1);
        }
    }
}
