//! Executors for the flat plan IR.
//!
//! Each machine here is the [`crate::ir::PlanIr`] counterpart of one of the
//! AST evaluators, with identical observable semantics — same values, same
//! error variants, same work-counter protocol:
//!
//! | IR machine | AST counterpart | strategy |
//! |---|---|---|
//! | `IrEvaluator` (memoized) | [`crate::DpEvaluator`] | `ContextValueTable` |
//! | `IrEvaluator` (eager) | [`crate::NaiveEvaluator`] | `Naive` |
//! | `IrLinear` | [`crate::CoreXPathEvaluator`] | `CoreXPathLinear` |
//! | `IrSingletonSuccess` | [`crate::SingletonSuccess`] | `SingletonSuccess` / `Parallel` |
//!
//! What the IR machines do *not* redo at run time is the point: fragment
//! admission and Definition 6.1 validation are precomputed verdicts
//! ([`PlanIr::linear_check`] / [`PlanIr::ss_check`]), positional picks are
//! pre-recognized per step, and name tests arrive pre-resolved to global
//! [`xpeval_dom::TagId`]s, so the hot loops run without a single string
//! hash or AST pointer chase.
//!
//! `execute_ir` is the strategy dispatch funnel the compiled-query run
//! paths go through ([`crate::CompiledQuery::run_with_context`] and
//! friends); the `&Expr` entry points of [`crate::Engine`] keep using the
//! AST funnel in [`crate::compile`].

use crate::bindings::Bindings;
use crate::context::{Context, ContextKey};
use crate::corexpath::{subtree_end, CoreXPathEvaluator, NodeBitSet};
use crate::engine::EvalStrategy;
use crate::error::EvalError;
use crate::functions::call_function;
use crate::ir::{OpId, OpKind, PlanIr, StepIr};
use crate::registry::FunctionRegistry;
use crate::stats::EvalStats;
use crate::steps::predicate_holds;
use crate::value::{NodeSetSummary, Value};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;
use xpeval_dom::{Axis, AxisSource, Document, NodeId, NodeTest};
use xpeval_obs::OpTrace;
use xpeval_syntax::ast::ExprType;
use xpeval_syntax::Expr;

/// Per-evaluation environment threaded through the IR machines: the
/// registered functions visible to `Call` opcodes whose name is not a
/// built-in, the external variable bindings visible to `Variable`
/// opcodes, and the telemetry hook.  Deliberately `Copy` — the parallel
/// strategy hands the same environment to every worker (handlers are
/// `Send + Sync` by the [`crate::registry::FunctionHandler`] bound, and
/// [`OpTrace`] is atomic, so workers record into one trace concurrently).
#[derive(Clone, Copy)]
pub(crate) struct EvalEnv<'e> {
    pub registry: &'e FunctionRegistry,
    pub bindings: &'e Bindings,
    /// Per-opcode trace accumulation cells when this evaluation is
    /// sampled; `None` when telemetry is off or the query was not
    /// sampled.  Every recording site guards on this `Option` — the
    /// disabled path costs exactly one predictable branch, no allocation
    /// and no lock.
    pub trace: Option<&'e OpTrace>,
}

#[cfg(test)]
impl EvalEnv<'static> {
    /// The empty environment: built-ins only, no variable bindings, no
    /// telemetry.  Production entry points build their environment from the
    /// plan's registry ([`crate::compile`]); tests use this shorthand.
    pub fn base() -> Self {
        EvalEnv {
            registry: FunctionRegistry::empty(),
            bindings: Bindings::empty(),
            trace: None,
        }
    }
}

/// The candidate width a traced op span reports for a computed value:
/// node-set cardinality for node sets, 1 for scalars, 0 for errors.
fn value_width(out: &Result<Value, EvalError>) -> u64 {
    match out {
        Ok(Value::NodeSet(nodes)) => nodes.len() as u64,
        Ok(_) => 1,
        Err(_) => 0,
    }
}

impl<'e> EvalEnv<'e> {
    /// Dispatches a function call: built-ins first (they cannot be
    /// shadowed), then the registry.  Registered handlers are guarded by
    /// their signature's arity check even at run time, so a handler never
    /// observes an argument count its signature rejects.
    fn call(
        &self,
        name: &str,
        args: Vec<Value>,
        ctx: &Context,
        doc: &Document,
    ) -> Result<Value, EvalError> {
        if crate::functions::is_supported(name) {
            return call_function(name, args, ctx, doc);
        }
        match self.registry.lookup(name) {
            Some(f) => {
                if !f.signature.accepts_arity(args.len()) {
                    return Err(EvalError::WrongArity {
                        name: name.to_string(),
                        expected: f.signature.arity_description(),
                        got: args.len(),
                    });
                }
                (f.handler)(&args, ctx, doc)
            }
            None => Err(EvalError::UnknownFunction {
                name: name.to_string(),
            }),
        }
    }

    /// Resolves a `$name` reference against the bindings.
    fn variable(&self, name: &str) -> Result<Value, EvalError> {
        self.bindings
            .get(name)
            .cloned()
            .ok_or_else(|| EvalError::UnboundVariable {
                name: name.to_string(),
            })
    }
}

/// Dispatches one evaluation of a lowered plan to a strategy — the IR twin
/// of [`crate::compile::execute`].  The AST is still passed alongside: the
/// one corner the IR does not cover bit-for-bit (a *scalar* expression
/// handed to the linear strategy, whose rejection message renders the
/// original expression) falls back to the AST evaluator.
pub(crate) fn execute_ir<S: AxisSource + ?Sized>(
    strategy: EvalStrategy,
    src: &S,
    expr: &Expr,
    ir: &PlanIr,
    ctx: Context,
    env: EvalEnv<'_>,
) -> Result<(Value, EvalStats), EvalError> {
    match strategy {
        EvalStrategy::ContextValueTable => {
            let mut ev = IrEvaluator::memoized(src, ir, env);
            let value = ev.eval(ir.root(), ctx)?;
            Ok((value, ev.stats()))
        }
        EvalStrategy::Naive => {
            let mut ev = IrEvaluator::eager(src, ir, env);
            let value = ev.eval(ir.root(), ctx)?;
            Ok((value, ev.stats()))
        }
        EvalStrategy::CoreXPathLinear => {
            ir.linear_check()?;
            if ir.op(ir.root()).kind.is_nodeset() {
                let ev = IrLinear::new(src, ir, env.trace);
                let nodes = ev.evaluate_from(ir.root(), &[ctx.node])?;
                Ok((Value::NodeSet(nodes), ev.stats()))
            } else {
                // Non-node-set root inside Core XPath: the AST machine
                // produces the exact historical rejection text.
                let ev = CoreXPathEvaluator::new(src);
                let nodes = ev.evaluate_from(expr, &[ctx.node])?;
                Ok((Value::NodeSet(nodes), ev.stats()))
            }
        }
        EvalStrategy::Parallel { threads } => parallel_ir(src, ir, threads.max(1), ctx, env),
        EvalStrategy::SingletonSuccess => {
            let checker = IrSingletonSuccess::new(src, ir, env)?;
            let root = ir.root();
            let value = match ir.op(root).ty {
                ExprType::NodeSet => Value::NodeSet(checker.node_set(ctx)?),
                ExprType::Boolean => Value::Boolean(checker.eval_boolean(root, ctx)?),
                _ => checker.eval_scalar(root, ctx)?,
            };
            Ok((value, checker.stats()))
        }
    }
}

/// The recursive tree-walk executor, in two modes sharing one step loop:
///
/// * **memoized** — the context-value-table dynamic program of
///   [`crate::DpEvaluator`]: every `(opcode, context-key)` value is computed
///   once, paths use set semantics (sort + dedup between steps), `and`/`or`
///   short-circuit.  Each value is keyed by what it reads:
///   - a **context-free** op ([`crate::ir::OpIr::context_free`]: a literal,
///     a number, a `$variable`, an absolute path, or an operator or
///     built-in call over context-free operands, minus the built-ins that
///     read the context implicitly) has one table row for the whole run,
///     so `//seller/@person` inside `//person[...]` is computed once, not
///     once per person;
///   - a position-sensitive op is keyed by the full context triple, every
///     other op by the context node.
///
///   A general comparison between two node sets compares their
///   [`NodeSetSummary`]s in O(|A| + |B|); the summary of a context-free
///   operand is built once per run.  A `following` or `preceding` step
///   goes **set-at-a-time**: from the current set S it applies the axis
///   once, to the node of S with the smallest subtree end (`following`) or
///   the largest preorder key (`preceding`), whose image is the union of
///   all of S's images; predicates then run once per image node.  The step
///   keeps the per-context loop when a predicate reads the position or
///   size, or when S holds an attribute.
/// * **eager** — the naive baseline of [`crate::NaiveEvaluator`]: every
///   occurrence re-evaluates, paths use list semantics with the
///   max-intermediate-list watermark, `and`/`or` evaluate both sides.
pub(crate) struct IrEvaluator<'d, 'q, S: AxisSource + ?Sized = Document> {
    src: &'d S,
    doc: &'d Document,
    ir: &'q PlanIr,
    env: EvalEnv<'q>,
    memoized: bool,
    memo: HashMap<(OpId, ContextKey), Value>,
    /// Comparison summaries of context-free node-set operands.
    summaries: HashMap<OpId, Rc<NodeSetSummary>>,
    stats: EvalStats,
    list_limit: usize,
}

impl<'d, 'q, S: AxisSource + ?Sized> IrEvaluator<'d, 'q, S> {
    /// Context-value-table mode (the `ContextValueTable` strategy).
    pub fn memoized(src: &'d S, ir: &'q PlanIr, env: EvalEnv<'q>) -> Self {
        Self::new(src, ir, env, true)
    }

    /// Naive re-evaluation mode (the `Naive` strategy).
    pub fn eager(src: &'d S, ir: &'q PlanIr, env: EvalEnv<'q>) -> Self {
        Self::new(src, ir, env, false)
    }

    fn new(src: &'d S, ir: &'q PlanIr, env: EvalEnv<'q>, memoized: bool) -> Self {
        IrEvaluator {
            src,
            doc: src.document(),
            ir,
            env,
            memoized,
            memo: HashMap::new(),
            summaries: HashMap::new(),
            stats: EvalStats::default(),
            list_limit: usize::MAX,
        }
    }

    /// Work counters accumulated so far (cumulative across calls, exactly
    /// like the AST evaluators when shared over a batch).
    pub fn stats(&self) -> EvalStats {
        if self.memoized {
            EvalStats {
                table_entries: self.memo.len(),
                ..self.stats
            }
        } else {
            self.stats
        }
    }

    /// Evaluates one opcode in a context.
    pub fn eval(&mut self, id: OpId, ctx: Context) -> Result<Value, EvalError> {
        let Some(trace) = self.env.trace else {
            return self.eval_inner(id, ctx);
        };
        let start = Instant::now();
        let out = self.eval_inner(id, ctx);
        trace.record(id, 1, value_width(&out), start.elapsed().as_nanos() as u64);
        out
    }

    fn eval_inner(&mut self, id: OpId, ctx: Context) -> Result<Value, EvalError> {
        if self.memoized {
            let op = self.ir.op(id);
            let key = (id, ContextKey::for_op(ctx, op.sensitive, op.context_free));
            if let Some(v) = self.memo.get(&key) {
                self.stats.cache_hits += 1;
                return Ok(v.clone());
            }
            self.stats.evaluations += 1;
            let value = self.eval_op(id, ctx)?;
            self.memo.insert(key, value.clone());
            Ok(value)
        } else {
            self.stats.evaluations += 1;
            self.eval_op(id, ctx)
        }
    }

    fn eval_op(&mut self, id: OpId, ctx: Context) -> Result<Value, EvalError> {
        let ir = self.ir;
        match &ir.op(id).kind {
            OpKind::Number(n) => Ok(Value::Number(*n)),
            OpKind::Literal(s) => Ok(Value::Str(s.clone())),
            OpKind::Path { absolute, steps } => self.eval_path(*absolute, *steps, ctx),
            OpKind::Union(a, b) => {
                let mut left = self.eval(*a, ctx)?.into_nodes()?;
                let right = self.eval(*b, ctx)?.into_nodes()?;
                left.extend(right);
                Ok(Value::node_set(self.doc, left))
            }
            OpKind::Intersect(a, b) => {
                let left = self.eval(*a, ctx)?.into_nodes()?;
                let right = self.eval(*b, ctx)?.into_nodes()?;
                Ok(Value::NodeSet(crate::dp::set_intersect(left, &right)))
            }
            OpKind::Except(a, b) => {
                let left = self.eval(*a, ctx)?.into_nodes()?;
                let right = self.eval(*b, ctx)?.into_nodes()?;
                Ok(Value::NodeSet(crate::dp::set_except(left, &right)))
            }
            OpKind::NodeCompare { op, left, right } => {
                let l = self.eval(*left, ctx)?.into_nodes()?;
                let r = self.eval(*right, ctx)?.into_nodes()?;
                Ok(Value::Boolean(crate::dp::node_compare(
                    *op, self.doc, &l, &r,
                )))
            }
            OpKind::Variable(name) => self.env.variable(name),
            OpKind::Or(a, b) => {
                if self.memoized {
                    if self.eval(*a, ctx)?.to_boolean() {
                        return Ok(Value::Boolean(true));
                    }
                    Ok(Value::Boolean(self.eval(*b, ctx)?.to_boolean()))
                } else {
                    let l = self.eval(*a, ctx)?.to_boolean();
                    let r = self.eval(*b, ctx)?.to_boolean();
                    Ok(Value::Boolean(l || r))
                }
            }
            OpKind::And(a, b) => {
                if self.memoized {
                    if !self.eval(*a, ctx)?.to_boolean() {
                        return Ok(Value::Boolean(false));
                    }
                    Ok(Value::Boolean(self.eval(*b, ctx)?.to_boolean()))
                } else {
                    let l = self.eval(*a, ctx)?.to_boolean();
                    let r = self.eval(*b, ctx)?.to_boolean();
                    Ok(Value::Boolean(l && r))
                }
            }
            OpKind::Not(e) => Ok(Value::Boolean(!self.eval(*e, ctx)?.to_boolean())),
            OpKind::Relational { op, left, right } => {
                let l = self.eval(*left, ctx)?;
                let r = self.eval(*right, ctx)?;
                if let (true, Value::NodeSet(a), Value::NodeSet(b)) = (self.memoized, &l, &r) {
                    let (a, b) = (self.summary(*left, a), self.summary(*right, b));
                    return Ok(Value::Boolean(a.compare(*op, &b)));
                }
                Ok(Value::Boolean(l.compare(*op, &r, self.doc)))
            }
            OpKind::Arithmetic { op, left, right } => {
                let l = self.eval(*left, ctx)?.to_number(self.doc);
                let r = self.eval(*right, ctx)?.to_number(self.doc);
                Ok(Value::Number(op.apply(l, r)))
            }
            OpKind::Neg(e) => {
                let n = self.eval(*e, ctx)?.to_number(self.doc);
                Ok(Value::Number(-n))
            }
            OpKind::Call { name, args } => {
                let arg_ids = ir.call_args(*args);
                let mut values = Vec::with_capacity(arg_ids.len());
                for &a in arg_ids {
                    values.push(self.eval(a, ctx)?);
                }
                self.env.call(name, values, &ctx, self.doc)
            }
        }
    }

    fn eval_path(
        &mut self,
        absolute: bool,
        range: (u32, u32),
        ctx: Context,
    ) -> Result<Value, EvalError> {
        let ir = self.ir;
        let mut current: Vec<NodeId> = if absolute {
            vec![self.doc.root()]
        } else {
            vec![ctx.node]
        };
        for step in ir.path_steps(range) {
            let preds = ir.step_preds(step);
            let mut next: Vec<NodeId> = if self.memoized && self.set_at_a_time(step, &current) {
                self.stats.step_context_evaluations += 1;
                self.wide_step_image(step, preds, &current)?
            } else {
                let mut next = Vec::new();
                for &node in &current {
                    self.stats.step_context_evaluations += 1;
                    let mut selected = self.apply_step(node, step, preds)?;
                    next.append(&mut selected);
                }
                next
            };
            if self.memoized {
                // Set semantics: document order, no duplicates.
                self.doc.sort_document_order(&mut next);
            } else {
                // List semantics: duplicates preserved, watermark recorded.
                self.stats.max_intermediate_list = self.stats.max_intermediate_list.max(next.len());
                if next.len() > self.list_limit {
                    return Err(EvalError::unsupported(format!(
                        "naive evaluation aborted: intermediate node list exceeded {} entries",
                        self.list_limit
                    )));
                }
            }
            current = next;
        }
        if self.memoized {
            Ok(Value::NodeSet(current))
        } else {
            Ok(Value::node_set(self.doc, current))
        }
    }

    /// The comparison summary of a node-set operand, built once per run
    /// when the operand is context-free.
    fn summary(&mut self, id: OpId, nodes: &[NodeId]) -> Rc<NodeSetSummary> {
        let doc = self.doc;
        if !self.ir.op(id).context_free {
            return Rc::new(NodeSetSummary::new(doc, nodes));
        }
        Rc::clone(
            self.summaries
                .entry(id)
                .or_insert_with(|| Rc::new(NodeSetSummary::new(doc, nodes))),
        )
    }

    /// Can a `following`/`preceding` step run once for the whole context
    /// set?  Not when a predicate reads the position or size (those count
    /// per context node), and not from attributes, whose `following` axis
    /// is their owner element's.
    fn set_at_a_time(&self, step: &StepIr, from: &[NodeId]) -> bool {
        matches!(step.axis, Axis::Following | Axis::Preceding)
            && !from.is_empty()
            && !self.ir.step_reads_position(step)
            && from.iter().all(|&u| !self.doc.kind(u).is_attribute())
    }

    /// A `following`/`preceding` step from a whole context set: the union
    /// of the per-node images is the image of one node — the one whose
    /// subtree ends first for `following`, the last in document order for
    /// `preceding` — and the position-free predicates are checked once per
    /// node of it.
    fn wide_step_image(
        &mut self,
        step: &StepIr,
        preds: &[OpId],
        from: &[NodeId],
    ) -> Result<Vec<NodeId>, EvalError> {
        let (src, doc) = (self.src, self.doc);
        let anchor = if step.axis == Axis::Following {
            from.iter().copied().min_by_key(|&u| subtree_end(src, u))
        } else {
            from.iter().copied().max_by_key(|&u| doc.pre(u))
        };
        let anchor = anchor.expect("a non-empty context set");
        let candidates = src.axis_step(anchor, step.axis, &step.test);
        keep_satisfying(candidates, step.axis, preds, |pred, ctx| {
            let value = self.eval(pred, ctx)?;
            Ok(predicate_holds(&value, ctx.position))
        })
    }

    /// One location step from one context node — the IR mirror of
    /// [`crate::steps::apply_step`], with the positional pick already
    /// recognized at lowering.
    fn apply_step(
        &mut self,
        from: NodeId,
        step: &StepIr,
        preds: &[OpId],
    ) -> Result<Vec<NodeId>, EvalError> {
        let src = self.src;
        step_image(src, from, step, preds, |pred, ctx| {
            let value = self.eval(pred, ctx)?;
            Ok(predicate_holds(&value, ctx.position))
        })
    }
}

/// One location step from one context node: the axis step (or the
/// positional pick, when the source answers it from an index), then each
/// predicate in turn over the list the previous one kept, with proximity
/// positions counted along the axis.
fn step_image<S: AxisSource + ?Sized>(
    src: &S,
    from: NodeId,
    step: &StepIr,
    preds: &[OpId],
    holds: impl FnMut(OpId, Context) -> Result<bool, EvalError>,
) -> Result<Vec<NodeId>, EvalError> {
    let picked = step
        .pick
        .and_then(|pick| src.positional_child_step(from, &step.test, pick));
    let (candidates, remaining) = match picked {
        Some(picked) => (picked, &preds[1..]),
        None => (src.axis_step(from, step.axis, &step.test), preds),
    };
    keep_satisfying(candidates, step.axis, remaining, holds)
}

/// Filters a step's candidates (in document order) through each predicate
/// in turn, over the list the previous one kept, with proximity positions
/// counted along the axis.
fn keep_satisfying(
    mut candidates: Vec<NodeId>,
    axis: Axis,
    preds: &[OpId],
    mut holds: impl FnMut(OpId, Context) -> Result<bool, EvalError>,
) -> Result<Vec<NodeId>, EvalError> {
    for &pred in preds {
        let size = candidates.len();
        let mut kept = Vec::with_capacity(size);
        for (idx, &node) in candidates.iter().enumerate() {
            let position = if axis.is_reverse() {
                size - idx
            } else {
                idx + 1
            };
            if holds(pred, Context::new(node, position, size))? {
                kept.push(node);
            }
        }
        candidates = kept;
    }
    Ok(candidates)
}

/// Set-at-a-time executor over the IR — the [`crate::CoreXPathEvaluator`]
/// algorithms (forward images, backwards `sat` through inverse axes) reading
/// lowered steps.  The bitset primitives are borrowed from the AST machine
/// (`axis_image`, `test_set`); only the expression walk is replaced.
pub(crate) struct IrLinear<'d, 'q, S: AxisSource + ?Sized = Document> {
    core: CoreXPathEvaluator<'d, S>,
    doc: &'d Document,
    ir: &'q PlanIr,
    n: usize,
    trace: Option<&'q OpTrace>,
    evaluations: Cell<u64>,
    steps_applied: Cell<u64>,
}

impl<'d, 'q, S: AxisSource + ?Sized> IrLinear<'d, 'q, S> {
    pub fn new(src: &'d S, ir: &'q PlanIr, trace: Option<&'q OpTrace>) -> Self {
        let doc = src.document();
        IrLinear {
            core: CoreXPathEvaluator::new(src),
            doc,
            ir,
            n: doc.len(),
            trace,
            evaluations: Cell::new(0),
            steps_applied: Cell::new(0),
        }
    }

    pub fn stats(&self) -> EvalStats {
        EvalStats {
            evaluations: self.evaluations.get(),
            step_context_evaluations: self.steps_applied.get(),
            ..EvalStats::default()
        }
    }

    pub fn evaluate_from(
        &self,
        root: OpId,
        context_nodes: &[NodeId],
    ) -> Result<Vec<NodeId>, EvalError> {
        let mut start = NodeBitSet::empty(self.n);
        for &c in context_nodes {
            start.insert(c);
        }
        let result = self.eval_nodeset(root, &start)?;
        let mut nodes: Vec<NodeId> = result.iter_nodes().collect();
        self.doc.sort_document_order(&mut nodes);
        Ok(nodes)
    }

    fn eval_nodeset(&self, id: OpId, from: &NodeBitSet) -> Result<NodeBitSet, EvalError> {
        let Some(trace) = self.trace else {
            return self.eval_nodeset_inner(id, from);
        };
        let start = Instant::now();
        let out = self.eval_nodeset_inner(id, from);
        let width = out.as_ref().map_or(0, |s| s.count() as u64);
        trace.record(
            id,
            from.count() as u64,
            width,
            start.elapsed().as_nanos() as u64,
        );
        out
    }

    fn eval_nodeset_inner(&self, id: OpId, from: &NodeBitSet) -> Result<NodeBitSet, EvalError> {
        self.evaluations.set(self.evaluations.get() + 1);
        match &self.ir.op(id).kind {
            OpKind::Path { absolute, steps } => self.eval_path(*absolute, *steps, from),
            OpKind::Union(a, b) => {
                let mut left = self.eval_nodeset(*a, from)?;
                let right = self.eval_nodeset(*b, from)?;
                left.union_with(&right);
                Ok(left)
            }
            OpKind::Intersect(a, b) => {
                let mut left = self.eval_nodeset(*a, from)?;
                let right = self.eval_nodeset(*b, from)?;
                left.intersect_with(&right);
                Ok(left)
            }
            OpKind::Except(a, b) => {
                // A \ B as A ∩ complement(B): the set operators stay native
                // bitset operations, like everything else in this machine.
                let mut left = self.eval_nodeset(*a, from)?;
                let mut right = self.eval_nodeset(*b, from)?;
                right.complement();
                left.intersect_with(&right);
                Ok(left)
            }
            _ => Err(EvalError::fragment(
                xpeval_syntax::Fragment::CoreXPath,
                format!(
                    "non-path expression {} in node-set position",
                    self.ir.display_op(id)
                ),
            )),
        }
    }

    fn eval_path(
        &self,
        absolute: bool,
        range: (u32, u32),
        from: &NodeBitSet,
    ) -> Result<NodeBitSet, EvalError> {
        let mut current = if absolute {
            NodeBitSet::singleton(self.n, self.doc.root())
        } else {
            from.clone()
        };
        for step in self.ir.path_steps(range) {
            current = self.apply_step_forward(step, &current)?;
        }
        Ok(current)
    }

    fn apply_step_forward(
        &self,
        step: &StepIr,
        from: &NodeBitSet,
    ) -> Result<NodeBitSet, EvalError> {
        self.steps_applied.set(self.steps_applied.get() + 1);
        let mut image = self.core.axis_image(step.axis, from);
        image.intersect_with(&self.core.test_set(&step.test, step.axis));
        for &pred in self.ir.step_preds(step) {
            image.intersect_with(&self.sat(pred)?);
        }
        Ok(image)
    }

    fn sat(&self, id: OpId) -> Result<NodeBitSet, EvalError> {
        let Some(trace) = self.trace else {
            return self.sat_inner(id);
        };
        let start = Instant::now();
        let out = self.sat_inner(id);
        let width = out.as_ref().map_or(0, |s| s.count() as u64);
        // A `sat` set is context-free (computed over the whole document),
        // so the span's candidates-in is 0 by convention.
        trace.record(id, 0, width, start.elapsed().as_nanos() as u64);
        out
    }

    fn sat_inner(&self, id: OpId) -> Result<NodeBitSet, EvalError> {
        self.evaluations.set(self.evaluations.get() + 1);
        match &self.ir.op(id).kind {
            OpKind::And(a, b) => {
                let mut l = self.sat(*a)?;
                l.intersect_with(&self.sat(*b)?);
                Ok(l)
            }
            OpKind::Or(a, b) | OpKind::Union(a, b) => {
                let mut l = self.sat(*a)?;
                l.union_with(&self.sat(*b)?);
                Ok(l)
            }
            OpKind::Not(e) => {
                let mut s = self.sat(*e)?;
                s.complement();
                Ok(s)
            }
            OpKind::Path { absolute, steps } => self.sat_path(*absolute, *steps),
            _ => Err(EvalError::fragment(
                xpeval_syntax::Fragment::CoreXPath,
                format!("condition {}", self.ir.display_op(id)),
            )),
        }
    }

    fn sat_path(&self, absolute: bool, range: (u32, u32)) -> Result<NodeBitSet, EvalError> {
        let mut suffix_ok = NodeBitSet::full(self.n);
        for step in self.ir.path_steps(range).iter().rev() {
            self.steps_applied.set(self.steps_applied.get() + 1);
            let mut target = self.core.test_set(&step.test, step.axis);
            for &pred in self.ir.step_preds(step) {
                target.intersect_with(&self.sat(pred)?);
            }
            target.intersect_with(&suffix_ok);
            suffix_ok = self.core.axis_image(step.axis.inverse(), &target);
        }
        if absolute {
            if suffix_ok.contains(self.doc.root()) {
                Ok(NodeBitSet::full(self.n))
            } else {
                Ok(NodeBitSet::empty(self.n))
            }
        } else {
            Ok(suffix_ok)
        }
    }
}

/// Deterministic simulation of the Lemma 5.4 NAuxPDA over the IR — the
/// [`crate::SingletonSuccess`] checker with the Definition 6.1 validation
/// replaced by the precomputed [`PlanIr::ss_check`] verdict.
///
/// Membership is goal-directed.  "Does the path select `t` from `start`?"
/// is answered backwards from `t`, one step at a time, in a memo keyed on
/// `(step, start, node)`.  The key does not mention the target, so each
/// candidate reuses the decisions made for the ones before it:
///
/// * steps on the `self`, `child`, `attribute`, `descendant`,
///   `descendant-or-self` and `parent` axes go backwards through the
///   inverse axis: the predecessors of `t` are its parent, its ancestors,
///   or its children and attributes;
/// * steps on the `ancestor`, `ancestor-or-self`, `following`, `preceding`
///   and sibling axes, whose inverse is wide, fall back to the forward
///   walk: the nodes the path prefix reaches are computed once per
///   `(step, start)`, and `t` is then checked against them with O(1)
///   pre/post interval tests, scanned only over the key range where a
///   witness can lie;
/// * a step whose predicates read the context position or size (a
///   positional pick, a number- or variable-valued predicate, `position()`
///   or `last()`) checks `t` against the forward image of each reached
///   predecessor, memoized per `(step, node)`.
///
/// Predicate operands — a path inside `[...]`, the node-set sides of a
/// comparison, a node-set function argument — are evaluated forwards: each
/// step's image once per `(step, context node)`, each operand's node set
/// once per `(opcode, start node)`.
pub(crate) struct IrSingletonSuccess<'d, 'q, S: AxisSource + ?Sized = Document> {
    src: &'d S,
    doc: &'d Document,
    ir: &'q PlanIr,
    env: EvalEnv<'q>,
    /// `(step, start, node)` → the path prefix ending at `step` reaches
    /// `node` from `start`.
    reach_memo: RefCell<HashMap<(u32, NodeId, NodeId), bool>>,
    /// `(step, node)` → the step's forward image from `node`, predicates
    /// applied, in document order.
    image_memo: NodeSetMemo<(u32, NodeId)>,
    /// `(step, start)` → every node the path prefix ending at `step`
    /// reaches from `start`, in document order (the wide-axis fallback).
    frontier_memo: NodeSetMemo<(u32, NodeId)>,
    /// `(opcode, start)` → the node set of a predicate operand, in
    /// document order.
    operand_memo: NodeSetMemo<(OpId, NodeId)>,
    bool_memo: RefCell<HashMap<(OpId, NodeId, usize, usize), bool>>,
    decisions: Cell<u64>,
    memo_hits: Cell<u64>,
    steps_applied: Cell<u64>,
}

/// A memo of node sets in document order, handed out by reference count so
/// a lookup never holds the table's borrow across the recursion.
type NodeSetMemo<K> = RefCell<HashMap<K, Rc<[NodeId]>>>;

fn bump(counter: &Cell<u64>) {
    counter.set(counter.get() + 1);
}

impl<'d, 'q, S: AxisSource + ?Sized> IrSingletonSuccess<'d, 'q, S> {
    pub fn new(src: &'d S, ir: &'q PlanIr, env: EvalEnv<'q>) -> Result<Self, EvalError> {
        ir.ss_check()?;
        Ok(IrSingletonSuccess {
            src,
            doc: src.document(),
            ir,
            env,
            reach_memo: RefCell::new(HashMap::new()),
            image_memo: RefCell::new(HashMap::new()),
            frontier_memo: RefCell::new(HashMap::new()),
            operand_memo: RefCell::new(HashMap::new()),
            bool_memo: RefCell::new(HashMap::new()),
            decisions: Cell::new(0),
            memo_hits: Cell::new(0),
            steps_applied: Cell::new(0),
        })
    }

    pub fn stats(&self) -> EvalStats {
        EvalStats {
            evaluations: self.decisions.get(),
            cache_hits: self.memo_hits.get(),
            step_context_evaluations: self.steps_applied.get(),
            ..EvalStats::default()
        }
    }

    /// Recovers the node-set result by deciding membership once per
    /// candidate (Theorem 5.5), pruned by the plan's final-step tests when
    /// the source has a tag index.
    pub fn node_set(&self, ctx: Context) -> Result<Vec<NodeId>, EvalError> {
        let root = self.ir.root();
        let mut out = Vec::new();
        match ir_result_candidates(self.ir, self.src) {
            Some(candidates) => {
                for v in candidates {
                    if self.selects(root, ctx, v)? {
                        out.push(v);
                    }
                }
            }
            None => {
                for v in self.doc.all_nodes() {
                    if self.selects(root, ctx, v)? {
                        out.push(v);
                    }
                }
            }
        }
        self.doc.sort_document_order(&mut out);
        Ok(out)
    }

    /// Membership test "node `target` is selected by opcode `id` from
    /// context `ctx`".
    pub fn selects(&self, id: OpId, ctx: Context, target: NodeId) -> Result<bool, EvalError> {
        let Some(trace) = self.env.trace else {
            return self.selects_inner(id, ctx, target);
        };
        let start = Instant::now();
        let out = self.selects_inner(id, ctx, target);
        // One membership decision: one candidate in, 0 or 1 selected out —
        // summed over candidates the root op's out-count is the result size.
        let selected = matches!(out, Ok(true)) as u64;
        trace.record(id, 1, selected, start.elapsed().as_nanos() as u64);
        out
    }

    fn selects_inner(&self, id: OpId, ctx: Context, target: NodeId) -> Result<bool, EvalError> {
        match &self.ir.op(id).kind {
            OpKind::Path { absolute, steps } => {
                let start = if *absolute { self.doc.root() } else { ctx.node };
                self.reached(*steps, steps.1, start, target)
            }
            OpKind::Union(a, b) => {
                Ok(self.selects(*a, ctx, target)? || self.selects(*b, ctx, target)?)
            }
            // The set operators stay membership tests: `target` is in the
            // intersection (difference) exactly when both (only the left)
            // membership checks succeed.
            OpKind::Intersect(a, b) => {
                Ok(self.selects(*a, ctx, target)? && self.selects(*b, ctx, target)?)
            }
            OpKind::Except(a, b) => {
                Ok(self.selects(*a, ctx, target)? && !self.selects(*b, ctx, target)?)
            }
            _ => Err(not_a_node_set(self.ir, id)),
        }
    }

    /// Does the prefix of the path `range` made of its first `k` steps
    /// reach `t` from `start`?
    fn reached(
        &self,
        range: (u32, u32),
        k: u32,
        start: NodeId,
        t: NodeId,
    ) -> Result<bool, EvalError> {
        if k == 0 {
            return Ok(t == start);
        }
        let key = (range.0 + k - 1, start, t);
        let step = &self.ir.steps()[key.0 as usize];
        if !self.doc.matches_on_axis(t, &step.test, step.axis) {
            return Ok(false);
        }
        if let Some(&b) = self.reach_memo.borrow().get(&key) {
            bump(&self.memo_hits);
            return Ok(b);
        }
        bump(&self.decisions);
        bump(&self.steps_applied);
        let out = self.step_selects(range, k, step, start, t)?;
        self.reach_memo.borrow_mut().insert(key, out);
        Ok(out)
    }

    /// Decides the `k`-th step of `range` for a node `t` that passes its
    /// node test.
    fn step_selects(
        &self,
        range: (u32, u32),
        k: u32,
        step: &StepIr,
        start: NodeId,
        t: NodeId,
    ) -> Result<bool, EvalError> {
        if self.ir.step_reads_position(step) {
            // Position and size count within one predecessor's candidate
            // list, so `t` must be in the forward image of a reached
            // predecessor.
            let ix = range.0 + k - 1;
            return self.some_predecessor(range, k, step.axis, start, t, |p| {
                Ok(contains(self.doc, &self.image(ix, p)?, t))
            });
        }
        // Otherwise predecessors are checked first, so predicates run only
        // on nodes the forward walk would also have filtered.
        if !self.some_predecessor(range, k, step.axis, start, t, |_| Ok(true))? {
            return Ok(false);
        }
        for &pred in self.ir.step_preds(step) {
            if !self.predicate_holds_at(pred, Context::new(t, 1, 1))? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Is there a node `p` reached by the first `k - 1` steps of `range`,
    /// with `t` on `axis` from `p` and `accept(p)`?
    fn some_predecessor(
        &self,
        range: (u32, u32),
        k: u32,
        axis: Axis,
        start: NodeId,
        t: NodeId,
        mut accept: impl FnMut(NodeId) -> Result<bool, EvalError>,
    ) -> Result<bool, EvalError> {
        let doc = self.doc;
        let mut try_from = |p: NodeId| -> Result<bool, EvalError> {
            Ok(self.reached(range, k - 1, start, p)? && accept(p)?)
        };
        let is_attribute = doc.kind(t).is_attribute();
        match axis {
            Axis::SelfAxis => try_from(t),
            Axis::Child | Axis::Attribute => match doc.parent(t) {
                Some(p) if is_attribute == (axis == Axis::Attribute) => try_from(p),
                _ => Ok(false),
            },
            Axis::Descendant | Axis::DescendantOrSelf => {
                if axis == Axis::DescendantOrSelf && try_from(t)? {
                    return Ok(true);
                }
                if is_attribute {
                    return Ok(false);
                }
                let mut up = doc.parent(t);
                while let Some(p) = up {
                    if try_from(p)? {
                        return Ok(true);
                    }
                    up = doc.parent(p);
                }
                Ok(false)
            }
            Axis::Parent => {
                for &a in doc.attributes(t) {
                    if try_from(a)? {
                        return Ok(true);
                    }
                }
                let mut child = doc.first_child(t);
                while let Some(c) = child {
                    if try_from(c)? {
                        return Ok(true);
                    }
                    child = doc.next_sibling(c);
                }
                Ok(false)
            }
            Axis::Ancestor
            | Axis::AncestorOrSelf
            | Axis::Following
            | Axis::Preceding
            | Axis::FollowingSibling
            | Axis::PrecedingSibling => {
                let frontier = self.frontier(range, k - 1, start)?;
                for &p in witness_range(doc, axis, t, &frontier) {
                    if on_axis(doc, p, axis, t) && accept(p)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }

    /// Every node the first `k` steps of `range` reach from `start`, in
    /// document order: the step's candidates, kept by [`Self::reached`].
    fn frontier(
        &self,
        range: (u32, u32),
        k: u32,
        start: NodeId,
    ) -> Result<Rc<[NodeId]>, EvalError> {
        if k == 0 {
            return Ok(Rc::from([start]));
        }
        let key = (range.0 + k - 1, start);
        if let Some(nodes) = self.frontier_memo.borrow().get(&key) {
            bump(&self.memo_hits);
            return Ok(Rc::clone(nodes));
        }
        let step = &self.ir.steps()[key.0 as usize];
        let mut out = Vec::new();
        for &t in self.step_candidates(step).iter() {
            if self.reached(range, k, start, t)? {
                out.push(t);
            }
        }
        let out: Rc<[NodeId]> = out.into();
        self.frontier_memo.borrow_mut().insert(key, Rc::clone(&out));
        Ok(out)
    }

    /// The nodes that can pass a step's node test, in document order: the
    /// tag list when the source indexes the name, every node otherwise.
    fn step_candidates(&self, step: &StepIr) -> Cow<'d, [NodeId]> {
        if !step.axis.principal_is_attribute() {
            let indexed = match &step.test {
                NodeTest::Resolved { name, id: Some(id) } => self
                    .src
                    .elements_by_tag(*id)
                    .or_else(|| self.src.elements_named(name)),
                NodeTest::Resolved { name, id: None } | NodeTest::Name(name) => {
                    self.src.elements_named(name)
                }
                _ => None,
            };
            if let Some(nodes) = indexed {
                return Cow::Borrowed(nodes);
            }
        }
        self.src.document_order()
    }

    /// The forward image of step `ix` from one node: the axis step, then
    /// each predicate with the positions of the list it filters.
    fn image(&self, ix: u32, from: NodeId) -> Result<Rc<[NodeId]>, EvalError> {
        let key = (ix, from);
        if let Some(nodes) = self.image_memo.borrow().get(&key) {
            bump(&self.memo_hits);
            return Ok(Rc::clone(nodes));
        }
        bump(&self.decisions);
        bump(&self.steps_applied);
        let step = &self.ir.steps()[ix as usize];
        let candidates = step_image(
            self.src,
            from,
            step,
            self.ir.step_preds(step),
            |pred, ctx| self.predicate_holds_at(pred, ctx),
        )?;
        let out: Rc<[NodeId]> = candidates.into();
        self.image_memo.borrow_mut().insert(key, Rc::clone(&out));
        Ok(out)
    }

    fn predicate_holds_at(&self, pred: OpId, ctx: Context) -> Result<bool, EvalError> {
        // A predicate blind to the position gets one canonical context per
        // node, so forward images and backward decisions share its memo.
        let ctx = if self.ir.pred_reads_position(pred) {
            ctx
        } else {
            Context::new(ctx.node, 1, 1)
        };
        if self.ir.op(pred).kind.is_nodeset() {
            return self.exists(pred, ctx);
        }
        let v = self.eval_scalar(pred, ctx)?;
        Ok(predicate_holds(&v, ctx.position))
    }

    /// The node set of a predicate operand, in document order.
    fn operand(&self, id: OpId, ctx: Context) -> Result<Rc<[NodeId]>, EvalError> {
        let Some(trace) = self.env.trace else {
            return self.operand_inner(id, ctx);
        };
        let start = Instant::now();
        let out = self.operand_inner(id, ctx);
        let width = out.as_ref().map_or(0, |nodes| nodes.len() as u64);
        trace.record(id, 1, width, start.elapsed().as_nanos() as u64);
        out
    }

    fn operand_inner(&self, id: OpId, ctx: Context) -> Result<Rc<[NodeId]>, EvalError> {
        let kind = &self.ir.op(id).kind;
        // An absolute path has one value for every context.
        let start = match kind {
            OpKind::Path { absolute: true, .. } => self.doc.root(),
            _ => ctx.node,
        };
        let key = (id, start);
        if let Some(nodes) = self.operand_memo.borrow().get(&key) {
            bump(&self.memo_hits);
            return Ok(Rc::clone(nodes));
        }
        bump(&self.decisions);
        let nodes: Vec<NodeId> = match kind {
            OpKind::Path { steps, .. } => {
                let mut current = vec![start];
                for ix in steps.0..steps.0 + steps.1 {
                    if current.is_empty() {
                        break;
                    }
                    let mut next = Vec::new();
                    for &n in &current {
                        next.extend_from_slice(&self.image(ix, n)?);
                    }
                    if current.len() > 1 {
                        self.doc.sort_document_order(&mut next);
                    }
                    current = next;
                }
                current
            }
            OpKind::Union(a, b) => {
                let mut nodes = self.operand(*a, ctx)?.to_vec();
                nodes.extend_from_slice(&self.operand(*b, ctx)?);
                self.doc.sort_document_order(&mut nodes);
                nodes
            }
            OpKind::Intersect(a, b) | OpKind::Except(a, b) => {
                let keep = matches!(kind, OpKind::Intersect(..));
                let left = self.operand(*a, ctx)?;
                let right = self.operand(*b, ctx)?;
                left.iter()
                    .copied()
                    .filter(|&n| contains(self.doc, &right, n) == keep)
                    .collect()
            }
            _ => return Err(not_a_node_set(self.ir, id)),
        };
        let nodes: Rc<[NodeId]> = nodes.into();
        self.operand_memo
            .borrow_mut()
            .insert(key, Rc::clone(&nodes));
        Ok(nodes)
    }

    fn exists(&self, id: OpId, ctx: Context) -> Result<bool, EvalError> {
        Ok(!self.operand(id, ctx)?.is_empty())
    }

    fn first_selected(&self, id: OpId, ctx: Context) -> Result<Option<NodeId>, EvalError> {
        Ok(self.operand(id, ctx)?.first().copied())
    }

    pub fn eval_boolean(&self, id: OpId, ctx: Context) -> Result<bool, EvalError> {
        let Some(trace) = self.env.trace else {
            return self.eval_boolean_inner(id, ctx);
        };
        let start = Instant::now();
        let out = self.eval_boolean_inner(id, ctx);
        let truthy = matches!(out, Ok(true)) as u64;
        trace.record(id, 1, truthy, start.elapsed().as_nanos() as u64);
        out
    }

    fn eval_boolean_inner(&self, id: OpId, ctx: Context) -> Result<bool, EvalError> {
        let key = (id, ctx.node, ctx.position, ctx.size);
        if let Some(&b) = self.bool_memo.borrow().get(&key) {
            bump(&self.memo_hits);
            return Ok(b);
        }
        bump(&self.decisions);
        let out = match &self.ir.op(id).kind {
            OpKind::And(a, b) => self.eval_boolean(*a, ctx)? && self.eval_boolean(*b, ctx)?,
            OpKind::Or(a, b) => self.eval_boolean(*a, ctx)? || self.eval_boolean(*b, ctx)?,
            OpKind::Not(e) => !self.eval_boolean(*e, ctx)?,
            OpKind::Path { .. }
            | OpKind::Union(_, _)
            | OpKind::Intersect(_, _)
            | OpKind::Except(_, _) => self.exists(id, ctx)?,
            OpKind::Relational { op, left, right } => self.relational(*op, *left, *right, ctx)?,
            OpKind::NodeCompare { op, left, right } => {
                self.node_compare(*op, *left, *right, ctx)?
            }
            _ => self.eval_scalar(id, ctx)?.to_boolean(),
        };
        self.bool_memo.borrow_mut().insert(key, out);
        Ok(out)
    }

    fn relational(
        &self,
        op: xpeval_syntax::RelOp,
        left: OpId,
        right: OpId,
        ctx: Context,
    ) -> Result<bool, EvalError> {
        let lvals = self.atomic_values(left, ctx)?;
        let rvals = self.atomic_values(right, ctx)?;
        for l in &lvals {
            for r in &rvals {
                if l.compare(op, r, self.doc) {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// Node comparison on the operands' node sets: the engine's
    /// `is`/`<<`/`>>` semantics compare the *first* node (in document
    /// order) of each side.  An empty side makes the comparison false.
    fn node_compare(
        &self,
        op: xpeval_syntax::NodeCompOp,
        left: OpId,
        right: OpId,
        ctx: Context,
    ) -> Result<bool, EvalError> {
        let (Some(l), Some(r)) = (
            self.first_selected(left, ctx)?,
            self.first_selected(right, ctx)?,
        ) else {
            return Ok(false);
        };
        Ok(op.apply(self.doc.pre(l), self.doc.pre(r)))
    }

    fn atomic_values(&self, id: OpId, ctx: Context) -> Result<Vec<Value>, EvalError> {
        if self.ir.op(id).kind.is_nodeset() {
            let nodes = self.operand(id, ctx)?;
            Ok(nodes
                .iter()
                .map(|&v| Value::Str(self.doc.string_value(v)))
                .collect())
        } else {
            Ok(vec![self.eval_scalar(id, ctx)?])
        }
    }

    pub fn eval_scalar(&self, id: OpId, ctx: Context) -> Result<Value, EvalError> {
        match &self.ir.op(id).kind {
            OpKind::Number(n) => Ok(Value::Number(*n)),
            OpKind::Literal(s) => Ok(Value::Str(s.clone())),
            OpKind::Arithmetic { op, left, right } => {
                let l = self.scalar_number(*left, ctx)?;
                let r = self.scalar_number(*right, ctx)?;
                Ok(Value::Number(op.apply(l, r)))
            }
            OpKind::Neg(e) => Ok(Value::Number(-self.scalar_number(*e, ctx)?)),
            OpKind::And(_, _)
            | OpKind::Or(_, _)
            | OpKind::Not(_)
            | OpKind::Relational { .. }
            | OpKind::NodeCompare { .. } => Ok(Value::Boolean(self.eval_boolean(id, ctx)?)),
            OpKind::Path { .. }
            | OpKind::Union(_, _)
            | OpKind::Intersect(_, _)
            | OpKind::Except(_, _) => Err(EvalError::type_error(
                "node-set expression in scalar position (use selects/exists)",
            )),
            OpKind::Variable(name) => self.env.variable(name),
            OpKind::Call { name, args } => {
                let arg_ids = self.ir.call_args(*args);
                if name == "boolean"
                    && arg_ids.len() == 1
                    && self.ir.op(arg_ids[0]).kind.is_nodeset()
                {
                    return Ok(Value::Boolean(self.exists(arg_ids[0], ctx)?));
                }
                let mut values = Vec::with_capacity(arg_ids.len());
                for &a in arg_ids {
                    if self.ir.op(a).kind.is_nodeset() {
                        let s = match self.first_selected(a, ctx)? {
                            Some(n) => self.doc.string_value(n),
                            None => String::new(),
                        };
                        values.push(Value::Str(s));
                    } else {
                        values.push(self.eval_scalar(a, ctx)?);
                    }
                }
                self.env.call(name, values, &ctx, self.doc)
            }
        }
    }

    fn scalar_number(&self, id: OpId, ctx: Context) -> Result<f64, EvalError> {
        if self.ir.op(id).kind.is_nodeset() {
            let s = match self.first_selected(id, ctx)? {
                Some(n) => self.doc.string_value(n),
                None => String::new(),
            };
            return Ok(crate::value::parse_xpath_number(&s));
        }
        Ok(self.eval_scalar(id, ctx)?.to_number(self.doc))
    }
}

fn not_a_node_set(ir: &PlanIr, id: OpId) -> EvalError {
    EvalError::type_error(format!(
        "expression {} is not node-set typed",
        ir.display_op(id)
    ))
}

/// Membership in a node set held in document order.
fn contains(doc: &Document, nodes: &[NodeId], n: NodeId) -> bool {
    nodes
        .binary_search_by_key(&doc.pre(n), |&m| doc.pre(m))
        .is_ok()
}

/// `t ∈ axis(p)` for the axes whose inverse is wide, decided in O(1) from
/// parent links and pre/post keys.  The node sets are exactly those the
/// document's axis iterators enumerate: attributes are on none of these
/// axes except `ancestor-or-self` (as the start), and the `following`
/// axis of an attribute is that of its owner element.
fn on_axis(doc: &Document, p: NodeId, axis: Axis, t: NodeId) -> bool {
    let attribute = |n: NodeId| doc.kind(n).is_attribute();
    let siblings = || {
        p != t
            && !attribute(p)
            && !attribute(t)
            && doc.parent(p).is_some()
            && doc.parent(p) == doc.parent(t)
    };
    match axis {
        Axis::Ancestor => doc.is_ancestor_of(t, p),
        Axis::AncestorOrSelf => doc.is_ancestor_or_self_of(t, p),
        Axis::Following => {
            let owner = if attribute(p) {
                doc.parent(p).unwrap_or(p)
            } else {
                p
            };
            !attribute(t) && doc.pre(t) > doc.post(owner)
        }
        Axis::Preceding => {
            !attribute(t) && doc.pre(t) < doc.pre(p) && !doc.is_ancestor_or_self_of(t, p)
        }
        Axis::FollowingSibling => siblings() && doc.pre(p) < doc.pre(t),
        Axis::PrecedingSibling => siblings() && doc.pre(t) < doc.pre(p),
        narrow => unreachable!("the {narrow} axis is walked backwards"),
    }
}

/// The part of a document-ordered `frontier` where a node `p` with
/// `t ∈ axis(p)` can lie, found by binary search on the pre keys: before
/// `t` for `following`, after its subtree for `preceding`, inside it for
/// the ancestor axes, under `t`'s parent for the sibling axes.
fn witness_range<'f>(
    doc: &Document,
    axis: Axis,
    t: NodeId,
    frontier: &'f [NodeId],
) -> &'f [NodeId] {
    if doc.kind(t).is_attribute() && axis != Axis::AncestorOrSelf {
        return &[];
    }
    let before = |key: u32| frontier.partition_point(|&p| doc.pre(p) < key);
    let through = |key: u32| frontier.partition_point(|&p| doc.pre(p) <= key);
    let (pre, post) = (doc.pre(t), doc.post(t));
    let (lo, hi) = match (axis, doc.parent(t)) {
        (Axis::Following, _) => (0, before(pre)),
        (Axis::Preceding, _) => (through(post), frontier.len()),
        (Axis::Ancestor, _) => (through(pre), through(post)),
        (Axis::AncestorOrSelf, _) => (before(pre), through(post)),
        (Axis::FollowingSibling, Some(q)) => (through(doc.pre(q)), before(pre)),
        (Axis::PrecedingSibling, Some(q)) => (through(post), before(doc.post(q))),
        // A node without a parent has no siblings.
        _ => (0, 0),
    };
    &frontier[lo..hi.max(lo)]
}

/// The IR form of [`crate::steps::result_candidates`]: the candidate
/// universe bounded by the plan's final-step tests, preferring the
/// pre-interned global tag id over the string lookup when the source
/// answers it.
fn ir_result_candidates<S: AxisSource + ?Sized>(ir: &PlanIr, src: &S) -> Option<Vec<NodeId>> {
    let tests = ir.final_step_tests()?;
    let mut out = Vec::new();
    for test in tests {
        let elements = match test {
            NodeTest::Resolved { name, id: Some(id) } => src
                .elements_by_tag(*id)
                .or_else(|| src.elements_named(name))?,
            NodeTest::Resolved { name, id: None } => src.elements_named(name)?,
            NodeTest::Name(name) => src.elements_named(name)?,
            _ => return None,
        };
        out.extend_from_slice(elements);
    }
    src.document().sort_document_order(&mut out);
    Some(out)
}

/// The Theorem 5.5 loop over the IR — [`crate::ParallelEvaluator`] with
/// per-worker [`IrSingletonSuccess`] checkers.  Constructing a worker is
/// nearly free: the Definition 6.1 validation is the plan's precomputed
/// verdict instead of a fresh AST walk per thread.
pub(crate) fn parallel_ir<S: AxisSource + ?Sized>(
    src: &S,
    ir: &PlanIr,
    threads: usize,
    ctx: Context,
    env: EvalEnv<'_>,
) -> Result<(Value, EvalStats), EvalError> {
    let checker = IrSingletonSuccess::new(src, ir, env)?;
    let root = ir.root();
    match ir.op(root).ty {
        ExprType::NodeSet => {
            drop(checker);
            let (nodes, stats) = parallel_node_set(src, ir, threads, ctx, env)?;
            Ok((Value::NodeSet(nodes), stats))
        }
        ExprType::Boolean => {
            let value = Value::Boolean(checker.eval_boolean(root, ctx)?);
            Ok((value, checker.stats()))
        }
        ExprType::Number | ExprType::Str => {
            let value = checker.eval_scalar(root, ctx)?;
            Ok((value, checker.stats()))
        }
    }
}

fn parallel_node_set<S: AxisSource + ?Sized>(
    src: &S,
    ir: &PlanIr,
    threads: usize,
    ctx: Context,
    env: EvalEnv<'_>,
) -> Result<(Vec<NodeId>, EvalStats), EvalError> {
    let doc = src.document();
    let candidates: Vec<NodeId> =
        ir_result_candidates(ir, src).unwrap_or_else(|| doc.all_nodes().collect());
    if threads <= 1 || candidates.len() < 2 {
        let checker = IrSingletonSuccess::new(src, ir, env)?;
        let nodes = checker.node_set(ctx)?;
        return Ok((nodes, checker.stats()));
    }

    let chunk_size = candidates.len().div_ceil(threads);
    let root = ir.root();
    let results: Result<Vec<(Vec<NodeId>, EvalStats)>, EvalError> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk in candidates.chunks(chunk_size) {
            handles.push(
                scope.spawn(move || -> Result<(Vec<NodeId>, EvalStats), EvalError> {
                    // Each worker owns independent memo tables, mirroring the
                    // independent NAuxPDA runs of the membership proof.  The
                    // environment is shared: handlers are Send + Sync.
                    let checker = IrSingletonSuccess::new(src, ir, env)?;
                    let mut selected = Vec::new();
                    for &v in chunk {
                        if checker.selects(root, ctx, v)? {
                            selected.push(v);
                        }
                    }
                    Ok((selected, checker.stats()))
                }),
            );
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    let mut out: Vec<NodeId> = Vec::new();
    let mut stats = EvalStats::default();
    for (selected, worker_stats) in results? {
        out.extend(selected);
        stats += worker_stats;
    }
    doc.sort_document_order(&mut out);
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::execute;
    use crate::ir::PlanIr;
    use std::sync::Arc;
    use xpeval_dom::{parse_xml, PreparedDocument};
    use xpeval_syntax::{classify, parse_query};

    const BOOKS: &str = r#"<lib><book year="2001"><title>A</title></book><book year="2003"><title>B</title><cite/></book><paper year="2003"><title>C</title></paper></lib>"#;
    const TREE: &str =
        "<r><a><b><c/></b><b/><d/></a><a><b><c/></b><d/><b><c/></b></a><e><a><b/></a></e></r>";

    const STRATEGIES: [EvalStrategy; 5] = [
        EvalStrategy::ContextValueTable,
        EvalStrategy::Naive,
        EvalStrategy::CoreXPathLinear,
        EvalStrategy::Parallel { threads: 3 },
        EvalStrategy::SingletonSuccess,
    ];

    const QUERIES: [&str; 27] = [
        "/lib/book/title",
        "//title",
        "//a/b",
        "//book[@year = 2003]/title",
        "//book[position() = 2]",
        "//book[1]/title",
        "//book[last()]",
        "//book[position() + 1 = last()]",
        "//book[not(child::cite)]",
        "//b[parent::a and not(descendant::c)]",
        "//a[child::b or child::d]/child::b",
        "//title | //cite",
        "/descendant::a/child::b[descendant::c and not(following-sibling::d)]",
        "//c/preceding::b",
        "//b/following::d",
        "count(//book)",
        "string(//book[1]/title)",
        "boolean(//cite)",
        "not(//nosuch)",
        "1 + 2 * 3",
        "concat('x', string(count(//title)))",
        "//book[title = 'B']",
        "//title intersect //book/title",
        "(//title | //cite) except //paper/title",
        "//b except //a/b",
        "//book << //paper",
        "//cite is //book/cite",
    ];

    fn lower(src: &str) -> (Expr, Arc<PlanIr>) {
        let expr = parse_query(src).unwrap();
        let report = classify(&expr);
        let ir = PlanIr::lower(&expr, &report);
        (expr, ir)
    }

    /// Every strategy produces the same value (or rejects with the same
    /// error variant) through the IR funnel as through the AST funnel, on
    /// both a plain and a prepared document.
    #[test]
    fn ir_agrees_with_ast_across_strategies_and_sources() {
        for xml in [BOOKS, TREE] {
            let doc = parse_xml(xml).unwrap();
            let prepared = PreparedDocument::new(doc.clone());
            let ctx = Context::root(&doc);
            for q in QUERIES {
                let (expr, ir) = lower(q);
                for strategy in STRATEGIES {
                    let ast = execute(strategy, &doc, &expr, ctx);
                    let via_ir = execute_ir(strategy, &doc, &expr, &ir, ctx, EvalEnv::base());
                    match (&ast, &via_ir) {
                        (Ok((a, _)), Ok((b, _))) => {
                            assert_eq!(a, b, "{q} via {strategy:?} on Document")
                        }
                        (Err(ea), Err(eb)) => assert_eq!(
                            std::mem::discriminant(ea),
                            std::mem::discriminant(eb),
                            "{q} via {strategy:?}: {ea:?} vs {eb:?}"
                        ),
                        other => panic!("{q} via {strategy:?}: {other:?}"),
                    }
                    let ast_p = execute(strategy, &prepared, &expr, ctx);
                    let ir_p = execute_ir(strategy, &prepared, &expr, &ir, ctx, EvalEnv::base());
                    match (&ast_p, &ir_p) {
                        (Ok((a, _)), Ok((b, _))) => {
                            assert_eq!(a, b, "{q} via {strategy:?} on Prepared")
                        }
                        (Err(ea), Err(eb)) => assert_eq!(
                            std::mem::discriminant(ea),
                            std::mem::discriminant(eb),
                            "{q} via {strategy:?} prepared: {ea:?} vs {eb:?}"
                        ),
                        other => panic!("{q} via {strategy:?} prepared: {other:?}"),
                    }
                    // IR evaluation is source-agnostic: plain and prepared
                    // answers agree with each other too.
                    if let (Ok((a, _)), Ok((b, _))) = (&via_ir, &ir_p) {
                        assert_eq!(a, b, "{q} via {strategy:?}: Document vs Prepared");
                    }
                }
            }
        }
    }

    #[test]
    fn memoized_mode_shares_tables_like_dp() {
        let xml = "<r><a><b/></a><a><b/></a><a><b/></a></r>";
        let doc = parse_xml(xml).unwrap();
        let (_, ir) = lower("//b/ancestor::*[child::b]");
        let mut ev = IrEvaluator::memoized(&doc, &ir, EvalEnv::base());
        ev.eval(ir.root(), Context::root(&doc)).unwrap();
        let stats = ev.stats();
        assert!(stats.cache_hits > 0, "expected cache hits, got {stats:?}");
        assert!(stats.table_entries > 0);
    }

    #[test]
    fn eager_mode_reports_list_growth_like_naive() {
        let doc = parse_xml("<a><b/><b/><b/></a>").unwrap();
        let (_, ir) = lower("//a/b/parent::a/b/parent::a/b");
        let mut ev = IrEvaluator::eager(&doc, &ir, EvalEnv::base());
        ev.eval(ir.root(), Context::root(&doc)).unwrap();
        let eager = ev.stats();
        assert!(eager.max_intermediate_list >= 27, "{eager:?}");
        let mut memo = IrEvaluator::memoized(&doc, &ir, EvalEnv::base());
        memo.eval(ir.root(), Context::root(&doc)).unwrap();
        assert!(
            memo.stats().step_context_evaluations < eager.step_context_evaluations,
            "memoized {} vs eager {}",
            memo.stats().step_context_evaluations,
            eager.step_context_evaluations
        );
    }

    #[test]
    fn fused_plans_evaluate_identically() {
        // `//a/b` fuses to descendant::a/descendant::b; all strategies must
        // agree with the unfused AST on list- and set-semantics alike.
        let doc = parse_xml(TREE).unwrap();
        let ctx = Context::root(&doc);
        let (expr, ir) = lower("//a//b");
        assert_eq!(ir.fused_steps(), 2);
        for strategy in STRATEGIES {
            let (ast, _) = execute(strategy, &doc, &expr, ctx).unwrap();
            let (via_ir, _) = execute_ir(strategy, &doc, &expr, &ir, ctx, EvalEnv::base()).unwrap();
            assert_eq!(ast, via_ir, "{strategy:?}");
        }
    }

    #[test]
    fn positional_picks_hit_the_prepared_index() {
        let doc = parse_xml(BOOKS).unwrap();
        let prepared = PreparedDocument::new(doc.clone());
        let (_, ir) = lower("/lib/book[2]/title");
        let mut ev = IrEvaluator::memoized(&prepared, &ir, EvalEnv::base());
        let v = ev.eval(ir.root(), Context::root(&doc)).unwrap();
        let nodes = v.expect_nodes();
        assert_eq!(nodes.len(), 1);
        assert_eq!(doc.string_value(nodes[0]), "B");
    }

    #[test]
    fn linear_rejections_survive_precomputation() {
        let doc = parse_xml(BOOKS).unwrap();
        let ctx = Context::root(&doc);
        let (expr, ir) = lower("//book[position() = 2]");
        let err = execute_ir(
            EvalStrategy::CoreXPathLinear,
            &doc,
            &expr,
            &ir,
            ctx,
            EvalEnv::base(),
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::UnsupportedFragment { .. }));
        // Identical message to the AST rejection.
        let ast_err = execute(EvalStrategy::CoreXPathLinear, &doc, &expr, ctx).unwrap_err();
        assert_eq!(err, ast_err);
    }

    #[test]
    fn ss_rejections_survive_precomputation() {
        let doc = parse_xml(BOOKS).unwrap();
        let ctx = Context::root(&doc);
        let (expr, ir) = lower("count(//book)");
        for strategy in [
            EvalStrategy::SingletonSuccess,
            EvalStrategy::Parallel { threads: 2 },
        ] {
            let err = execute_ir(strategy, &doc, &expr, &ir, ctx, EvalEnv::base()).unwrap_err();
            let ast_err = execute(strategy, &doc, &expr, ctx).unwrap_err();
            assert_eq!(err, ast_err, "{strategy:?}");
        }
    }

    #[test]
    fn bindings_and_registered_functions_flow_through_the_ir() {
        use crate::registry::{FragmentImpact, FunctionSignature};
        let doc = parse_xml(BOOKS).unwrap();
        let ctx = Context::root(&doc);
        let mut registry = FunctionRegistry::new();
        registry.register(
            FunctionSignature::new("double", 1, Some(1))
                .returns_number()
                .impact(FragmentImpact::CoreSafe),
            |args, _, doc| Ok(Value::Number(args[0].to_number(doc) * 2.0)),
        );
        let bindings = Bindings::new().with_number("year", 2003.0);
        let env = EvalEnv {
            registry: &registry,
            bindings: &bindings,
            trace: None,
        };

        // Variables resolve from the bindings on the tree-walk machines...
        let expr = parse_query("//book[@year = $year]/title").unwrap();
        let report = classify(&expr);
        let ir = PlanIr::lower_with_registry(&expr, &report, &registry);
        for strategy in [EvalStrategy::ContextValueTable, EvalStrategy::Naive] {
            let (v, _) = execute_ir(strategy, &doc, &expr, &ir, ctx, env).unwrap();
            let nodes = v.expect_nodes();
            assert_eq!(nodes.len(), 1, "{strategy:?}");
            assert_eq!(doc.string_value(nodes[0]), "B", "{strategy:?}");
        }
        // ...and are an error under the empty environment.
        let err = execute_ir(
            EvalStrategy::ContextValueTable,
            &doc,
            &expr,
            &ir,
            ctx,
            EvalEnv::base(),
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::UnboundVariable { .. }), "{err:?}");

        // A core-safe registered function runs on every admitted machine,
        // including the Singleton-Success workers of the parallel strategy.
        let expr = parse_query("//book[double(@year) = 4006]/title").unwrap();
        let report = classify(&expr);
        let ir = PlanIr::lower_with_registry(&expr, &report, &registry);
        for strategy in [
            EvalStrategy::ContextValueTable,
            EvalStrategy::Naive,
            EvalStrategy::SingletonSuccess,
            EvalStrategy::Parallel { threads: 2 },
        ] {
            let (v, _) = execute_ir(strategy, &doc, &expr, &ir, ctx, env).unwrap();
            let nodes = v.expect_nodes();
            assert_eq!(nodes.len(), 1, "{strategy:?}");
            assert_eq!(doc.string_value(nodes[0]), "B", "{strategy:?}");
        }
        // Without the registration the same plan reports the call unknown.
        let err = execute_ir(
            EvalStrategy::ContextValueTable,
            &doc,
            &expr,
            &ir,
            ctx,
            EvalEnv::base(),
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::UnknownFunction { .. }), "{err:?}");
    }
}
