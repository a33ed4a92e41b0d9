//! The traced run's records: spans around each call into a layer, kept
//! compact, and the exec figures drawn from the engine's own query traces.

use crate::report::{percentile, ratio};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use xpeval_core::{CompiledQuery, OpKind, PlanIr};
use xpeval_obs::QueryTrace;

/// The layer boundaries the benchmark records, with their parents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanKind {
    /// Corpus ingest, pool start and warm-up, before the window opens.
    Setup,
    /// `submit_task` call until the generator holds the result.
    Submit,
    /// The worker closure.
    Closure,
    /// `Catalog::evaluate_on[_bound]`.
    CatalogEval,
    /// `Catalog::mutate_named`.
    CatalogMutate,
    /// `Catalog::insert_prepared` / `insert_snapshot`.
    CatalogInsert,
    /// The `LiveDocument` edit call inside the mutate closure.
    LiveEdit,
    /// `parse_xml`.
    DomParse,
    /// `PreparedDocument::new`.
    DomPrepare,
    /// `PreparedSnapshot::from_bytes` + `document()`.
    SnapshotOpen,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Setup => "setup",
            SpanKind::Submit => "serve.submit",
            SpanKind::Closure => "serve.closure",
            SpanKind::CatalogEval => "catalog.evaluate_on",
            SpanKind::CatalogMutate => "catalog.mutate_named",
            SpanKind::CatalogInsert => "catalog.insert",
            SpanKind::LiveEdit => "live.edit",
            SpanKind::DomParse => "dom.parse_xml",
            SpanKind::DomPrepare => "dom.prepare",
            SpanKind::SnapshotOpen => "backends.snapshot_open",
        }
    }

    /// Set-up spans have no parent and parse/prepare/insert spans at
    /// set-up time have the set-up span as theirs; in a request, the
    /// parent is the closure or, for the live edit, the mutate call.
    pub fn parent(self, req: u64) -> Option<SpanKind> {
        match self {
            SpanKind::Setup | SpanKind::Submit => None,
            _ if req == 0 => Some(SpanKind::Setup),
            SpanKind::Closure => Some(SpanKind::Submit),
            SpanKind::LiveEdit => Some(SpanKind::CatalogMutate),
            _ => Some(SpanKind::Closure),
        }
    }
}

/// One span as written to the spans file.  `req` is the request id, 0 for
/// set-up; the parent is the span of kind `kind.parent(req)` with the
/// same `req`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub req: u64,
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans of one traced phase.  The first `cap` are kept whole for the
/// spans file; every span's duration is kept by kind for the metrics.
pub struct Recorder {
    epoch: Instant,
    cap: usize,
    pub kept: Vec<Span>,
    pub recorded: u64,
    durations: BTreeMap<SpanKind, Vec<u32>>,
    /// Submit → closure start and closure end → held, per request.
    pub queue_wait_ns: Vec<u32>,
    pub handoff_ns: Vec<u32>,
    /// `mutate_named` minus the live edit inside it, per write.
    pub mutate_self_ns: Vec<u32>,
    /// (bytes, nanoseconds) of each `parse_xml`.
    pub parses: Vec<(usize, u64)>,
    pub exec: Exec,
    /// Distinct (query text, document) pairs read, the first
    /// `DISTINCT_QUERY_CAP` of them.
    pub queries: HashSet<(Arc<str>, usize)>,
}

/// Nanoseconds as stored: `u32` holds 4.29 s, far above any span here.
pub fn nanos32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

impl Recorder {
    pub fn new(epoch: Instant, cap: usize) -> Self {
        Recorder {
            epoch,
            cap,
            kept: Vec::new(),
            recorded: 0,
            durations: BTreeMap::new(),
            queue_wait_ns: Vec::new(),
            handoff_ns: Vec::new(),
            mutate_self_ns: Vec::new(),
            parses: Vec::new(),
            exec: Exec::default(),
            queries: HashSet::new(),
        }
    }

    /// Records a span; returns its length in nanoseconds.
    pub fn span(&mut self, req: u64, kind: SpanKind, start: Instant, end: Instant) -> u64 {
        let rel = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let ns = end.saturating_duration_since(start).as_nanos() as u64;
        if self.kept.len() < self.cap {
            self.kept.push(Span {
                req,
                kind,
                start_ns: rel(start),
                end_ns: rel(end),
            });
        }
        self.recorded += 1;
        self.durations.entry(kind).or_default().push(nanos32(ns));
        ns
    }

    /// Durations of one kind, in microseconds.
    pub fn us(&self, kind: SpanKind) -> Vec<f64> {
        to_us(self.durations.get(&kind).map_or(&[], |v| v.as_slice()))
    }

    /// Σ durations of the given kinds, in microseconds.
    pub fn total_us(&self, kinds: &[SpanKind]) -> f64 {
        kinds.iter().map(|&k| self.us(k).iter().sum::<f64>()).sum()
    }

    /// Σ durations of the spans whose parent is the worker closure.
    pub fn closure_children_us(&self) -> f64 {
        let kinds: Vec<SpanKind> = self
            .durations
            .keys()
            .copied()
            .filter(|k| k.parent(1) == Some(SpanKind::Closure))
            .collect();
        self.total_us(&kinds)
    }

    /// One row per span kind and per exec strategy: count, p50, p99,
    /// total, and share of worker time (Σ closure spans).
    pub fn layer_table(&self, setup: &Recorder) -> String {
        let worker_us = self.total_us(&[SpanKind::Closure]);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<30} {:>9} {:>11} {:>11} {:>10} {:>8}",
            "layer", "count", "p50_us", "p99_us", "total_s", "worker%"
        );
        let mut row = |name: &str, v: &[f64], share: bool| {
            let total: f64 = v.iter().sum();
            let share = if share {
                format!("{:.1}%", 100.0 * ratio(total, worker_us))
            } else {
                "-".into()
            };
            let _ = writeln!(
                out,
                "{:<30} {:>9} {:>11.2} {:>11.2} {:>10.4} {:>8}",
                name,
                v.len(),
                percentile(v, 50.0),
                percentile(v, 99.0),
                total / 1e6,
                share
            );
        };
        for &kind in self.durations.keys() {
            row(kind.name(), &self.us(kind), true);
        }
        for (k, name) in STRATEGIES.iter().enumerate() {
            if !self.exec.run_us[k].is_empty() {
                row(&format!("exec.{name}"), &self.exec.run_us[k], true);
            }
        }
        for &kind in setup.durations.keys() {
            row(&format!("setup/{}", kind.name()), &setup.us(kind), false);
        }
        out
    }

    /// Where the time went: shares of request latency (Σ submit spans) and
    /// of worker time (Σ closure spans), by layer.  `plan_us` is the plan
    /// time attributed to catalog calls.
    pub fn attribution(&self, plan_us: f64) -> Vec<String> {
        use SpanKind::*;
        let request = self.total_us(&[Submit]);
        let worker = self.total_us(&[Closure]);
        let catalog = self.total_us(&[CatalogEval, CatalogMutate, CatalogInsert]);
        let live = self.total_us(&[LiveEdit]);
        let dom = self.total_us(&[DomParse, DomPrepare]);
        let backends = self.total_us(&[SnapshotOpen]);
        let exec = &self.exec;
        let exec_us = exec.total_us();
        let catalog_self = (catalog - live - exec_us - plan_us).max(0.0);
        let closure_self = (worker - catalog - dom - backends).max(0.0);
        let pct = |v: f64, of: f64| format!("{:.1}%", 100.0 * ratio(v, of) + 0.0);
        let layers = |of: f64| {
            format!(
                "catalog {} plan(est) {} exec {} [cvt {} linear {} singleton {} parallel {}] \
                 live {} dom {} backends {} closure-self {}",
                pct(catalog_self, of),
                pct(plan_us, of),
                pct(exec_us, of),
                pct(exec.busy_s(0) * 1e6, of),
                pct(exec.busy_s(1) * 1e6, of),
                pct(exec.busy_s(2) * 1e6, of),
                pct(exec.busy_s(3) * 1e6, of),
                pct(live, of),
                pct(dom, of),
                pct(backends, of),
                pct(closure_self, of),
            )
        };
        vec![
            format!(
                "share of request latency ({:.3} s): serve {} {}",
                request / 1e6,
                pct(request - worker, request),
                layers(request)
            ),
            format!(
                "share of worker time ({:.3} s): {}",
                worker / 1e6,
                layers(worker)
            ),
        ]
    }
}

/// Writes the kept spans of the recorders as JSON lines.
pub fn write_spans(path: &std::path::Path, recorders: &[&Recorder]) -> std::io::Result<()> {
    use std::io::Write as _;
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    for s in recorders.iter().flat_map(|r| &r.kept) {
        let parent = s
            .kind
            .parent(s.req)
            .map_or("null".to_string(), |p| format!("\"{}\"", p.name()));
        writeln!(
            w,
            "{{\"req\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.req,
            s.kind.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

pub fn to_us(ns: &[u32]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

/// Distinct query texts kept for `exec.path_op_frac` and for the plan
/// timings; never-seen `lookup` texts would otherwise grow without bound.
pub const DISTINCT_QUERY_CAP: usize = 4096;

/// Exec strategies as the per-layer metric names spell them.
pub const STRATEGIES: [&str; 4] = ["cvt", "linear", "singleton", "parallel"];

fn strategy_key(strategy: &str) -> Option<usize> {
    match strategy {
        "ContextValueTable" => Some(0),
        "CoreXPathLinear" => Some(1),
        "SingletonSuccess" => Some(2),
        s if s.starts_with("Parallel") => Some(3),
        _ => None,
    }
}

/// Per-strategy exec figures from the engine's own query traces, and the
/// per-opcode time summed by query text.
#[derive(Default)]
pub struct Exec {
    pub run_us: [Vec<f64>; 4],
    op_ns: HashMap<String, Vec<u64>>,
}

impl Exec {
    pub fn add(&mut self, trace: QueryTrace) {
        if let Some(k) = strategy_key(&trace.strategy) {
            self.run_us[k].push(trace.total_nanos as f64 / 1e3);
        }
        if self.op_ns.len() >= DISTINCT_QUERY_CAP && !self.op_ns.contains_key(&trace.query) {
            return;
        }
        let ops = trace.op_spans().count();
        let sums = self
            .op_ns
            .entry(trace.query)
            .or_insert_with(|| vec![0; ops]);
        for span in trace.spans.iter() {
            if let Some(slot) = span.op.and_then(|op| sums.get_mut(op as usize)) {
                *slot += span.nanos;
            }
        }
    }

    pub fn busy_s(&self, k: usize) -> f64 {
        self.run_us[k].iter().sum::<f64>() / 1e6
    }

    pub fn total_us(&self) -> f64 {
        (0..STRATEGIES.len()).map(|k| self.busy_s(k)).sum::<f64>() * 1e6
    }

    /// Self time of `Path` opcodes ÷ self time of all opcodes.  An
    /// opcode's span includes its operands', so its self time is its span
    /// minus theirs, read off the plan's own `PlanIr`.
    pub fn path_op_frac(&self) -> f64 {
        let (mut path, mut all) = (0.0, 0.0);
        for (query, nanos) in &self.op_ns {
            let Ok(plan) = CompiledQuery::compile(query) else {
                continue;
            };
            let ir = plan.ir();
            if ir.ops().len() != nanos.len() {
                continue;
            }
            for (id, op) in ir.ops().iter().enumerate() {
                let operands: u64 = operands(ir, &op.kind)
                    .iter()
                    .map(|&c| nanos[c as usize])
                    .sum();
                let own = nanos[id].saturating_sub(operands) as f64;
                all += own;
                if matches!(op.kind, OpKind::Path { .. }) {
                    path += own;
                }
            }
        }
        ratio(path, all)
    }
}

/// The opcodes an opcode evaluates directly: its operands, call arguments
/// and step predicates.
fn operands(ir: &PlanIr, kind: &OpKind) -> Vec<u32> {
    match kind {
        OpKind::Number(_) | OpKind::Literal(_) | OpKind::Variable(_) => Vec::new(),
        OpKind::Path { steps, .. } => ir
            .path_steps(*steps)
            .iter()
            .flat_map(|s| ir.step_preds(s).iter().copied())
            .collect(),
        OpKind::Union(a, b)
        | OpKind::Intersect(a, b)
        | OpKind::Except(a, b)
        | OpKind::Or(a, b)
        | OpKind::And(a, b)
        | OpKind::NodeCompare {
            left: a, right: b, ..
        }
        | OpKind::Relational {
            left: a, right: b, ..
        }
        | OpKind::Arithmetic {
            left: a, right: b, ..
        } => vec![*a, *b],
        OpKind::Not(a) | OpKind::Neg(a) => vec![*a],
        OpKind::Call { args, .. } => ir.call_args(*args).to_vec(),
    }
}
