//! The closed loop: one generator thread keeps a fixed window of requests
//! outstanding on an `AsyncEngine` pool, and each worker calls the public
//! `Catalog` entry point for its request.
//!
//! Spans are recorded by this file only, around the calls into each layer
//! (submit, the worker closure, the catalog call, the live edit, the dom
//! parse/prepare and the snapshot open), and only when the run is traced.

use crate::oracle::{check, Expect};
use crate::trace::{nanos32, Recorder, SpanKind, DISTINCT_QUERY_CAP};
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};
use xpeval_backends::PreparedSnapshot;
use xpeval_catalog::{Catalog, LiveDocument};
use xpeval_core::{Bindings, Engine, QueryOutput};
use xpeval_dom::{parse_xml, NodeId, PreparedDocument};
use xpeval_obs::QueryTrace;
use xpeval_serve::{AsyncEngine, QueryFuture};

/// Requests outstanding per worker.
pub const WINDOW_PER_WORKER: usize = 2;

/// Read latencies a measured window has room for before its vector grows.
const READS_RESERVED: usize = 1 << 22;

/// A worker-side span, in `Instant`s; the generator rebases it.
#[derive(Clone, Copy, Debug)]
pub struct ChildSpan {
    pub kind: SpanKind,
    pub start: Instant,
    pub end: Instant,
}

/// An in-place edit, addressed by node ids of the snapshot the generator
/// indexed; the document has no other write in flight, so they stay valid.
#[derive(Clone, Debug)]
pub enum EditOp {
    Insert {
        parent: NodeId,
        index: usize,
        xml: String,
    },
    SetAttribute {
        el: NodeId,
        name: &'static str,
        value: String,
    },
    Remove {
        node: NodeId,
    },
}

/// What a worker does for one request.
pub enum Job {
    Read {
        doc: Arc<str>,
        query: Arc<str>,
        bindings: Option<Bindings>,
    },
    Edit {
        doc: Arc<str>,
        op: EditOp,
    },
    ReplaceXml {
        doc: Arc<str>,
        xml: String,
    },
    ReplaceSnapshot {
        doc: Arc<str>,
        bytes: Vec<u8>,
    },
}

/// One request as the traffic generator hands it to the loop.
pub struct Request {
    pub job: Job,
    pub expect: Expect,
    /// Index of the target document in the workload's corpus.
    pub doc: usize,
    /// Bytes of XML the worker parses (replacement writes), for dom.parse_mb_s.
    pub parse_bytes: usize,
}

impl Request {
    pub fn is_write(&self) -> bool {
        !matches!(self.job, Job::Read { .. })
    }
}

/// A request's outcome as the generator needs it after completion.
pub struct Done {
    pub doc: usize,
    pub write: bool,
}

/// The traffic of one workload.
pub trait Traffic {
    /// The next request, or `None` when nothing may be sent before an
    /// outstanding request completes.
    fn next(&mut self) -> Option<Request>;
    /// Called once per completed request, in completion order.  Returns an
    /// oracle failure found while updating the traffic's own state.
    fn done(&mut self, done: &Done) -> Result<(), String>;
    /// The requests that warm the caches before the window opens.
    fn warmup(&mut self) -> Vec<Request>;
}

/// A fixed list of requests, sent in order.
pub struct Listed(pub std::collections::VecDeque<Request>);

impl Traffic for Listed {
    fn next(&mut self) -> Option<Request> {
        self.0.pop_front()
    }

    fn done(&mut self, _: &Done) -> Result<(), String> {
        Ok(())
    }

    fn warmup(&mut self) -> Vec<Request> {
        Vec::new()
    }
}

/// What the worker sends back.
pub struct Reply {
    result: Result<Option<QueryOutput>, String>,
    start: Option<Instant>,
    end: Option<Instant>,
    spans: Vec<ChildSpan>,
    traces: Vec<QueryTrace>,
}

fn stamp(traced: bool) -> Option<Instant> {
    traced.then(Instant::now)
}

fn push_span(spans: &mut Vec<ChildSpan>, kind: SpanKind, start: Option<Instant>) {
    if let Some(start) = start {
        spans.push(ChildSpan {
            kind,
            start,
            end: Instant::now(),
        });
    }
}

/// The worker side of one request.
fn run_job(catalog: &Catalog, engine: &Engine, job: Job, traced: bool) -> Reply {
    let start = stamp(traced);
    let mut spans = Vec::new();
    let result = match job {
        Job::Read {
            doc,
            query,
            bindings,
        } => {
            let t = stamp(traced);
            let out = match &bindings {
                Some(b) => catalog.evaluate_on_bound(&doc, &query, b),
                None => catalog.evaluate_on(&doc, &query),
            };
            push_span(&mut spans, SpanKind::CatalogEval, t);
            out.map(Some).map_err(|e| e.to_string())
        }
        Job::Edit { doc, op } => run_edit(catalog, &doc, op, traced, &mut spans),
        Job::ReplaceXml { doc, xml } => {
            let t = stamp(traced);
            let parsed = parse_xml(&xml);
            push_span(&mut spans, SpanKind::DomParse, t);
            parsed.map_err(|e| e.to_string()).map(|parsed| {
                let t = stamp(traced);
                let prepared = Arc::new(PreparedDocument::new(parsed));
                push_span(&mut spans, SpanKind::DomPrepare, t);
                let t = stamp(traced);
                catalog.insert_prepared(&doc, prepared);
                push_span(&mut spans, SpanKind::CatalogInsert, t);
                None
            })
        }
        Job::ReplaceSnapshot { doc, bytes } => {
            let t = stamp(traced);
            let opened = PreparedSnapshot::from_bytes(bytes)
                .and_then(|snap| snap.document().map(|_| snap))
                .map_err(|e| e.to_string());
            push_span(&mut spans, SpanKind::SnapshotOpen, t);
            opened.and_then(|snap| {
                let t = stamp(traced);
                let inserted = catalog.insert_snapshot(&doc, &Arc::new(snap));
                push_span(&mut spans, SpanKind::CatalogInsert, t);
                inserted.map(|_| None).map_err(|e| e.to_string())
            })
        }
    };
    let traces = match engine.telemetry() {
        Some(t) if traced => t.take_traces(),
        _ => Vec::new(),
    };
    Reply {
        result,
        start,
        end: stamp(traced),
        spans,
        traces,
    }
}

fn run_edit(
    catalog: &Catalog,
    doc: &str,
    op: EditOp,
    traced: bool,
    spans: &mut Vec<ChildSpan>,
) -> Result<Option<QueryOutput>, String> {
    match op {
        EditOp::Insert { parent, index, xml } => {
            let fragment = parse_xml(&xml).map_err(|e| e.to_string())?;
            mutate(catalog, doc, traced, spans, |live| {
                live.insert_subtree(parent, index, &fragment)
            })
        }
        EditOp::SetAttribute { el, name, value } => mutate(catalog, doc, traced, spans, |live| {
            live.set_attribute(el, name, &value)
        }),
        EditOp::Remove { node } => mutate(catalog, doc, traced, spans, |live| {
            live.remove_subtree(node)
        }),
    }
}

/// `Catalog::mutate_named` around one live edit, with both spans.
fn mutate<R, E: ToString>(
    catalog: &Catalog,
    doc: &str,
    traced: bool,
    spans: &mut Vec<ChildSpan>,
    edit: impl FnOnce(&mut LiveDocument) -> Result<R, E>,
) -> Result<Option<QueryOutput>, String> {
    let t = stamp(traced);
    let outcome = catalog.mutate_named(doc, |live| {
        let t = stamp(traced);
        let edited = edit(live);
        (edited, t.map(|start| (start, Instant::now())))
    });
    push_span(spans, SpanKind::CatalogMutate, t);
    let (edited, live_span) = outcome.map_err(|e| e.to_string())?.value;
    if let Some((start, end)) = live_span {
        spans.push(ChildSpan {
            kind: SpanKind::LiveEdit,
            start,
            end,
        });
    }
    edited.map(|_| None).map_err(|e| e.to_string())
}

/// When a loop stops submitting.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// Submit for this long.
    After(Duration),
    /// Submit every request the traffic has.
    Drain,
}

/// Everything one loop measured.
#[derive(Default)]
pub struct Window {
    pub elapsed: Duration,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Read latencies, submit to held, in nanoseconds.
    pub reads_ns: Vec<u32>,
    pub writes_ns: Vec<u32>,
    /// Σ `EvalStats` over read replies: (replies, evaluations, step evals).
    pub eval_counts: (u64, u64, u64),
}

impl Window {
    pub fn reads_us(&self) -> Vec<f64> {
        crate::trace::to_us(&self.reads_ns)
    }

    pub fn writes_us(&self) -> Vec<f64> {
        crate::trace::to_us(&self.writes_ns)
    }
}

struct Inflight {
    fut: QueryFuture<Reply>,
    submitted: Instant,
    id: u64,
    doc: usize,
    write: bool,
    expect: Expect,
    parse_bytes: usize,
}

struct ThreadWaker(std::thread::Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// The closed loop.  With a recorder the run is traced; `next_id`
/// numbers requests across calls.
pub fn run_loop(
    pool: &AsyncEngine,
    catalog: &Catalog,
    traffic: &mut dyn Traffic,
    window: usize,
    stop: Stop,
    mut recorder: Option<&mut Recorder>,
    next_id: &mut u64,
) -> Window {
    let traced = recorder.is_some();
    let mut out = Window::default();
    if let Stop::After(_) = stop {
        // Reserved up front so that `peak_rss_mb` grows with the reads
        // actually stored, not in the steps of a doubling vector: pages
        // of the reservation count only once written.
        out.reads_ns.reserve(READS_RESERVED);
    }
    let mut inflight: Vec<Inflight> = Vec::with_capacity(window);
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let started = Instant::now();
    loop {
        let open = match stop {
            Stop::After(d) => started.elapsed() < d,
            Stop::Drain => true,
        };
        while open && inflight.len() < window {
            let Some(req) = traffic.next() else { break };
            let write = req.is_write();
            let id = *next_id;
            *next_id += 1;
            if let (Some(rec), Job::Read { query, .. }) = (recorder.as_deref_mut(), &req.job) {
                if rec.queries.len() < DISTINCT_QUERY_CAP {
                    rec.queries.insert((Arc::clone(query), req.doc));
                }
            }
            let c = catalog.clone();
            let job = req.job;
            let submitted = Instant::now();
            match pool.submit_task(move |engine| run_job(&c, engine, job, traced)) {
                Ok(fut) => inflight.push(Inflight {
                    fut,
                    submitted,
                    id,
                    doc: req.doc,
                    write,
                    expect: req.expect,
                    parse_bytes: req.parse_bytes,
                }),
                Err(e) => {
                    out.attempted += 1;
                    out.failed += 1;
                    out.failures.push(format!("request {id} rejected: {e}"));
                    let _ = traffic.done(&Done {
                        doc: req.doc,
                        write,
                    });
                }
            }
        }
        if inflight.is_empty() {
            // Traffic that has nothing to send while nothing is
            // outstanding is exhausted.
            break;
        }
        // Wait until at least one outstanding request completes.
        let mut i = 0;
        let mut progressed = false;
        while i < inflight.len() {
            let polled = Pin::new(&mut inflight[i].fut).poll(&mut cx);
            let Poll::Ready(result) = polled else {
                i += 1;
                continue;
            };
            let held = Instant::now();
            progressed = true;
            let f = inflight.swap_remove(i);
            let latency = nanos32(held.duration_since(f.submitted).as_nanos() as u64);
            out.attempted += 1;
            let verdict = match result {
                Err(lost) => Err(format!("request {} lost: {lost}", f.id)),
                Ok(mut reply) => {
                    if let Some(rec) = recorder.as_deref_mut() {
                        record(rec, &f, &mut reply, held);
                    }
                    match (reply.result, &f.expect) {
                        (Err(e), _) => Err(format!("request {} failed: {e}", f.id)),
                        (Ok(None), Expect::Written) => Ok(()),
                        (Ok(Some(output)), expect) => {
                            out.eval_counts.0 += 1;
                            out.eval_counts.1 += output.stats.evaluations;
                            out.eval_counts.2 += output.stats.step_context_evaluations;
                            check(expect, &output.value)
                                .map_err(|e| format!("request {} wrong answer: {e}", f.id))
                        }
                        (Ok(None), expect) => Err(format!(
                            "request {} returned nothing, expected {expect:?}",
                            f.id
                        )),
                    }
                }
            };
            if f.write {
                out.writes_ns.push(latency);
            } else {
                out.reads_ns.push(latency);
            }
            let traffic_check = traffic.done(&Done {
                doc: f.doc,
                write: f.write,
            });
            if let Err(e) = verdict.and(traffic_check) {
                out.failed += 1;
                if out.failures.len() < 16 {
                    out.failures.push(e);
                }
            }
        }
        if !progressed {
            std::thread::park();
        }
    }
    out.elapsed = started.elapsed();
    out
}

/// Records one traced request: its spans, the serve waits around the
/// closure, and the engine's query traces drained by the worker.
fn record(rec: &mut Recorder, f: &Inflight, reply: &mut Reply, held: Instant) {
    rec.span(f.id, SpanKind::Submit, f.submitted, held);
    if let (Some(start), Some(end)) = (reply.start, reply.end) {
        rec.span(f.id, SpanKind::Closure, start, end);
        let ns = |a: Instant, b: Instant| nanos32(b.saturating_duration_since(a).as_nanos() as u64);
        rec.queue_wait_ns.push(ns(f.submitted, start));
        rec.handoff_ns.push(ns(end, held));
    }
    let (mut mutate, mut live) = (None, 0);
    for s in &reply.spans {
        let ns = rec.span(f.id, s.kind, s.start, s.end);
        match s.kind {
            SpanKind::DomParse => rec.parses.push((f.parse_bytes, ns)),
            SpanKind::CatalogMutate => mutate = Some(ns),
            SpanKind::LiveEdit => live = ns,
            _ => {}
        }
    }
    if let Some(m) = mutate {
        rec.mutate_self_ns.push(nanos32(m.saturating_sub(live)));
    }
    for trace in reply.traces.drain(..) {
        rec.exec.add(trace);
    }
}
