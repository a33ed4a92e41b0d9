//! Whole-request benchmark for xpeval.
//!
//! ```text
//! cargo run --release --manifest-path reqbench/Cargo.toml -- \
//!     --workload lookup|filter|edit_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Every request is a closed-loop call: one generator thread keeps
//! `WINDOW_PER_WORKER` requests per worker outstanding on an `AsyncEngine`
//! pool built on the catalog's engine, and each worker calls the public
//! `Catalog` entry point.  With `--trace 0` the run prints the end-to-end
//! metrics; with `--trace 1` it runs an untraced and a traced window and
//! prints the per-layer metrics, a layer table and a spans file under
//! `out/` of this package.  The last line of standard output is the JSON
//! result; the exit code is non-zero when any answer differs from the
//! model oracle.

mod client;
mod model;
mod oracle;
mod report;
mod rng;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use client::{run_loop, Listed, Stop, Traffic, Window, WINDOW_PER_WORKER};
use model::Auction;
use report::{median, percentile, ratio, Metric};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Recorder, SpanKind, STRATEGIES};
use workloads::Workload;
use xpeval_catalog::{Catalog, CatalogStats};
use xpeval_core::{CacheStats, CompiledQuery, Engine};
use xpeval_dom::{parse_xml, PreparedDocument};
use xpeval_obs::Telemetry;
use xpeval_serve::AsyncEngine;

/// Pool size.  Fixed rather than taken from the host, so that runs on
/// hosts of different size send the same traffic shape.
const WORKERS: usize = 2;

/// Set-ups per untraced run; `setup_s` is their median and the window runs
/// on the last one.
const SETUPS: usize = 5;

/// Spans written to the spans file at most (all of them feed the metrics).
const SPANS_FILE_CAP: usize = 100_000;

/// Distinct query texts and (text, document) pairs timed for
/// `plan.compile_us` / `plan.specialize_us` at most.
const PLAN_SAMPLE_CAP: usize = 512;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The generated inputs of one run: what the program receives.
struct Inputs {
    workload: Workload,
    seed: u64,
    corpus: Vec<(String, Auction)>,
    xml: Vec<String>,
}

/// A catalog, a pool and a traffic source, ready to measure.
struct Stage {
    catalog: Catalog,
    pool: AsyncEngine,
    traffic: Box<dyn Traffic>,
    setup_s: f64,
    /// Ingest spans and parse timings.
    setup_rec: Recorder,
    warmup: Window,
    next_id: u64,
}

fn setup(inputs: &Inputs, traced: bool, epoch: Instant) -> Result<Stage, String> {
    let mut setup_rec = Recorder::new(epoch, SPANS_FILE_CAP);
    let mut span = |kind, start: Instant| setup_rec.span(0, kind, start, Instant::now());
    let started = Instant::now();
    let catalog = if traced {
        // The catalog's default engine, plus a telemetry handle that
        // traces every run.
        let telemetry = Arc::new(Telemetry::with_sampling(1));
        let engine = Engine::builder()
            .document_cache_capacity(Catalog::builder().build().stats().capacity)
            .telemetry(telemetry)
            .build();
        Catalog::builder().engine(engine).build()
    } else {
        Catalog::new()
    };
    let mut parses = Vec::with_capacity(inputs.xml.len());
    for ((name, _), xml) in inputs.corpus.iter().zip(&inputs.xml) {
        let t = Instant::now();
        let doc = parse_xml(xml).map_err(|e| format!("{name}: {e}"))?;
        parses.push((xml.len(), span(SpanKind::DomParse, t)));
        let t = Instant::now();
        let prepared = Arc::new(PreparedDocument::new(doc));
        span(SpanKind::DomPrepare, t);
        let t = Instant::now();
        catalog.insert_prepared(name, prepared);
        span(SpanKind::CatalogInsert, t);
    }
    let ingest = started.elapsed();
    // The oracle's index is the benchmark's own work: off the clock.
    let mut traffic = inputs
        .workload
        .traffic(inputs.seed, &inputs.corpus, &catalog)?;
    let resumed = Instant::now();
    let pool = AsyncEngine::builder()
        .engine(catalog.engine().clone())
        .workers(WORKERS)
        .build();
    let pool_start = resumed.elapsed();
    let mut next_id = 1;
    // Generating the warm-up requests is the benchmark's work too.
    let warm_requests = traffic.warmup();
    let warm_started = Instant::now();
    let warmup = run_loop(
        &pool,
        &catalog,
        &mut Listed(warm_requests.into()),
        WORKERS * WINDOW_PER_WORKER,
        Stop::Drain,
        None,
        &mut next_id,
    );
    let setup_s = (ingest + pool_start + warm_started.elapsed()).as_secs_f64();
    span(SpanKind::Setup, started);
    setup_rec.parses = parses;
    if let Some(t) = catalog.engine().telemetry() {
        t.take_traces();
    }
    Ok(Stage {
        catalog,
        pool,
        traffic,
        setup_s,
        setup_rec,
        warmup,
        next_id,
    })
}

/// Counters read around a window.
struct Counters {
    catalog: CatalogStats,
    plan: CacheStats,
}

impl Counters {
    fn read(stage: &Stage) -> Self {
        Counters {
            catalog: stage.catalog.stats(),
            plan: stage.catalog.engine().cache_stats(),
        }
    }
}

fn measure(
    stage: &mut Stage,
    seconds: u64,
    recorder: Option<&mut Recorder>,
) -> (Window, Counters, Counters) {
    let before = Counters::read(stage);
    let window = run_loop(
        &stage.pool,
        &stage.catalog,
        stage.traffic.as_mut(),
        WORKERS * WINDOW_PER_WORKER,
        Stop::After(Duration::from_secs(seconds)),
        recorder,
        &mut stage.next_id,
    );
    let after = Counters::read(stage);
    (window, before, after)
}

fn rps(w: &Window) -> f64 {
    w.attempted as f64 / w.elapsed.as_secs_f64()
}

/// The traffic shape: what later changes are measured on.
fn describe(inputs: &Inputs, catalog: &Catalog) -> Vec<String> {
    let w = inputs.workload;
    let mut nodes: Vec<f64> = inputs
        .corpus
        .iter()
        .map(|(_, m)| m.node_count() as f64)
        .collect();
    nodes.sort_by(f64::total_cmp);
    let templates = w.templates();
    let mut fragments: BTreeMap<String, usize> = BTreeMap::new();
    let mut strategies: BTreeMap<String, usize> = BTreeMap::new();
    for text in &templates {
        let Ok(plan) = CompiledQuery::compile(text) else {
            *fragments.entry("compile error".into()).or_default() += 1;
            continue;
        };
        *fragments
            .entry(plan.fragment().name().to_string())
            .or_default() += 1;
        for (name, _) in &inputs.corpus {
            if let Some(doc) = catalog.get(name) {
                let s = plan.specialize_for_source(doc.as_ref()).strategy();
                *strategies.entry(format!("{s:?}")).or_default() += 1;
            }
        }
    }
    let stats = catalog.stats();
    let plan_cap = catalog.engine().cache_stats().capacity;
    let pairs = templates.len() * inputs.corpus.len();
    let mut lines = vec![
        format!(
            "workload {} seed {} workers {WORKERS} window {} (closed loop)",
            w.name(),
            inputs.seed,
            WORKERS * WINDOW_PER_WORKER
        ),
        format!(
            "documents {} nodes min/median/max {}/{}/{} total {} xml_bytes {}",
            nodes.len(),
            nodes[0],
            median(&nodes),
            nodes[nodes.len() - 1],
            nodes.iter().sum::<f64>(),
            inputs.xml.iter().map(String::len).sum::<usize>()
        ),
        format!(
            "query templates {}: {}",
            templates.len(),
            templates.join("  |  ")
        ),
        format!("fragment mix over templates: {fragments:?}"),
        format!("auto strategy over (template x document) pairs: {strategies:?}"),
        format!(
            "pairs {pairs} vs artifact capacity {} and plan cache capacity {plan_cap}",
            stats.artifact_capacity
        ),
    ];
    match w {
        Workload::Lookup => lines.push(format!(
            "popularity: Zipf s={} over pairs, top {} pairs hold {:.3} of the mass; {:.0}% of requests use a never-seen query text",
            workloads::LOOKUP_ZIPF,
            stats.artifact_capacity,
            rng::Zipf::new(pairs, workloads::LOOKUP_ZIPF).head_mass(stats.artifact_capacity),
            100.0 * workloads::NOVEL_SHARE
        )),
        Workload::Filter => lines.push("bindings drawn per request; every request evaluates".into()),
        Workload::EditMix => lines.push(
            "cycle: 1 write (80% edit, 10% XML replace, 10% snapshot replace) then 4 reads, one cycle per document".into(),
        ),
    }
    lines
}

/// `plan.compile_us` and `plan.specialize_us` samples over the query texts
/// and documents the window used.
fn plan_timings(rec: &Recorder, catalog: &Catalog, names: &[String]) -> (Vec<f64>, Vec<f64>) {
    let mut texts: Vec<&str> = rec.queries.iter().map(|(q, _)| q.as_ref()).collect();
    texts.sort_unstable();
    texts.dedup();
    let mut pairs: Vec<(&str, usize)> = rec.queries.iter().map(|(q, d)| (q.as_ref(), *d)).collect();
    pairs.sort_unstable();
    let every = |n: usize| (n / PLAN_SAMPLE_CAP).max(1);
    let mut compile_us = Vec::new();
    let mut plans = BTreeMap::new();
    for text in texts.iter().step_by(every(texts.len())) {
        let t = Instant::now();
        if let Ok(plan) = CompiledQuery::compile(text) {
            compile_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            plans.insert(*text, plan);
        }
    }
    let mut specialize_us = Vec::new();
    for (text, d) in pairs.iter().step_by(every(pairs.len())) {
        let plan = match plans.get(text) {
            Some(p) => p.clone(),
            None => match CompiledQuery::compile(text) {
                Ok(p) => p,
                Err(_) => continue,
            },
        };
        if let Some(doc) = catalog.get(&names[*d]) {
            let t = Instant::now();
            std::hint::black_box(plan.specialize_for_source(doc.as_ref()));
            specialize_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    (compile_us, specialize_us)
}

fn delta(after: u64, before: u64) -> f64 {
    after.saturating_sub(before) as f64
}

fn per_layer(
    inputs: &Inputs,
    stage: &Stage,
    rec: &Recorder,
    window: &Window,
    (before, after): (&Counters, &Counters),
    untraced: &Window,
) -> (Vec<Metric>, Vec<String>) {
    let setup = &stage.setup_rec;
    let both = |k: SpanKind| {
        let mut v = setup.us(k);
        v.extend(rec.us(k));
        v
    };
    let queue_wait = trace::to_us(&rec.queue_wait_ns);
    let handoff = trace::to_us(&rec.handoff_ns);
    let closure_us = rec.total_us(&[SpanKind::Closure]);
    let eval = rec.us(SpanKind::CatalogEval);
    let eval_us: f64 = eval.iter().sum();
    let (compile_us, specialize_us) = plan_timings(rec, &stage.catalog, &names(inputs));
    let plan_misses = delta(after.plan.misses, before.plan.misses);
    let artifact_hits = delta(after.catalog.artifact_hits, before.catalog.artifact_hits);
    let artifact_misses = delta(
        after.catalog.artifact_misses,
        before.catalog.artifact_misses,
    );
    let plan_est_us = plan_misses * median(&compile_us) + artifact_misses * median(&specialize_us);
    let exec = &rec.exec;
    let exec_us = exec.total_us();
    let preserved = delta(
        after.catalog.artifact_scope_preserved,
        before.catalog.artifact_scope_preserved,
    );
    let killed = delta(
        after.catalog.artifact_scope_killed,
        before.catalog.artifact_scope_killed,
    );
    let parses = setup.parses.iter().chain(&rec.parses);
    let (parse_bytes, parse_ns) = parses.fold((0, 0), |(b, n), p| (b + p.0, n + p.1));
    let (evals, ev, steps) = window.eval_counts;
    let wall_s = window.elapsed.as_secs_f64();
    let serve = stage.pool.stats();
    let mutate = trace::to_us(&rec.mutate_self_ns);
    let live = rec.us(SpanKind::LiveEdit);
    let writes = untraced.writes_us();

    let mut m = vec![
        Metric::new(
            "serve.queue_wait_us.p50",
            percentile(&queue_wait, 50.0),
            "us",
        ),
        Metric::new(
            "serve.queue_wait_us.p99",
            percentile(&queue_wait, 99.0),
            "us",
        ),
        Metric::new("serve.handoff_us.p50", percentile(&handoff, 50.0), "us"),
        Metric::new(
            "serve.busy_frac",
            ratio(closure_us / 1e6, WORKERS as f64 * wall_s),
            "fraction",
        ),
        Metric::new(
            "serve.queue_depth_max",
            serve.queue_high_watermark as f64,
            "count",
        ),
        Metric::new("catalog.eval_us.p50", percentile(&eval, 50.0), "us"),
        Metric::new("catalog.eval_us.p99", percentile(&eval, 99.0), "us"),
        Metric::new(
            "catalog.self_frac",
            ratio(eval_us - exec_us - plan_est_us, eval_us).clamp(0.0, 1.0),
            "fraction",
        ),
        Metric::new(
            "catalog.artifact_hit_ratio",
            ratio(artifact_hits, artifact_hits + artifact_misses),
            "fraction",
        ),
        Metric::new(
            "catalog.artifact_evictions",
            delta(
                after.catalog.artifact_evictions,
                before.catalog.artifact_evictions,
            ),
            "count",
        ),
        Metric::new("catalog.mutate_us.p50", percentile(&mutate, 50.0), "us"),
        Metric::new("catalog.mutate_us.p99", percentile(&mutate, 99.0), "us"),
        Metric::new(
            "catalog.scope_preserved_ratio",
            ratio(preserved, preserved + killed),
            "fraction",
        ),
        Metric::new(
            "catalog.insert_us.p50",
            median(&both(SpanKind::CatalogInsert)),
            "us",
        ),
        Metric::new(
            "plan.cache_hit_ratio",
            ratio(
                delta(after.plan.hits, before.plan.hits),
                delta(after.plan.hits, before.plan.hits) + plan_misses,
            ),
            "fraction",
        ),
        Metric::new("plan.compile_us.p50", median(&compile_us), "us"),
        Metric::new("plan.specialize_us.p50", median(&specialize_us), "us"),
    ];
    for (k, name) in STRATEGIES.iter().enumerate() {
        m.push(Metric::new(
            format!("exec.busy_s.{name}"),
            exec.busy_s(k),
            "s",
        ));
    }
    for (k, name) in STRATEGIES.iter().enumerate() {
        m.push(Metric::new(
            format!("exec.runs.{name}"),
            exec.run_us[k].len() as f64,
            "count",
        ));
    }
    for (k, name) in STRATEGIES.iter().enumerate() {
        m.push(Metric::new(
            format!("exec.run_us.p50.{name}"),
            percentile(&exec.run_us[k], 50.0),
            "us",
        ));
    }
    for (k, name) in STRATEGIES.iter().enumerate() {
        m.push(Metric::new(
            format!("exec.run_us.p99.{name}"),
            percentile(&exec.run_us[k], 99.0),
            "us",
        ));
    }
    m.extend([
        Metric::new(
            "exec.step_evals_per_run",
            ratio(steps as f64, evals as f64),
            "count",
        ),
        Metric::new(
            "exec.evaluations_per_run",
            ratio(ev as f64, evals as f64),
            "count",
        ),
        Metric::new("exec.path_op_frac", exec.path_op_frac(), "fraction"),
        Metric::new("dom.parse_us.p50", median(&both(SpanKind::DomParse)), "us"),
        Metric::new(
            "dom.prepare_us.p50",
            median(&both(SpanKind::DomPrepare)),
            "us",
        ),
        Metric::new(
            "dom.parse_mb_s",
            ratio(parse_bytes as f64 / 1e6, parse_ns as f64 / 1e9),
            "MB/s",
        ),
        Metric::new("live.edit_us.p50", percentile(&live, 50.0), "us"),
        Metric::new("live.edit_us.p99", percentile(&live, 99.0), "us"),
        Metric::new(
            "backends.snapshot_open_us.p50",
            median(&rec.us(SpanKind::SnapshotOpen)),
            "us",
        ),
        Metric::new("write_p50_us", percentile(&writes, 50.0), "us"),
        Metric::new("write_p99_us", percentile(&writes, 99.0), "us"),
        Metric::new(
            "trace.attributed_frac",
            ratio(rec.closure_children_us(), closure_us),
            "fraction",
        ),
        Metric::new(
            "trace.overhead_frac",
            1.0 - ratio(rps(window), rps(untraced)),
            "fraction",
        ),
    ]);
    (m, rec.attribution(plan_est_us))
}

fn names(inputs: &Inputs) -> Vec<String> {
    inputs.corpus.iter().map(|(n, _)| n.clone()).collect()
}

fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: reqbench --workload lookup|filter|edit_mix --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
    }
}

/// Runs one invocation; `Ok(false)` when some answer was wrong.
fn run(args: &Args) -> Result<bool, String> {
    let corpus = args.workload.corpus(args.seed);
    let xml: Vec<String> = corpus.iter().map(|(_, m)| m.to_xml()).collect();
    let inputs = Inputs {
        workload: args.workload,
        seed: args.seed,
        corpus,
        xml,
    };
    let epoch = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures: Vec<String> = Vec::new();
    let mut tally = |w: &Window| {
        attempted += w.attempted;
        failed += w.failed;
        failures.extend(w.failures.iter().cloned());
    };
    let mut lines = Vec::new();
    let metrics = if !args.trace {
        let mut setups = Vec::with_capacity(SETUPS);
        let mut stage = None;
        for _ in 0..SETUPS {
            // Tear the previous set-up down first, so set-ups do not
            // overlap in memory.
            drop(stage.take());
            let s = setup(&inputs, false, epoch)?;
            tally(&s.warmup);
            setups.push(s.setup_s);
            stage = Some(s);
        }
        let mut stage = stage.expect("at least one set-up");
        let (window, _, _) = measure(&mut stage, args.seconds, None);
        // Read before the analysis below allocates: the high-water mark
        // should be the program's and the stored latencies', not the
        // benchmark's sorting copies.
        let peak_rss_mb = report::peak_rss_mb();
        tally(&window);
        lines.extend(describe(&inputs, &stage.catalog));
        let reads = window.reads_us();
        let writes = window.writes_us();

        lines.push(format!(
            "reads {} writes {} in {:.3} s; failed_frac {:.6}; setups_s {setups:?}",
            reads.len(),
            writes.len(),
            window.elapsed.as_secs_f64(),
            ratio(window.failed as f64, window.attempted as f64)
        ));
        if !writes.is_empty() {
            lines.push(format!(
                "write_p50_us {:.2} write_p99_us {:.2} (n={})",
                percentile(&writes, 50.0),
                percentile(&writes, 99.0),
                writes.len()
            ));
        }
        vec![
            Metric::new("throughput_rps", rps(&window), "1/s"),
            Metric::new("latency_p50_us", percentile(&reads, 50.0), "us"),
            Metric::new("latency_p99_us", percentile(&reads, 99.0), "us"),
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    } else {
        let untraced = {
            let mut stage = setup(&inputs, false, epoch)?;
            tally(&stage.warmup);
            let (window, _, _) = measure(&mut stage, args.seconds, None);
            tally(&window);
            window
        };
        let mut stage = setup(&inputs, true, epoch)?;
        tally(&stage.warmup);
        let cap = SPANS_FILE_CAP.saturating_sub(stage.setup_rec.kept.len());
        let mut rec = Recorder::new(epoch, cap);
        let (window, before, after) = measure(&mut stage, args.seconds, Some(&mut rec));
        tally(&window);
        lines.extend(describe(&inputs, &stage.catalog));
        let table = rec.layer_table(&stage.setup_rec);
        let (metrics, shares) =
            per_layer(&inputs, &stage, &rec, &window, (&before, &after), &untraced);
        lines.extend(shares);
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let stem = inputs.workload.name();
        let spans_path = dir.join(format!("{stem}-spans.jsonl"));
        trace::write_spans(&spans_path, &[&stage.setup_rec, &rec])
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
        let mut summary = lines.join("\n");
        summary.push('\n');
        summary.push_str(&table);
        for m in &metrics {
            summary.push_str(&format!("{} {} {}\n", m.name, m.value, m.unit));
        }
        let summary_path = dir.join(format!("{stem}-layers.txt"));
        std::fs::write(&summary_path, &summary)
            .map_err(|e| format!("{}: {e}", summary_path.display()))?;
        let recorded = stage.setup_rec.recorded + rec.recorded;
        let kept = stage.setup_rec.kept.len() + rec.kept.len();
        lines.push(format!(
            "spans {recorded} ({kept} written to {}); layer table in {}",
            spans_path.display(),
            summary_path.display()
        ));
        lines.extend(table.lines().map(String::from));
        let attributed = metrics
            .iter()
            .find(|m| m.name == "trace.attributed_frac")
            .map_or(0.0, |m| m.value);
        if attributed < 0.5 {
            failed += 1;
            failures.push(format!(
                "trace attributes only {:.1}% of worker time to child spans",
                100.0 * attributed
            ));
        }
        metrics
    };
    for line in &lines {
        println!("# {line}");
    }
    for m in &metrics {
        println!("# {} {} {}", m.name, m.value, m.unit);
    }
    for f in failures.iter().take(16) {
        eprintln!("FAILED: {f}");
    }
    println!(
        "{}",
        report::result_json(failed == 0, attempted, failed, &metrics)
    );
    Ok(failed == 0)
}
