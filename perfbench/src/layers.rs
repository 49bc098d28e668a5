//! The traced run: per-layer metrics from the benchmark's own spans.
//!
//! One untraced round gives the reference end-to-end numbers. A second
//! round sends the same requests through the service and, after each one
//! that missed the cache, calls every layer's public function directly
//! under a span: the frontend parse, interning, the fast engine and (on
//! `plan_saturate`) the saturating engine. Spans carry a name, start, end,
//! parent and request id; they stay in memory and are written as JSON lines
//! to `<spans-dir>/<workload>-<seed>.jsonl` when the run ends. The tracing
//! overhead is the traced round's wall time per request minus the
//! untraced round's.

use crate::stats::{mean, percentile};
use crate::{
    exec_pass, exec_report, json_counts, peak_rss_mb, repeat_mismatches, result_line, run_round,
};
use crate::{Args, Setup, Workload};
use kola::intern::Interner;
use kola_rewrite::saturate::term_cost;
use kola_rewrite::{Catalog, Engine, EngineConfig, Oriented, PropDb, StopReason, TermSize};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span store; times are ns since `epoch`.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Request id of set-up and execution spans (not tied to one request).
const NO_REQUEST: u64 = u64::MAX;

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Run `f` under a span; returns its value and duration in µs.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let t = Instant::now();
        let v = f();
        let end = Instant::now();
        self.record(name, t, end, parent, request);
        (v, (end - t).as_secs_f64() * 1e6)
    }

    fn setup_spans(&mut self, s: &Setup) {
        let root = self.record("setup", s.began, s.began, None, NO_REQUEST);
        let mut at = s.began;
        for (name, ms) in [
            ("setup.datagen", s.datagen_ms),
            ("setup.start", s.start_ms),
            ("setup.first_plan", s.first_plan_ms),
            ("setup.warm", s.warm_ms),
        ] {
            let end = at + std::time::Duration::from_secs_f64(ms / 1e3);
            self.record(name, at, end, Some(root), NO_REQUEST);
            at = end;
        }
        self.spans[root].end_ns = self.ns(at);
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = if s.request == NO_REQUEST {
                "null".to_string()
            } else {
                s.request.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {request}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Per-layer accumulators over the traced round's cache misses.
#[derive(Default)]
struct Layers {
    misses: usize,
    parse_us: Vec<f64>,
    term_nodes: Vec<f64>,
    intern_us: Vec<f64>,
    constructed: u64,
    fast_us: Vec<f64>,
    fast_steps: u64,
    fast_fired: u64,
    plan_nodes: Vec<f64>,
    sat_us: Vec<f64>,
    sat_steps: u64,
    sat_exhausted: usize,
    cost_ratio: Vec<f64>,
    overhead_us: Vec<f64>,
}

fn consults(e: &Engine) -> u64 {
    e.consults().iter().sum()
}

pub fn traced_run(w: &Workload, args: &Args) -> Result<bool, String> {
    let base = run_round(w, None)?;

    let catalog_t = Instant::now();
    let catalog = Catalog::paper();
    let catalog_ms = catalog_t.elapsed().as_secs_f64() * 1e3;
    let props = PropDb::new();
    let rules = || -> Vec<Oriented<'_>> { catalog.rules().iter().map(Oriented::fwd).collect() };
    // On plan_saturate the fast engine is the seed wave: the saturating
    // configuration without saturation (no memo), as the worker runs it.
    let fast_config = if w.config.engine.saturate {
        EngineConfig {
            saturate: false,
            ..EngineConfig::saturating()
        }
    } else {
        EngineConfig::fast()
    };
    let mut fast = Engine::new(rules(), &props, fast_config);
    fast.set_trace(false);
    let mut sat = w.config.engine.saturate.then(|| {
        let mut e = Engine::new(rules(), &props, EngineConfig::saturating());
        e.set_trace(false);
        e
    });
    let budget = w.options.budget(None);
    // The worker's engine saw the warm-up requests; so does the mirror.
    for text in &w.stream.warm {
        if let Ok(q) = kola_frontend::parse_any_query(text) {
            fast.normalize(&q, &budget);
        }
    }
    let fast_before = fast.stats();
    let consults_before = consults(&fast);
    let mut interner = Interner::new();
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut acc = Layers::default();
    let mut costed: HashSet<String> = HashSet::new();

    let mut hook = |i: usize, text: &str, ns: u64, hit: bool| {
        let end = Instant::now();
        let start = end - std::time::Duration::from_nanos(ns);
        let root = tracer.record("service.call", start, end, None, i as u64);
        if hit {
            return;
        }
        acc.misses += 1;
        let id = i as u64;
        let (parsed, parse_us) = tracer.span("frontend.parse", Some(root), id, || {
            kola_frontend::parse_any_query(text)
        });
        acc.parse_us.push(parse_us);
        let Ok(q) = parsed else {
            return;
        };
        let before = interner.constructed();
        let (term, intern_us) = tracer.span("intern", Some(root), id, || interner.intern_query(&q));
        acc.intern_us.push(intern_us);
        acc.constructed += interner.constructed() - before;
        acc.term_nodes.push(term.size() as f64);
        let (fixed, fast_us) = tracer.span("fast.normalize", Some(root), id, || {
            fast.normalize(&q, &budget)
        });
        acc.fast_us.push(fast_us);
        acc.fast_steps += fixed.report.steps as u64;
        acc.fast_fired += fixed
            .report
            .rule_stats
            .values()
            .map(|s| s.fired as u64)
            .sum::<u64>();
        let fixed_term = interner.intern_query(&fixed.query);
        acc.plan_nodes.push(fixed_term.size() as f64);
        let mut engine_us = fast_us;
        if let Some(sat) = sat.as_mut() {
            let (out, sat_us) = tracer.span("saturate.normalize", Some(root), id, || {
                sat.normalize(&q, &budget)
            });
            acc.sat_us.push(sat_us);
            acc.sat_steps += out.report.steps as u64;
            acc.sat_exhausted += usize::from(out.report.stop == StopReason::BudgetExhausted);
            if costed.insert(text.to_string()) {
                let extracted = term_cost(&interner.intern_query(&out.query), &TermSize);
                let fixpoint = term_cost(&fixed_term, &TermSize);
                acc.cost_ratio
                    .push(extracted as f64 / fixpoint.max(1) as f64);
            }
            engine_us = sat_us;
        }
        acc.overhead_us.push(ns as f64 / 1e3 - parse_us - engine_us);
    };
    let traced = run_round(w, Some(&mut hook))?;
    tracer.setup_spans(&traced.setup);

    let texts = w.distinct();
    let db = crate::corpus::database(w.scale);
    let exec_t = Instant::now();
    let exec = exec_report(&db, &texts, &base.plans);
    tracer.record("exec.check", exec_t, Instant::now(), None, NO_REQUEST);
    let mut best_ns = vec![u64::MAX; exec.runnable.len()];
    for _ in 0..3 {
        let t = Instant::now();
        exec_pass(&db, &exec, &mut best_ns);
        tracer.record("exec.pass", t, Instant::now(), None, NO_REQUEST);
    }

    let fast_after = fast.stats();
    let index = fast.index_stats().unwrap_or_default();
    let fast_consults = consults(&fast) - consults_before;
    let wrong: HashSet<&str> = exec.wrong.iter().map(|(t, _)| t.as_str()).collect();
    let failed: u64 = [&base, &traced]
        .iter()
        .flat_map(|r| r.failed_by_class(w, &wrong))
        .sum();
    let mismatches = repeat_mismatches(&base, 1, &traced);
    let n = base.latency_ns.len() as f64;
    let overhead_us = (traced.wall_s - base.wall_s) / n * 1e6;
    let hit_us: Vec<f64> = base
        .latency_ns
        .iter()
        .zip(&base.hit)
        .filter(|(_, h)| **h)
        .map(|(ns, _)| *ns as f64 / 1e3)
        .collect();
    let c = &base.counts;
    let lookups = (c["cache_hits"] + c["cache_misses"]).max(1);
    let sat_us = mean(&acc.sat_us);
    let wave_us = if w.config.engine.saturate {
        mean(&acc.fast_us)
    } else {
        0.0
    };
    let misses = acc.misses.max(1) as f64;
    let metrics: Vec<(&str, f64, &str)> = vec![
        ("frontend.parse_us", mean(&acc.parse_us), "us"),
        ("frontend.term_nodes", mean(&acc.term_nodes), "count"),
        ("intern.us", mean(&acc.intern_us), "us"),
        ("intern.constructed", acc.constructed as f64, "count"),
        ("fast.normalize_us", mean(&acc.fast_us), "us"),
        ("fast.steps", acc.fast_steps as f64, "count"),
        (
            "fast.visits",
            (fast_after.visits - fast_before.visits) as f64,
            "count",
        ),
        ("fast.consults", fast_consults as f64, "count"),
        ("fast.fired", acc.fast_fired as f64, "count"),
        (
            "fast.fire_ratio",
            acc.fast_fired as f64 / fast_consults.max(1) as f64,
            "ratio",
        ),
        (
            "fast.memo_hits",
            (fast_after.memo_hits - fast_before.memo_hits) as f64,
            "count",
        ),
        (
            "fast.memo_lookups",
            (fast_after.memo_lookups - fast_before.memo_lookups) as f64,
            "count",
        ),
        ("fast.plan_nodes", mean(&acc.plan_nodes), "count"),
        ("dtree.nodes", index.tree_nodes as f64, "count"),
        ("dtree.max_depth", index.tree_max_depth as f64, "count"),
        ("saturate.normalize_us", sat_us, "us"),
        ("saturate.wave_us", wave_us, "us"),
        (
            "saturate.egraph_us",
            if w.config.engine.saturate {
                sat_us - wave_us
            } else {
                0.0
            },
            "us",
        ),
        ("saturate.steps", acc.sat_steps as f64, "count"),
        (
            "saturate.arena_peak",
            sat.as_ref().map_or(0, |e| e.stats().arena_peak) as f64,
            "count",
        ),
        (
            "saturate.exhausted_frac",
            acc.sat_exhausted as f64 / misses,
            "ratio",
        ),
        ("saturate.cost_ratio", mean(&acc.cost_ratio), "ratio"),
        ("service.overhead_us", mean(&acc.overhead_us), "us"),
        (
            "service.worker_busy_frac",
            base.worker_busy_us as f64 / (base.wall_s * 1e6),
            "ratio",
        ),
        (
            "cache.hit_ratio",
            c["cache_hits"] as f64 / lookups as f64,
            "ratio",
        ),
        ("cache.hit_us", mean(&hit_us), "us"),
        ("cache.insertions", c["cache_insertions"] as f64, "count"),
        ("cache.evicted", c["cache_evicted"] as f64, "count"),
        ("exec.ops_input", exec.ops_input as f64, "count"),
        ("exec.ops_plan", exec.ops_plan as f64, "count"),
        ("exec.hash_ops_plan", exec.hash_ops_plan as f64, "count"),
        (
            "exec.plan_ms",
            best_ns.iter().sum::<u64>() as f64 / 1e6,
            "ms",
        ),
        ("setup.catalog_ms", catalog_ms, "ms"),
        ("setup.start_ms", traced.setup.start_ms, "ms"),
        ("setup.first_plan_ms", traced.setup.first_plan_ms, "ms"),
        ("setup.datagen_ms", traced.setup.datagen_ms, "ms"),
        ("setup.warm_ms", traced.setup.warm_ms, "ms"),
        ("trace.overhead_us", overhead_us, "us"),
        ("trace.spans", tracer.spans.len() as f64, "count"),
    ];

    let path = args.spans_dir.join(format!("{}-{}.jsonl", w.name, w.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let mut base_sorted = base.latency_ns.clone();
    base_sorted.sort_unstable();
    let mut traced_sorted = traced.latency_ns.clone();
    traced_sorted.sort_unstable();
    println!(
        "workload {} seed {} traced run ({} misses traced)",
        w.name, w.seed, acc.misses
    );
    println!(
        "untraced round: p50 {:.3} us, {:.3} 1/s; traced round: p50 {:.3} us, {:.3} 1/s",
        percentile(&base_sorted, 50.0) as f64 / 1e3,
        n / base.wall_s,
        percentile(&traced_sorted, 50.0) as f64 / 1e3,
        n / traced.wall_s
    );
    for (name, v, unit) in &metrics {
        println!("{name:<26} {v:.4} {unit}");
    }
    println!("peak_rss_mb (traced run)   {:.3} MB", peak_rss_mb());
    println!("spans written to {}", path.display());
    println!("counts {}", json_counts(&base.counts));
    for (text, plan) in &exec.wrong {
        println!("WRONG RESULT {text}\n    plan: {plan}");
    }
    for m in &mismatches {
        println!("REPEAT MISMATCH {m}");
    }
    let correct = failed == 0 && mismatches.is_empty();
    let attempted = (base.latency_ns.len() + traced.latency_ns.len()) as u64;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}
