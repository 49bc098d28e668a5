//! Benchmark of the KOLA optimization service: three seeded workloads
//! driven through `Service::call` by one closed-loop client against a
//! one-worker service, every plan checked against the reference evaluator
//! and executed by `kola_exec::Executor`.
//!
//! ```sh
//! perfbench --workload serve_unique --seed 1 --seconds 35 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! pass (see `layers.rs`) and prints the per-layer metrics. The last line
//! of standard output is one JSON object. Workload choices, the layer →
//! metric → workload table and the saturation-cliff measurements are in
//! `NOTES.md` beside this crate.

mod corpus;
mod host;
mod layers;
mod pin;
mod stats;

use corpus::Stream;
use host::HostGauge;
use kola::db::Db;
use kola::term::Query;
use kola_exec::{Executor, Mode};
use kola_rewrite::{EngineConfig, StopReason};
use kola_service::{Outcome, Request, RequestOptions, Service, ServiceConfig};
use stats::{median, percentile, quantile};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The first request of every cold start. Its doubled spaces keep its raw
/// text (the text cache key) apart from every generated request.
const FIRST_REQUEST: &str = "id  .  age  !  P";
/// Cold starts measured per run for `setup_s`, at least.
const MIN_SETUPS: usize = 10;
/// Timed rounds per run, at least (the repeatability check compares them).
const MIN_ROUNDS: usize = 2;
/// Plan-execution passes per run, at least.
const MIN_EXEC_PASSES: usize = 15;
/// Least time from the end of one execution pass to the start of the next.
const PASS_GAP: Duration = Duration::from_millis(250);
/// Latency that separates the ms-scale from the s-scale population.
const SLOW_NS: u64 = 1_000_000_000;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 35.0,
        trace: false,
        spans_dir: PathBuf::from(".bench_build/perfbench-spans"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--spans-dir" => args.spans_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One workload: its service configuration, per-request options, database
/// scale and seeded request stream.
pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    pub config: ServiceConfig,
    pub options: RequestOptions,
    pub scale: usize,
    pub stream: Stream,
}

impl Workload {
    pub fn new(name: &str, seed: u64) -> Result<Workload, String> {
        let serve = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        type Make = fn(u64, &Db) -> Stream;
        let (name, config, max_steps, scale, make): (_, _, _, _, Make) = match name {
            "serve_unique" => (
                "serve_unique",
                serve,
                corpus::SERVE_MAX_STEPS,
                2,
                corpus::serve_unique,
            ),
            "serve_repeat" => (
                "serve_repeat",
                serve,
                corpus::SERVE_MAX_STEPS,
                2,
                corpus::serve_repeat,
            ),
            "plan_saturate" => (
                "plan_saturate",
                ServiceConfig {
                    cache_capacity: 0,
                    engine: EngineConfig::saturating(),
                    ..serve
                },
                corpus::SATURATE_MAX_STEPS,
                16,
                corpus::plan_saturate,
            ),
            other => return Err(format!("unknown workload {other:?}")),
        };
        let stream = make(seed, &corpus::database(scale));
        Ok(Workload {
            name,
            seed,
            config,
            options: RequestOptions {
                max_steps,
                ..RequestOptions::default()
            },
            scale,
            stream,
        })
    }

    pub fn request(&self, text: &str) -> Request {
        Request::text(text).with_options(self.options.clone())
    }

    /// Distinct texts of one round, in first-occurrence order.
    pub fn distinct(&self) -> Vec<&str> {
        let mut seen = HashSet::new();
        self.stream
            .round
            .iter()
            .map(String::as_str)
            .filter(|t| seen.insert(*t))
            .collect()
    }
}

/// Set-up phases of one cold start, in ms.
#[derive(Clone, Copy)]
pub struct Setup {
    pub began: Instant,
    pub datagen_ms: f64,
    pub start_ms: f64,
    pub first_plan_ms: f64,
    pub warm_ms: f64,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        (self.datagen_ms + self.start_ms + self.first_plan_ms + self.warm_ms) / 1e3
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Generate the database, start the service, answer the first request and
/// warm the cache: everything before the service is ready for timing.
/// Also returns the plan each warm-up text was answered with.
pub fn cold_start(w: &Workload) -> Result<(Service, Setup, HitTracker), String> {
    let began = Instant::now();
    let t = began;
    let db = corpus::database(w.scale);
    let datagen_ms = ms_since(t);
    let t = Instant::now();
    let service = Service::start(w.config.clone());
    let start_ms = ms_since(t);
    let t = Instant::now();
    let first = service.call(w.request(FIRST_REQUEST));
    let first_plan_ms = ms_since(t);
    if !matches!(first.outcome, Outcome::Optimized { .. }) {
        return Err(format!("first request ended {}", first.outcome));
    }
    let mut warm = HitTracker::default();
    let t = Instant::now();
    for text in &w.stream.warm {
        let r = service.call(w.request(text));
        if !matches!(r.outcome, Outcome::Optimized { .. }) {
            return Err(format!("warm-up request ended {}: {text}", r.outcome));
        }
        warm.observe(text, &r.plan);
    }
    let warm_ms = ms_since(t);
    let setup = Setup {
        began,
        datagen_ms,
        start_ms,
        first_plan_ms,
        warm_ms,
    };
    drop(db);
    Ok((service, setup, warm))
}

/// Tells cache hits from worker passes on the client side: a hit returns
/// the very plan `Arc` the same text was last answered with, while a worker
/// pass builds a new plan.
#[derive(Default)]
pub struct HitTracker {
    last: HashMap<String, Arc<Query>>,
}

impl HitTracker {
    pub fn observe(&mut self, text: &str, plan: &Option<Arc<Query>>) -> bool {
        let Some(plan) = plan else {
            return false;
        };
        match self.last.get_mut(text) {
            Some(prev) if Arc::ptr_eq(prev, plan) => true,
            Some(prev) => {
                *prev = Arc::clone(plan);
                false
            }
            None => {
                self.last.insert(text.to_string(), Arc::clone(plan));
                false
            }
        }
    }
}

/// Failure classes of a request, in report order.
pub const FAILURE_CLASSES: [&str; 4] = ["passthrough", "invalid", "overloaded", "wrong_result"];

/// What one timed round observed.
pub struct Round {
    pub setup: Setup,
    pub latency_ns: Vec<u64>,
    pub hit: Vec<bool>,
    /// Wall time of the request loop, hook calls included.
    pub wall_s: f64,
    /// Time spent in hook calls.
    pub hook_s: f64,
    pub worker_busy_us: u64,
    /// Every count of the round; all must repeat exactly.
    pub counts: BTreeMap<&'static str, u64>,
    /// Plan of every distinct text (first occurrence).
    pub plans: HashMap<String, Arc<Query>>,
    /// Outcome failure class per request (`None` = optimized).
    pub failure: Vec<Option<usize>>,
}

/// Per-request callback of a traced round: request index, text,
/// client-observed latency in ns, and whether the plan cache answered.
pub type Hook<'a> = dyn FnMut(usize, &str, u64, bool) + 'a;

/// Serve the round's requests in a closed loop and record client-observed
/// latency and cache hits (see [`HitTracker`]).
/// `hook`, when given, runs after each request, outside its latency
/// window: the traced run calls the layers directly from it.
pub fn run_round(w: &Workload, mut hook: Option<&mut Hook>) -> Result<Round, String> {
    let (service, setup, mut tracker) = cold_start(w)?;
    let mut hit = Vec::with_capacity(w.stream.round.len());
    let requests: Vec<Request> = w.stream.round.iter().map(|t| w.request(t)).collect();
    let mut latency_ns = Vec::with_capacity(requests.len());
    let mut responses = Vec::with_capacity(requests.len());
    let before = service.metrics_snapshot();
    let mut hook_s = 0.0;
    let t = Instant::now();
    for (i, req) in requests.into_iter().enumerate() {
        let t0 = Instant::now();
        let r = service.call(req);
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(h) = hook.as_mut() {
            let text = &w.stream.round[i];
            let is_hit = tracker.observe(text, &r.plan);
            hit.push(is_hit);
            let th = Instant::now();
            h(i, text, ns, is_hit);
            hook_s += th.elapsed().as_secs_f64();
        }
        latency_ns.push(ns);
        responses.push(r);
    }
    let wall_s = t.elapsed().as_secs_f64();
    let after = service.metrics_snapshot();
    drop(service);

    if hook.is_none() {
        for (text, r) in w.stream.round.iter().zip(&responses) {
            hit.push(tracker.observe(text, &r.plan));
        }
    }
    let mut plans = HashMap::new();
    let mut failure = Vec::with_capacity(responses.len());
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut plan_fp = 0u64;
    for ((text, r), is_hit) in w.stream.round.iter().zip(&responses).zip(&hit) {
        if let Some(p) = &r.plan {
            if !plans.contains_key(text) {
                plan_fp = plan_fp.wrapping_add(kola::query_fp(p));
                plans.insert(text.clone(), Arc::clone(p));
            }
        }
        let class = match r.outcome {
            Outcome::Optimized { .. } => None,
            Outcome::Passthrough => Some(0),
            Outcome::Invalid => Some(1),
            Outcome::Overloaded => Some(2),
        };
        failure.push(class);
        *counts.entry("optimized").or_default() += u64::from(class.is_none());
        if let Some(c) = class {
            *counts.entry(FAILURE_CLASSES[c]).or_default() += 1;
        }
        if let Some(report) = &r.report {
            *counts.entry("steps").or_default() += report.steps as u64;
            *counts.entry("budget_exhausted").or_default() +=
                u64::from(report.stop == StopReason::BudgetExhausted);
        }
        *counts.entry("client_hits").or_default() += u64::from(*is_hit);
    }
    counts.insert("requests", responses.len() as u64);
    counts.insert("distinct_plan_fp", plan_fp);
    for name in [
        "cache_hits",
        "cache_misses",
        "cache_insertions",
        "cache_evicted",
    ] {
        counts.insert(name, after.counter(name) - before.counter(name));
    }
    // Outcome classes only: wrong results are found after the round.
    for name in FAILURE_CLASSES[..3].iter().chain(&[
        "optimized",
        "steps",
        "budget_exhausted",
        "client_hits",
    ]) {
        counts.entry(name).or_default();
    }
    Ok(Round {
        setup,
        latency_ns,
        hit,
        wall_s,
        hook_s,
        worker_busy_us: after.counter("worker_busy_us") - before.counter("worker_busy_us"),
        counts,
        plans,
        failure,
    })
}

/// Plan quality and execution over the workload's distinct queries.
pub struct ExecReport {
    pub distinct: usize,
    /// `(input text, plan)` of every plan that disagrees with its input.
    pub wrong: Vec<(String, String)>,
    pub ops_input: u64,
    pub ops_plan: u64,
    pub hash_ops_plan: u64,
    pub speedup: f64,
    pub zero_op_plans: usize,
    /// The checked plans, for [`exec_pass`].
    pub runnable: Vec<Arc<Query>>,
}

/// Check every distinct plan against `kola::eval_query` on the input and
/// count executor ops of input and plan under `Mode::Smart`.
pub fn exec_report(db: &Db, texts: &[&str], plans: &HashMap<String, Arc<Query>>) -> ExecReport {
    let mut wrong = Vec::new();
    let (mut ops_input, mut ops_plan, mut hash_ops_plan) = (0u64, 0u64, 0u64);
    let mut log_sum = 0.0;
    let mut zero_op_plans = 0;
    let mut runnable = Vec::new();
    let mut ex = Executor::new(db, Mode::Smart);
    for text in texts {
        let Some(plan) = plans.get(*text) else {
            continue;
        };
        let input = kola_frontend::parse_any_query(text).expect("served text parses");
        let reference = kola::eval_query(db, &input);
        let by_eval = kola::eval_query(db, plan);
        let in_ops = ex.run(&input).map(|_| ex.stats.total());
        let by_exec = ex.run(plan);
        let plan_stats = ex.stats;
        let agree = matches!((&reference, &by_eval, &by_exec),
            (Ok(a), Ok(b), Ok(c)) if a == b && a == c);
        let in_ops = match in_ops {
            Ok(n) if agree => n as u64,
            _ => {
                wrong.push((text.to_string(), plan.to_string()));
                continue;
            }
        };
        let out_ops = plan_stats.total() as u64;
        ops_input += in_ops;
        ops_plan += out_ops;
        hash_ops_plan += plan_stats.hash_ops as u64;
        zero_op_plans += usize::from(out_ops == 0);
        // A plan folded to a constant runs in zero ops; +1 on both sides
        // keeps its ratio finite (input ops + 1).
        log_sum += ((in_ops + 1) as f64 / (out_ops + 1) as f64).ln();
        runnable.push(Arc::clone(plan));
    }
    ExecReport {
        distinct: texts.len(),
        wrong,
        ops_input,
        ops_plan,
        hash_ops_plan,
        speedup: (log_sum / runnable.len().max(1) as f64).exp(),
        zero_op_plans,
        runnable,
    }
}

/// Execute every checked plan once, timing each, and lower `best_ns[i]`
/// to plan `i`'s time where it is faster. Returns the pass's wall time in
/// ms.
pub fn exec_pass(db: &Db, exec: &ExecReport, best_ns: &mut [u64]) -> f64 {
    let mut ex = Executor::new(db, Mode::Smart);
    let t = Instant::now();
    for (plan, best) in exec.runnable.iter().zip(best_ns) {
        let t0 = Instant::now();
        let _ = std::hint::black_box(ex.run(plan));
        *best = (*best).min(t0.elapsed().as_nanos() as u64);
    }
    ms_since(t)
}

/// VmHWM of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Round {
    /// Failed requests by class: failure outcomes, plus optimized requests
    /// whose plan is in `wrong`.
    pub fn failed_by_class(&self, w: &Workload, wrong: &HashSet<&str>) -> [u64; 4] {
        let mut by_class = [0u64; 4];
        for (text, class) in w.stream.round.iter().zip(&self.failure) {
            match class {
                Some(c) => by_class[*c] += 1,
                None if wrong.contains(text.as_str()) => by_class[3] += 1,
                None => {}
            }
        }
        by_class
    }

    fn summary(&self, w: &Workload, wrong: &HashSet<&str>) -> Summary {
        let mut sorted = self.latency_ns.clone();
        sorted.sort_unstable();
        let us = |p: f64| percentile(&sorted, p) as f64 / 1e3;
        Summary {
            setup_s: self.setup.total_s(),
            p50_us: us(50.0),
            p99_us: us(99.0),
            p999_us: us(99.9),
            max_us: us(100.0),
            slow: sorted.iter().filter(|&&ns| ns >= SLOW_NS).count(),
            qps: sorted.len() as f64 / (self.wall_s - self.hook_s),
            wall_s: self.wall_s - self.hook_s,
            failed: self.failed_by_class(w, wrong),
        }
    }
}

/// What a timed run keeps of each round, so memory stays flat however
/// many rounds fit in the run.
struct Summary {
    setup_s: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    max_us: f64,
    slow: usize,
    qps: f64,
    wall_s: f64,
    failed: [u64; 4],
}

/// Compare round `k`'s counts and plans with the first round's; returns
/// one line per difference.
pub fn repeat_mismatches(first: &Round, k: usize, r: &Round) -> Vec<String> {
    let mut out = Vec::new();
    for (name, v) in &r.counts {
        let v0 = first.counts.get(name).copied().unwrap_or_default();
        if *v != v0 {
            out.push(format!("round {k}: {name} = {v}, round 0 had {v0}"));
        }
    }
    for (text, plan) in &r.plans {
        if first.plans.get(text).is_none_or(|p| **p != **plan) {
            out.push(format!("round {k}: plan differs for {text}"));
        }
    }
    out
}

pub fn json_counts(counts: &BTreeMap<&'static str, u64>) -> String {
    let body: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: `metrics` holds `(name, value, unit)`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn timed_run(w: &Workload, seconds: f64) -> Result<bool, String> {
    let start = Instant::now();
    let texts = w.distinct();
    let db = corpus::database(w.scale);
    let first = run_round(w, None)?;
    let exec = exec_report(&db, &texts, &first.plans);
    // Peak memory of one cold start, one round and the plan checks. Read
    // before further rounds: each round leaves the heap a little more
    // fragmented, so a later reading would grow with the number of rounds
    // the host's speed allowed.
    let rss = peak_rss_mb();
    let wrong: HashSet<&str> = exec.wrong.iter().map(|(t, _)| t.as_str()).collect();
    let mut rounds = vec![first.summary(w, &wrong)];
    let mut mismatches = Vec::new();
    // Each request's fastest latency over the run's rounds, and each
    // plan's fastest execution over the run's passes.
    let mut best_ns = first.latency_ns.clone();
    let per = best_ns.len();
    let mut best_exec_ns = vec![u64::MAX; exec.runnable.len()];
    // Execution passes run between requests (outside their latency
    // windows) on a clock, so they sample the whole run, however long a
    // round is. The gap after a pass is twice its length, so passes take
    // about a third of the run. The host gauge is read before every pass
    // and after every round, so it samples the same moments as the
    // timings it scales.
    let mut pass_ms = Vec::new();
    let mut next_pass = Instant::now();
    let mut gauge = HostGauge::new();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let mut hook = |_: usize, _: &str, _: u64, _: bool| {
            if Instant::now() >= next_pass {
                gauge.sample();
                let ms = exec_pass(&db, &exec, &mut best_exec_ns);
                pass_ms.push(ms);
                next_pass = Instant::now() + PASS_GAP.max(Duration::from_secs_f64(ms / 1e3 * 2.0));
            }
        };
        let round = run_round(w, Some(&mut hook))?;
        mismatches.extend(repeat_mismatches(&first, rounds.len(), &round));
        for (b, ns) in best_ns.iter_mut().zip(&round.latency_ns) {
            *b = (*b).min(*ns);
        }
        rounds.push(round.summary(w, &wrong));
        drop(round);
        gauge.sample();
    }
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        let (service, setup, _) = cold_start(w)?;
        drop(service);
        setups.push(setup.total_s());
        gauge.sample();
        pass_ms.push(exec_pass(&db, &exec, &mut best_exec_ns));
    }
    while pass_ms.len() < MIN_EXEC_PASSES {
        gauge.sample();
        pass_ms.push(exec_pass(&db, &exec, &mut best_exec_ns));
    }
    // The host is shared: the same deterministic work runs up to ~1.6×
    // slower while a neighbour is busy, for seconds to minutes. Within
    // the run, every request and every plan is reported at its fastest,
    // since contention only ever adds time: the same request at the same
    // position in every round, the same plan in every pass. Across runs,
    // each time is scaled by the host gauge (`host.rs`) to what it would
    // read at the gauge's nominal speed. A change to the program moves
    // every sample, the fastest too, and does not move the gauge.
    let k = gauge.factor();
    let raw_exec_ms = best_exec_ns.iter().sum::<u64>() as f64 / 1e6;
    best_ns.sort_unstable();
    let raw_p50 = percentile(&best_ns, 50.0) as f64 / 1e3;
    let raw_p99 = percentile(&best_ns, 99.0) as f64 / 1e3;
    // One client waits for each reply before it sends again, so the
    // closed loop's rate is the inverse of the mean latency.
    let raw_qps = per as f64 / (best_ns.iter().sum::<u64>() as f64 / 1e9);
    // Set-up is timed once per cold start: the quietest tenth of them.
    let raw_setup_s = quantile(&setups, 0.1);
    let (plan_exec_ms, p50, p99, qps, setup_s) = (
        raw_exec_ms * k,
        raw_p50 * k,
        raw_p99 * k,
        raw_qps / k,
        raw_setup_s * k,
    );
    let over_rounds = |f: fn(&Summary) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let p999 = over_rounds(|r| r.p999_us);
    let max_us = rounds.iter().map(|r| r.max_us).fold(0.0, f64::max);
    let slow: usize = rounds.iter().map(|r| r.slow).sum();
    let by_class = rounds.iter().fold([0u64; 4], |mut acc, r| {
        for (a, f) in acc.iter_mut().zip(r.failed) {
            *a += f;
        }
        acc
    });
    let failed: u64 = by_class.iter().sum();
    let rounds_n = rounds.len();
    let n = per * rounds_n;
    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
    let fail_frac = failed as f64 / n as f64;
    let rank99 = (0.99 * per as f64).ceil() as usize;

    println!(
        "workload {} seed {} scale {} rounds {rounds_n} requests {n}",
        w.name, w.seed, w.scale
    );
    println!(
        "host gauge     fastest of {} readings {:.3} ms, nominal {} ms: times below are raw x {k:.4}",
        gauge.samples(),
        gauge.best_ms(),
        host::NOMINAL_MS
    );
    println!(
        "setup_s        {setup_s:.6} s  (quietest tenth of {} cold starts, raw {raw_setup_s:.6} s; raw median {:.6} s)",
        setups.len(),
        median(&setups)
    );
    println!(
        "opt_p50_us     {p50:.3} us  (over {per} requests, each at its fastest of {rounds_n} rounds, raw {raw_p50:.3} us; raw median round p50 {:.3} us)",
        over_rounds(|r| r.p50_us)
    );
    println!(
        "opt_p99_us     {p99:.3} us  (over {per} requests, each at its fastest of {rounds_n} rounds, {} samples beyond p99, raw {raw_p99:.3} us; raw median round p99 {:.3} us)",
        per - rank99,
        over_rounds(|r| r.p99_us)
    );
    println!(
        "throughput_qps {qps:.3} 1/s  (requests / sum of their fastest latencies, raw {raw_qps:.3} 1/s; raw median round {:.3} 1/s; closed loop, 1 client, 1 worker, {wall:.3} s timed)",
        over_rounds(|r| r.qps)
    );
    println!(
        "fail_frac      {fail_frac} ratio  ({failed}/{n}: passthrough {} invalid {} overloaded {} wrong_result {})",
        by_class[0], by_class[1], by_class[2], by_class[3]
    );
    println!("peak_rss_mb    {rss:.3} MB");
    println!(
        "plan_speedup   {:.6} x  ({} distinct queries at scale {}, {} zero-op plans, ratio (in+1)/(plan+1))",
        exec.speedup, exec.distinct, w.scale, exec.zero_op_plans
    );
    println!(
        "plan_exec_ms   {plan_exec_ms:.4} ms  (sum over {} plans of each one's fastest of {} passes, raw {raw_exec_ms:.4} ms; raw median pass {:.4} ms)",
        exec.runnable.len(),
        pass_ms.len(),
        median(&pass_ms)
    );
    println!(
        "populations    ms-scale {} / s-scale {slow} (>= {} s) of {n}; per round p99 is rank {rank99} of {per}; p99.9 {p999:.1} us (median over rounds); max {max_us:.1} us",
        n - slow,
        SLOW_NS / 1_000_000_000,
    );
    for (text, plan) in &exec.wrong {
        println!("WRONG RESULT {text}\n    plan: {plan}");
    }
    let attempted = n as u64;
    let mut counts = first.counts.clone();
    counts.insert("exec_ops_input", exec.ops_input);
    counts.insert("exec_ops_plan", exec.ops_plan);
    counts.insert("exec_hash_ops_plan", exec.hash_ops_plan);
    counts.insert("exec_wrong", exec.wrong.len() as u64);
    println!("counts {}", json_counts(&counts));
    if mismatches.is_empty() {
        println!("repeatability  {rounds_n} rounds, every count and plan identical");
    }
    for m in &mismatches {
        println!("REPEAT MISMATCH {m}");
    }
    let hit_gap = counts["client_hits"] != counts["cache_hits"];
    if hit_gap {
        println!(
            "HIT MISMATCH client saw {} hits, service counted {}",
            counts["client_hits"], counts["cache_hits"]
        );
    }
    let correct = failed == 0 && mismatches.is_empty() && !hit_gap;
    println!(
        "{}",
        result_line(
            correct,
            attempted,
            failed,
            &[
                ("setup_s", setup_s, "s"),
                ("opt_p50_us", p50, "us"),
                ("opt_p99_us", p99, "us"),
                ("throughput_qps", qps, "1/s"),
                ("peak_rss_mb", rss, "MB"),
                ("plan_speedup", exec.speedup, "x"),
                ("plan_exec_ms", plan_exec_ms, "ms"),
            ]
        )
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = match Workload::new(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match pin::pin_to_one_cpu() {
        Some(cpu) => println!("pinned to cpu {cpu} (client and worker share it)"),
        None => println!("not pinned: CPU affinity unavailable"),
    }
    let run = if args.trace {
        layers::traced_run(&w, &args)
    } else {
        timed_run(&w, args.seconds)
    };
    match run {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
