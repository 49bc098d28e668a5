//! Deterministic chaos soak for the optimization service.
//!
//! One seeded [`ChaosConfig`] fully determines the request stream: a mix
//! of well-formed OQL/KOLA text, adversarially deep AST payloads,
//! poison-rule fault plans (rules that panic mid-rewrite), injected engine
//! faults, random deadlines, and artificial holds that push the queue into
//! overload. Thread scheduling still varies run to run — which requests
//! get shed, which deadlines expire — but the service's *invariants* must
//! not: every request terminates with exactly one classified outcome, no
//! panic escapes a worker, and every optimized reply — worker pass, cache
//! hit or coalesced — means what its input means on a sample database
//! (audited after the serving window). [`ChaosReport::violations`] checks
//! exactly those scheduling-independent properties.

use crate::metrics::conservation_violations;
use crate::request::{Outcome, Payload, Request, RequestOptions, Response};
use crate::service::{Service, ServiceConfig, WORKER_STACK};
use kola::term::{Func, Pred, Query};
use kola::Value;
use kola_exec::datagen::{generate, DataSpec};
use kola_exec::rng::{splitmix64, Rng};
use kola_obs::{ReplayWorker, Snapshot};
use kola_rewrite::{Catalog, FaultKind, FaultPlan, FaultSpec, PropDb, StepSelector};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parameters of one soak.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Requests to generate.
    pub requests: usize,
    /// Master seed; the request stream is a pure function of it.
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
    /// Work-queue capacity (small enough that holds cause real shedding).
    pub queue_capacity: usize,
    /// Record structured rewrite traces and, at the end of the soak,
    /// replay every trace still in the ring against the boxed reference
    /// engine (divergences are invariant violations).
    pub tracing: bool,
    /// Per-worker trace-ring capacity when `tracing` is on.
    pub trace_capacity: usize,
    /// Simulated per-request materialization stall, applied to **every**
    /// generated request (generated timeouts are extended by the same
    /// amount, so deadline semantics are stall-independent). Same rationale
    /// as [`CleanConfig::stall`]: on a single-core host, overlapping stalls
    /// are what makes worker concurrency measurable under chaos too; see
    /// `DESIGN.md` §5d and §5f.
    pub stall: Duration,
    /// Plan-cache capacity for the soaked service (`0` disables). On by
    /// default so the soak exercises cache invalidation *while* breakers
    /// trip and reset.
    pub cache_capacity: usize,
    /// Fraction of generated requests drawn from a small fixed pool with
    /// fixed budgets — the repeated-traffic lane that gives the cache
    /// something to hit while the poison lanes move the rule generation
    /// under it. `0.0` reproduces the pre-cache stream shape.
    pub repeated: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            requests: 10_000,
            seed: 0xC0FFEE,
            workers: 4,
            queue_capacity: 32,
            tracing: false,
            trace_capacity: 1024,
            stall: Duration::from_millis(2),
            cache_capacity: 2048,
            repeated: 0.15,
        }
    }
}

/// What a soak observed.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Requests generated (and therefore classified).
    pub requests: usize,
    /// `Optimized` replies.
    pub optimized_fast: usize,
    /// `Passthrough` replies.
    pub passthrough: usize,
    /// Structured sheds at submission.
    pub overloaded: usize,
    /// `Invalid` replies (must stay zero: the generator only emits
    /// parseable payloads within the size limit).
    pub invalid: usize,
    /// Poison-rule panics caught and attributed by the ladder.
    pub caught_panics: usize,
    /// Panics that reached a worker boundary unclassified (must be zero).
    pub unexpected_panics: usize,
    /// Optimized replies whose plan disagrees with its input on the audit
    /// database (must be zero).
    pub gate_failures: usize,
    /// Rules whose cross-request breaker opened at least once.
    pub breaker_opened: usize,
    /// High-water mark of any worker engine's intern arena, in live nodes
    /// (must stay under [`PEAK_ARENA_BOUND`]: workers reuse their engine
    /// across every request of the soak, so an unbounded arena would show
    /// up here as linear growth in the request count).
    pub peak_arena_nodes: usize,
    /// Per-request end-to-end latencies, microseconds, unsorted.
    pub latencies_us: Vec<u64>,
    /// Plan-cache hits (direct + coalesced) over the soak.
    pub cache_hits: u64,
    /// Plan-cache misses that took an engine pass.
    pub cache_misses: u64,
    /// Identical concurrent misses coalesced onto one flight leader.
    pub cache_coalesced: u64,
    /// Stale-generation entries reclaimed on lookup — nonzero whenever the
    /// repeated lane overlaps a breaker trip or reset, which is exactly
    /// what the soak is for.
    pub cache_stale: u64,
    /// Metric snapshot taken after the last reply (quiescent, so the
    /// conservation invariants must hold on it).
    pub metrics: Snapshot,
    /// Conservation-invariant violations found in `metrics` (must be
    /// empty; see [`crate::metrics`] for the two equations).
    pub conservation: Vec<String>,
    /// Structured traces recorded over the soak (0 unless
    /// [`ChaosConfig::tracing`]).
    pub traces_recorded: u64,
    /// Traces evicted from the ring before the soak ended.
    pub traces_dropped: u64,
    /// Ring traces replayed step-by-step on the boxed reference engine.
    pub traces_replayed: usize,
    /// Replays that diverged from the recorded derivation (must be zero).
    pub traces_divergent: usize,
    /// Wall-clock of the *serving* window only: submit through last reply.
    /// Post-hoc audits (plan semantics, trace replay, breaker sweeps) are
    /// excluded, so this is the number worker-scaling claims divide by.
    pub elapsed: Duration,
}

/// Upper bound on [`ChaosReport::peak_arena_nodes`]: the fast engine's
/// compaction cap (`EngineConfig::fast().arena_capacity`, 64Ki nodes) plus
/// a generous allowance for the growth of the single request that runs
/// after the cap check — compaction fires *between* requests' normalize
/// calls, so the peak is "cap + one request", never "requests × size".
pub const PEAK_ARENA_BOUND: usize = (1 << 16) + (1 << 18);

impl ChaosReport {
    /// The scheduling-independent invariants. Empty means the soak passed.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let classified = self.optimized_fast + self.passthrough + self.overloaded;
        if classified + self.invalid != self.requests {
            v.push(format!(
                "classification leak: {} of {} requests accounted for",
                classified + self.invalid,
                self.requests
            ));
        }
        if self.invalid != 0 {
            v.push(format!(
                "{} generated requests classified Invalid",
                self.invalid
            ));
        }
        if self.unexpected_panics != 0 {
            v.push(format!(
                "{} panics escaped ladder classification",
                self.unexpected_panics
            ));
        }
        if self.gate_failures != 0 {
            v.push(format!(
                "{} optimized plans changed their input's meaning",
                self.gate_failures
            ));
        }
        if self.peak_arena_nodes > PEAK_ARENA_BOUND {
            v.push(format!(
                "worker arena peaked at {} nodes (bound {PEAK_ARENA_BOUND}): \
                 compaction is not keeping persistent engines bounded",
                self.peak_arena_nodes
            ));
        }
        v.extend(self.conservation.iter().cloned());
        // Client-side tallies vs the metric books, per outcome: worker
        // completions plus cache serves (direct hits and coalesced
        // waiters) must account for exactly the responses clients hold.
        // This is what pins "zero stale-generation plans escape": a hit
        // served past a generation bump would have been computed as a
        // worker completion under the old books, and the taxonomy here
        // would no longer balance against what clients observed.
        let served = |label: &str| -> u64 {
            self.metrics
                .family("cache_served")
                .iter()
                .find(|(l, _)| l == label)
                .map_or(0, |(_, n)| *n)
        };
        let cross = [
            (
                "optimized_fast",
                self.optimized_fast,
                self.metrics.counter("optimized_fast") + served("fast"),
            ),
            (
                "passthrough",
                self.passthrough,
                self.metrics.counter("passthrough") + served("passthrough"),
            ),
            (
                "overloaded",
                self.overloaded,
                self.metrics.counter("overloaded"),
            ),
            (
                "invalid",
                self.invalid,
                self.metrics.counter("completed_invalid")
                    + self.metrics.counter("rejected_invalid")
                    + self.metrics.counter("panicked")
                    + served("invalid"),
            ),
        ];
        for (name, client, books) in cross {
            if client as u64 != books {
                v.push(format!(
                    "taxonomy cross-check failed for {name}: clients hold {client}, books say {books}"
                ));
            }
        }
        // Caught panics conserve exactly: flights only form for fault-free
        // requests, which never panic, so no coalesced reply can carry a
        // second copy of a leader's panic attribution.
        if self.caught_panics as u64 != self.metrics.counter("caught_panics") {
            v.push(format!(
                "caught-panic books unbalanced: clients hold {}, counter says {}",
                self.caught_panics,
                self.metrics.counter("caught_panics"),
            ));
        }
        if self.traces_divergent != 0 {
            v.push(format!(
                "{} of {} replayed traces diverged from the reference engine",
                self.traces_divergent, self.traces_replayed
            ));
        }
        v
    }

    /// Serving-window throughput in requests per second (0 before
    /// [`run_chaos`] fills [`ChaosReport::elapsed`]).
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.requests as f64 / self.elapsed.as_secs_f64()
    }

    /// Traces dropped as a percentage of traces recorded (`0.0` when
    /// nothing was recorded) — the fleet-wide ring-loss figure the CI obs
    /// gate bounds.
    pub fn dropped_pct(&self) -> f64 {
        if self.traces_recorded == 0 {
            0.0
        } else {
            self.traces_dropped as f64 * 100.0 / self.traces_recorded as f64
        }
    }

    /// Render this report's observability slice — full metric snapshot,
    /// trace-replay tally, conservation verdict — as the `BENCH_obs.json`
    /// document both the chaos-soak binary and the service benchmark emit.
    pub fn obs_json(&self, harness: &str, cfg: &ChaosConfig) -> String {
        format!(
            "{{\n  \"meta\": {{\"harness\": {}, \"requests\": {}, \"seed\": {}, \"workers\": {}, \"tracing\": {}}},\n  \"metrics\": {},\n  \"traces\": {{\"recorded\": {}, \"dropped\": {}, \"dropped_pct\": {:.2}, \"replayed\": {}, \"divergent\": {}}},\n  \"conservation\": {{\"ok\": {}, \"violations\": [{}]}}\n}}\n",
            kola_obs::json::string(harness),
            cfg.requests,
            cfg.seed,
            cfg.workers,
            cfg.tracing,
            self.metrics.to_json(),
            self.traces_recorded,
            self.traces_dropped,
            self.dropped_pct(),
            self.traces_replayed,
            self.traces_divergent,
            self.conservation.is_empty(),
            self.conservation
                .iter()
                .map(|v| kola_obs::json::string(v))
                .collect::<Vec<_>>()
                .join(", "),
        )
    }

    /// Multi-line human summary.
    pub fn summary(&self) -> String {
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        format!(
            "requests            {}\n\
             optimized           {}\n\
             passthrough         {}\n\
             overloaded          {}\n\
             invalid             {}\n\
             caught panics       {}\n\
             unexpected panics   {}\n\
             gate failures       {}\n\
             breakers opened     {}\n\
             peak arena nodes    {}\n\
             cache hit/miss      {} / {}\n\
             cache coal/stale    {} / {}\n\
             conservation        {}\n\
             traces rec/rep/div  {} / {} / {}\n\
             latency p50/p95/p99 {} / {} / {} us",
            self.requests,
            self.optimized_fast,
            self.passthrough,
            self.overloaded,
            self.invalid,
            self.caught_panics,
            self.unexpected_panics,
            self.gate_failures,
            self.breaker_opened,
            self.peak_arena_nodes,
            self.cache_hits,
            self.cache_misses,
            self.cache_coalesced,
            self.cache_stale,
            if self.conservation.is_empty() {
                "balanced"
            } else {
                "VIOLATED"
            },
            self.traces_recorded,
            self.traces_replayed,
            self.traces_divergent,
            percentile(&sorted, 50.0),
            percentile(&sorted, 95.0),
            percentile(&sorted, 99.0),
        )
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (0 if empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn id_tower_text(height: usize) -> String {
    let mut s = String::with_capacity(height * 5 + 10);
    for _ in 0..height {
        s.push_str("id . ");
    }
    s.push_str("age ! P");
    s
}

fn deep_compose_ast(height: usize) -> Query {
    let mut f = Func::Prim(Arc::from("age"));
    for _ in 0..height {
        f = Func::Compose(Box::new(Func::Id), Box::new(f));
    }
    Query::App(f, Box::new(Query::Extent(Arc::from("P"))))
}

fn deep_not_ast(height: usize) -> Query {
    let mut p = Pred::Eq;
    for _ in 0..height {
        p = Pred::Not(Box::new(p));
    }
    Query::Test(p, Box::new(Query::Extent(Arc::from("P"))))
}

fn deep_pair_ast(height: usize) -> Query {
    let mut q = Query::Lit(Value::Int(0));
    for _ in 0..height {
        q = Query::PairQ(Box::new(q), Box::new(Query::Extent(Arc::from("P"))));
    }
    q
}

const KOLA_TEMPLATES: &[&str] = &[
    "iterate(Kp(T), city) . iterate(Kp(T), addr) ! P",
    "iterate(Kp(T), city . addr) ! P",
    "id . age ! P",
    "age . id ! P",
    "sunion ! [P, Q]",
    "P union Q",
    "gt ? [3, 2]",
    "iterate(Kp(T), id . city) ! P",
];

const OQL_TEMPLATES: &[&str] = &[
    "select p.age from p in P",
    "select p from p in P",
    "select p.age from p in P where p.age > 25",
    "select p from p in P where p.age > 18 and not p.age > 65",
];

/// One generated request of the seeded chaos stream (public so the service
/// benchmark can replay the same workload it soaks). Every request carries
/// the configured materialization `stall` as its baseline hold, and every
/// generated timeout is extended by the same stall, so which requests
/// expire is a property of the stream — not of the stall. `repeated` is
/// the probability of drawing from the repeated-traffic lane.
pub fn generate_request(rng: &mut Rng, stall: Duration, repeated: f64) -> Request {
    if repeated > 0.0 && rng.gen_bool(repeated) {
        // Repeated lane: a small fixed pool under FIXED budgets, so
        // identical draws share one plan-cache line (the stream's trailing
        // budget randomization below would disperse the keys). Pure (no
        // faults), so the requests are cacheable, and the poison lanes'
        // breaker trips invalidate their entries mid-soak, which is the
        // interaction this lane exists to exercise.
        let pick = rng.gen_range(0..8usize);
        let options = RequestOptions {
            hold_for: (!stall.is_zero()).then_some(stall),
            timeout: Some(stall + Duration::from_millis(25)),
            max_steps: 400,
            ..RequestOptions::default()
        };
        return Request {
            payload: Payload::Text(id_tower_text(2 + pick)),
            options,
            tenant: None,
        };
    }
    // An unused draw (it paced a retry the service no longer takes), kept
    // so that each seed still generates the stream it always did.
    let _ = rng.gen_range(0..200usize);
    let mut options = RequestOptions {
        hold_for: (!stall.is_zero()).then_some(stall),
        ..RequestOptions::default()
    };
    // Random deadlines on roughly a third of all requests — tight enough
    // that some die in the queue or mid-rewrite, loose enough that most
    // survive to an engine attempt.
    if rng.gen_bool(0.35) {
        options.timeout =
            Some(stall + Duration::from_micros(1000 + rng.gen_range(0..8000usize) as u64));
    }
    let roll = rng.gen_range(0..100usize);
    let payload = if roll < 40 {
        // Well-formed KOLA text, occasionally a tower with real redexes.
        if rng.gen_bool(0.4) {
            Payload::Text(id_tower_text(1 + rng.gen_range(0..12usize)))
        } else {
            Payload::Text(KOLA_TEMPLATES[rng.gen_range(0..KOLA_TEMPLATES.len())].to_string())
        }
    } else if roll < 50 {
        Payload::Text(OQL_TEMPLATES[rng.gen_range(0..OQL_TEMPLATES.len())].to_string())
    } else if roll < 65 {
        // Adversarially deep ASTs: way past any recursion a naive engine
        // would survive. Small step budget + tight deadline.
        options.max_steps = 32;
        options.timeout =
            Some(stall + Duration::from_micros(200 + rng.gen_range(0..1500usize) as u64));
        let h = 500 + rng.gen_range(0..2500usize);
        Payload::Ast(Arc::new(match rng.gen_range(0..3usize) {
            0 => deep_compose_ast(h),
            1 => deep_not_ast(h),
            _ => deep_pair_ast(h),
        }))
    } else if roll < 75 {
        // Failed engine attempts: 30 % of this lane caps the term size
        // below the input's, so the attempt stops with `TermTooLarge`
        // before any rule runs and the request passes through; the rest is
        // a plain id tower.
        if !rng.gen_bool(0.7) {
            options.max_term_size = 1;
        }
        Payload::Text(id_tower_text(1 + rng.gen_range(0..8usize)))
    } else if roll < 90 {
        // Poison rules: a rule that panics (or fails) mid-rewrite on a
        // payload that actually exercises it ("app"/"e121" are the rules
        // that fire on id-towers under the full forward catalog).
        let rule = if rng.gen_bool(0.5) { "app" } else { "e121" };
        let at = match rng.gen_range(0..3usize) {
            0 => StepSelector::Always,
            1 => StepSelector::Steps(vec![0, 1]),
            _ => StepSelector::EveryNth(2),
        };
        let kind = if rng.gen_bool(0.7) {
            FaultKind::Panic
        } else {
            FaultKind::Fail
        };
        options.faults = FaultPlan::new().with(FaultSpec {
            rule_id: rule.to_string(),
            at,
            kind,
        });
        Payload::Text(id_tower_text(2 + rng.gen_range(0..8usize)))
    } else {
        // Slow requests: extra pre-ladder work on top of the baseline
        // stall that backs the queue up and forces structured shedding.
        options.hold_for =
            Some(stall + Duration::from_micros(200 + rng.gen_range(0..800usize) as u64));
        Payload::Text(KOLA_TEMPLATES[rng.gen_range(0..KOLA_TEMPLATES.len())].to_string())
    };
    // Every chaos request is bounded the way a real client's would be: a
    // fallback deadline and a modest step cap. Without these, a request
    // that arrives while the breaker has evicted a load-bearing structural
    // rule (e.g. "app") can grind through the full default fuel instead of
    // reaching a normal form in a handful of steps.
    if options.timeout.is_none() {
        options.timeout =
            Some(stall + Duration::from_millis(15 + rng.gen_range(0..25usize) as u64));
    }
    options.max_steps = options.max_steps.min(300 + rng.gen_range(0..200usize));
    Request {
        payload,
        options,
        tenant: None,
    }
}

/// Run one soak: generate `cfg.requests` seeded requests, drive them
/// through a fresh service, and tally the outcome taxonomy. After the
/// serving window, every `Optimized` reply is checked against its input
/// on a sample database.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let service = Service::start(ServiceConfig {
        workers: cfg.workers,
        queue_capacity: cfg.queue_capacity,
        tracing: cfg.tracing,
        trace_capacity: cfg.trace_capacity,
        cache_capacity: cfg.cache_capacity,
        ..ServiceConfig::default()
    });
    let mut report = ChaosReport {
        requests: cfg.requests,
        ..ChaosReport::default()
    };
    let mut opened: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();

    // Each ticket keeps its request's input beside it, so the post-hoc
    // audit can compare every optimized plan with what it was derived from.
    let mut pending = Vec::new();
    let mut optimized: Vec<(Payload, Arc<Query>)> = Vec::new();
    let mut absorb = |input: Payload, resp: Response, report: &mut ChaosReport| {
        match resp.outcome {
            Outcome::Optimized => {
                report.optimized_fast += 1;
                optimized.push((input, resp.plan.expect("an optimized reply has a plan")));
            }
            Outcome::Passthrough => report.passthrough += 1,
            Outcome::Overloaded => report.overloaded += 1,
            Outcome::Invalid => report.invalid += 1,
        }
        report.caught_panics += usize::from(resp.panic.is_some());
        report.latencies_us.push(resp.latency.as_micros() as u64);
    };

    let mut seed = cfg.seed;
    let started = Instant::now();
    for i in 0..cfg.requests {
        let mut rng = Rng::seed_from_u64(splitmix64(&mut seed) ^ i as u64);
        let request = generate_request(&mut rng, cfg.stall, cfg.repeated);
        let input = request.payload.clone();
        match service.submit(request) {
            Ok(p) => pending.push((input, p)),
            Err(rejection) => {
                absorb(input, rejection, &mut report);
                // Shed: let the workers catch up a little before the next
                // burst, so the soak keeps exercising the engine lanes too.
                for (input, p) in pending.drain(..pending.len().min(4)) {
                    absorb(input, p.wait(), &mut report);
                }
            }
        }
        // Alternate paced and flood arrival. Paced phases keep the
        // queue-wait share of each deadline bounded; flood phases submit
        // without draining until the queue is full, forcing real
        // structured sheds.
        let flood = (i / 97) % 7 == 6;
        if !flood {
            while pending.len() >= (cfg.queue_capacity / 2).max(8) {
                let (input, p) = pending.remove(0);
                absorb(input, p.wait(), &mut report);
            }
        }
        // Periodically note and reset opened breakers so the poison lane
        // keeps exercising the panic path instead of being filtered out.
        if i % 64 == 63 {
            for rule in service.breaker().open_rules() {
                opened.insert(rule.clone());
                service.breaker().reset(&rule);
            }
        }
    }
    for (input, p) in pending {
        absorb(input, p.wait(), &mut report);
    }
    // Serving window ends with the last reply in hand; everything below is
    // post-hoc audit and must not count against worker-scaling claims.
    report.elapsed = started.elapsed();
    report.gate_failures = count_changed_plans(&optimized);
    for rule in service.breaker().open_rules() {
        opened.insert(rule);
    }
    report.breaker_opened = opened.len();
    report.unexpected_panics = service.unexpected_panics();
    report.peak_arena_nodes = service.peak_arena_nodes();
    // Every reply is in hand: the service is quiescent, so the snapshot
    // must balance its books.
    report.metrics = service.metrics_snapshot();
    report.conservation = conservation_violations(&report.metrics);
    report.cache_hits = report.metrics.counter("cache_hits");
    report.cache_misses = report.metrics.counter("cache_misses");
    report.cache_coalesced = report.metrics.counter("cache_coalesced");
    report.cache_stale = report.metrics.counter("cache_stale");
    report.traces_recorded = report.metrics.counter("traces_recorded");
    report.traces_dropped = report.metrics.counter("traces_dropped");
    if cfg.tracing {
        // Re-execute every trace still in the rings, step for step, on the
        // boxed reference engine. Faulted runs re-inject their recorded
        // fault plan; deadlines never shaped a successful derivation (see
        // `kola_obs::replay`), so replay runs unclocked. One pooled
        // deep-stack worker serves the whole audit instead of a fresh
        // 32MiB thread per trace.
        let auditor = ReplayWorker::new(Catalog::paper(), PropDb::new());
        for trace in service.traces() {
            report.traces_replayed += 1;
            if !auditor.replay(trace).is_match() {
                report.traces_divergent += 1;
            }
        }
    }
    report
}

/// How many of `optimized` (input, plan) pairs disagree on the sample
/// database (`DataSpec::small(123)`), by
/// [`kola_verify::check_plan_semantics`]. Runs on one thread with a
/// worker-sized stack: deep-AST plans are evaluated recursively, 500–3,000
/// levels deep, as the workers that derived them were sized for.
fn count_changed_plans(optimized: &[(Payload, Arc<Query>)]) -> usize {
    let db = generate(&DataSpec::small(123));
    let changed = |(input, plan): &(Payload, Arc<Query>)| {
        let input = match input {
            Payload::Text(src) => match kola_frontend::parse_any_query(src) {
                Ok(q) => Arc::new(q),
                // An optimized reply's input parsed once already.
                Err(_) => return true,
            },
            Payload::Ast(q) => Arc::clone(q),
        };
        kola_verify::check_plan_semantics(&db, &input, plan).is_err()
    };
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("kola-chaos-audit".to_string())
            .stack_size(WORKER_STACK)
            .spawn_scoped(s, || optimized.iter().filter(|p| changed(p)).count())
            .expect("spawn plan audit thread")
            .join()
            .expect("plan audit thread")
    })
}

// ---------------------------------------------------------------------------
// Clean stream: the throughput-scaling workload.
// ---------------------------------------------------------------------------

/// Parameters of one clean-stream run (no faults, no poison rules, no
/// adversarial terms — the workload for measuring how service throughput
/// scales with the worker count).
///
/// Each request carries a fixed [`CleanConfig::stall`]: simulated
/// per-request materialization work (catalog lookups, I/O) that the worker
/// performs while holding no locks. On a single-core host — where this
/// repo's benchmarks run — CPU-bound work cannot scale with workers at
/// all, so the stall is what makes worker *concurrency* measurable: N
/// workers overlap N stalls, and throughput scales with N until the
/// rewrite work itself saturates the core. That is the honest claim the
/// scaling gate checks; see `DESIGN.md` §5d.
#[derive(Debug, Clone)]
pub struct CleanConfig {
    /// Requests to drive through the service in total.
    pub requests: usize,
    /// Master seed; the request stream is a pure function of it.
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
    /// Closed-loop client threads (each keeps exactly one request in
    /// flight, so admission depth never exceeds this).
    pub clients: usize,
    /// Work-queue capacity; sized above `clients` so a clean stream never
    /// sheds.
    pub queue_capacity: usize,
    /// Simulated per-request materialization stall (see type docs). Zero
    /// sends requests with no `hold_for` at all: the stream then measures
    /// the service's own per-request cost.
    pub stall: Duration,
}

impl Default for CleanConfig {
    fn default() -> Self {
        CleanConfig {
            requests: 4_000,
            seed: 0xBEEF,
            workers: 4,
            clients: 16,
            queue_capacity: 64,
            stall: Duration::from_millis(2),
        }
    }
}

/// What a clean-stream run observed.
#[derive(Debug, Clone, Default)]
pub struct CleanReport {
    /// Requests driven (all of them classified).
    pub requests: usize,
    /// `Optimized` replies — a clean stream must produce
    /// nothing else.
    pub optimized_fast: usize,
    /// Replies with any other outcome (degradations, sheds, rejections).
    pub other: usize,
    /// High-water mark of any worker engine's arena, in live nodes.
    pub peak_arena_nodes: usize,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Per-request end-to-end latencies, microseconds, unsorted.
    pub latencies_us: Vec<u64>,
}

impl CleanReport {
    /// End-to-end throughput in requests per second.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.requests as f64 / self.elapsed.as_secs_f64()
    }
}

/// One request of the seeded clean stream: a parseable query with real
/// redexes, default budgets, **no** deadline and **no** faults — so the
/// persistent engine's memo is eligible and the stream measures the
/// service's fast path, not its failure handling.
pub fn generate_clean_request(rng: &mut Rng, stall: Duration) -> Request {
    let roll = rng.gen_range(0..100usize);
    let payload = if roll < 55 {
        Payload::Text(id_tower_text(4 + rng.gen_range(0..48usize)))
    } else if roll < 80 {
        Payload::Text(KOLA_TEMPLATES[rng.gen_range(0..KOLA_TEMPLATES.len())].to_string())
    } else {
        Payload::Text(OQL_TEMPLATES[rng.gen_range(0..OQL_TEMPLATES.len())].to_string())
    };
    Request {
        payload,
        options: RequestOptions {
            hold_for: (!stall.is_zero()).then_some(stall),
            ..RequestOptions::default()
        },
        tenant: None,
    }
}

/// Drive `cfg.requests` clean requests through a fresh service from
/// `cfg.clients` closed-loop client threads and measure throughput.
pub fn run_clean_stream(cfg: &CleanConfig) -> CleanReport {
    let service = Service::start(ServiceConfig {
        workers: cfg.workers,
        queue_capacity: cfg.queue_capacity.max(cfg.clients),
        // The clean stream measures worker scaling; its templates repeat
        // heavily, so a cache would answer most of them at the door and
        // the gate would measure the cache instead. The repeated-traffic
        // stream ([`run_repeated_stream`]) is where the cache is measured.
        cache_capacity: 0,
        ..ServiceConfig::default()
    });
    let clients = cfg.clients.max(1);
    let per_client = cfg.requests / clients;
    let remainder = cfg.requests % clients;
    let started = std::time::Instant::now();
    let mut partials: Vec<(usize, usize, Vec<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let service = &service;
                let n = per_client + usize::from(c < remainder);
                let seed = cfg.seed ^ ((c as u64 + 1) << 32);
                let stall = cfg.stall;
                s.spawn(move || {
                    let mut rng = Rng::seed_from_u64(seed);
                    let mut fast = 0usize;
                    let mut other = 0usize;
                    let mut latencies = Vec::with_capacity(n);
                    for _ in 0..n {
                        let resp = service.call(generate_clean_request(&mut rng, stall));
                        match resp.outcome {
                            Outcome::Optimized => fast += 1,
                            _ => other += 1,
                        }
                        latencies.push(resp.latency.as_micros() as u64);
                    }
                    (fast, other, latencies)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();
    let mut report = CleanReport {
        requests: cfg.requests,
        elapsed,
        ..CleanReport::default()
    };
    for (fast, other, mut lat) in partials.drain(..) {
        report.optimized_fast += fast;
        report.other += other;
        report.latencies_us.append(&mut lat);
    }
    report.peak_arena_nodes = service.peak_arena_nodes();
    report
}

// ---------------------------------------------------------------------------
// Repeated stream: the plan-cache workload.
// ---------------------------------------------------------------------------

/// Parameters of one repeated-traffic run: clients draw from a fixed query
/// pool with Zipf-ish skew at a configured target hit rate, with the rest
/// of the stream unique misses. This is the millions-of-users traffic
/// shape the plan cache exists for — overwhelmingly repetitive, with a
/// long unique tail.
#[derive(Debug, Clone)]
pub struct RepeatedConfig {
    /// Requests to drive through the service in total (timed window).
    pub requests: usize,
    /// Master seed; which requests are pool draws, and which pool member
    /// each draws, is a pure function of it.
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Work-queue capacity.
    pub queue_capacity: usize,
    /// Simulated per-request materialization stall for requests that reach
    /// a worker (cache hits never do — that asymmetry is the measurement).
    pub stall: Duration,
    /// Target hit rate in `[0, 1]`: the probability a request is a pool
    /// draw. The pool is prewarmed outside the timed window, so every pool
    /// draw is a hit and the achieved rate concentrates tightly here (the
    /// draw probability carries a small overshoot so seeded runs clear the
    /// target, not just approach it).
    pub hit_target: f64,
    /// Fixed pool size.
    pub pool: usize,
    /// Plan-cache capacity for the served service (`0` makes every request
    /// a worker pass — the 0%-hit baseline rows).
    pub cache_capacity: usize,
}

impl Default for RepeatedConfig {
    fn default() -> Self {
        RepeatedConfig {
            requests: 4_000,
            seed: 0xFACADE,
            workers: 4,
            clients: 8,
            queue_capacity: 64,
            stall: Duration::from_millis(2),
            hit_target: 0.9,
            pool: 32,
            cache_capacity: 2048,
        }
    }
}

/// What a repeated-traffic run observed.
#[derive(Debug, Clone, Default)]
pub struct RepeatedReport {
    /// Requests driven in the timed window (all of them classified).
    pub requests: usize,
    /// `Optimized` replies (worker passes and cache hits
    /// alike — a repeated stream must produce nothing else).
    pub optimized_fast: usize,
    /// Replies with any other outcome (must be zero).
    pub other: usize,
    /// Plan-cache hits inside the timed window.
    pub cache_hits: u64,
    /// Achieved hit rate: `cache_hits / requests`.
    pub hit_actual: f64,
    /// Client-tallied caught panics (must be zero, and must equal the
    /// metric counter — the per-row conservation cross-check).
    pub caught_panics: usize,
    /// Wall-clock of the timed window.
    pub elapsed: Duration,
    /// Per-request end-to-end latencies, microseconds, unsorted.
    pub latencies_us: Vec<u64>,
    /// Quiescent metric snapshot (prewarm included — the conservation
    /// invariants hold over the service's whole life).
    pub metrics: Snapshot,
    /// Conservation violations in `metrics` plus the client-vs-books
    /// cross-checks (must be empty).
    pub violations: Vec<String>,
}

impl RepeatedReport {
    /// Timed-window throughput in requests per second.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.requests as f64 / self.elapsed.as_secs_f64()
    }
}

/// Zipf-ish rank pick over `pool` members: rank `r` drawn with weight
/// `1/(r+1)`. Integer cumulative weights keep the draw exact and seeded.
fn zipf_pick(rng: &mut Rng, cumulative: &[u64]) -> usize {
    let total = *cumulative.last().expect("non-empty pool");
    let x = rng.gen_range(0..total as usize) as u64;
    cumulative.partition_point(|&c| c <= x)
}

/// Drive `cfg.requests` repeated-traffic requests through a fresh service
/// from `cfg.clients` closed-loop clients and measure hit rate, latency,
/// and throughput. The pool is prewarmed (one sequential pass) before the
/// timed window opens, so the window measures steady-state serving.
pub fn run_repeated_stream(cfg: &RepeatedConfig) -> RepeatedReport {
    let service = Service::start(ServiceConfig {
        workers: cfg.workers,
        queue_capacity: cfg.queue_capacity.max(cfg.clients),
        cache_capacity: cfg.cache_capacity,
        ..ServiceConfig::default()
    });
    let pool: Vec<String> = (0..cfg.pool.max(1)).map(|r| id_tower_text(4 + r)).collect();
    // Integer Zipf weights, scaled to keep low-rank resolution: weight of
    // rank r is round(K / (r+1)).
    let mut cumulative = Vec::with_capacity(pool.len());
    let mut acc = 0u64;
    for r in 0..pool.len() {
        acc += (1_000_000 / (r as u64 + 1)).max(1);
        cumulative.push(acc);
    }
    let pool_request = |src: &str| Request {
        payload: Payload::Text(src.to_string()),
        options: RequestOptions {
            hold_for: (!cfg.stall.is_zero()).then_some(cfg.stall),
            ..RequestOptions::default()
        },
        tenant: None,
    };
    // Prewarm: one sequential pass over the pool fills the cache (a no-op
    // when the cache is disabled), outside the timed window.
    for src in &pool {
        let r = service.call(pool_request(src));
        assert!(
            matches!(r.outcome, Outcome::Optimized),
            "pool prewarm must optimize, got {}",
            r.outcome
        );
    }
    // Small overshoot so the achieved rate clears the target on any seed
    // (every pool draw is a hit after prewarm; uniques never are).
    let draw_p = if cfg.hit_target > 0.0 {
        (cfg.hit_target + 0.02).min(1.0)
    } else {
        0.0
    };
    let unique = std::sync::atomic::AtomicU64::new(0);
    let clients = cfg.clients.max(1);
    let per_client = cfg.requests / clients;
    let remainder = cfg.requests % clients;
    let hits_before = service.metrics_snapshot().counter("cache_hits");
    let started = Instant::now();
    let mut partials: Vec<(usize, usize, usize, Vec<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let service = &service;
                let pool = &pool;
                let cumulative = &cumulative;
                let unique = &unique;
                let n = per_client + usize::from(c < remainder);
                let seed = cfg.seed ^ ((c as u64 + 1) << 32);
                s.spawn(move || {
                    let mut rng = Rng::seed_from_u64(seed);
                    let mut fast = 0usize;
                    let mut other = 0usize;
                    let mut panics = 0usize;
                    let mut latencies = Vec::with_capacity(n);
                    for _ in 0..n {
                        let request = if draw_p > 0.0 && rng.gen_bool(draw_p) {
                            pool_request(&pool[zipf_pick(&mut rng, cumulative)])
                        } else {
                            // The unique tail: never repeats, so never
                            // hits — and (deliberately cacheable) fills
                            // shards so eviction earns its keep.
                            let n = unique.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            pool_request(&format!("gt ? [{}, 2]", n + 3))
                        };
                        let resp = service.call(request);
                        match resp.outcome {
                            Outcome::Optimized => fast += 1,
                            _ => other += 1,
                        }
                        panics += usize::from(resp.panic.is_some());
                        latencies.push(resp.latency.as_micros() as u64);
                    }
                    (fast, other, panics, latencies)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();
    let mut report = RepeatedReport {
        requests: cfg.requests,
        elapsed,
        ..RepeatedReport::default()
    };
    for (fast, other, panics, mut lat) in partials.drain(..) {
        report.optimized_fast += fast;
        report.other += other;
        report.caught_panics += panics;
        report.latencies_us.append(&mut lat);
    }
    report.metrics = service.metrics_snapshot();
    report.cache_hits = report.metrics.counter("cache_hits") - hits_before;
    report.hit_actual = if cfg.requests == 0 {
        0.0
    } else {
        report.cache_hits as f64 / cfg.requests as f64
    };
    report.violations = conservation_violations(&report.metrics);
    if report.other != 0 {
        report.violations.push(format!(
            "{} repeated-stream requests not optimized",
            report.other
        ));
    }
    if report.caught_panics as u64 != report.metrics.counter("caught_panics") {
        report.violations.push(format!(
            "caught-panic books unbalanced: clients hold {}, counter says {}",
            report.caught_panics,
            report.metrics.counter("caught_panics"),
        ));
    }
    report
}

// ---------------------------------------------------------------------------
// Noisy neighbor: the multi-tenant isolation workload.
// ---------------------------------------------------------------------------

/// Parameters of one noisy-neighbor run: a clean **victim** tenant served
/// alongside an **aggressor** tenant that pours poison-rule panics and
/// admission floods into the same service. Tenant namespaces are the unit
/// of isolation under test: the aggressor must trip only its own breaker,
/// invalidate only its own plan-cache lines, and exhaust only its own
/// admission quota — the victim's outcome taxonomy must be exactly what it
/// would be running solo (every reply `Optimized`, zero sheds, zero
/// panics). Set [`TenantChaosConfig::aggressor`] to `false`
/// for the solo baseline the bench compares against.
#[derive(Debug, Clone)]
pub struct TenantChaosConfig {
    /// Requests the victim's closed-loop clients drive in total.
    pub victim_requests: usize,
    /// Requests the aggressor's clients drive in total (ignored when
    /// `aggressor` is off).
    pub aggressor_requests: usize,
    /// Master seed; both tenants' streams are pure functions of it.
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
    /// Closed-loop victim client threads (keep this at or under
    /// `tenant_quota`, so a solo victim never sheds).
    pub victim_clients: usize,
    /// Aggressor client threads.
    pub aggressor_clients: usize,
    /// Work-queue capacity (global backpressure wall).
    pub queue_capacity: usize,
    /// Per-tenant admission quota — the noisy-neighbor wall. Sized so the
    /// aggressor's floods hit it while the victim's closed loop never does.
    pub tenant_quota: usize,
    /// Simulated per-request materialization stall (see [`CleanConfig`]).
    pub stall: Duration,
    /// Plan-cache capacity (tenant-salted keys; the victim's repeats hit).
    pub cache_capacity: usize,
    /// Run the aggressor at all (`false` = solo-victim baseline).
    pub aggressor: bool,
}

impl Default for TenantChaosConfig {
    fn default() -> Self {
        TenantChaosConfig {
            victim_requests: 2_000,
            aggressor_requests: 2_000,
            seed: 0x7E4A47,
            workers: 8,
            victim_clients: 4,
            aggressor_clients: 4,
            queue_capacity: 64,
            tenant_quota: 8,
            stall: Duration::from_millis(2),
            cache_capacity: 2048,
            aggressor: true,
        }
    }
}

/// One tenant's client-side tally of a noisy-neighbor run.
#[derive(Debug, Clone, Default)]
pub struct TenantTally {
    /// Requests this tenant's clients drove (all of them classified).
    pub requests: usize,
    /// `Optimized` replies.
    pub optimized_fast: usize,
    /// Replies with any other completed outcome (degradations, rejections).
    pub other: usize,
    /// Structured sheds at submission (quota or queue).
    pub overloaded: usize,
    /// `Invalid` replies.
    pub invalid: usize,
    /// Poison-rule panics caught and attributed by the ladder.
    pub caught_panics: usize,
    /// Per-request end-to-end latencies, microseconds, unsorted.
    pub latencies_us: Vec<u64>,
}

impl TenantTally {
    fn absorb(&mut self, resp: &Response) {
        self.requests += 1;
        match resp.outcome {
            Outcome::Optimized => self.optimized_fast += 1,
            Outcome::Overloaded => self.overloaded += 1,
            Outcome::Invalid => self.invalid += 1,
            _ => self.other += 1,
        }
        self.caught_panics += usize::from(resp.panic.is_some());
        self.latencies_us.push(resp.latency.as_micros() as u64);
    }

    /// Nearest-rank p99 latency in microseconds.
    pub fn p99_us(&self) -> u64 {
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        percentile(&sorted, 99.0)
    }
}

/// What a noisy-neighbor run observed.
#[derive(Debug, Clone, Default)]
pub struct TenantChaosReport {
    /// Whether the aggressor ran (`false` = solo baseline).
    pub aggressor_enabled: bool,
    /// The clean tenant's client-side tally.
    pub victim: TenantTally,
    /// The poison tenant's client-side tally.
    pub aggressor: TenantTally,
    /// The victim's breaker generation after the run (must be 0: no
    /// cross-tenant charge ever reached it).
    pub victim_breaker_generation: u64,
    /// Times the aggressor's breaker opened a rule (must be nonzero when
    /// the aggressor ran — otherwise the aggression never landed and the
    /// isolation claim was not exercised).
    pub aggressor_breaker_opened: u64,
    /// Panics that reached a worker boundary unclassified (must be zero).
    pub unexpected_panics: usize,
    /// High-water mark of any worker engine's intern arena, in live nodes.
    pub peak_arena_nodes: usize,
    /// Quiescent metric snapshot (per-tenant and aggregate books must
    /// balance on it).
    pub metrics: Snapshot,
    /// Conservation violations in `metrics` (aggregate equations, every
    /// per-tenant lane, and the Σ-tenant partition checks).
    pub conservation: Vec<String>,
    /// Wall-clock from first submit to the victim's last reply — the
    /// window victim throughput divides by.
    pub victim_elapsed: Duration,
    /// Wall-clock of the whole serving window (both tenants drained).
    pub elapsed: Duration,
}

impl TenantChaosReport {
    /// The isolation invariants. Empty means the victim never noticed its
    /// neighbor.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        v.extend(self.conservation.iter().cloned());
        // The victim's outcome taxonomy must be exactly its solo taxonomy:
        // every reply optimized.
        if self.victim.optimized_fast != self.victim.requests {
            v.push(format!(
                "victim taxonomy polluted: {} of {} replies fast ({} degraded, \
                 {} overloaded, {} invalid)",
                self.victim.optimized_fast,
                self.victim.requests,
                self.victim.other,
                self.victim.overloaded,
                self.victim.invalid
            ));
        }
        if self.victim.caught_panics != 0 {
            v.push(format!(
                "{} poison panics leaked into victim replies",
                self.victim.caught_panics
            ));
        }
        if self.victim_breaker_generation != 0 {
            v.push(format!(
                "victim breaker generation moved to {}: a cross-tenant \
                 charge landed",
                self.victim_breaker_generation
            ));
        }
        // All aggressor traffic is uncacheable (every request carries a
        // fault plan) and the victim's generation never moves, so no cache
        // line anywhere can go stale: a nonzero reclaim count means some
        // tenant's entries were invalidated across the namespace wall.
        if self.metrics.counter("cache_stale") != 0 {
            v.push(format!(
                "{} cache entries reclaimed as stale: an invalidation \
                 crossed the tenant wall",
                self.metrics.counter("cache_stale")
            ));
        }
        if self.aggressor_enabled && self.aggressor_breaker_opened == 0 {
            v.push("aggression never landed: the aggressor's breaker never opened".to_string());
        }
        if self.unexpected_panics != 0 {
            v.push(format!(
                "{} panics escaped ladder classification",
                self.unexpected_panics
            ));
        }
        if self.peak_arena_nodes > PEAK_ARENA_BOUND {
            v.push(format!(
                "worker arena peaked at {} nodes (bound {PEAK_ARENA_BOUND})",
                self.peak_arena_nodes
            ));
        }
        // Client-side per-tenant submission counts vs the books.
        let lane = |family: &str, label: &str| -> u64 {
            self.metrics
                .family(family)
                .iter()
                .find(|(l, _)| l == label)
                .map_or(0, |(_, n)| *n)
        };
        for (name, tally) in [("victim", &self.victim), ("aggressor", &self.aggressor)] {
            let books = lane("tenant_submitted", name);
            if tally.requests as u64 != books {
                v.push(format!(
                    "tenant {name:?} submission books unbalanced: clients drove {}, \
                     books say {books}",
                    tally.requests
                ));
            }
        }
        let client_panics = (self.victim.caught_panics + self.aggressor.caught_panics) as u64;
        if client_panics != self.metrics.counter("caught_panics") {
            v.push(format!(
                "caught-panic books unbalanced: clients hold {client_panics}, \
                 counter says {}",
                self.metrics.counter("caught_panics")
            ));
        }
        v
    }

    /// Victim throughput in requests per second over the victim's window.
    pub fn victim_throughput_rps(&self) -> f64 {
        if self.victim_elapsed.is_zero() {
            return 0.0;
        }
        self.victim.requests as f64 / self.victim_elapsed.as_secs_f64()
    }

    /// Multi-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "aggressor           {}\n\
             victim req/fast     {} / {}\n\
             victim ovl/inv/oth  {} / {} / {}\n\
             victim p99          {} us\n\
             victim throughput   {:.0} rps\n\
             aggressor req/fast  {} / {}\n\
             aggressor ovl/oth   {} / {}\n\
             aggressor panics    {}\n\
             aggressor trips     {}\n\
             victim breaker gen  {}\n\
             unexpected panics   {}\n\
             conservation        {}",
            if self.aggressor_enabled {
                "ON"
            } else {
                "off (solo baseline)"
            },
            self.victim.requests,
            self.victim.optimized_fast,
            self.victim.overloaded,
            self.victim.invalid,
            self.victim.other,
            self.victim.p99_us(),
            self.victim_throughput_rps(),
            self.aggressor.requests,
            self.aggressor.optimized_fast,
            self.aggressor.overloaded,
            self.aggressor.other,
            self.aggressor.caught_panics,
            self.aggressor_breaker_opened,
            self.victim_breaker_generation,
            self.unexpected_panics,
            if self.conservation.is_empty() {
                "balanced"
            } else {
                "VIOLATED"
            },
        )
    }
}

/// One aggressor request: an id-tower that exercises "app"/"e121" with a
/// fault plan that panics (or fails) those rules mid-rewrite. Every
/// aggressor request carries a fault plan, so none of them are cacheable —
/// the victim's plan lines are the only lines in the cache.
fn aggressor_request(rng: &mut Rng, stall: Duration) -> Request {
    // Unused draw, kept so each seed generates the same stream (see
    // `generate_request`).
    let _ = rng.gen_range(0..200usize);
    let mut options = RequestOptions {
        hold_for: (!stall.is_zero()).then_some(stall),
        timeout: Some(stall + Duration::from_millis(15)),
        max_steps: 400,
        ..RequestOptions::default()
    };
    let rule = if rng.gen_bool(0.5) { "app" } else { "e121" };
    let kind = if rng.gen_bool(0.7) {
        FaultKind::Panic
    } else {
        FaultKind::Fail
    };
    options.faults = FaultPlan::new().with(FaultSpec {
        rule_id: rule.to_string(),
        at: StepSelector::Always,
        kind,
    });
    Request {
        payload: Payload::Text(id_tower_text(2 + rng.gen_range(0..8usize))),
        options,
        tenant: None,
    }
    .for_tenant("aggressor")
}

/// Run one noisy-neighbor soak: a clean closed-loop victim stream against
/// an aggressor mixing poison calls (~75%) with admission floods (~25%,
/// bursts submitted without draining so the aggressor's quota wall does
/// real shedding), on one service with tenants `["victim", "aggressor"]`.
pub fn run_noisy_neighbor(cfg: &TenantChaosConfig) -> TenantChaosReport {
    let service = Service::start(ServiceConfig {
        workers: cfg.workers,
        queue_capacity: cfg.queue_capacity,
        cache_capacity: cfg.cache_capacity,
        tenants: vec!["victim".to_string(), "aggressor".to_string()],
        tenant_quota: cfg.tenant_quota,
        ..ServiceConfig::default()
    });
    let victim_clients = cfg.victim_clients.max(1);
    let v_per = cfg.victim_requests / victim_clients;
    let v_rem = cfg.victim_requests % victim_clients;
    let aggressor_clients = cfg.aggressor_clients.max(1);
    let a_total = if cfg.aggressor {
        cfg.aggressor_requests
    } else {
        0
    };
    let a_per = a_total / aggressor_clients;
    let a_rem = a_total % aggressor_clients;
    let started = Instant::now();
    let (victim_parts, aggressor_parts): (Vec<(TenantTally, Duration)>, Vec<TenantTally>) =
        std::thread::scope(|s| {
            let victims: Vec<_> = (0..victim_clients)
                .map(|c| {
                    let service = &service;
                    let n = v_per + usize::from(c < v_rem);
                    let seed = cfg.seed ^ ((c as u64 + 1) << 32);
                    let stall = cfg.stall;
                    s.spawn(move || {
                        let mut rng = Rng::seed_from_u64(seed);
                        let mut tally = TenantTally::default();
                        for _ in 0..n {
                            let request =
                                generate_clean_request(&mut rng, stall).for_tenant("victim");
                            tally.absorb(&service.call(request));
                        }
                        (tally, started.elapsed())
                    })
                })
                .collect();
            let aggressors: Vec<_> = (0..aggressor_clients)
                .map(|c| {
                    let service = &service;
                    let n = a_per + usize::from(c < a_rem);
                    let seed = cfg.seed ^ 0xA66E ^ ((c as u64 + 101) << 32);
                    let stall = cfg.stall;
                    s.spawn(move || {
                        let mut rng = Rng::seed_from_u64(seed);
                        let mut tally = TenantTally::default();
                        let mut done = 0usize;
                        while done < n {
                            if rng.gen_bool(0.75) {
                                // Poison lane: one synchronous call whose
                                // fault plan panics a rule this payload
                                // actually fires — charges land on the
                                // aggressor's breaker shards only.
                                tally.absorb(&service.call(aggressor_request(&mut rng, stall)));
                                done += 1;
                            } else {
                                // Flood lane: a burst submitted without
                                // draining, so concurrent aggressor depth
                                // blows through the tenant quota and the
                                // quota wall sheds — while the victim's
                                // closed loop stays under its own quota.
                                let burst = (n - done).min(8);
                                let mut pending = Vec::with_capacity(burst);
                                for _ in 0..burst {
                                    match service.submit(aggressor_request(&mut rng, stall)) {
                                        Ok(p) => pending.push(p),
                                        Err(rejection) => tally.absorb(&rejection),
                                    }
                                    done += 1;
                                }
                                for p in pending {
                                    tally.absorb(&p.wait());
                                }
                            }
                        }
                        tally
                    })
                })
                .collect();
            (
                victims.into_iter().map(|h| h.join().unwrap()).collect(),
                aggressors.into_iter().map(|h| h.join().unwrap()).collect(),
            )
        });
    let elapsed = started.elapsed();
    let mut report = TenantChaosReport {
        aggressor_enabled: cfg.aggressor,
        elapsed,
        ..TenantChaosReport::default()
    };
    for (tally, window) in victim_parts {
        report.victim.requests += tally.requests;
        report.victim.optimized_fast += tally.optimized_fast;
        report.victim.other += tally.other;
        report.victim.overloaded += tally.overloaded;
        report.victim.invalid += tally.invalid;
        report.victim.caught_panics += tally.caught_panics;
        report.victim.latencies_us.extend(tally.latencies_us);
        report.victim_elapsed = report.victim_elapsed.max(window);
    }
    for tally in aggressor_parts {
        report.aggressor.requests += tally.requests;
        report.aggressor.optimized_fast += tally.optimized_fast;
        report.aggressor.other += tally.other;
        report.aggressor.overloaded += tally.overloaded;
        report.aggressor.invalid += tally.invalid;
        report.aggressor.caught_panics += tally.caught_panics;
        report.aggressor.latencies_us.extend(tally.latencies_us);
    }
    report.victim_breaker_generation = service
        .tenant_breaker("victim")
        .map_or(0, |b| b.generation());
    report.aggressor_breaker_opened = service
        .tenant_breaker("aggressor")
        .map_or(0, |b| b.opened_total());
    report.unexpected_panics = service.unexpected_panics();
    report.peak_arena_nodes = service.peak_arena_nodes();
    report.metrics = service.metrics_snapshot();
    report.conservation = conservation_violations(&report.metrics);
    report
}
