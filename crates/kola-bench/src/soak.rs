//! Deterministic soak harness for the optimization service.
//!
//! Four seeded workloads drive a [`Service`] through its public surface:
//!
//! - [`run_chaos`] — the chaos stream: well-formed OQL/KOLA text,
//!   adversarially deep AST payloads, poison-rule fault plans (rules that
//!   panic mid-rewrite), injected engine faults, random deadlines, and
//!   artificial holds that push the queue into overload. Thread scheduling
//!   still varies run to run — which requests get shed, which deadlines
//!   expire — but the service's *invariants* must not: every request
//!   terminates with exactly one classified outcome, no panic escapes a
//!   worker, and every optimized reply — worker pass, cache hit or
//!   coalesced — means what its input means on a sample database (audited
//!   after the serving window). [`ChaosReport::violations`] checks exactly
//!   those scheduling-independent properties.
//! - [`run_clean_stream`] — the no-fault worker-scaling workload.
//! - [`run_repeated_stream`] — the plan-cache workload.
//! - [`run_noisy_neighbor`] — the multi-tenant isolation workload.
//!
//! Every stream is a pure function of its seed; `tests/stream_pin.rs` pins
//! the first 2,000 requests of each generator by hash. The clean, repeated
//! and victim streams share one closed-loop driver ([`closed_loop`]) and
//! every client population is counted by one [`Tally`].

use kola::term::{Func, Pred, Query};
use kola::Value;
use kola_exec::datagen::{generate, DataSpec};
use kola_exec::rng::{splitmix64, Rng};
use kola_obs::{ReplayWorker, Snapshot};
use kola_rewrite::{Catalog, FaultKind, FaultPlan, FaultSpec, PropDb, StepSelector};
use kola_service::{
    conservation_violations, Outcome, Payload, Request, RequestOptions, Response, Service,
    ServiceConfig,
};
use kola_verify::PlanAgreement;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Scope;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Shared pieces: the tally, the closed-loop driver, throughput.
// ---------------------------------------------------------------------------

/// One client population's view of a soak: every reply its clients hold,
/// classified by outcome.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Replies received (every request driven gets exactly one).
    pub requests: usize,
    /// `Optimized` replies.
    pub optimized_fast: usize,
    /// `Passthrough` replies.
    pub passthrough: usize,
    /// Structured sheds at submission (quota or queue).
    pub overloaded: usize,
    /// `Invalid` replies.
    pub invalid: usize,
    /// Poison-rule panics caught and attributed by the worker.
    pub caught_panics: usize,
    /// Per-request end-to-end latencies, microseconds, unsorted.
    pub latencies_us: Vec<u64>,
}

impl Tally {
    /// Count one reply.
    pub fn absorb(&mut self, resp: &Response) {
        self.requests += 1;
        match resp.outcome {
            Outcome::Optimized => self.optimized_fast += 1,
            Outcome::Passthrough => self.passthrough += 1,
            Outcome::Overloaded => self.overloaded += 1,
            Outcome::Invalid => self.invalid += 1,
        }
        self.caught_panics += usize::from(resp.panic.is_some());
        self.latencies_us.push(resp.latency.as_micros() as u64);
    }

    fn merge(&mut self, other: Tally) {
        self.requests += other.requests;
        self.optimized_fast += other.optimized_fast;
        self.passthrough += other.passthrough;
        self.overloaded += other.overloaded;
        self.invalid += other.invalid;
        self.caught_panics += other.caught_panics;
        self.latencies_us.extend(other.latencies_us);
    }

    /// Nearest-rank p50, p95 and p99 latency in microseconds.
    pub fn percentiles_us(&self) -> (u64, u64, u64) {
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        (
            percentile(&sorted, 50.0),
            percentile(&sorted, 95.0),
            percentile(&sorted, 99.0),
        )
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (0 if empty).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `requests` over `window`, in requests per second (0 for an empty window).
pub fn throughput_rps(requests: usize, window: Duration) -> f64 {
    if window.is_zero() {
        return 0.0;
    }
    requests as f64 / window.as_secs_f64()
}

/// The generator seed of closed-loop client `c` under master seed `seed`.
pub fn client_seed(seed: u64, c: usize) -> u64 {
    seed ^ ((c as u64 + 1) << 32)
}

/// Start `requests` requests through `service` from `clients` closed-loop
/// client threads spawned into `scope`, each keeping exactly one request
/// in flight (so admission depth never exceeds `clients`). Client `c`
/// draws its requests from `make_request` with its own generator, seeded
/// [`client_seed`]`(seed, c)`. The returned join waits for every client
/// and yields the merged tally and the window from the spawn to the last
/// reply. Spawning into the caller's scope lets a caller start other
/// threads strictly after these clients (the noisy-neighbor victim starts
/// before its aggressor).
pub fn closed_loop<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    service: &'env Service,
    clients: usize,
    requests: usize,
    seed: u64,
    make_request: &'env (impl Fn(&mut Rng) -> Request + Sync),
) -> impl FnOnce() -> (Tally, Duration) + 'scope {
    let clients = clients.max(1);
    let per_client = requests / clients;
    let remainder = requests % clients;
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let n = per_client + usize::from(c < remainder);
            scope.spawn(move || {
                let mut rng = Rng::seed_from_u64(client_seed(seed, c));
                let mut tally = Tally::default();
                tally.latencies_us.reserve(n);
                for _ in 0..n {
                    tally.absorb(&service.call(make_request(&mut rng)));
                }
                (tally, started.elapsed())
            })
        })
        .collect();
    move || {
        let mut tally = Tally::default();
        let mut window = Duration::ZERO;
        for h in handles {
            let (part, finished) = h.join().unwrap();
            tally.merge(part);
            window = window.max(finished);
        }
        (tally, window)
    }
}

/// Where the chaos-soak binary and the service benchmark write their
/// artifact `name`: the committed file at the repository root, or
/// `target/bench-smoke/<name>` for a smoke run (`BENCH_SMOKE` set to
/// anything but empty or `0`, as `scripts/ci.sh` sets it), so a CI smoke
/// never overwrites a committed result.
pub fn artifact_path(name: &str) -> std::io::Result<PathBuf> {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    if !crate::smoke_mode() {
        return Ok(root.join(name));
    }
    let dir = root.join("target").join("bench-smoke");
    std::fs::create_dir_all(&dir)?;
    Ok(dir.join(name))
}

/// Upper bound on any worker engine's intern arena over a soak, in live
/// nodes: the fast engine's compaction cap
/// (`EngineConfig::fast().arena_capacity`, 64Ki nodes) plus a generous
/// allowance for the growth of the single request that runs after the cap
/// check — compaction fires *between* requests' normalize calls, so the
/// peak is "cap + one request", never "requests × size".
pub const PEAK_ARENA_BOUND: usize = (1 << 16) + (1 << 18);

// ---------------------------------------------------------------------------
// Request generators.
// ---------------------------------------------------------------------------

/// `id . … . id . <tail> ! P` with `height` identities.
fn tower(height: usize, tail: &str) -> String {
    let mut s = String::with_capacity(height * 5 + tail.len() + 4);
    for _ in 0..height {
        s.push_str("id . ");
    }
    s.push_str(tail);
    s.push_str(" ! P");
    s
}

/// The tower the clean, repeated and aggressor streams send:
/// `id . … . id . age ! P`. It is ill-typed (`age` of a set), which those
/// throughput streams never evaluate.
fn id_tower_text(height: usize) -> String {
    tower(height, "age")
}

/// The chaos stream's tower, `id . … . id . iterate(Kp(T), age) ! P`:
/// well-typed, like every chaos payload, so the plan audit compares what
/// it evaluates to on the audit database instead of finding both sides
/// stuck.
fn typed_tower(height: usize) -> String {
    tower(height, "iterate(Kp(T), age)")
}

fn deep_compose_ast(height: usize) -> Query {
    let mut f = Func::Iterate(
        Box::new(Pred::ConstP(true)),
        Box::new(Func::Prim(Arc::from("age"))),
    );
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
    let persons = || Box::new(Query::Extent(Arc::from("P")));
    Query::Test(p, Box::new(Query::PairQ(persons(), persons())))
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
    "id . iterate(Kp(T), age) ! P",
    "iterate(Kp(T), age) . id ! P",
    "sunion ! [P, P]",
    "P union P",
    "gt ? [3, 2]",
    "iterate(Kp(T), id . city . addr) ! P",
];

const OQL_TEMPLATES: &[&str] = &[
    "select p.age from p in P",
    "select p from p in P",
    "select p.age from p in P where p.age > 25",
    "select p from p in P where p.age > 18 and not p.age > 65",
];

/// The hold every request of a stream carries: `None` for a zero stall.
fn hold(stall: Duration) -> Option<Duration> {
    (!stall.is_zero()).then_some(stall)
}

/// One request of the seeded chaos stream. Every request carries the
/// configured materialization `stall` as its baseline hold, and every
/// generated timeout is extended by the same stall, so which requests
/// expire is a property of the stream — not of the stall. `repeated` is
/// the probability of drawing from the repeated-traffic lane.
pub fn chaos_request(rng: &mut Rng, stall: Duration, repeated: f64) -> Request {
    if repeated > 0.0 && rng.gen_bool(repeated) {
        // Repeated lane: a small fixed pool under FIXED budgets, so
        // identical draws share one plan-cache line (the stream's trailing
        // budget randomization below would disperse the keys). Pure (no
        // faults), so the requests are cacheable, and the poison lanes'
        // breaker trips invalidate their entries mid-soak, which is the
        // interaction this lane exists to exercise.
        let pick = rng.gen_range(0..8usize);
        let options = RequestOptions {
            hold_for: hold(stall),
            timeout: Some(stall + Duration::from_millis(25)),
            max_steps: 400,
            ..RequestOptions::default()
        };
        return Request {
            payload: Payload::Text(typed_tower(2 + pick)),
            options,
            tenant: None,
        };
    }
    // An unused draw (it paced a retry the service no longer takes), kept
    // so that each seed still generates the stream it always did.
    let _ = rng.gen_range(0..200usize);
    let mut options = RequestOptions {
        hold_for: hold(stall),
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
            Payload::Text(typed_tower(1 + rng.gen_range(0..12usize)))
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
        Payload::Text(typed_tower(1 + rng.gen_range(0..8usize)))
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
        Payload::Text(typed_tower(2 + rng.gen_range(0..8usize)))
    } else {
        // Slow requests: extra pre-engine work on top of the baseline
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

/// One request of the seeded clean stream: a parseable query with real
/// redexes, default budgets, **no** deadline and **no** faults — so the
/// persistent engine's memo is eligible and the stream measures the
/// service's fast path, not its failure handling.
pub fn clean_request(rng: &mut Rng, stall: Duration) -> Request {
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
            hold_for: hold(stall),
            ..RequestOptions::default()
        },
        tenant: None,
    }
}

/// The repeated stream's request source: a fixed pool of id towers drawn
/// with Zipf-ish skew (rank `r` with weight `1/(r+1)`) with probability
/// `draw_p`, and otherwise a never-repeating unique tail.
pub struct RepeatedPool {
    pool: Vec<String>,
    /// Integer cumulative Zipf weights, so the draw is exact and seeded.
    cumulative: Vec<u64>,
    draw_p: f64,
    stall: Duration,
    /// Next unique-tail number, shared by every client.
    unique: AtomicU64,
}

impl RepeatedPool {
    /// The pool `cfg` describes.
    pub fn new(cfg: &RepeatedConfig) -> RepeatedPool {
        let pool: Vec<String> = (0..cfg.pool.max(1)).map(|r| id_tower_text(4 + r)).collect();
        // Integer Zipf weights, scaled to keep low-rank resolution: weight
        // of rank r is round(K / (r+1)).
        let mut cumulative = Vec::with_capacity(pool.len());
        let mut acc = 0u64;
        for r in 0..pool.len() {
            acc += (1_000_000 / (r as u64 + 1)).max(1);
            cumulative.push(acc);
        }
        // Small overshoot so the achieved rate clears the target on any
        // seed (every pool draw is a hit after prewarm; uniques never are).
        let draw_p = if cfg.hit_target > 0.0 {
            (cfg.hit_target + 0.02).min(1.0)
        } else {
            0.0
        };
        RepeatedPool {
            pool,
            cumulative,
            draw_p,
            stall: cfg.stall,
            unique: AtomicU64::new(0),
        }
    }

    fn pool_request(&self, src: &str) -> Request {
        Request {
            payload: Payload::Text(src.to_string()),
            options: RequestOptions {
                hold_for: hold(self.stall),
                ..RequestOptions::default()
            },
            tenant: None,
        }
    }

    /// The next request a client with generator `rng` sends.
    pub fn request(&self, rng: &mut Rng) -> Request {
        if self.draw_p > 0.0 && rng.gen_bool(self.draw_p) {
            let total = *self.cumulative.last().expect("non-empty pool");
            let x = rng.gen_range(0..total as usize) as u64;
            self.pool_request(&self.pool[self.cumulative.partition_point(|&c| c <= x)])
        } else {
            // The unique tail: never repeats, so never hits — and
            // (deliberately cacheable) fills shards so eviction earns its
            // keep.
            let n = self.unique.fetch_add(1, Ordering::Relaxed);
            self.pool_request(&format!("gt ? [{}, 2]", n + 3))
        }
    }
}

/// One aggressor request: an id-tower that exercises "app"/"e121" with a
/// fault plan that panics (or fails) those rules mid-rewrite. Every
/// aggressor request carries a fault plan, so none of them are cacheable —
/// the victim's plan lines are the only lines in the cache.
pub fn aggressor_request(rng: &mut Rng, stall: Duration) -> Request {
    // Unused draw, kept so each seed generates the same stream (see
    // `chaos_request`).
    let _ = rng.gen_range(0..200usize);
    let mut options = RequestOptions {
        hold_for: hold(stall),
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

// ---------------------------------------------------------------------------
// Chaos stream: the invariant soak.
// ---------------------------------------------------------------------------

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

impl ChaosConfig {
    /// The seeded request stream: request `i` comes from its own
    /// generator, seeded from the master seed's splitmix sequence and `i`.
    pub fn stream(&self) -> impl Iterator<Item = Request> + '_ {
        let mut seed = self.seed;
        (0..self.requests).map(move |i| {
            let mut rng = Rng::seed_from_u64(splitmix64(&mut seed) ^ i as u64);
            chaos_request(&mut rng, self.stall, self.repeated)
        })
    }
}

/// What a soak observed.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Requests generated.
    pub requests: usize,
    /// The clients' replies: the generated requests must all be here, with
    /// none `Invalid` (the generator only emits parseable payloads within
    /// the size limit).
    pub tally: Tally,
    /// Panics that reached a worker boundary unclassified (must be zero).
    pub unexpected_panics: usize,
    /// Optimized replies whose plan disagrees with its input on the audit
    /// database (must be zero).
    pub gate_failures: usize,
    /// Optimized replies the audit really compared: input or plan
    /// evaluates on the audit database (agreeing pairs plus
    /// `gate_failures`).
    pub plans_compared: usize,
    /// Optimized replies whose input and plan are both stuck on the audit
    /// database: vacuously preserved, nothing compared.
    pub plans_both_stuck: usize,
    /// Rules whose cross-request breaker opened at least once.
    pub breaker_opened: usize,
    /// High-water mark of any worker engine's intern arena, in live nodes
    /// (must stay under [`PEAK_ARENA_BOUND`]: workers reuse their engine
    /// across every request of the soak, so an unbounded arena would show
    /// up here as linear growth in the request count).
    pub peak_arena_nodes: usize,
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
    /// empty; see `kola_service::metrics` for the two equations).
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

impl ChaosReport {
    /// The scheduling-independent invariants. Empty means the soak passed.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let t = &self.tally;
        if t.requests != self.requests {
            v.push(format!(
                "classification leak: {} of {} requests accounted for",
                t.requests, self.requests
            ));
        }
        if t.invalid != 0 {
            v.push(format!(
                "{} generated requests classified Invalid",
                t.invalid
            ));
        }
        if self.unexpected_panics != 0 {
            v.push(format!(
                "{} panics escaped worker classification",
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
                t.optimized_fast,
                self.metrics.counter("optimized_fast") + served("fast"),
            ),
            (
                "passthrough",
                t.passthrough,
                self.metrics.counter("passthrough") + served("passthrough"),
            ),
            (
                "overloaded",
                t.overloaded,
                self.metrics.counter("overloaded"),
            ),
            (
                "invalid",
                t.invalid,
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
        if t.caught_panics as u64 != self.metrics.counter("caught_panics") {
            v.push(format!(
                "caught-panic books unbalanced: clients hold {}, counter says {}",
                t.caught_panics,
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
    /// trace-replay tally, plan-audit counts, conservation verdict — as
    /// the `BENCH_obs.json` document both the chaos-soak binary and the
    /// service benchmark emit (see [`artifact_path`]).
    pub fn obs_json(&self, harness: &str, cfg: &ChaosConfig) -> String {
        format!(
            "{{\n  \"meta\": {{\"harness\": {}, \"requests\": {}, \"seed\": {}, \"workers\": {}, \"tracing\": {}}},\n  \"metrics\": {},\n  \"traces\": {{\"recorded\": {}, \"dropped\": {}, \"dropped_pct\": {:.2}, \"replayed\": {}, \"divergent\": {}}},\n  \"plan_audit\": {{\"compared\": {}, \"both_stuck\": {}, \"changed\": {}}},\n  \"conservation\": {{\"ok\": {}, \"violations\": [{}]}}\n}}\n",
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
            self.plans_compared,
            self.plans_both_stuck,
            self.gate_failures,
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
        let t = &self.tally;
        let (p50, p95, p99) = t.percentiles_us();
        format!(
            "requests            {}\n\
             optimized           {}\n\
             passthrough         {}\n\
             overloaded          {}\n\
             invalid             {}\n\
             caught panics       {}\n\
             unexpected panics   {}\n\
             gate failures       {}\n\
             plan audit          {} compared / {} both stuck\n\
             breakers opened     {}\n\
             peak arena nodes    {}\n\
             cache hit/miss      {} / {}\n\
             cache coal/stale    {} / {}\n\
             conservation        {}\n\
             traces rec/rep/div  {} / {} / {}\n\
             latency p50/p95/p99 {p50} / {p95} / {p99} us",
            self.requests,
            t.optimized_fast,
            t.passthrough,
            t.overloaded,
            t.invalid,
            t.caught_panics,
            self.unexpected_panics,
            self.gate_failures,
            self.plans_compared,
            self.plans_both_stuck,
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
        )
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
    let mut absorb = |input: Payload, resp: Response, tally: &mut Tally| {
        tally.absorb(&resp);
        if resp.outcome == Outcome::Optimized {
            optimized.push((input, resp.plan.expect("an optimized reply has a plan")));
        }
    };

    let started = Instant::now();
    for (i, request) in cfg.stream().enumerate() {
        let input = request.payload.clone();
        match service.submit(request) {
            Ok(p) => pending.push((input, p)),
            Err(rejection) => {
                absorb(input, rejection, &mut report.tally);
                // Shed: let the workers catch up a little before the next
                // burst, so the soak keeps exercising the engine lanes too.
                for (input, p) in pending.drain(..pending.len().min(4)) {
                    absorb(input, p.wait(), &mut report.tally);
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
                absorb(input, p.wait(), &mut report.tally);
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
        absorb(input, p.wait(), &mut report.tally);
    }
    // Serving window ends with the last reply in hand; everything below is
    // post-hoc audit and must not count against worker-scaling claims.
    report.elapsed = started.elapsed();
    let audit = audit_plans(&optimized);
    report.gate_failures = audit.changed;
    report.plans_compared = audit.compared;
    report.plans_both_stuck = audit.both_stuck;
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

/// The plan audit's tally over the optimized replies.
#[derive(Debug, Default)]
struct PlanAudit {
    /// Pairs where input or plan evaluates (`changed` included).
    compared: usize,
    /// Pairs where neither evaluates.
    both_stuck: usize,
    /// Pairs that disagree, or whose input no longer parses.
    changed: usize,
}

/// Stack of the plan-audit thread: the service's worker stack size.
const AUDIT_STACK: usize = 16 << 20;

/// Audit `optimized` (input, plan) pairs on the sample database
/// (`DataSpec::small(123)`) with [`kola_verify::check_plan_semantics`].
/// Runs on one thread with a worker-sized stack: deep-AST plans are
/// evaluated recursively, 500–3,000 levels deep, as the workers that
/// derived them were sized for.
fn audit_plans(optimized: &[(Payload, Arc<Query>)]) -> PlanAudit {
    let db = generate(&DataSpec::small(123));
    let verdict = |(input, plan): &(Payload, Arc<Query>)| {
        let input = match input {
            Payload::Text(src) => match kola_frontend::parse_any_query(src) {
                Ok(q) => Arc::new(q),
                // An optimized reply's input parsed once already.
                Err(e) => return Err(e.to_string()),
            },
            Payload::Ast(q) => Arc::clone(q),
        };
        kola_verify::check_plan_semantics(&db, &input, plan)
    };
    let tally = || {
        let mut audit = PlanAudit::default();
        for pair in optimized {
            match verdict(pair) {
                Ok(PlanAgreement::Equal) => audit.compared += 1,
                Ok(PlanAgreement::BothStuck) => audit.both_stuck += 1,
                Err(_) => {
                    audit.compared += 1;
                    audit.changed += 1;
                }
            }
        }
        audit
    };
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("kola-chaos-audit".to_string())
            .stack_size(AUDIT_STACK)
            .spawn_scoped(s, tally)
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
    /// The clients' replies — a clean stream must optimize every one.
    pub tally: Tally,
    /// High-water mark of any worker engine's arena, in live nodes.
    pub peak_arena_nodes: usize,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
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
    let make_request = |rng: &mut Rng| clean_request(rng, cfg.stall);
    let (tally, elapsed) = std::thread::scope(|s| {
        closed_loop(
            s,
            &service,
            cfg.clients,
            cfg.requests,
            cfg.seed,
            &make_request,
        )()
    });
    CleanReport {
        tally,
        peak_arena_nodes: service.peak_arena_nodes(),
        elapsed,
    }
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
    /// The clients' replies in the timed window (a repeated stream must
    /// optimize every one, and catch no panic).
    pub tally: Tally,
    /// Plan-cache hits inside the timed window.
    pub cache_hits: u64,
    /// Achieved hit rate: `cache_hits / requests`.
    pub hit_actual: f64,
    /// Wall-clock of the timed window.
    pub elapsed: Duration,
    /// Quiescent metric snapshot (prewarm included — the conservation
    /// invariants hold over the service's whole life).
    pub metrics: Snapshot,
    /// Conservation violations in `metrics` plus the client-vs-books
    /// cross-checks (must be empty).
    pub violations: Vec<String>,
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
    let pool = RepeatedPool::new(cfg);
    // Prewarm: one sequential pass over the pool fills the cache (a no-op
    // when the cache is disabled), outside the timed window.
    for src in &pool.pool {
        let r = service.call(pool.pool_request(src));
        assert!(
            matches!(r.outcome, Outcome::Optimized),
            "pool prewarm must optimize, got {}",
            r.outcome
        );
    }
    let hits_before = service.metrics_snapshot().counter("cache_hits");
    let make_request = |rng: &mut Rng| pool.request(rng);
    let (tally, elapsed) = std::thread::scope(|s| {
        closed_loop(
            s,
            &service,
            cfg.clients,
            cfg.requests,
            cfg.seed,
            &make_request,
        )()
    });
    let metrics = service.metrics_snapshot();
    let cache_hits = metrics.counter("cache_hits") - hits_before;
    let hit_actual = if cfg.requests == 0 {
        0.0
    } else {
        cache_hits as f64 / cfg.requests as f64
    };
    let mut violations = conservation_violations(&metrics);
    let not_optimized = tally.requests - tally.optimized_fast;
    if not_optimized != 0 {
        violations.push(format!(
            "{not_optimized} repeated-stream requests not optimized"
        ));
    }
    if tally.caught_panics as u64 != metrics.counter("caught_panics") {
        violations.push(format!(
            "caught-panic books unbalanced: clients hold {}, counter says {}",
            tally.caught_panics,
            metrics.counter("caught_panics"),
        ));
    }
    RepeatedReport {
        tally,
        cache_hits,
        hit_actual,
        elapsed,
        metrics,
        violations,
    }
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

/// What a noisy-neighbor run observed.
#[derive(Debug, Clone, Default)]
pub struct TenantChaosReport {
    /// Whether the aggressor ran (`false` = solo baseline).
    pub aggressor_enabled: bool,
    /// The clean tenant's client-side tally.
    pub victim: Tally,
    /// The poison tenant's client-side tally.
    pub aggressor: Tally,
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
    /// Wall-clock from the victim's first submit to its last reply — the
    /// window victim throughput divides by.
    pub victim_elapsed: Duration,
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
                self.victim.passthrough,
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
                "{} panics escaped worker classification",
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
            self.victim.passthrough,
            self.victim.percentiles_us().2,
            throughput_rps(self.victim.requests, self.victim_elapsed),
            self.aggressor.requests,
            self.aggressor.optimized_fast,
            self.aggressor.overloaded,
            self.aggressor.passthrough,
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
    let aggressor_clients = cfg.aggressor_clients.max(1);
    let a_total = if cfg.aggressor {
        cfg.aggressor_requests
    } else {
        0
    };
    let a_per = a_total / aggressor_clients;
    let a_rem = a_total % aggressor_clients;
    let victim_request = |rng: &mut Rng| clean_request(rng, cfg.stall).for_tenant("victim");
    let ((victim, victim_elapsed), aggressor_parts) = std::thread::scope(|s| {
        let service = &service;
        // The victim's clients start before the aggressor's: the attack
        // lands on a tenant already being served, and the isolation
        // gate's noisy/solo throughput ratio reads lower when both start
        // together.
        let victim = closed_loop(
            s,
            service,
            cfg.victim_clients,
            cfg.victim_requests,
            cfg.seed,
            &victim_request,
        );
        let aggressors: Vec<_> = (0..aggressor_clients)
            .map(|c| {
                let n = a_per + usize::from(c < a_rem);
                let seed = cfg.seed ^ 0xA66E ^ ((c as u64 + 101) << 32);
                let stall = cfg.stall;
                s.spawn(move || {
                    let mut rng = Rng::seed_from_u64(seed);
                    let mut tally = Tally::default();
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
            victim(),
            aggressors
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>(),
        )
    });
    let mut aggressor = Tally::default();
    for part in aggressor_parts {
        aggressor.merge(part);
    }
    let metrics = service.metrics_snapshot();
    TenantChaosReport {
        aggressor_enabled: cfg.aggressor,
        victim,
        aggressor,
        victim_breaker_generation: service
            .tenant_breaker("victim")
            .map_or(0, |b| b.generation()),
        aggressor_breaker_opened: service
            .tenant_breaker("aggressor")
            .map_or(0, |b| b.opened_total()),
        unexpected_panics: service.unexpected_panics(),
        peak_arena_nodes: service.peak_arena_nodes(),
        conservation: conservation_violations(&metrics),
        metrics,
        victim_elapsed,
    }
}
