//! The degradation ladder: fast engine → one retry → passthrough.
//!
//! Each worker answers a request with the fast engine (interned,
//! discrimination-tree-indexed, memoized). A failed attempt gets **one
//! retry** after a deterministic jittered backoff, capped by the remaining
//! deadline — enough to ride out a transient injected fault, never enough
//! to blow the deadline. If the retry fails too, or the deadline expires,
//! the ladder returns the input query unoptimized (passthrough). Every
//! attempt:
//!
//! - runs under the request's **remaining** deadline (the budget's
//!   wall-clock cutoff is the request deadline, so an attempt that
//!   overruns is stopped by the engine itself, not by the ladder);
//! - is wrapped in the `try_*` panic boundary of `kola-rewrite`, so a
//!   poison-rule panic is caught, attributed to its rule, and charged to
//!   the cross-request [`Breaker`](crate::Breaker).
//!
//! An attempt *fails* when it panics, when an injected fault says so, or
//! when its report stops with `DeadlineExpired` or `TermTooLarge` — stops
//! that mean "no trustworthy optimized plan". `BudgetExhausted` and
//! `CycleDetected` are *successes*: the governed engine guarantees the best
//! (smallest) query seen so far, which is a valid plan.
//!
//! The attempt runs on a **borrowed, long-lived engine** — the worker's
//! [`kola_rewrite::Engine`], whose arena, marks, and memo persist across
//! requests ([`Ladder::run_with`]). The rule set comes from an immutable
//! [`RuleSnapshot`]: the engine keeps the full catalog and index and masks
//! the snapshot's disabled rules per request, so a breaker trip costs a
//! mask, not an engine rebuild.
//!
//! The retry reuses the fast engine rather than falling back to the boxed
//! reference engine: the fast engine is a byte-exact drop-in for it, so
//! every real failure cause — a poison rule's panic, an expired deadline,
//! an over-cap input — fails the boxed engine identically
//! (`tests/robustness.rs` pins this), and a boxed attempt could only fail
//! again. The boxed engine checks the serving path from tests
//! (`tests/service.rs`) and replays recorded traces (`kola_obs::replay`).
//!
//! Exactness: the attempt calls `Engine::try_normalize_with` (for KOLA
//! text, `try_normalize_text_with`, which runs the same on the parsed
//! query) with exactly the request's budget and fault plan —
//! byte-identical to a direct fast-engine `Runner` run, whose `Fix` path
//! folds the same engine report into a fresh one (a zero-offset merge). The engines' exactness
//! contract thereby lifts to the service — *including* cross-request
//! reuse, because memo replays are byte-identical to live runs and a
//! replay under a mask is refused when its derivation fired a masked rule
//! (see `tests/service.rs`).

use crate::breaker::Breaker;
use crate::metrics::ServiceMetrics;
use crate::request::{Outcome, RequestOptions};
use crate::snapshot::RuleSnapshot;
use kola::term::Query;
use kola_exec::rng::splitmix64;
use kola_frontend::kola_parse_error;
use kola_obs::{RewriteTrace, TraceRing};
use kola_rewrite::{
    Catalog, CaughtPanic, Engine, EngineConfig, Oriented, PropDb, QuarantineReport, RewriteReport,
    StopReason, Trace,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// What the ladder optimizes.
#[derive(Debug, Clone, Copy)]
pub enum LadderInput<'q> {
    /// A parsed query, shared with the caller.
    Ast(&'q Arc<Query>),
    /// KOLA concrete syntax: each attempt parses it straight into the
    /// engine's arena ([`Engine::normalize_text_with`]), so the hot path
    /// builds no boxed input.
    Kola(&'q str),
}

impl LadderInput<'_> {
    /// The input as a boxed query: a handle bump for an AST, a parse for
    /// text. Only the cold paths that need the tree call it — passthrough,
    /// trace recording, and the service's semantic gate. `Err` is the
    /// parse error, worded as `kola_frontend::parse_any_query` words it.
    pub fn boxed(&self) -> Result<Arc<Query>, String> {
        match self {
            LadderInput::Ast(q) => Ok(Arc::clone(q)),
            LadderInput::Kola(src) => kola::parse::parse_query(src)
                .map(Arc::new)
                .map_err(kola_parse_error),
        }
    }
}

/// What the ladder produced for one request.
#[derive(Debug, Clone)]
pub struct LadderResult {
    /// `Optimized` or `Passthrough` — never the rejection outcomes; the
    /// ladder always answers.
    pub outcome: Outcome,
    /// The plan (the input itself on passthrough — an `Arc` clone of the
    /// caller's term, so exhausting the ladder deep-copies nothing, or the
    /// text parsed once more; on success a freshly-allocated handle the
    /// plan cache can retain).
    pub plan: Arc<Query>,
    /// The successful attempt's report, untouched. `None` on passthrough.
    pub report: Option<RewriteReport>,
    /// Per-run quarantine state of the successful attempt.
    pub quarantine: QuarantineReport,
    /// Panics caught across all attempts.
    pub panics: Vec<CaughtPanic>,
    /// Retries taken (at most one).
    pub retries: usize,
    /// One note per failed attempt.
    pub failures: Vec<String>,
}

/// How one attempt ended (private to the ladder). Success carries the
/// derivation trace so the observability sink can record it — empty when
/// tracing is off (the engine skips per-step trace building entirely).
enum Attempt {
    Ok(Query, RewriteReport, Trace),
    Failed(String, Option<RewriteReport>),
    Panicked(CaughtPanic),
    /// The text input does not parse.
    Unparsable(String),
}

/// A worker's interruptible-backoff slot. The retry backoff used to be a
/// plain `thread::sleep`, which parks the whole worker where neither new
/// submissions nor shutdown can reach it; waiting on `park_timeout`
/// instead lets the service cut a backoff short ([`RetryPark::interrupt`])
/// when work lands on the worker's shard or the service shuts down — the
/// worker finishes its degraded request sooner and returns to the queue.
///
/// An interrupted (or spuriously woken) backoff simply retries early:
/// the backoff is advisory pacing, deadline-capped either way, and the
/// climb re-checks the deadline after every wait.
#[derive(Debug, Default)]
pub struct RetryPark {
    /// The worker thread to unpark; set once by [`RetryPark::register`].
    thread: OnceLock<std::thread::Thread>,
    /// True while the worker is inside [`RetryPark::wait`] — interrupters
    /// skip the unpark syscall entirely outside that window.
    parked: AtomicBool,
}

impl RetryPark {
    /// An unregistered slot.
    pub fn new() -> RetryPark {
        RetryPark::default()
    }

    /// Bind this slot to the calling thread (the worker, at loop start).
    pub fn register(&self) {
        let _ = self.thread.set(std::thread::current());
    }

    /// Wait up to `pause` on the calling (registered) thread. Returns
    /// early on [`RetryPark::interrupt`] — or on a stale park token from
    /// an earlier interrupt, which only shortens one advisory backoff.
    pub fn wait(&self, pause: Duration) {
        self.parked.store(true, Ordering::Release);
        std::thread::park_timeout(pause);
        self.parked.store(false, Ordering::Release);
    }

    /// Cut an in-progress backoff short (no-op while the worker is not
    /// waiting).
    pub fn interrupt(&self) {
        if self.parked.load(Ordering::Acquire) {
            if let Some(t) = self.thread.get() {
                t.unpark();
            }
        }
    }
}

/// The ladder, borrowing the service's shared catalog, properties, and
/// breaker — plus the (optional) observability surfaces.
pub struct Ladder<'a> {
    /// Rule catalog; the rule set handed to the engines is its forward
    /// orientation minus open-breaker rules.
    pub catalog: &'a Catalog,
    /// Property database for rule preconditions.
    pub props: &'a PropDb,
    /// The cross-request circuit breaker to consult and charge.
    pub breaker: &'a Breaker,
    /// Metric handles for attempt-failure counts; `None` runs unmetered.
    pub metrics: Option<&'a ServiceMetrics>,
    /// Trace sink — the calling worker's own ring shard. `Some` turns
    /// per-step trace recording ON for the engine and records every
    /// successful derivation; `None` (the default service
    /// configuration) turns the engine's trace building OFF, so the
    /// untraced hot path never allocates per step.
    pub tracer: Option<&'a TraceRing>,
    /// Breaker shard all charges go through — the calling worker's index
    /// (`0` for standalone use).
    pub shard: usize,
    /// The worker's interruptible-backoff slot; `None` falls back to a
    /// plain sleep (standalone/test use).
    pub park: Option<&'a RetryPark>,
    /// Tenant name recorded in traces; `None` records `"default"`
    /// (standalone/test use).
    pub tenant: Option<&'a Arc<str>>,
}

impl Ladder<'_> {
    /// One-shot convenience: run with a *fresh* fast engine and a snapshot
    /// built from the breaker's current state. Semantically identical to
    /// [`Ladder::run_with`]; production workers use that form with their
    /// long-lived engine instead of paying an engine build per request.
    pub fn run(
        &self,
        request_id: u64,
        q: &Arc<Query>,
        opts: &RequestOptions,
        deadline: Option<Instant>,
    ) -> LadderResult {
        let rules: Vec<Oriented<'_>> = self.catalog.rules().iter().map(Oriented::fwd).collect();
        let mut engine = Engine::new(rules, self.props, EngineConfig::fast());
        let snapshot = RuleSnapshot::build(self.breaker.generation(), self.catalog, self.breaker);
        self.run_with(
            request_id,
            LadderInput::Ast(q),
            opts,
            deadline,
            &mut engine,
            &snapshot,
        )
        .expect("an AST input needs no parse")
    }

    /// Run the ladder for `input` under `opts`, with the deadline already
    /// anchored (at submission time). `request_id` seeds the retry jitter
    /// and tags breaker charges. `engine` is the caller's persistent fast
    /// engine (built over the full forward catalog, rules in catalog order)
    /// and `snapshot` the rule-set snapshot this request runs under: the
    /// snapshot's disabled rules are masked out of the engine's candidate
    /// scan.
    ///
    /// `Err` is the parse error of a text input that does not parse. The
    /// first engine call finds it, before any rule has run or been charged;
    /// a run that never reached the engine finds it when it parses the
    /// input for its passthrough plan.
    pub fn run_with(
        &self,
        request_id: u64,
        input: LadderInput<'_>,
        opts: &RequestOptions,
        deadline: Option<Instant>,
        engine: &mut Engine<'_>,
        snapshot: &RuleSnapshot,
    ) -> Result<LadderResult, String> {
        engine.set_disabled(&snapshot.disabled);
        engine.set_trace(self.tracer.is_some());

        let mut panics: Vec<CaughtPanic> = Vec::new();
        let mut failures: Vec<String> = Vec::new();
        let mut retries = 0usize;
        // Rules to charge — at most once per request, whatever the attempt
        // count (so a breaker threshold of N means N bad *requests*).
        let mut implicated: BTreeSet<String> = BTreeSet::new();

        let mut success: Option<(Query, RewriteReport, Trace)> = None;
        for attempt in 0..2u32 {
            if expired(deadline) {
                // Note the expiry so a deadline-driven passthrough always
                // carries an error, even when the deadline died before any
                // attempt got to run (e.g. queue wait ate it).
                failures.push(format!("fast attempt {attempt}: deadline expired"));
                break;
            }
            if attempt == 1 {
                // One jittered retry, capped by the remaining deadline.
                // Waiting the full remainder is deliberate: if the deadline
                // dies during the backoff, the expiry check below degrades
                // us to passthrough deterministically. The wait itself is
                // interruptible (see [`RetryPark`]): a submission landing
                // on this worker's shard cuts it short.
                let pause = cap_to_deadline(jittered(opts.backoff, request_id), deadline);
                if !pause.is_zero() {
                    match self.park {
                        Some(p) => p.wait(pause),
                        None => std::thread::sleep(pause),
                    }
                }
                if expired(deadline) {
                    failures.push(format!("fast attempt {attempt}: deadline expired"));
                    break;
                }
                retries += 1;
            }
            match attempt_once(attempt, input, opts, deadline, engine) {
                Attempt::Ok(plan, report, trace) => {
                    implicate_from_report(&report, &mut implicated);
                    success = Some((plan, report, trace));
                    break;
                }
                Attempt::Failed(why, report) => {
                    let expired_stop = report
                        .as_ref()
                        .is_some_and(|r| r.stop == StopReason::DeadlineExpired);
                    if let Some(r) = &report {
                        implicate_from_report(r, &mut implicated);
                    }
                    if let Some(m) = self.metrics {
                        m.rung_failures.inc();
                    }
                    failures.push(format!("fast attempt {attempt}: {why}"));
                    if expired_stop {
                        // Retrying against a dead deadline is pointless.
                        break;
                    }
                }
                Attempt::Panicked(p) => {
                    if let Some(id) = &p.rule_id {
                        implicated.insert(id.clone());
                    }
                    if let Some(m) = self.metrics {
                        m.rung_failures.inc();
                    }
                    failures.push(format!("fast attempt {attempt}: {p}"));
                    panics.push(p);
                }
                Attempt::Unparsable(e) => return Err(e),
            }
        }

        // One batched breaker call per failed request, through this
        // worker's own shard — the old loop took the breaker's state lock
        // once per implicated rule.
        if !implicated.is_empty() {
            self.breaker.charge_many(
                self.shard,
                implicated.iter().map(String::as_str),
                request_id,
            );
        }

        match success {
            Some((plan, report, trace)) => {
                if let Some(ring) = self.tracer {
                    // Wall-clock deadlines are intentionally not recorded:
                    // a successful attempt never stopped on one (classify
                    // treats DeadlineExpired as failure), so the derivation
                    // is deadline-independent and replays unclocked.
                    ring.push(RewriteTrace::record(
                        request_id,
                        self.tenant
                            .map(Arc::clone)
                            .unwrap_or_else(|| Arc::from(crate::tenant::DEFAULT_TENANT)),
                        &*input.boxed()?,
                        Arc::clone(&snapshot.active),
                        opts.max_steps,
                        opts.max_depth,
                        opts.max_term_size,
                        opts.quarantine_after,
                        opts.faults.clone(),
                        &trace,
                        report.stop,
                        &plan,
                    ));
                }
                let quarantine = self.catalog.quarantine_report(&report);
                Ok(LadderResult {
                    outcome: Outcome::Optimized,
                    plan: Arc::new(plan),
                    report: Some(report),
                    quarantine,
                    panics,
                    retries,
                    failures,
                })
            }
            None => Ok(LadderResult {
                outcome: Outcome::Passthrough,
                plan: input.boxed()?,
                report: None,
                quarantine: QuarantineReport::default(),
                panics,
                retries,
                failures,
            }),
        }
    }
}

/// One fast-engine attempt, straight into the borrowed persistent engine.
/// Byte-identical to a per-request `Runner` run: the `Fix` strategy runs
/// this same `normalize_with` under the same budget and merges its report
/// into a fresh one (offset zero). Text goes through the engine's text
/// entry, which runs what `normalize_with` runs on the parsed query.
fn attempt_once(
    attempt: u32,
    input: LadderInput<'_>,
    opts: &RequestOptions,
    deadline: Option<Instant>,
    engine: &mut Engine<'_>,
) -> Attempt {
    if opts.force_fail {
        return Attempt::Failed("injected fault (permanent)".into(), None);
    }
    if attempt == 0 && opts.transient_fail {
        return Attempt::Failed("injected fault (transient)".into(), None);
    }
    let budget = opts.budget(deadline);
    let run = match input {
        LadderInput::Ast(q) => engine.try_normalize_with(q, &budget, &opts.faults).map(Ok),
        LadderInput::Kola(src) => engine.try_normalize_text_with(src, &budget, &opts.faults),
    };
    match run {
        Err(p) => Attempt::Panicked(p),
        Ok(Err(e)) => Attempt::Unparsable(kola_parse_error(e)),
        Ok(Ok(r)) => classify(r.query, r.report, r.trace),
    }
}

/// Attempt-outcome classification (see the module docs for why
/// `BudgetExhausted`/`CycleDetected` are successes).
fn classify(plan: Query, report: RewriteReport, trace: Trace) -> Attempt {
    match report.stop {
        StopReason::DeadlineExpired => {
            Attempt::Failed("deadline expired mid-rewrite".into(), Some(report))
        }
        StopReason::TermTooLarge => {
            Attempt::Failed("input exceeds term-size cap".into(), Some(report))
        }
        // NormalForm, BudgetExhausted, CycleDetected: the governed
        // engine returns the best (smallest) query seen — a plan.
        _ => Attempt::Ok(plan, report, trace),
    }
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

fn cap_to_deadline(pause: Duration, deadline: Option<Instant>) -> Duration {
    match deadline {
        Some(d) => pause.min(d.saturating_duration_since(Instant::now())),
        None => pause,
    }
}

/// Deterministic jitter: base + up to 50% extra, derived from the request
/// id so reruns of a seeded chaos scenario sleep alike.
fn jittered(base: Duration, request_id: u64) -> Duration {
    let mut s = request_id ^ (1 << 32) ^ 0x9E37_79B9_7F4A_7C15;
    let r = splitmix64(&mut s);
    let extra = (base.as_nanos() as u64 / 2)
        .checked_mul(r % 1024)
        .map_or(Duration::ZERO, |n| Duration::from_nanos(n / 1024));
    base + extra
}

/// Rules with contained failures in `report` (injected faults, oversize
/// results) are implicated for breaker accounting.
fn implicate_from_report(report: &RewriteReport, implicated: &mut BTreeSet<String>) {
    for (id, stats) in &report.rule_stats {
        if stats.failed > 0 {
            implicated.insert(id.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kola::term::Func;
    use std::sync::Arc;

    fn tower(n: usize) -> Query {
        let mut f = Func::Prim(Arc::from("age"));
        for _ in 0..n {
            f = Func::Compose(Box::new(Func::Id), Box::new(f));
        }
        Query::App(f, Box::new(Query::Extent(Arc::from("P"))))
    }

    fn run(request_id: u64, q: &Arc<Query>, opts: &RequestOptions) -> LadderResult {
        let catalog = Catalog::paper();
        let props = PropDb::new();
        let breaker = Breaker::new(usize::MAX);
        let ladder = Ladder {
            catalog: &catalog,
            props: &props,
            breaker: &breaker,
            metrics: None,
            tracer: None,
            shard: 0,
            park: None,
            tenant: None,
        };
        ladder.run(request_id, q, opts, None)
    }

    #[test]
    fn transient_fault_costs_one_retry_not_the_request() {
        let opts = RequestOptions {
            transient_fail: true,
            backoff: Duration::from_micros(50),
            ..RequestOptions::default()
        };
        let r = run(1, &Arc::new(tower(4)), &opts);
        assert_eq!(r.outcome, Outcome::Optimized);
        assert_eq!(r.retries, 1);
        assert_eq!(r.failures.len(), 1);
        assert!(r.panics.is_empty());
    }

    #[test]
    fn permanent_fault_returns_passthrough_plan() {
        let opts = RequestOptions {
            force_fail: true,
            backoff: Duration::from_micros(50),
            ..RequestOptions::default()
        };
        let q = Arc::new(tower(4));
        let r = run(3, &q, &opts);
        assert_eq!(r.outcome, Outcome::Passthrough);
        assert_eq!(r.plan, q);
        assert!(r.report.is_none());
        assert_eq!(r.retries, 1);
        assert_eq!(r.failures.len(), 2);
    }
}
