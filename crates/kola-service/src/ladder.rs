//! One engine attempt, then passthrough.
//!
//! Each worker answers a request with **one** run of its fast engine
//! (interned, discrimination-tree-indexed, memoized). If that attempt
//! fails, or the deadline is gone before it can start, the worker returns
//! the input query unoptimized (passthrough). There is no retry: the
//! paper's rules are declarative patterns with no head or body routines,
//! so a run is a deterministic function of (term, rule set, budget, fault
//! plan), and a second attempt under the same snapshot could only fail
//! the same way (`tests/robustness.rs` pins this; DESIGN §5c records the
//! soak tally that retired the retry). The attempt:
//!
//! - runs under the request's **remaining** deadline (the budget's
//!   wall-clock cutoff is the request deadline, so an attempt that
//!   overruns is stopped by the engine itself);
//! - is wrapped in the `try_*` panic boundary of `kola-rewrite`, so a
//!   poison-rule panic is caught, attributed to its rule, and charged to
//!   the tenant's cross-request [`Breaker`](crate::Breaker).
//!
//! An attempt *fails* when it panics or when its report stops with
//! `DeadlineExpired` or `TermTooLarge` — stops that mean "no trustworthy
//! optimized plan". An input larger than the request's `max_term_size`
//! stops with `TermTooLarge` before any rule runs, so tests and the chaos
//! stream force a failure with a term-size cap of 1, through the same
//! path a real oversize input takes. `BudgetExhausted` and
//! `CycleDetected` are *successes*: the governed engine guarantees the best
//! (smallest) query seen so far, which is a valid plan.
//!
//! The attempt runs on a **borrowed, long-lived engine** — the worker's
//! [`kola_rewrite::Engine`], whose arena, marks, and memo persist across
//! requests. The rule set comes from an immutable [`RuleSnapshot`]: the
//! engine keeps the full catalog and index and masks the snapshot's
//! disabled rules per request, so a breaker trip costs a mask, not an
//! engine rebuild.
//!
//! The boxed reference engine does not run here: the fast engine is a
//! byte-exact drop-in for it, so every real failure cause — a poison
//! rule's panic, an expired deadline, an over-cap input — fails the boxed
//! engine identically. It checks the serving path from tests
//! (`tests/service.rs`) and replays recorded traces (`kola_obs::replay`).
//!
//! Exactness: the attempt calls `Engine::try_normalize_with` (for KOLA
//! text, `try_normalize_text_with`, which runs the same on the parsed
//! query) with exactly the request's budget and fault plan —
//! byte-identical to a direct fast-engine `Runner` run, whose `Fix` path
//! folds the same engine report into a fresh one (a zero-offset merge).
//! The engines' exactness contract thereby lifts to the service —
//! *including* cross-request reuse, because memo replays are
//! byte-identical to live runs and a replay under a mask is refused when
//! its derivation fired a masked rule (see `tests/service.rs`).

use crate::request::{Outcome, RequestOptions};
use crate::service::{Job, Shared};
use crate::snapshot::RuleSnapshot;
use kola::term::Query;
use kola_frontend::kola_parse_error;
use kola_obs::RewriteTrace;
use kola_rewrite::{CaughtPanic, Engine, QuarantineReport, RewriteReport, StopReason, Trace};
use std::sync::Arc;
use std::time::Instant;

/// What the attempt optimizes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LadderInput<'q> {
    /// A parsed query, shared with the caller.
    Ast(&'q Arc<Query>),
    /// KOLA concrete syntax: the attempt parses it straight into the
    /// engine's arena ([`Engine::normalize_text_with`]), so the hot path
    /// builds no boxed input.
    Kola(&'q str),
}

impl LadderInput<'_> {
    /// The input as a boxed query: a handle bump for an AST, a parse for
    /// text. Only the cold paths that need the tree call it — passthrough
    /// and trace recording. `Err` is the parse error, worded as
    /// `kola_frontend::parse_any_query` words it.
    pub(crate) fn boxed(&self) -> Result<Arc<Query>, String> {
        match self {
            LadderInput::Ast(q) => Ok(Arc::clone(q)),
            LadderInput::Kola(src) => kola::parse::parse_query(src)
                .map(Arc::new)
                .map_err(kola_parse_error),
        }
    }
}

/// What one request's attempt produced.
#[derive(Debug)]
pub(crate) struct LadderResult {
    /// `Optimized` or `Passthrough` — never the rejection outcomes.
    pub(crate) outcome: Outcome,
    /// The plan: on success a freshly allocated handle the plan cache can
    /// retain; on passthrough the input itself (an `Arc` clone of the
    /// caller's term, or the text parsed once more).
    pub(crate) plan: Arc<Query>,
    /// The successful attempt's report, untouched. `None` on passthrough.
    pub(crate) report: Option<RewriteReport>,
    /// Per-run quarantine state of the successful attempt.
    pub(crate) quarantine: QuarantineReport,
    /// The attempt's caught poison-rule panic, if any.
    pub(crate) panic: Option<CaughtPanic>,
    /// Why the request passed through; `None` when it optimized.
    pub(crate) failure: Option<String>,
}

/// How the attempt ended. Success carries the derivation trace so the
/// observability sink can record it — empty when tracing is off (the
/// engine skips per-step trace building entirely).
enum Attempt {
    Ok(Query, RewriteReport, Trace),
    Failed(String, RewriteReport),
    Panicked(CaughtPanic),
    /// The text input does not parse.
    Unparsable(String),
}

/// Answer `job` with one attempt on the worker's engine, or with its
/// input. `worker` is the calling worker's index: breaker charges go
/// through its shard and traces into its ring. `engine` is the worker's
/// persistent fast engine (built over the full forward catalog, rules in
/// catalog order) and `snapshot` the rule set this request runs under:
/// the snapshot's disabled rules are masked out of the engine's candidate
/// scan.
///
/// `Err` is the parse error of a text input that does not parse. The
/// attempt finds it before any rule has run or been charged; a request
/// whose deadline died before the attempt finds it when it parses the
/// input for its passthrough plan.
pub(crate) fn attempt_or_passthrough(
    shared: &Shared,
    job: &Job,
    worker: usize,
    input: LadderInput<'_>,
    engine: &mut Engine<'_>,
    snapshot: &RuleSnapshot,
) -> Result<LadderResult, String> {
    let opts = &job.request.options;
    let tenant = shared.tenants.get(job.tenant);
    // Each worker records into its own trace shard; `None` (the default
    // configuration) turns the engine's per-step trace building off.
    let tracer = shared.tracer.as_ref().map(|t| t.shard(worker));
    engine.set_disabled(&snapshot.disabled);
    engine.set_trace(tracer.is_some());

    let mut panic = None;
    let attempt = if expired(job.deadline) {
        // Queue wait ate the deadline: note the expiry so a deadline-driven
        // passthrough always carries an error.
        Err("deadline expired".to_string())
    } else {
        match attempt_once(input, opts, job.deadline, engine) {
            Attempt::Ok(plan, report, trace) => Ok((plan, report, trace)),
            Attempt::Failed(why, report) => {
                shared.metrics.rung_failures.inc();
                charge_failed_rules(shared, job, worker, &report);
                Err(why)
            }
            Attempt::Panicked(p) => {
                shared.metrics.rung_failures.inc();
                if let Some(id) = &p.rule_id {
                    tenant.breaker.charge_from(worker, id, job.id);
                }
                let why = p.to_string();
                panic = Some(p);
                Err(why)
            }
            Attempt::Unparsable(e) => return Err(e),
        }
    };

    match attempt {
        Ok((plan, report, trace)) => {
            charge_failed_rules(shared, job, worker, &report);
            if let Some(ring) = tracer {
                // Wall-clock deadlines are intentionally not recorded:
                // a successful attempt never stopped on one (classify
                // treats DeadlineExpired as failure), so the derivation
                // is deadline-independent and replays unclocked.
                ring.push(RewriteTrace::record(
                    job.id,
                    Arc::clone(&tenant.name),
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
            let quarantine = shared.catalog.quarantine_report(&report);
            Ok(LadderResult {
                outcome: Outcome::Optimized,
                plan: Arc::new(plan),
                report: Some(report),
                quarantine,
                panic,
                failure: None,
            })
        }
        Err(why) => Ok(LadderResult {
            outcome: Outcome::Passthrough,
            plan: input.boxed()?,
            report: None,
            quarantine: QuarantineReport::default(),
            panic,
            failure: Some(format!("fast attempt: {why}")),
        }),
    }
}

/// The one fast-engine attempt, straight into the borrowed persistent
/// engine. Byte-identical to a per-request `Runner` run: the `Fix`
/// strategy runs this same `normalize_with` under the same budget and
/// merges its report into a fresh one (offset zero). Text goes through the
/// engine's text entry, which runs what `normalize_with` runs on the
/// parsed query.
fn attempt_once(
    input: LadderInput<'_>,
    opts: &RequestOptions,
    deadline: Option<Instant>,
    engine: &mut Engine<'_>,
) -> Attempt {
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
            Attempt::Failed("deadline expired mid-rewrite".into(), report)
        }
        StopReason::TermTooLarge => Attempt::Failed("input exceeds term-size cap".into(), report),
        // NormalForm, BudgetExhausted, CycleDetected: the governed
        // engine returns the best (smallest) query seen — a plan.
        _ => Attempt::Ok(plan, report, trace),
    }
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Charge every rule with contained failures in `report` (injected
/// faults, oversize results) to the tenant's breaker, in one batched call
/// through this worker's shard. Each rule is charged at most once per
/// request, so a breaker threshold of N means N bad *requests*.
fn charge_failed_rules(shared: &Shared, job: &Job, worker: usize, report: &RewriteReport) {
    let failed = report
        .rule_stats
        .iter()
        .filter(|(_, stats)| stats.failed > 0)
        .map(|(id, _)| id.as_str());
    shared
        .tenants
        .get(job.tenant)
        .breaker
        .charge_many(worker, failed, job.id);
}
