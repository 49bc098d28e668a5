//! Strategy combinators: deterministic control over rule firing.
//!
//! The paper's closing sections sketch COKO "rule blocks — sets of rules
//! that are used together, together with strategies for their firing". A
//! [`Strategy`] is that control language as data; the `kola-coko` crate
//! parses COKO source into it. The hidden-join pipeline of §4.1 is five
//! strategies run in sequence ([`crate::hidden_join`]).
//!
//! Every primitive runs on the interned engine ([`crate::fast::Engine`]),
//! built per call over the rules it resolves: `Apply` and `ApplyAny` take
//! one step ([`Engine::step`]), `BottomUp` one sweep ([`Engine::sweep`]),
//! and `Fix` runs the fixpoint ([`Engine::normalize`]).

use crate::budget::{
    measure_query, Budget, CycleDetector, RewriteError, RewriteReport, StopReason,
};
use crate::catalog::Catalog;
use crate::engine::{Oriented, Step, Trace};
use crate::fast::{Engine, EngineConfig};
use crate::props::PropDb;
use kola::term::Query;
use std::fmt;

/// A firing strategy over the rule catalog.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Apply one rule once (leftmost-outermost). Reference syntax: `"11"`
    /// forward, `"12-1"` backward.
    Apply(String),
    /// Try each reference in order at each position; first match wins.
    /// Applies at most once.
    ApplyAny(Vec<String>),
    /// Run strategies in order; fails if any fails.
    Seq(Vec<Strategy>),
    /// First strategy that succeeds; fails if none do.
    Choice(Vec<Strategy>),
    /// Run the strategy; succeed even if it fails.
    Try(Box<Strategy>),
    /// Run the strategy repeatedly until it fails (bounded by the step
    /// budget). Always succeeds.
    Repeat(Box<Strategy>),
    /// Exhaustively apply a rule set to fixpoint (bounded by the step
    /// budget). Always succeeds. This is the workhorse for "push X
    /// everywhere".
    Fix(Vec<String>),
    /// One bottom-up sweep: normalize children first, then the node, with
    /// the rule set exhausted at each position (§4.2's "throughout a
    /// tree"), firing at most the steps left in the budget and never
    /// past the term-size cap. Always succeeds. COKO syntax:
    /// `BU { [r], … }`.
    BottomUp(Vec<String>),
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::Apply(r) => write!(f, "{r}"),
            Strategy::ApplyAny(rs) => write!(f, "any({})", rs.join(", ")),
            Strategy::Seq(ss) => {
                write!(f, "(")?;
                for (i, s) in ss.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ; ")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, ")")
            }
            Strategy::Choice(ss) => {
                write!(f, "(")?;
                for (i, s) in ss.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, ")")
            }
            Strategy::Try(s) => write!(f, "try {s}"),
            Strategy::Repeat(s) => write!(f, "repeat {s}"),
            Strategy::Fix(rs) => write!(f, "fix({})", rs.join(", ")),
            Strategy::BottomUp(rs) => write!(f, "bu({})", rs.join(", ")),
        }
    }
}

/// Outcome of running a strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The strategy made at least the progress it demanded.
    Success,
    /// The strategy could not apply.
    Failure,
}

/// A strategy interpreter bound to a catalog and a property database,
/// governed by a [`Budget`].
pub struct Runner<'a> {
    /// Rule catalog used to resolve references.
    pub catalog: &'a Catalog,
    /// Property database for preconditions.
    pub props: &'a PropDb,
    /// Resource budget shared across the whole strategy run; its step cap
    /// also bounds `Repeat`'s iterations.
    pub budget: Budget,
    /// Layer configuration of the fast engine ([`crate::fast::Engine`])
    /// each primitive builds. The default, [`EngineConfig::indexed`], keeps
    /// no memo: a per-call engine has no later run to replay an entry in.
    pub engine: EngineConfig,
}

impl<'a> Runner<'a> {
    /// A runner with the default budget and the indexed engine.
    pub fn new(catalog: &'a Catalog, props: &'a PropDb) -> Self {
        Runner {
            catalog,
            props,
            budget: Budget::default(),
            engine: EngineConfig::indexed(),
        }
    }

    /// Replace the budget (builder style).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Run the primitives on the fast engine with the given layer
    /// configuration (builder style), e.g. [`EngineConfig::saturating`].
    pub fn with_engine(mut self, config: EngineConfig) -> Self {
        self.engine = config;
        self
    }

    fn try_resolve_set(&self, refs: &[String]) -> Result<Vec<Oriented<'a>>, RewriteError> {
        refs.iter()
            .map(|spec| {
                let (rule, dir) = self.catalog.try_resolve(spec)?;
                Ok(Oriented { rule, dir })
            })
            .collect()
    }

    /// An engine over a rule set; on an unknown reference, record the error
    /// in the report and return `None` (the strategy degrades to `Failure`
    /// instead of panicking).
    fn engine_or_report(&self, refs: &[String], report: &mut RewriteReport) -> Option<Engine<'a>> {
        match self.try_resolve_set(refs) {
            Ok(rules) => Some(Engine::new(rules, self.props, self.engine.clone())),
            Err(e) => {
                if report.failures.len() < 8 {
                    report.failures.push(e.to_string());
                }
                None
            }
        }
    }

    /// Steps still available under the budget.
    fn remaining(&self, report: &RewriteReport) -> usize {
        self.budget.max_steps.saturating_sub(report.steps)
    }

    fn mark_stop(report: &mut RewriteReport, stop: StopReason) {
        if report.stop == StopReason::NormalForm {
            report.stop = stop;
        }
    }

    /// Run `strategy` on `q`, appending steps to `trace`. Returns the
    /// (possibly rewritten) query and whether the strategy succeeded.
    /// Convenience over [`Runner::run_governed`], discarding the report.
    pub fn run(&self, strategy: &Strategy, q: Query, trace: &mut Trace) -> (Query, Outcome) {
        let (q, out, _) = self.run_governed(strategy, q, trace);
        (q, out)
    }

    /// Run `strategy` on `q` under the runner's budget.
    /// Also returns the accumulated [`RewriteReport`]: total steps, per-rule
    /// fire/fail counts, quarantined rules, and the first abnormal stop
    /// reason encountered anywhere in the run (or `NormalForm`).
    pub fn run_governed(
        &self,
        strategy: &Strategy,
        q: Query,
        trace: &mut Trace,
    ) -> (Query, Outcome, RewriteReport) {
        let mut report = RewriteReport::new();
        let (q, out) = self.go(strategy, q, trace, &mut report);
        (q, out, report)
    }

    fn go(
        &self,
        strategy: &Strategy,
        q: Query,
        trace: &mut Trace,
        report: &mut RewriteReport,
    ) -> (Query, Outcome) {
        match strategy {
            Strategy::Apply(spec) => self.apply_set(std::slice::from_ref(spec), q, trace, report),
            Strategy::ApplyAny(specs) => self.apply_set(specs, q, trace, report),
            Strategy::Seq(ss) => {
                let mut cur = q;
                for s in ss {
                    let (next, out) = self.go(s, cur, trace, report);
                    cur = next;
                    if out == Outcome::Failure {
                        return (cur, Outcome::Failure);
                    }
                }
                (cur, Outcome::Success)
            }
            Strategy::Choice(ss) => {
                let mut cur = q;
                for s in ss {
                    let (next, out) = self.go(s, cur, trace, report);
                    cur = next;
                    if out == Outcome::Success {
                        return (cur, Outcome::Success);
                    }
                }
                (cur, Outcome::Failure)
            }
            Strategy::Try(s) => {
                let (next, _) = self.go(s, q, trace, report);
                (next, Outcome::Success)
            }
            Strategy::Repeat(s) => {
                // Bounded by the step budget, with cycle detection:
                // a repeated term fingerprint means the body is looping
                // (e.g. a forward/backward rule pair), so stop — repeating
                // is deterministic and would never converge.
                let mut cur = q;
                let mut seen = CycleDetector::new();
                seen.seen(measure_query(&cur).1, &cur);
                let mut converged = false;
                for _ in 0..self.budget.max_steps {
                    if self.remaining(report) == 0 {
                        break;
                    }
                    let (next, out) = self.go(s, cur, trace, report);
                    cur = next;
                    if out == Outcome::Failure {
                        converged = true;
                        break;
                    }
                    if seen.seen(measure_query(&cur).1, &cur) {
                        Self::mark_stop(report, StopReason::CycleDetected);
                        converged = true;
                        break;
                    }
                }
                if !converged && self.remaining(report) == 0 {
                    Self::mark_stop(report, StopReason::BudgetExhausted);
                }
                (cur, Outcome::Success)
            }
            Strategy::BottomUp(specs) => {
                let Some(mut engine) = self.engine_or_report(specs, report) else {
                    return (q, Outcome::Failure);
                };
                let (out, fires, stop) = engine.sweep(&q, &self.budget, report);
                Self::mark_stop(report, stop);
                // Record one summary step so traces stay readable.
                if fires > 0 {
                    trace.steps.push(Step {
                        rule_id: format!("bu×{fires}"),
                        dir: crate::rule::Direction::Forward,
                        after: out.clone(),
                    });
                }
                (out, Outcome::Success)
            }
            Strategy::Fix(specs) => {
                let Some(mut engine) = self.engine_or_report(specs, report) else {
                    return (q, Outcome::Failure);
                };
                // Run the fixpoint engine with whatever budget is left and
                // without the rules this run already quarantined, then fold
                // its accounting into ours.
                let sub = Budget {
                    max_steps: self.remaining(report),
                    ..self.budget.clone()
                };
                engine.set_disabled(&report.quarantined);
                let r = engine.normalize(&q, &sub);
                trace.steps.extend(r.trace.steps);
                report.merge(&r.report, self.budget.quarantine_after);
                (r.query, Outcome::Success)
            }
        }
    }

    fn apply_set(
        &self,
        specs: &[String],
        q: Query,
        trace: &mut Trace,
        report: &mut RewriteReport,
    ) -> (Query, Outcome) {
        let Some(mut engine) = self.engine_or_report(specs, report) else {
            return (q, Outcome::Failure);
        };
        if self.remaining(report) == 0 {
            Self::mark_stop(report, StopReason::BudgetExhausted);
            return (q.normalize(), Outcome::Failure);
        }
        match engine.step(&q, &self.budget, report) {
            Some(step) => {
                let result = step.after.clone();
                trace.steps.push(step);
                (result, Outcome::Success)
            }
            None => (q.normalize(), Outcome::Failure),
        }
    }
}

/// Convenience: build a [`Strategy::Fix`] from string literals.
pub fn fix(refs: &[&str]) -> Strategy {
    Strategy::Fix(refs.iter().map(|s| s.to_string()).collect())
}

/// Convenience: build a [`Strategy::Seq`].
pub fn seq(ss: Vec<Strategy>) -> Strategy {
    Strategy::Seq(ss)
}

/// Convenience: build a [`Strategy::Apply`].
pub fn apply(r: &str) -> Strategy {
    Strategy::Apply(r.to_string())
}

/// Convenience: build a [`Strategy::Try`].
pub fn try_(s: Strategy) -> Strategy {
    Strategy::Try(Box::new(s))
}

/// Convenience: build a [`Strategy::Repeat`].
pub fn repeat(s: Strategy) -> Strategy {
    Strategy::Repeat(Box::new(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kola::parse::parse_query;

    fn setup() -> (Catalog, PropDb) {
        (Catalog::paper(), PropDb::new())
    }

    #[test]
    fn fix_runs_to_normal_form() {
        let (c, p) = setup();
        let r = Runner::new(&c, &p);
        let q = parse_query("id . id . age . id ! P").unwrap();
        let mut t = Trace::new();
        let (out, oc) = r.run(&fix(&["1", "2"]), q, &mut t);
        assert_eq!(oc, Outcome::Success);
        assert_eq!(out, parse_query("age ! P").unwrap());
    }

    #[test]
    fn bottom_up_fires_at_most_the_steps_left() {
        let (c, p) = setup();
        let q =
            parse_query("iterate(Kp(T), (pi1 . (id . age, addr), id . city . id)) ! P").unwrap();
        let bu = Strategy::BottomUp(["1", "2", "9", "10"].map(String::from).to_vec());
        // Alone, and after a one-step `apply` that leaves the sweep the rest.
        for strategy in [bu.clone(), seq(vec![apply("1"), bu])] {
            let run = |budget: Budget| {
                let r = Runner::new(&c, &p).with_budget(budget);
                r.run_governed(&strategy, q.clone(), &mut Trace::new()).2
            };
            let full = run(Budget::default());
            assert_eq!(full.stop, StopReason::NormalForm, "{strategy}");
            assert!(full.steps >= 4, "{strategy}: {} steps", full.steps);
            for cap in 0..=5 {
                let report = run(Budget::with_steps(cap));
                assert_eq!(report.steps, cap.min(full.steps), "{strategy}, cap {cap}");
                let want = if cap <= full.steps {
                    StopReason::BudgetExhausted
                } else {
                    StopReason::NormalForm
                };
                assert_eq!(report.stop, want, "{strategy}, cap {cap}");
            }
        }
    }

    #[test]
    fn bottom_up_honours_the_term_size_cap() {
        let (c, p) = setup();
        let q = parse_query("age ! P").unwrap();
        // `2-1` wraps `age` in one more `id .` per fire, two nodes each.
        let bu = Strategy::BottomUp(vec!["2-1".to_string()]);
        let budget = Budget::with_steps(200).term_size(50);
        let r = Runner::new(&c, &p).with_budget(budget.clone());
        let (out, _, report) = r.run_governed(&bu, q.clone(), &mut Trace::new());
        assert_eq!(measure_query(&out).0, 49);
        assert_eq!(report.steps, 23);
        assert_eq!(report.stop, StopReason::TermTooLarge);
        let stats = report.rule_stats["2"];
        assert_eq!((stats.failed, stats.first_failed_step), (1, Some(23)));
        // The one-step primitive stops at the same plan.
        let (stepped, _) = r.run(&repeat(apply("2-1")), q.clone(), &mut Trace::new());
        assert_eq!(out, stepped);
        // A failure that quarantines the rule does not end the run early:
        // the sweep goes on without the rule and reaches its normal form.
        let r = Runner::new(&c, &p).with_budget(budget.quarantine_after(1));
        let (out, _, report) = r.run_governed(&bu, q, &mut Trace::new());
        assert_eq!(out, stepped);
        assert_eq!(report.stop, StopReason::NormalForm);
        assert_eq!(report.quarantined, ["2"]);
    }

    #[test]
    fn fix_skips_rules_the_run_already_quarantined() {
        let (c, p) = setup();
        // `age ! P` has 3 nodes, so every `2-1` result is refused.
        let budget = Budget::with_steps(200).term_size(3).quarantine_after(1);
        let r = Runner::new(&c, &p).with_budget(budget);
        let first = try_(apply("2-1"));
        let bu = Strategy::BottomUp(vec!["2-1".to_string()]);
        for then in [try_(apply("2-1")), bu, fix(&["2-1"])] {
            let strategy = seq(vec![first.clone(), then]);
            let q = parse_query("age ! P").unwrap();
            let (_, _, report) = r.run_governed(&strategy, q, &mut Trace::new());
            assert_eq!(report.quarantined, ["2"], "{strategy}");
            assert_eq!(report.rule_stats["2"].failed, 1, "{strategy}");
        }
    }

    #[test]
    fn fix_quarantines_on_the_run_wide_failure_count() {
        let (c, p) = setup();
        // `age ! P` has 3 nodes, so every `2-1` result is refused: two
        // failures before `fix`, a third inside it.
        let budget = Budget::with_steps(200).term_size(3).quarantine_after(3);
        let r = Runner::new(&c, &p).with_budget(budget);
        let strategy = seq(vec![try_(apply("2-1")), try_(apply("2-1")), fix(&["2-1"])]);
        let q = parse_query("age ! P").unwrap();
        let (_, _, report) = r.run_governed(&strategy, q, &mut Trace::new());
        assert_eq!(report.rule_stats["2"].failed, 3);
        assert_eq!(report.quarantined, ["2"]);
    }

    #[test]
    fn seq_fails_fast() {
        let (c, p) = setup();
        let r = Runner::new(&c, &p);
        let q = parse_query("age ! P").unwrap();
        let mut t = Trace::new();
        // "2" can't fire on `age`; the Seq must report failure.
        let (_, oc) = r.run(&seq(vec![apply("2"), apply("1")]), q, &mut t);
        assert_eq!(oc, Outcome::Failure);
    }

    #[test]
    fn try_masks_failure() {
        let (c, p) = setup();
        let r = Runner::new(&c, &p);
        let q = parse_query("age ! P").unwrap();
        let mut t = Trace::new();
        let (_, oc) = r.run(&try_(apply("2")), q, &mut t);
        assert_eq!(oc, Outcome::Success);
    }

    #[test]
    fn backward_reference() {
        let (c, p) = setup();
        let r = Runner::new(&c, &p);
        let q = parse_query("age ! P").unwrap();
        let mut t = Trace::new();
        let (out, oc) = r.run(&apply("2-1"), q, &mut t);
        assert_eq!(oc, Outcome::Success);
        assert_eq!(out, parse_query("id . age ! P").unwrap());
        assert_eq!(t.justifications(), vec!["2-1"]);
    }

    #[test]
    fn choice_takes_first_applicable() {
        let (c, p) = setup();
        let r = Runner::new(&c, &p);
        let q = parse_query("id . age ! P").unwrap();
        let mut t = Trace::new();
        let (out, oc) = r.run(&Strategy::Choice(vec![apply("1"), apply("2")]), q, &mut t);
        assert_eq!(oc, Outcome::Success);
        assert_eq!(out, parse_query("age ! P").unwrap());
        assert_eq!(t.justifications(), vec!["2"]);
    }
}
