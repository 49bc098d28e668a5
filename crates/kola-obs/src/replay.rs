//! Re-execute a recorded [`RewriteTrace`] on the boxed reference engine.
//!
//! The fast engine's exactness contract says every layer (interning,
//! indexing, marks, memo, rule masking) is byte-identical to the boxed
//! `rewrite_fix_with` over the same active rule set — so a trace recorded
//! from the service's fast engine must replay step-for-step on the
//! reference engine. This module is the checkable form of that claim: feed it a
//! trace and a catalog, and it reruns the derivation from the recorded
//! input, budget, and fault plan, comparing each step's rule, orientation,
//! and after-term fingerprint, then the stop reason and the returned plan.
//!
//! The recorded wall-clock deadline is deliberately absent (see
//! [`RewriteTrace::stop`]): a successful run never stopped on one, so the
//! derivation is deadline-independent and the replay runs unclocked —
//! which is exactly what makes it deterministic on any machine.
//!
//! Two entry points share one implementation: the free [`replay`] function
//! spawns a throwaway big-stack thread per call (fine for a single trace in
//! a test), while [`ReplayWorker`] keeps one long-lived big-stack thread
//! fed over a channel — the form the chaos soak uses, so auditing hundreds
//! of traces pays one 32 MiB thread spawn total instead of one per trace.

use crate::trace::RewriteTrace;
use kola::intern::Interner;
use kola_rewrite::{rewrite_fix_with, Budget, Catalog, Oriented, PropDb, Rewritten};
use std::sync::mpsc;
use std::thread::JoinHandle;

/// Stack size for replay threads. The boxed engine recurses to the
/// recorded depth cap; a dedicated thread keeps that off the caller's
/// (possibly small test-runner) stack.
const REPLAY_STACK: usize = 32 * 1024 * 1024;

/// How a replay compared against its record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// Every step, the stop reason, and the final plan matched.
    Match {
        /// Steps verified.
        steps: usize,
    },
    /// The replay disagreed with the record.
    Divergence {
        /// First disagreeing step (recorded step count on length/terminal
        /// mismatches).
        step: usize,
        /// What disagreed.
        detail: String,
    },
}

impl ReplayOutcome {
    /// True iff the replay matched exactly.
    pub fn is_match(&self) -> bool {
        matches!(self, ReplayOutcome::Match { .. })
    }
}

/// Replay `trace` on the *current* thread. The caller provides stack
/// headroom for the recorded depth cap ([`replay`] and [`ReplayWorker`]
/// both run this on a [`REPLAY_STACK`]-sized thread); panic containment is
/// a `catch_unwind` around the reference run — a recorded fault plan can in
/// principle carry a poison (panicking) fault the original run never
/// reached, and that must classify as divergence, not tear down the pool.
fn replay_on_this_stack(trace: &RewriteTrace, catalog: &Catalog, props: &PropDb) -> ReplayOutcome {
    let mut rules: Vec<Oriented<'_>> = Vec::with_capacity(trace.active_rules.len());
    for id in trace.active_rules.iter() {
        match catalog.get(id) {
            Some(rule) => rules.push(Oriented::fwd(rule)),
            None => {
                return ReplayOutcome::Divergence {
                    step: 0,
                    detail: format!("active rule {id:?} not in catalog"),
                }
            }
        }
    }
    let mut budget = Budget::default()
        .steps(trace.max_steps)
        .depth(trace.max_depth)
        .term_size(trace.max_term_size)
        .quarantine_after(trace.quarantine_after);
    budget.deadline = None;

    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rewrite_fix_with(&rules, &trace.input, props, &budget, &trace.faults)
    }));
    match run {
        Ok(rewritten) => compare(trace, &rewritten),
        Err(_) => ReplayOutcome::Divergence {
            step: trace.steps.len(),
            detail: "replay panicked where the recorded run did not".into(),
        },
    }
}

/// Compare a finished reference run against the record.
fn compare(trace: &RewriteTrace, rewritten: &Rewritten) -> ReplayOutcome {
    let mut scratch = Interner::new();
    let replayed = rewritten.trace.records(&mut scratch);
    if replayed.len() != trace.steps.len() {
        return ReplayOutcome::Divergence {
            step: replayed.len().min(trace.steps.len()),
            detail: format!(
                "step count: recorded {}, replayed {}",
                trace.steps.len(),
                replayed.len()
            ),
        };
    }
    for (i, (rec, (rule_id, dir, after_fp, after_size))) in
        trace.steps.iter().zip(&replayed).enumerate()
    {
        if &rec.rule_id != rule_id || rec.dir != *dir {
            return ReplayOutcome::Divergence {
                step: i,
                detail: format!(
                    "rule: recorded {} ({:?}), replayed {} ({:?})",
                    rec.rule_id, rec.dir, rule_id, dir
                ),
            };
        }
        if rec.after_fp != *after_fp || rec.after_size != *after_size {
            return ReplayOutcome::Divergence {
                step: i,
                detail: format!(
                    "after-term: recorded fp={:#018x} size={}, replayed fp={:#018x} size={}",
                    rec.after_fp, rec.after_size, after_fp, after_size
                ),
            };
        }
    }
    if rewritten.report.stop != trace.stop {
        return ReplayOutcome::Divergence {
            step: trace.steps.len(),
            detail: format!(
                "stop: recorded {:?}, replayed {:?}",
                trace.stop, rewritten.report.stop
            ),
        };
    }
    let result = scratch.intern_query(&rewritten.query);
    if result.fp() != trace.result_fp || result.size() != trace.result_size {
        return ReplayOutcome::Divergence {
            step: trace.steps.len(),
            detail: format!(
                "plan: recorded fp={:#018x} size={}, replayed fp={:#018x} size={}",
                trace.result_fp,
                trace.result_size,
                result.fp(),
                result.size()
            ),
        };
    }
    ReplayOutcome::Match {
        steps: trace.steps.len(),
    }
}

/// Replay `trace` against the reference engine over `catalog`/`props`.
///
/// The active rule set is resolved from the recorded ids in recorded
/// order, so a trace taken under an open breaker replays under the same
/// masked set. Faults are re-injected from the recorded plan — they are
/// deterministic (rule- and step-selective), so a derivation recorded
/// *through* injected failures replays through the same failures.
///
/// Spawns a fresh [`REPLAY_STACK`]-sized thread per call; replaying many
/// traces should go through a [`ReplayWorker`] instead.
pub fn replay(trace: &RewriteTrace, catalog: &Catalog, props: &PropDb) -> ReplayOutcome {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("kola-obs-replay".into())
            .stack_size(REPLAY_STACK)
            .spawn_scoped(scope, || replay_on_this_stack(trace, catalog, props))
            .expect("spawn replay thread")
            .join()
            .expect("replay thread never panics (catch_unwind inside)")
    })
}

/// A pooled replay lane: one long-lived [`REPLAY_STACK`]-sized thread
/// owning its catalog and property database, fed traces over a channel.
/// Each [`ReplayWorker::replay`] call is a send plus a blocking receive —
/// same outcome as the free [`replay`] function (both run
/// `replay_on_this_stack`), without the per-trace thread spawn. Dropping
/// the worker closes the channel and joins the thread.
#[derive(Debug)]
pub struct ReplayWorker {
    tx: Option<mpsc::Sender<(RewriteTrace, mpsc::Sender<ReplayOutcome>)>>,
    handle: Option<JoinHandle<()>>,
}

impl ReplayWorker {
    /// Spawn the replay thread. It owns `catalog` and `props` for its whole
    /// life, so callers hand traces over by value and nothing is re-resolved
    /// per call but the trace's own rule list.
    pub fn new(catalog: Catalog, props: PropDb) -> ReplayWorker {
        let (tx, rx) = mpsc::channel::<(RewriteTrace, mpsc::Sender<ReplayOutcome>)>();
        let handle = std::thread::Builder::new()
            .name("kola-obs-replay-pool".into())
            .stack_size(REPLAY_STACK)
            .spawn(move || {
                for (trace, reply) in rx {
                    // A dropped reply receiver just discards the outcome.
                    let _ = reply.send(replay_on_this_stack(&trace, &catalog, &props));
                }
            })
            .expect("spawn pooled replay thread");
        ReplayWorker {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    /// Replay one trace on the pooled thread, blocking for its outcome.
    pub fn replay(&self, trace: RewriteTrace) -> ReplayOutcome {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.tx
            .as_ref()
            .expect("replay worker channel open until drop")
            .send((trace, reply_tx))
            .expect("replay worker thread alive");
        reply_rx.recv().expect("replay worker always replies")
    }
}

impl Drop for ReplayWorker {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RewriteTrace;
    use kola::term::{Func, Query};
    use kola_rewrite::{FaultKind, FaultPlan, FaultSpec, StepSelector};
    use std::sync::Arc;

    fn tower(n: usize) -> Query {
        let mut f = Func::Prim(Arc::from("age"));
        for _ in 0..n {
            f = Func::Compose(Box::new(Func::Id), Box::new(f));
        }
        Query::App(f, Box::new(Query::Extent(Arc::from("P"))))
    }

    fn record_reference_run(q: &Query, faults: FaultPlan) -> (RewriteTrace, Catalog, PropDb) {
        let catalog = Catalog::paper();
        let props = PropDb::new();
        let active: Vec<String> = catalog.forward_ids();
        let rules: Vec<Oriented<'_>> = catalog.rules().iter().map(Oriented::fwd).collect();
        let budget = Budget::default();
        let r = rewrite_fix_with(&rules, q, &props, &budget, &faults);
        let t = RewriteTrace::record(
            1,
            Arc::from("default"),
            q,
            Arc::new(active),
            budget.max_steps,
            budget.max_depth,
            budget.max_term_size,
            budget.quarantine_after,
            faults,
            &r.trace,
            r.report.stop,
            &r.query,
        );
        (t, catalog, props)
    }

    #[test]
    fn clean_run_replays_exactly() {
        let (t, catalog, props) = record_reference_run(&tower(6), FaultPlan::default());
        assert!(!t.steps.is_empty());
        let out = replay(&t, &catalog, &props);
        assert_eq!(
            out,
            ReplayOutcome::Match {
                steps: t.steps.len()
            }
        );
    }

    #[test]
    fn faulted_run_replays_through_the_same_faults() {
        let faults = FaultPlan::new().with(FaultSpec {
            rule_id: "11".into(),
            at: StepSelector::Steps(vec![0]),
            kind: FaultKind::Fail,
        });
        let (t, catalog, props) = record_reference_run(&tower(6), faults);
        let out = replay(&t, &catalog, &props);
        assert!(out.is_match(), "faulted replay diverged: {out:?}");
    }

    #[test]
    fn tampered_trace_is_caught() {
        let (mut t, catalog, props) = record_reference_run(&tower(6), FaultPlan::default());
        t.steps[0].after_fp ^= 1;
        let out = replay(&t, &catalog, &props);
        assert!(matches!(out, ReplayOutcome::Divergence { step: 0, .. }));

        let (mut t2, catalog2, props2) = record_reference_run(&tower(6), FaultPlan::default());
        t2.steps.pop();
        let out2 = replay(&t2, &catalog2, &props2);
        assert!(!out2.is_match());

        let (mut t3, catalog3, props3) = record_reference_run(&tower(6), FaultPlan::default());
        Arc::make_mut(&mut t3.active_rules).push("no-such-rule".into());
        assert!(!replay(&t3, &catalog3, &props3).is_match());
    }

    #[test]
    fn pooled_worker_matches_the_free_function() {
        // One long-lived worker replays many traces — clean and faulted —
        // with outcomes identical to per-call `replay`, and tampered traces
        // still classify as divergence without killing the pool.
        let worker = ReplayWorker::new(Catalog::paper(), PropDb::new());
        for n in [2, 5, 9] {
            let (t, catalog, props) = record_reference_run(&tower(n), FaultPlan::default());
            let direct = replay(&t, &catalog, &props);
            assert_eq!(worker.replay(t), direct);
        }
        let faults = FaultPlan::new().with(FaultSpec {
            rule_id: "11".into(),
            at: StepSelector::Steps(vec![1]),
            kind: FaultKind::Fail,
        });
        let (t, catalog, props) = record_reference_run(&tower(7), faults);
        assert_eq!(worker.replay(t.clone()), replay(&t, &catalog, &props));
        // Divergence does not wedge the worker for later traces.
        let (mut bad, ..) = record_reference_run(&tower(4), FaultPlan::default());
        bad.steps.clear();
        assert!(!worker.replay(bad).is_match());
        let (good, ..) = record_reference_run(&tower(3), FaultPlan::default());
        assert!(worker.replay(good).is_match());
    }
}
