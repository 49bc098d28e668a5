//! Structured rewrite traces and their bounded ring-buffer storage.
//!
//! A [`RewriteTrace`] is a self-contained provenance record for one
//! successful fast-engine run: the input query, the exact rule set and budget
//! the run saw, the fault plan (chaos runs inject deterministic faults —
//! replay must inject the same ones), and one [`RecordedStep`] per applied
//! rule. Self-contained is the point: `kola_obs::replay` re-executes the
//! record against the boxed reference engine with nothing but the catalog,
//! so a trace captured in production is a reproducible test case.
//!
//! Steps carry structural *fingerprints* (from `kola::intern`), not terms:
//! fingerprints depend only on structure, so two runs in different arenas
//! agree on them, and a trace of a thousand steps stays kilobytes. The
//! before/after chain is internally consistent by construction — step
//! `i+1`'s before is step `i`'s after.

use kola::intern::Interner;
use kola::term::Query;
use kola_rewrite::engine::Trace;
use kola_rewrite::{Direction, FaultPlan, StopReason};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One applied rule inside a [`RewriteTrace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedStep {
    /// The rule that fired.
    pub rule_id: String,
    /// Orientation it fired in.
    pub dir: Direction,
    /// Structural fingerprint of the whole query before the step.
    pub before_fp: u64,
    /// Node count before the step.
    pub before_size: usize,
    /// Structural fingerprint after the step.
    pub after_fp: u64,
    /// Node count after the step.
    pub after_size: usize,
    /// Step-budget (fuel) consumed through this step, 1-based — the last
    /// step's value is the run's total step count.
    pub budget_spent: usize,
}

/// A replayable provenance record for one rewrite run (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteTrace {
    /// Service request id the run answered.
    pub request_id: u64,
    /// Tenant namespace the request ran under (`"default"` for
    /// single-tenant services). Shared, not cloned: the recorder hands the
    /// service's own tenant-name `Arc`.
    pub tenant: Arc<str>,
    /// The input query, as submitted.
    pub input: Query,
    /// Active rule ids, in catalog order — the exact set the run saw
    /// (open-breaker rules already excluded). Shared, not cloned: the
    /// recorder hands the published snapshot's own `Arc`, so recording a
    /// trace costs a refcount bump instead of a deep copy of the rule list.
    pub active_rules: Arc<Vec<String>>,
    /// Step cap the run was given.
    pub max_steps: usize,
    /// Depth cap the run was given.
    pub max_depth: usize,
    /// Term-size cap the run was given.
    pub max_term_size: usize,
    /// Per-run quarantine threshold the run was given.
    pub quarantine_after: usize,
    /// The deterministic fault plan in force (empty outside chaos runs).
    pub faults: FaultPlan,
    /// The applied rules, in order.
    pub steps: Vec<RecordedStep>,
    /// Why the run stopped. Wall-clock deadlines are deliberately *not*
    /// recorded: a successful run never stopped on one (the ladder
    /// classifies `DeadlineExpired` as an attempt failure), so the deadline
    /// never shaped the derivation and replay runs without it.
    pub stop: StopReason,
    /// Fingerprint of the returned plan (the best-so-far query on
    /// `BudgetExhausted`/`CycleDetected` stops, not necessarily the last
    /// step's after-term).
    pub result_fp: u64,
    /// Node count of the returned plan.
    pub result_size: usize,
}

impl RewriteTrace {
    /// Build a record from a finished run. `trace` is the engine's own
    /// derivation (every step), `result` the plan the run returned. Budget
    /// fields are the caps the run was *given*, not what it used.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        request_id: u64,
        tenant: Arc<str>,
        input: &Query,
        active_rules: Arc<Vec<String>>,
        max_steps: usize,
        max_depth: usize,
        max_term_size: usize,
        quarantine_after: usize,
        faults: FaultPlan,
        trace: &Trace,
        stop: StopReason,
        result: &Query,
    ) -> RewriteTrace {
        let mut scratch = Interner::new();
        // The engines normalize the input before rewriting; the recorded
        // before-chain starts from that normalized form so it lines up
        // with the first step's redex.
        let t0 = scratch.intern_query(&input.normalize());
        let (mut prev_fp, mut prev_size) = (t0.fp(), t0.size());
        let steps = trace
            .records(&mut scratch)
            .into_iter()
            .enumerate()
            .map(|(i, (rule_id, dir, after_fp, after_size))| {
                let s = RecordedStep {
                    rule_id,
                    dir,
                    before_fp: prev_fp,
                    before_size: prev_size,
                    after_fp,
                    after_size,
                    budget_spent: i + 1,
                };
                (prev_fp, prev_size) = (after_fp, after_size);
                s
            })
            .collect();
        let r = scratch.intern_query(result);
        RewriteTrace {
            request_id,
            tenant,
            input: input.clone(),
            active_rules,
            max_steps,
            max_depth,
            max_term_size,
            quarantine_after,
            faults,
            steps,
            stop,
            result_fp: r.fp(),
            result_size: r.size(),
        }
    }

    /// The justification sequence, e.g. `["11", "6-1", "5"]`.
    pub fn justifications(&self) -> Vec<String> {
        self.steps
            .iter()
            .map(|s| match s.dir {
                Direction::Forward => s.rule_id.clone(),
                Direction::Backward => format!("{}-1", s.rule_id),
            })
            .collect()
    }
}

/// Bounded ring buffer of [`RewriteTrace`]s. Pushing past capacity evicts
/// the oldest record and counts it in [`TraceRing::dropped`] — a soak that
/// outruns the ring loses history, never memory. The mutex is held only for
/// the push itself; traces are recorded on the *cold* side of a request
/// (after the run succeeded), never on the untraced hot path.
///
/// A single ring shared by every worker serializes trace recording on one
/// lock; services give each worker its own ring via [`ShardedTraceRing`]
/// and this type becomes the per-worker shard.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    inner: Mutex<VecDeque<RewriteTrace>>,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl TraceRing {
    /// Ring holding at most `capacity` traces (`0` is treated as `1`).
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            capacity: capacity.max(1),
            inner: Mutex::new(VecDeque::new()),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append `t`, evicting the oldest record if the ring is full.
    pub fn push(&self, t: RewriteTrace) {
        let mut inner = self.inner.lock().unwrap();
        if inner.len() == self.capacity {
            inner.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        inner.push_back(t);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Traces recorded over the ring's life (including later-evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Traces evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// True iff no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clone out the current contents, oldest first.
    pub fn snapshot(&self) -> Vec<RewriteTrace> {
        self.inner.lock().unwrap().iter().cloned().collect()
    }

    /// Move out the current contents, oldest first, leaving the ring empty
    /// (counters keep their totals).
    pub fn drain(&self) -> Vec<RewriteTrace> {
        self.inner.lock().unwrap().drain(..).collect()
    }
}

/// Per-worker trace storage: one [`TraceRing`] shard per worker, so
/// recording a trace contends only with drains of that worker's own shard,
/// never with the other workers' pushes. The fleet-wide surfaces —
/// [`ShardedTraceRing::recorded`] / [`ShardedTraceRing::dropped`] odometers,
/// [`ShardedTraceRing::snapshot`] / [`ShardedTraceRing::drain`] — fold the
/// shards; the merged trace list is interleaved by request id, so replay
/// order is deterministic regardless of which worker recorded which trace.
#[derive(Debug)]
pub struct ShardedTraceRing {
    shards: Vec<TraceRing>,
}

impl ShardedTraceRing {
    /// `shards` rings (one per worker; `0` is treated as `1`) each holding
    /// at most `capacity_per_shard` traces.
    pub fn new(shards: usize, capacity_per_shard: usize) -> ShardedTraceRing {
        ShardedTraceRing {
            shards: (0..shards.max(1))
                .map(|_| TraceRing::new(capacity_per_shard))
                .collect(),
        }
    }

    /// Worker `i`'s own shard (wrapped modulo the shard count). Workers
    /// push to this directly; it is an ordinary [`TraceRing`].
    pub fn shard(&self, i: usize) -> &TraceRing {
        &self.shards[i % self.shards.len()]
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Fleet-wide traces recorded (sum over shards, including evicted).
    pub fn recorded(&self) -> u64 {
        self.shards.iter().map(|s| s.recorded()).sum()
    }

    /// Fleet-wide traces evicted to make room (sum over shards).
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped()).sum()
    }

    /// Dropped as a percentage of recorded (`0.0` when nothing recorded).
    pub fn dropped_pct(&self) -> f64 {
        let recorded = self.recorded();
        if recorded == 0 {
            0.0
        } else {
            self.dropped() as f64 * 100.0 / recorded as f64
        }
    }

    /// Records currently held across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True iff no shard holds a record.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Clone out the current contents of every shard, merged and sorted by
    /// request id (ids are unique per service, so the order is total).
    pub fn snapshot(&self) -> Vec<RewriteTrace> {
        let mut v: Vec<RewriteTrace> = self.shards.iter().flat_map(|s| s.snapshot()).collect();
        v.sort_by_key(|t| t.request_id);
        v
    }

    /// Move out the current contents of every shard, merged and sorted by
    /// request id, leaving all shards empty (odometers keep their totals).
    pub fn drain(&self) -> Vec<RewriteTrace> {
        let mut v: Vec<RewriteTrace> = self.shards.iter().flat_map(|s| s.drain()).collect();
        v.sort_by_key(|t| t.request_id);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kola_rewrite::engine::Step;
    use std::sync::Arc;

    fn toy_trace(id: u64) -> RewriteTrace {
        let q = Query::Extent(Arc::from("P"));
        RewriteTrace::record(
            id,
            Arc::from("default"),
            &q,
            Arc::new(vec!["11".into()]),
            100,
            64,
            1000,
            3,
            FaultPlan::default(),
            &Trace::new(),
            StopReason::NormalForm,
            &q,
        )
    }

    #[test]
    fn record_chains_before_and_after() {
        let input = Query::App(
            kola::term::Func::Compose(
                Box::new(kola::term::Func::Id),
                Box::new(kola::term::Func::Prim(Arc::from("age"))),
            ),
            Box::new(Query::Extent(Arc::from("P"))),
        );
        let after = Query::App(
            kola::term::Func::Prim(Arc::from("age")),
            Box::new(Query::Extent(Arc::from("P"))),
        );
        let mut t = Trace::new();
        t.steps.push(Step {
            rule_id: "11".into(),
            dir: Direction::Forward,
            after: after.clone(),
        });
        let rec = RewriteTrace::record(
            7,
            Arc::from("default"),
            &input,
            Arc::new(vec!["11".into()]),
            100,
            64,
            1000,
            3,
            FaultPlan::default(),
            &t,
            StopReason::NormalForm,
            &after,
        );
        assert_eq!(rec.steps.len(), 1);
        let s = &rec.steps[0];
        assert_ne!(s.before_fp, s.after_fp);
        assert!(s.before_size > s.after_size);
        assert_eq!(s.budget_spent, 1);
        assert_eq!(rec.result_fp, s.after_fp);
        assert_eq!(rec.justifications(), vec!["11"]);
        // Same run, recorded twice: identical records.
        let rec2 = RewriteTrace::record(
            7,
            Arc::from("default"),
            &input,
            Arc::new(vec!["11".into()]),
            100,
            64,
            1000,
            3,
            FaultPlan::default(),
            &t,
            StopReason::NormalForm,
            &after,
        );
        assert_eq!(rec, rec2);
    }

    #[test]
    fn ring_bounds_and_counts() {
        let ring = TraceRing::new(2);
        assert!(ring.is_empty());
        ring.push(toy_trace(1));
        ring.push(toy_trace(2));
        ring.push(toy_trace(3));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.recorded(), 3);
        assert_eq!(ring.dropped(), 1);
        let v = ring.snapshot();
        assert_eq!(
            v.iter().map(|t| t.request_id).collect::<Vec<_>>(),
            vec![2, 3]
        );
        let d = ring.drain();
        assert_eq!(d.len(), 2);
        assert!(ring.is_empty());
        assert_eq!(ring.recorded(), 3);
    }

    #[test]
    fn sharded_ring_merges_by_request_id_and_folds_odometers() {
        let ring = ShardedTraceRing::new(3, 2);
        assert_eq!(ring.shard_count(), 3);
        assert!(ring.is_empty());
        // Interleave pushes across shards out of request-id order.
        ring.shard(0).push(toy_trace(5));
        ring.shard(1).push(toy_trace(2));
        ring.shard(2).push(toy_trace(9));
        ring.shard(0).push(toy_trace(1));
        ring.shard(1).push(toy_trace(7));
        // Overflow shard 0: trace 5 is evicted, counted fleet-wide.
        ring.shard(0).push(toy_trace(3));
        assert_eq!(ring.recorded(), 6);
        assert_eq!(ring.dropped(), 1);
        assert!((ring.dropped_pct() - 100.0 / 6.0).abs() < 1e-9);
        assert_eq!(ring.len(), 5);
        let ids = |v: Vec<RewriteTrace>| v.iter().map(|t| t.request_id).collect::<Vec<_>>();
        // snapshot and drain interleave the shards by request id.
        assert_eq!(ids(ring.snapshot()), vec![1, 2, 3, 7, 9]);
        assert_eq!(ids(ring.drain()), vec![1, 2, 3, 7, 9]);
        assert!(ring.is_empty());
        assert_eq!(ring.recorded(), 6);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn sharded_ring_wraps_shard_index_and_handles_empty() {
        let ring = ShardedTraceRing::new(0, 1);
        assert_eq!(ring.shard_count(), 1);
        assert_eq!(ring.dropped_pct(), 0.0);
        // Shard addressing wraps, so any worker index is valid.
        ring.shard(7).push(toy_trace(4));
        assert_eq!(ring.len(), 1);
    }
}
