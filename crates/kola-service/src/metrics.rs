//! The service's metric surface: every counter the request lifecycle
//! touches, built on `kola-obs`'s lock-free instruments.
//!
//! The counters form two **conservation invariants** that hold whenever the
//! service is quiescent (every submitted request has been answered):
//!
//! ```text
//! submitted  == overloaded + rejected_invalid + admitted + cache_hits
//! admitted   == optimized_fast + passthrough + completed_invalid + panicked
//! cache_hits == Σ cache_served[label]
//! engine_consults == Σ rules_attempted[rule]
//! ```
//!
//! The first partitions admissions (shed at the door, rejected at the door,
//! queued, or answered at the door from the plan cache — a cache hit never
//! consumes queue depth or a worker, so it is its own admission class), the
//! second partitions completions (each admitted request bumps exactly one
//! terminal counter before its reply is sent, so a client that has every
//! reply in hand can check the books), and the third ties every cache hit
//! to the outcome taxonomy it was served under. The fourth ties the
//! worker engines' total rule attempts to the per-rule lanes, which are
//! flushed only for the rules a run consulted. The chaos soak asserts all
//! four over its full run ([`conservation_violations`]).
//!
//! `cache_hits` counts both direct hits (answered on the submitting thread
//! from a resident entry) and coalesced identical misses (parked on an
//! in-flight leader, answered from its one engine pass); the latter are
//! additionally counted in `cache_coalesced`. The leader itself is an
//! ordinary admitted request — only the waiters are hits.
//!
//! The lifecycle counters above are recorded once, in per-tenant
//! **families** (`tenant_submitted`, `tenant_admitted`, …) labeled by
//! tenant name, and completion latency in per-tenant histograms
//! (`tenant_latency_us/<name>`). [`ServiceMetrics::snapshot`] derives the
//! aggregates — each counter is its family's sum and `latency_us` the
//! merge of the tenant histograms — so the aggregate books are the sum of
//! the per-tenant books by construction. The conservation invariants are
//! checked per tenant label and in aggregate. A request naming a tenant the
//! service does not serve lands in the family's catch-all `other` lane,
//! which participates in the per-label equations like any tenant.

use kola_obs::{
    Counter, CounterFamily, Histogram, HistogramSnapshot, MaxGauge, Registry, Snapshot,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Handles into the service's metric [`Registry`]. All hot-path recording
/// goes through these `Arc`s — lock-free, allocation-free; the registry
/// itself is only locked to snapshot.
#[derive(Debug)]
pub struct ServiceMetrics {
    registry: Registry,
    /// Plan-cache misses that went on to an engine pass (flight leaders
    /// and solo computations).
    pub cache_misses: Arc<Counter>,
    /// Identical concurrent misses parked on an in-flight leader instead
    /// of consuming a queue slot (subset of `cache_hits`).
    pub cache_coalesced: Arc<Counter>,
    /// Stale-generation entries reclaimed lazily on lookup (the breaker
    /// generation moved since the plan was derived).
    pub cache_stale: Arc<Counter>,
    /// Entries displaced by CLOCK/second-chance eviction.
    pub cache_evicted: Arc<Counter>,
    /// Plans inserted into the cache by flight leaders.
    pub cache_insertions: Arc<Counter>,
    /// Cache hits by the outcome they served, labeled
    /// `fast` / `passthrough` / `invalid` (only `fast` plans are inserted
    /// today; the full taxonomy keeps the conservation cross-check honest
    /// if that ever widens).
    pub cache_served: Arc<CounterFamily>,
    /// Submit-to-reply latency (µs) of direct cache hits — the headline
    /// "served without touching a worker engine" number.
    pub cache_hit_latency_us: Arc<Histogram>,
    /// Poison-rule panics caught *and classified* by the engine attempt.
    pub caught_panics: Arc<Counter>,
    /// Failed engine attempts — at most one per request, which then
    /// passes through.
    pub rung_failures: Arc<Counter>,
    /// Engine node visits attributed to requests (delta-flushed per
    /// request from the worker's persistent engine).
    pub engine_visits: Arc<Counter>,
    /// Rule application attempts attributed to requests — the engines'
    /// own total, flushed apart from the per-rule `rules_attempted` lanes
    /// so the two can be checked against each other (module docs).
    pub engine_consults: Arc<Counter>,
    /// Engine interner constructions (arena cache misses).
    pub engine_constructed: Arc<Counter>,
    /// Normalization-memo replays.
    pub engine_memo_hits: Arc<Counter>,
    /// Normalization-memo lookups (hits + misses).
    pub engine_memo_lookups: Arc<Counter>,
    /// Bounded-arena compactions across all worker engines.
    pub engine_compactions: Arc<Counter>,
    /// High-water mark of any worker engine's arena (live nodes).
    pub arena_peak: Arc<MaxGauge>,
    /// Discrimination-tree shape, as reported by the worker engines'
    /// [`kola_rewrite::IndexStats`]: total trie nodes across the three
    /// per-level trees.
    pub index_tree_nodes: Arc<MaxGauge>,
    /// Deepest path in any level's tree (pattern-walk length).
    pub index_tree_max_depth: Arc<MaxGauge>,
    /// Total edges (symbol + wildcard) across the trees.
    pub index_tree_edges: Arc<MaxGauge>,
    /// Wildcard (metavariable) edges — the non-discriminating fraction.
    pub index_tree_wildcard_edges: Arc<MaxGauge>,
    /// Mean interior-node fanout, in thousandths (gauges are integers).
    pub index_tree_mean_fanout_milli: Arc<MaxGauge>,
    /// Rule application *attempts* per rule id (the candidate scans the
    /// discrimination-tree index could not rule out).
    pub rules_attempted: Arc<CounterFamily>,
    /// Successful rule firings per rule id.
    pub rules_fired: Arc<CounterFamily>,
    /// Queue depth observed at each successful admission.
    pub queue_depth: Arc<Histogram>,
    /// Deadline remaining (µs) when a worker dequeued the request — how
    /// much of each budget the queue already spent.
    pub deadline_remaining_us: Arc<Histogram>,
    /// Wall-clock µs workers spent handling requests (utilization numerator).
    pub worker_busy_us: Arc<Counter>,
    /// Requests presented to [`crate::Service::submit`], per tenant
    /// (unknown tenants land in the family's `other` lane).
    pub tenant_submitted: Arc<CounterFamily>,
    /// Shed at the door: queue full, or the tenant's own admission quota
    /// reached while other tenants kept admitting.
    pub tenant_overloaded: Arc<CounterFamily>,
    /// Rejected at the door: oversized payloads and unknown tenant names
    /// (the latter count in `other`).
    pub tenant_rejected_invalid: Arc<CounterFamily>,
    /// Dequeued by a worker (every one terminates in exactly one of the
    /// four completion families below).
    pub tenant_admitted: Arc<CounterFamily>,
    /// Plan-cache hits: requests answered without admission (direct hits
    /// plus coalesced waiters; see module docs). Zero cross-tenant hits is
    /// an isolation invariant.
    pub tenant_cache_hits: Arc<CounterFamily>,
    /// Completed `Optimized`.
    pub tenant_optimized_fast: Arc<CounterFamily>,
    /// Completed `Passthrough` (the engine attempt failed or never ran).
    pub tenant_passthrough: Arc<CounterFamily>,
    /// Completed `Invalid` in the worker (parse failure).
    pub tenant_completed_invalid: Arc<CounterFamily>,
    /// Panics that reached the worker boundary (answered `Invalid`; counted
    /// here, not in `tenant_completed_invalid`, so the books distinguish
    /// them).
    pub tenant_panicked: Arc<CounterFamily>,
    /// Per-tenant end-to-end latency (µs) of worker-completed requests,
    /// indexed by tenant slot; registered as `tenant_latency_us/<name>`
    /// (names escape in JSON).
    pub tenant_latency_us: Vec<Arc<Histogram>>,
}

impl ServiceMetrics {
    /// Single-tenant metrics: one `"default"` tenant lane behind the
    /// aggregate counters.
    pub fn new(rule_ids: &[String], queue_capacity: usize) -> ServiceMetrics {
        ServiceMetrics::with_tenants(
            rule_ids,
            queue_capacity,
            &[crate::tenant::DEFAULT_TENANT.to_string()],
        )
    }

    /// Metrics over the served catalog: `rule_ids` (catalog order) label
    /// the per-rule families, `queue_capacity` shapes the depth histogram,
    /// and `tenant_names` label the per-tenant lifecycle families.
    pub fn with_tenants(
        rule_ids: &[String],
        queue_capacity: usize,
        tenant_names: &[String],
    ) -> ServiceMetrics {
        let registry = Registry::new();
        let tenants = |name: &str| registry.family(name, tenant_names.iter().cloned());
        // One hour in µs comfortably tops any latency/deadline this
        // service sees; pow2 buckets keep the scan short.
        let us_cap = 3_600_000_000;
        ServiceMetrics {
            cache_misses: registry.counter("cache_misses"),
            cache_coalesced: registry.counter("cache_coalesced"),
            cache_stale: registry.counter("cache_stale"),
            cache_evicted: registry.counter("cache_evicted"),
            cache_insertions: registry.counter("cache_insertions"),
            cache_served: registry.family("cache_served", ["fast", "passthrough", "invalid"]),
            cache_hit_latency_us: registry.histogram("cache_hit_latency_us", &pow2_bounds(us_cap)),
            caught_panics: registry.counter("caught_panics"),
            rung_failures: registry.counter("rung_failures"),
            engine_visits: registry.counter("engine_visits"),
            engine_consults: registry.counter("engine_consults"),
            engine_constructed: registry.counter("engine_constructed"),
            engine_memo_hits: registry.counter("engine_memo_hits"),
            engine_memo_lookups: registry.counter("engine_memo_lookups"),
            engine_compactions: registry.counter("engine_compactions"),
            arena_peak: registry.max_gauge("arena_peak"),
            index_tree_nodes: registry.max_gauge("index_tree_nodes"),
            index_tree_max_depth: registry.max_gauge("index_tree_max_depth"),
            index_tree_edges: registry.max_gauge("index_tree_edges"),
            index_tree_wildcard_edges: registry.max_gauge("index_tree_wildcard_edges"),
            index_tree_mean_fanout_milli: registry.max_gauge("index_tree_mean_fanout_milli"),
            rules_attempted: registry.family("rules_attempted", rule_ids.iter().cloned()),
            rules_fired: registry.family("rules_fired", rule_ids.iter().cloned()),
            queue_depth: registry
                .histogram("queue_depth", &pow2_bounds(queue_capacity.max(1) as u64)),
            deadline_remaining_us: registry
                .histogram("deadline_remaining_us", &pow2_bounds(us_cap)),
            worker_busy_us: registry.counter("worker_busy_us"),
            tenant_submitted: tenants("tenant_submitted"),
            tenant_overloaded: tenants("tenant_overloaded"),
            tenant_rejected_invalid: tenants("tenant_rejected_invalid"),
            tenant_admitted: tenants("tenant_admitted"),
            tenant_cache_hits: tenants("tenant_cache_hits"),
            tenant_optimized_fast: tenants("tenant_optimized_fast"),
            tenant_passthrough: tenants("tenant_passthrough"),
            tenant_completed_invalid: tenants("tenant_completed_invalid"),
            tenant_panicked: tenants("tenant_panicked"),
            tenant_latency_us: tenant_names
                .iter()
                .map(|name| {
                    registry.histogram(&format!("tenant_latency_us/{name}"), &pow2_bounds(us_cap))
                })
                .collect(),
            registry,
        }
    }

    /// Plain-data copy of every instrument, with the aggregates derived
    /// from the tenant lanes (module docs): the nine lifecycle counters
    /// lead the counter list, and `latency_us` precedes the per-tenant
    /// latency histograms.
    pub fn snapshot(&self) -> Snapshot {
        let mut s = self.registry.snapshot();
        let totals: Vec<(String, u64)> = LIFECYCLE
            .iter()
            .map(|&(aggregate, family)| {
                let total = s.family(family).iter().map(|(_, n)| n).sum();
                (aggregate.to_string(), total)
            })
            .collect();
        s.counters.splice(0..0, totals);
        let lane = |name: &str| name.starts_with("tenant_latency_us/");
        let at = s
            .histograms
            .iter()
            .position(|(name, _)| lane(name))
            .unwrap_or(s.histograms.len());
        let mut latency = HistogramSnapshot::default();
        for (_, h) in s.histograms.iter().filter(|(name, _)| lane(name)) {
            latency.merge(h);
        }
        s.histograms.insert(at, ("latency_us".to_string(), latency));
        s
    }
}

/// Each aggregate lifecycle counter and the tenant family it sums.
const LIFECYCLE: [(&str, &str); 9] = [
    ("submitted", "tenant_submitted"),
    ("overloaded", "tenant_overloaded"),
    ("rejected_invalid", "tenant_rejected_invalid"),
    ("admitted", "tenant_admitted"),
    ("optimized_fast", "tenant_optimized_fast"),
    ("passthrough", "tenant_passthrough"),
    ("completed_invalid", "tenant_completed_invalid"),
    ("panicked", "tenant_panicked"),
    ("cache_hits", "tenant_cache_hits"),
];

fn pow2_bounds(cap: u64) -> Vec<u64> {
    let mut bounds = Vec::new();
    let mut b = 1u64;
    loop {
        bounds.push(b);
        if b >= cap {
            break;
        }
        b = b.saturating_mul(2);
    }
    bounds
}

/// Check the conservation invariants (module docs) against a quiescent
/// snapshot. Returns one message per violated equation — empty means the
/// books balance.
pub fn conservation_violations(s: &Snapshot) -> Vec<String> {
    let mut v = Vec::new();
    let submitted = s.counter("submitted");
    let admissions = s.counter("overloaded")
        + s.counter("rejected_invalid")
        + s.counter("admitted")
        + s.counter("cache_hits");
    if submitted != admissions {
        v.push(format!(
            "admission books unbalanced: submitted {} != overloaded {} + rejected_invalid {} + admitted {} + cache_hits {}",
            submitted,
            s.counter("overloaded"),
            s.counter("rejected_invalid"),
            s.counter("admitted"),
            s.counter("cache_hits"),
        ));
    }
    let admitted = s.counter("admitted");
    let completions = s.counter("optimized_fast")
        + s.counter("passthrough")
        + s.counter("completed_invalid")
        + s.counter("panicked");
    if admitted != completions {
        v.push(format!(
            "completion books unbalanced: admitted {} != optimized_fast {} + passthrough {} + completed_invalid {} + panicked {}",
            admitted,
            s.counter("optimized_fast"),
            s.counter("passthrough"),
            s.counter("completed_invalid"),
            s.counter("panicked"),
        ));
    }
    let hits = s.counter("cache_hits");
    let served: u64 = s.family("cache_served").iter().map(|(_, n)| n).sum();
    if hits != served {
        v.push(format!(
            "cache books unbalanced: cache_hits {hits} != Σ cache_served {served}",
        ));
    }
    let consults = s.counter("engine_consults");
    let attempted: u64 = s.family("rules_attempted").iter().map(|(_, n)| n).sum();
    if consults != attempted {
        v.push(format!(
            "rule books unbalanced: engine_consults {consults} != Σ rules_attempted {attempted}",
        ));
    }

    // Per-tenant books: the same two equations per tenant label. Family
    // snapshots report only nonzero lanes, so take the union of labels
    // across all nine families (this includes the `other` catch-all lane
    // unknown-tenant submissions land in).
    let lane = |family: &str, label: &str| -> u64 {
        s.family(family)
            .iter()
            .find(|(l, _)| l == label)
            .map(|&(_, n)| n)
            .unwrap_or(0)
    };
    let labels: BTreeSet<String> = LIFECYCLE
        .iter()
        .flat_map(|&(_, f)| s.family(f).iter().map(|(l, _)| l.clone()))
        .collect();
    for label in &labels {
        let submitted = lane("tenant_submitted", label);
        let admissions = lane("tenant_overloaded", label)
            + lane("tenant_rejected_invalid", label)
            + lane("tenant_admitted", label)
            + lane("tenant_cache_hits", label);
        if submitted != admissions {
            v.push(format!(
                "tenant {label:?} admission books unbalanced: submitted {} != overloaded {} + rejected_invalid {} + admitted {} + cache_hits {}",
                submitted,
                lane("tenant_overloaded", label),
                lane("tenant_rejected_invalid", label),
                lane("tenant_admitted", label),
                lane("tenant_cache_hits", label),
            ));
        }
        let admitted = lane("tenant_admitted", label);
        let completions = lane("tenant_optimized_fast", label)
            + lane("tenant_passthrough", label)
            + lane("tenant_completed_invalid", label)
            + lane("tenant_panicked", label);
        if admitted != completions {
            v.push(format!(
                "tenant {label:?} completion books unbalanced: admitted {} != optimized_fast {} + passthrough {} + completed_invalid {} + panicked {}",
                admitted,
                lane("tenant_optimized_fast", label),
                lane("tenant_passthrough", label),
                lane("tenant_completed_invalid", label),
                lane("tenant_panicked", label),
            ));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_detects_imbalance() {
        let m = ServiceMetrics::new(&["11".to_string()], 64);
        assert!(conservation_violations(&m.snapshot()).is_empty());
        // Each lifecycle event lands in its tenant lane and the aggregate
        // is derived from the lanes, so an imbalance shows up in both sets
        // of books.
        m.tenant_submitted.add_index(0, 3);
        m.tenant_overloaded.add_index(0, 1);
        m.tenant_admitted.add_index(0, 2);
        m.tenant_optimized_fast.add_index(0, 1);
        // One admitted request unaccounted for — aggregate and per-tenant.
        let v = conservation_violations(&m.snapshot());
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.contains("completion books")));
        m.tenant_passthrough.add_index(0, 1);
        assert!(conservation_violations(&m.snapshot()).is_empty());
        m.tenant_submitted.add_index(0, 1);
        let v = conservation_violations(&m.snapshot());
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.contains("admission books")));
        // A cache hit is its own admission class…
        m.tenant_cache_hits.add_index(0, 1);
        // …but must be tied to the outcome it served.
        let v = conservation_violations(&m.snapshot());
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("cache books"));
        m.cache_served.add_index(0, 1);
        assert!(conservation_violations(&m.snapshot()).is_empty());
        // Rule attempts: the engines' total must match the per-rule lanes.
        m.engine_consults.add(3);
        m.rules_attempted.add_index(0, 2);
        let v = conservation_violations(&m.snapshot());
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("rule books"));
        m.rules_attempted.add_index(0, 1);
        assert!(conservation_violations(&m.snapshot()).is_empty());
    }

    #[test]
    fn tenant_books_are_checked_per_label() {
        let two_tenants = || {
            ServiceMetrics::with_tenants(
                &["11".to_string()],
                64,
                &["victim".to_string(), "aggressor".to_string()],
            )
        };

        // Balanced: one fast completion for victim, one panic for
        // aggressor — and an unknown tenant rejected into the `other`
        // catch-all lane, which obeys the per-label equations like any
        // tenant.
        let m = two_tenants();
        m.tenant_submitted.add("victim", 1);
        m.tenant_admitted.add("victim", 1);
        m.tenant_optimized_fast.add("victim", 1);
        m.tenant_submitted.add("aggressor", 1);
        m.tenant_admitted.add("aggressor", 1);
        m.tenant_panicked.add("aggressor", 1);
        m.tenant_submitted.add_index(usize::MAX, 1);
        m.tenant_rejected_invalid.add_index(usize::MAX, 1);
        let s = m.snapshot();
        assert!(conservation_violations(&s).is_empty());
        assert_eq!(s.counter("submitted"), 3);
        assert_eq!(s.counter("admitted"), 2);
        assert_eq!(s.counter("rejected_invalid"), 1);

        // A completion charged to the wrong tenant balances in aggregate
        // but trips both tenants' per-label books.
        let m = two_tenants();
        m.tenant_submitted.add("victim", 1);
        m.tenant_admitted.add("victim", 1);
        m.tenant_passthrough.add("aggressor", 1);
        let v = conservation_violations(&m.snapshot());
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|v| v.contains("\"victim\" completion")));
        assert!(v.iter().any(|v| v.contains("\"aggressor\" completion")));
    }

    #[test]
    fn aggregate_latency_merges_the_tenant_histograms() {
        let m = ServiceMetrics::with_tenants(&[], 8, &["a".to_string(), "b".to_string()]);
        m.tenant_latency_us[0].record(3);
        m.tenant_latency_us[1].record(100);
        m.tenant_latency_us[1].record(5);
        // Registered after the lanes, but not one of them.
        m.registry.histogram("zz_other_us", &[1, 10]).record(7);
        let s = m.snapshot();
        let all = s.histogram("latency_us").expect("derived histogram");
        assert_eq!((all.count, all.sum, all.max), (3, 108, 100));
        assert_eq!(all.buckets.iter().sum::<u64>(), 3);
        assert_eq!(s.histogram("tenant_latency_us/b").unwrap().count, 2);
    }

    #[test]
    fn families_label_rules() {
        let m = ServiceMetrics::new(&["11".to_string(), "9".to_string()], 8);
        m.rules_fired.add("9", 2);
        m.rules_attempted.add_index(0, 5);
        let s = m.snapshot();
        assert_eq!(s.family("rules_fired"), &[("9".to_string(), 2)]);
        assert_eq!(s.family("rules_attempted"), &[("11".to_string(), 5)]);
    }
}
