//! The chaos soak as a test: 10,000 seeded requests (override with
//! `CHAOS_REQUESTS`) mixing well-formed queries, adversarially deep terms,
//! poison rules, and random deadlines. Asserts the service's terminal
//! invariants: every request classified, zero escaped panics, zero
//! optimized replies that change their input's meaning on the audit
//! database (worker passes, cache hits and coalesced replies alike, checked
//! after the serving window) — and that the stream actually exercised every
//! lane (panics caught, breakers opened, loads shed). Runs with tracing
//! on, so it also asserts the observability invariants: the metric books
//! balance (conservation), and every trace left in the ring replays
//! byte-for-byte on the boxed reference engine.

use kola_service::{conservation_violations, run_chaos, ChaosConfig};

#[test]
fn chaos_soak_classifies_every_request_and_escapes_no_panics() {
    let requests = std::env::var("CHAOS_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let cfg = ChaosConfig {
        requests,
        tracing: true,
        trace_capacity: 256,
        ..ChaosConfig::default()
    };
    let report = run_chaos(&cfg);
    let violations = report.violations();
    assert!(
        violations.is_empty(),
        "soak invariants violated:\n{}\n\n{}",
        violations.join("\n"),
        report.summary()
    );
    // The taxonomy is exactly Optimized / Passthrough / Overloaded.
    assert_eq!(
        report.optimized_fast + report.passthrough + report.overloaded,
        report.requests,
        "{}",
        report.summary()
    );
    assert_eq!(report.invalid, 0, "{}", report.summary());
    assert_eq!(report.unexpected_panics, 0, "{}", report.summary());
    assert_eq!(report.gate_failures, 0, "{}", report.summary());
    if requests >= 2_000 {
        // With the default stream the chaos lanes all fire: poison rules
        // panic and are caught, their breakers open, flood phases shed.
        assert!(report.caught_panics > 0, "{}", report.summary());
        assert!(report.breaker_opened > 0, "{}", report.summary());
        assert!(report.overloaded > 0, "{}", report.summary());
        assert!(report.optimized_fast > 0, "{}", report.summary());
        assert!(report.passthrough > 0, "{}", report.summary());
        // The repeated lane hit the plan cache, and the poison lanes'
        // breaker trips invalidated resident entries mid-soak — the
        // stale-reclaim odometer is the proof invalidation was exercised
        // (zero *escaped* stale plans is enforced by the taxonomy
        // cross-checks in `violations()`).
        assert!(report.cache_hits > 0, "{}", report.summary());
        assert!(report.cache_misses > 0, "{}", report.summary());
        assert!(report.cache_stale > 0, "{}", report.summary());
    }
    // Persistent engines really ran (the arena saw terms) and stayed
    // bounded (the bound itself is enforced by `violations()` above).
    assert!(report.peak_arena_nodes > 0, "{}", report.summary());

    // Conservation: over the whole soak the metric books balance —
    // submitted == overloaded + rejected_invalid + admitted, and every
    // admitted request bumped exactly one completion counter.
    assert_eq!(
        conservation_violations(&report.metrics),
        Vec::<String>::new(),
        "{}",
        report.summary()
    );
    let s = &report.metrics;
    assert_eq!(s.counter("submitted"), report.requests as u64);
    assert_eq!(s.counter("overloaded"), report.overloaded as u64);
    // Fast completions split between worker passes and cache serves; the
    // sum must equal what clients tallied (also enforced per-outcome by
    // `violations()` above).
    let served_fast = s
        .family("cache_served")
        .iter()
        .find(|(l, _)| l == "fast")
        .map_or(0, |(_, n)| *n);
    assert_eq!(
        s.counter("optimized_fast") + served_fast,
        report.optimized_fast as u64
    );
    assert_eq!(s.counter("caught_panics"), report.caught_panics as u64);
    // The cache books tie out: hits all came from somewhere.
    assert_eq!(
        s.counter("cache_hits"),
        s.family("cache_served")
            .iter()
            .map(|(_, n)| *n)
            .sum::<u64>()
    );
    // The fault lanes made the fast engine fail at least once, and the
    // engine lanes attributed real work to the per-rule families.
    assert!(s.counter("rung_failures") > 0, "{}", report.summary());
    assert!(s.counter("engine_visits") > 0, "{}", report.summary());
    let fired: u64 = s.family("rules_fired").iter().map(|(_, n)| *n).sum();
    let attempted: u64 = s.family("rules_attempted").iter().map(|(_, n)| *n).sum();
    assert!(fired > 0 && attempted > 0, "{}", report.summary());
    // The interner's own high-water mark dominates the after-request
    // samples the service takes.
    assert!(s.gauge("arena_peak") >= report.peak_arena_nodes as u64);
    // The discrimination-tree shape gauges were populated from the worker
    // engines' index: a 500+-rule catalog makes a tree with thousands of
    // nodes, real depth, and at least one metavariable edge.
    assert!(s.gauge("index_tree_nodes") > 500, "{}", report.summary());
    assert!(s.gauge("index_tree_max_depth") >= 4);
    assert!(s.gauge("index_tree_edges") >= s.gauge("index_tree_wildcard_edges"));
    assert!(s.gauge("index_tree_wildcard_edges") > 0);
    assert!(s.gauge("index_tree_mean_fanout_milli") >= 1000);

    // Trace replay: traces were recorded and every one still in the ring
    // re-executed byte-for-byte on the reference engine (enforced by
    // `violations()` above; assert the lane actually fired).
    assert!(report.traces_recorded > 0, "{}", report.summary());
    assert!(report.traces_replayed > 0, "{}", report.summary());
    assert_eq!(report.traces_divergent, 0, "{}", report.summary());
}
