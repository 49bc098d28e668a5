//! Long-lived engine correctness: full-rule-set caches and bounded arenas.
//!
//! A service worker keeps one [`Engine`] alive across many requests and
//! many rule masks (breaker trips and resets, tenants with different open
//! breakers). These tests pin the two properties that reuse must preserve:
//!
//! 1. **Parity across masks** — a persistent engine masking rules via
//!    [`Engine::set_disabled`] answers byte-for-byte like a fresh engine
//!    built over just the active subset, and a memo entry is never
//!    replayed under a mask that disables a rule its derivation fired,
//!    nor one recorded under a mask after that mask is gone.
//! 2. **Bounded arena** — a thousand sequential requests through one
//!    engine leave the intern arena bounded by the compaction cap plus a
//!    fixed multiple of the largest single request, not by the request
//!    count.

use kola::term::{Func, Query};
use kola_rewrite::{Budget, Catalog, Engine, EngineConfig, Oriented, PropDb};
use std::sync::Arc;

fn tower(height: usize, leaf: &str) -> Query {
    let mut f = Func::Prim(Arc::from(leaf));
    for _ in 0..height {
        f = Func::Compose(Box::new(Func::Id), Box::new(f));
    }
    Query::App(f, Box::new(Query::Extent(Arc::from("P"))))
}

#[test]
fn masks_never_replay_memo_across_rule_set_swaps() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let budget = Budget::default();
    let q = tower(6, "age");

    // The persistent engine: full catalog, disabled rules masked per run.
    let rules: Vec<Oriented<'_>> = catalog.rules().iter().map(Oriented::fwd).collect();
    let mut engine = Engine::new(rules, &props, EngineConfig::fast());

    // Fresh engines to compare against, built over exactly the rule
    // subset each mask serves.
    let run_fresh = |drop_id: Option<&str>| {
        let subset: Vec<Oriented<'_>> = catalog
            .rules()
            .iter()
            .filter(|r| drop_id != Some(r.id.as_str()))
            .map(Oriented::fwd)
            .collect();
        Engine::new(subset, &props, EngineConfig::fast()).normalize(&q, &budget)
    };
    let full = run_fresh(None);
    let reduced = run_fresh(Some("app"));
    assert_ne!(
        full.report.rule_stats, reduced.report.rule_stats,
        "the swap must be observable: \"app\" fires on id-towers"
    );

    // Full set: parity, then a memo replay that must stay exact.
    let r = engine.normalize(&q, &budget);
    assert_eq!(r.query, full.query);
    assert_eq!(r.report, full.report);
    let replay = engine.normalize(&q, &budget);
    assert_eq!(replay.query, full.query);
    assert_eq!(replay.report, full.report);

    // "app" masked: the full-set memo entry (whose derivation fired "app")
    // must not be replayed, and the masked engine must match a fresh
    // engine built over the subset — including consult-order-sensitive
    // rule_stats, i.e. the mask is equivalent to an index over the subset.
    engine.set_disabled(&["app".to_string()]);
    let r = engine.normalize(&q, &budget);
    assert_eq!(r.query, reduced.query);
    assert_eq!(r.report, reduced.report);
    assert!(!r.report.rule_stats.contains_key("app"));

    // Full set again: nothing the masked run saw may leak back either.
    engine.set_disabled(&[]);
    let r = engine.normalize(&q, &budget);
    assert_eq!(r.query, full.query);
    assert_eq!(r.report, full.report);
}

#[test]
fn masked_memo_replays_only_derivations_valid_under_the_mask() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let budget = Budget::default();
    let q = tower(6, "age");
    let rules: Vec<Oriented<'_>> = catalog.rules().iter().map(Oriented::fwd).collect();
    let mut engine = Engine::new(rules, &props, EngineConfig::fast());
    let fresh_without = |id: &str| {
        let subset: Vec<Oriented<'_>> = catalog
            .rules()
            .iter()
            .filter(|r| r.id != id)
            .map(Oriented::fwd)
            .collect();
        Engine::new(subset, &props, EngineConfig::fast()).normalize(&q, &budget)
    };

    // Recorded under the full set; its derivation fires "app".
    let full = engine.normalize(&q, &budget);
    assert!(full.report.rule_stats.contains_key("app"));
    let unfired = catalog
        .rules()
        .iter()
        .map(|r| r.id.clone())
        .find(|id| !full.report.rule_stats.contains_key(id))
        .expect("some rule never fires on an id-tower");

    // Masking a rule the derivation never fired: the entry replays, and
    // the replay is what a fresh engine over that subset derives.
    engine.set_disabled(std::slice::from_ref(&unfired));
    let hits = engine.memo_hits();
    let r = engine.normalize(&q, &budget);
    assert_eq!(
        engine.memo_hits(),
        hits + 1,
        "a compatible entry was refused"
    );
    let subset = fresh_without(&unfired);
    assert_eq!(r.query, subset.query);
    assert_eq!(r.report, subset.report);
    assert_eq!(r.report, full.report);

    // Masking "app": the entry is refused and a live run answers.
    engine.set_disabled(&["app".to_string()]);
    let hits = engine.memo_hits();
    let masked = engine.normalize(&q, &budget);
    assert_eq!(
        engine.memo_hits(),
        hits,
        "replayed a derivation that fired a masked rule"
    );
    let reduced = fresh_without("app");
    assert_eq!(masked.query, reduced.query);
    assert_eq!(masked.report, reduced.report);

    // The masked run recorded its derivation for this mask: a repeat
    // under it replays.
    let r = engine.normalize(&q, &budget);
    assert_eq!(engine.memo_hits(), hits + 1, "a masked repeat ran live");
    assert_eq!(r.report, reduced.report);

    // Another mask drops what the "app" mask recorded: a live run answers
    // as a fresh engine over the new subset.
    engine.set_disabled(std::slice::from_ref(&unfired));
    let r = engine.normalize(&q, &budget);
    assert_eq!(
        engine.memo_hits(),
        hits + 1,
        "replayed a derivation recorded under another mask"
    );
    assert_eq!(r.query, subset.query);
    assert_eq!(r.report, subset.report);

    // The full set never replays what a mask recorded.
    engine.set_disabled(&[]);
    let r = engine.normalize(&q, &budget);
    assert_eq!(
        engine.memo_hits(),
        hits + 1,
        "the full set replayed a masked derivation"
    );
    assert_eq!(r.report, full.report);
}

#[test]
fn persistent_engine_arena_stays_bounded_over_1k_requests() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let budget = Budget::default();
    let config = EngineConfig {
        arena_capacity: 4096,
        ..EngineConfig::fast()
    };

    // Every request uses fresh primitive names, so nothing is shared
    // between requests and the arena would grow linearly without
    // compaction (towers over a common leaf would hash-cons into each
    // other and mask the leak).
    let query = |i: usize| tower(1 + (i * 7) % 40, &format!("p{i}"));

    let rules: Vec<Oriented<'_>> = catalog.rules().iter().map(Oriented::fwd).collect();
    let mut engine = Engine::new(rules, &props, config.clone());
    let mut peak = 0usize;
    let mut max_fresh = 0usize;
    for i in 0..1000 {
        let q = query(i);
        engine.normalize(&q, &budget);
        peak = peak.max(engine.arena_len());
        if 1 + (i * 7) % 40 == 40 {
            // Sample the tallest request shape's arena footprint on a
            // throwaway engine — the worst single-request growth.
            let subset: Vec<Oriented<'_>> = catalog.rules().iter().map(Oriented::fwd).collect();
            let mut fresh = Engine::new(subset, &props, config.clone());
            fresh.normalize(&q, &budget);
            max_fresh = max_fresh.max(fresh.arena_len());
        }
    }
    assert!(
        engine.compactions() > 0,
        "1k disjoint requests over a 4096-node cap must compact (peak {peak})"
    );
    assert!(
        peak <= config.arena_capacity + 4 * max_fresh,
        "arena peaked at {peak} nodes — not bounded by cap {} + 4 × single-request {max_fresh}",
        config.arena_capacity
    );
}
