//! Differential parity: the sharded [`Breaker`] against the original
//! single-lock [`GlobalBreaker`] it replaced.
//!
//! The sharded breaker's contract is that sharding is *invisible*: for any
//! serial charge/reset stream — whatever shard each charge lands on — every
//! observable surface (charge return values, trip counts, open sets,
//! first/last request ids, generation and odometers, `QuarantineReport`s)
//! is byte-identical to the single-lock implementation's. These tests
//! drive seeded random streams through both and compare after every
//! operation, plus targeted cases for the edges that matter: a trip landing
//! exactly at the threshold, and operator resets racing concurrent charges.

use kola_exec::rng::{splitmix64, Rng};
use kola_service::Breaker;

#[path = "support/global_breaker.rs"]
mod global_breaker;
use global_breaker::GlobalBreaker;

/// The registered rule universe. A service registers every catalog rule
/// and charges only those, so the streams do too; ids outside the set are
/// refused (see the concurrent test below), which the spec has no notion
/// of.
const REGISTERED: [&str; 5] = ["app", "9", "11", "e121", "comp"];

fn compare_surfaces(sharded: &Breaker, global: &GlobalBreaker, seed: u64, op: usize) {
    let ctx = format!("seed {seed}, after op {op}");
    for rule in REGISTERED {
        assert_eq!(
            sharded.is_open(rule),
            global.is_open(rule),
            "is_open({rule}) diverged ({ctx})"
        );
        assert_eq!(
            sharded.entry(rule),
            global.entry(rule),
            "entry({rule}) diverged ({ctx})"
        );
    }
    assert_eq!(
        sharded.open_rules(),
        global.open_rules(),
        "open_rules diverged ({ctx})"
    );
    assert_eq!(
        sharded.snapshot(),
        global.snapshot(),
        "snapshot diverged ({ctx})"
    );
    assert_eq!(sharded.report(), global.report(), "report diverged ({ctx})");
    assert_eq!(
        sharded.generation(),
        global.generation(),
        "generation diverged ({ctx})"
    );
    assert_eq!(
        (sharded.opened_total(), sharded.reset_total()),
        (global.opened_total(), global.reset_total()),
        "odometers diverged ({ctx})"
    );
}

/// One seeded serial stream: random charges (single and batched, from
/// random shards), random operator resets, compared op by op.
fn drive_stream(seed: u64, threshold: usize, shards: usize, ops: usize) {
    let sharded = Breaker::sharded(threshold, shards, REGISTERED);
    let global = GlobalBreaker::new(threshold);
    let mut rng = Rng::seed_from_u64(seed);
    for op in 0..ops {
        let request_id = op as u64;
        let roll = rng.gen_range(0..100usize);
        if roll < 70 {
            // Single charge from a random worker shard.
            let rule = REGISTERED[rng.gen_range(0..REGISTERED.len())];
            let shard = rng.gen_range(0..shards);
            assert_eq!(
                sharded.charge_from(shard, rule, request_id),
                global.charge(rule, request_id),
                "charge({rule}, {request_id}) via shard {shard} diverged (seed {seed})"
            );
        } else if roll < 85 {
            // Batched charge: the worker's one-call-per-failed-request
            // entry point, mirrored as individual charges on the spec.
            let shard = rng.gen_range(0..shards);
            let count = 1 + rng.gen_range(0..3usize);
            let start = rng.gen_range(0..REGISTERED.len());
            let batch: Vec<&str> = (0..count)
                .map(|k| REGISTERED[(start + k) % REGISTERED.len()])
                .collect();
            sharded.charge_many(shard, batch.iter().copied(), request_id);
            for rule in &batch {
                global.charge(rule, request_id);
            }
        } else {
            // Operator reset — sometimes of a rule with no state at all.
            let rule = REGISTERED[rng.gen_range(0..REGISTERED.len())];
            assert_eq!(
                sharded.reset(rule),
                global.reset(rule),
                "reset({rule}) diverged (seed {seed}, op {op})"
            );
        }
        compare_surfaces(&sharded, &global, seed, op);
    }
}

#[test]
fn seeded_streams_are_byte_identical_across_implementations() {
    let mut master = 0xB12A_4E5Eu64;
    for i in 0..500u64 {
        let seed = splitmix64(&mut master) ^ i;
        let mut rng = Rng::seed_from_u64(seed);
        // Vary the shape too: thresholds small enough to trip often,
        // shard counts from degenerate (1) to more-than-workers.
        let threshold = 1 + rng.gen_range(0..5usize);
        let shards = 1 + rng.gen_range(0..8usize);
        drive_stream(seed, threshold, shards, 60);
    }
}

#[test]
fn trip_lands_exactly_at_threshold() {
    for threshold in [1usize, 2, 3, 7] {
        let sharded = Breaker::sharded(threshold, 4, REGISTERED);
        let global = GlobalBreaker::new(threshold);
        // threshold - 1 charges, spread round-robin across shards: both
        // stay closed with identical accumulating entries.
        for i in 0..threshold - 1 {
            assert!(!sharded.charge_from(i % 4, "app", i as u64));
            assert!(!global.charge("app", i as u64));
            compare_surfaces(&sharded, &global, threshold as u64, i);
        }
        // The threshold-th charge trips both, with trips == threshold
        // exactly (not one more) in the quarantine report.
        let last = (threshold - 1) as u64;
        assert!(sharded.charge_from(threshold % 4, "app", last));
        assert!(global.charge("app", last));
        compare_surfaces(&sharded, &global, threshold as u64, threshold);
        let report = sharded.report();
        assert_eq!(report.entries.len(), 1);
        assert_eq!(report.entries[0].trips, threshold);
        assert_eq!(report.entries[0].first_failure, Some(0));
        assert_eq!(report.entries[0].last_failure, Some(last as usize));
    }
}

#[test]
fn unregistered_ids_are_refused_amid_concurrent_charge_many_from_every_shard() {
    // Batch charges that mix registered slots with two ids the breaker
    // never registered, from every worker shard concurrently. The
    // registered slots lose nothing — exact trip counts, exactly one
    // opening each — and the unregistered ids are refused: no entry, never
    // open, no generation bump.
    const THREADS: usize = 8;
    const OPS: u64 = 400;
    const BATCH: [&str; 4] = ["app", "ghost-a", "e121", "ghost-b"];
    let breaker = Breaker::sharded(5, THREADS, REGISTERED);
    std::thread::scope(|scope| {
        for shard in 0..THREADS {
            let breaker = &breaker;
            scope.spawn(move || {
                for op in 0..OPS {
                    breaker.charge_many(shard, BATCH, (shard as u64) << 32 | op);
                }
            });
        }
    });
    let expected = THREADS * OPS as usize;
    for rule in ["app", "e121"] {
        let e = breaker
            .entry(rule)
            .expect("every charged rule has an entry");
        assert_eq!(e.trips, expected, "{rule}: charges were lost");
        assert!(e.open, "{rule}: threshold 5 was crossed {expected} times");
        assert!(breaker.is_open(rule));
        assert!(e.first_request.is_some() && e.last_request.is_some());
    }
    for ghost in ["ghost-a", "ghost-b"] {
        assert!(breaker.entry(ghost).is_none(), "{ghost} was recorded");
        assert!(!breaker.is_open(ghost));
        assert!(!breaker.reset(ghost), "{ghost} had state to reset");
    }
    // Each registered rule opened exactly once, no reopenings, and every
    // generation bump is one of those openings.
    assert_eq!(breaker.open_rules(), vec!["app", "e121"]);
    assert_eq!(breaker.opened_total(), 2);
    assert_eq!(breaker.reset_total(), 0);
    assert_eq!(breaker.generation(), 2);
}

#[test]
fn breaker_trip_and_reset_keep_tree_engine_parity() {
    // The full trip lifecycle as the service drives it: a faulting rule is
    // quarantined mid-run (the engine prunes it from its rule index *in
    // place* — journaled accept-list removal on the discrimination tree,
    // not a rebuild), the quarantine report charges the breaker, the open
    // set becomes the next snapshot's disabled mask (`set_disabled`), and an
    // operator reset readmits the rule. At every phase, the tree-indexed
    // engine must agree with a naive run over the equivalent filtered pool.
    use kola::term::Query;
    use kola_rewrite::fault::{FaultKind, FaultSpec, StepSelector};
    use kola_rewrite::{Budget, Catalog, Engine, EngineConfig, FaultPlan, Oriented, PropDb};
    use std::sync::Arc;

    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules: Vec<Oriented> = ["9", "2"]
        .iter()
        .map(|id| Oriented::fwd(catalog.get(id).unwrap()))
        .collect();
    let budget = Budget::with_steps(100).quarantine_after(1);
    let faults = FaultPlan::new().with(FaultSpec {
        rule_id: "9".into(),
        at: StepSelector::Always,
        kind: FaultKind::Fail,
    });
    let f = kola::parse::parse_func("pi1 . (age, city) . id . id . age").unwrap();
    let q = Query::App(f, Box::new(Query::Extent(Arc::from("P"))));

    let breaker = Breaker::sharded(1, 2, ["9", "2"]);
    let mut tree = Engine::new(rules.clone(), &props, EngineConfig::indexed());

    let same = |label: &str, got: &kola_rewrite::Rewritten, want: &kola_rewrite::Rewritten| {
        assert_eq!(got.query, want.query, "[{label}] normal form");
        assert_eq!(got.report.steps, want.report.steps, "[{label}] steps");
        assert_eq!(
            got.report.rule_stats, want.report.rule_stats,
            "[{label}] rule tallies"
        );
        assert_eq!(
            got.trace.justifications(),
            want.trace.justifications(),
            "[{label}] derivation"
        );
    };

    // Phase 1 — trip: the faulting rule is quarantined mid-run and pruned
    // from the live index without a rebuild.
    let naive = kola_rewrite::rewrite_fix_with(&rules, &q, &props, &budget, &faults);
    let got_tree = tree.normalize_with(&q, &budget, &faults);
    same("trip/tree", &got_tree, &naive);
    assert_eq!(got_tree.report.quarantined, vec!["9".to_string()]);
    assert!(
        !tree.index_contains("9"),
        "tree still serves the quarantined rule"
    );

    // The worker charges the breaker once per quarantined rule.
    for rule in &got_tree.report.quarantined {
        assert!(breaker.charge_from(0, rule, 1), "threshold 1 must trip");
    }
    assert!(breaker.is_open("9"));

    // Phase 2 — open: the breaker's open set becomes the snapshot's
    // disabled mask. Engines must match a naive run over the filtered
    // pool, and the tree must have *restored* its pruned accepts at the
    // start of the run — masking, not eviction, hides tripped rules across
    // requests.
    let disabled = breaker.open_rules();
    let filtered: Vec<Oriented> = rules
        .iter()
        .filter(|o| !disabled.contains(&o.rule.id))
        .cloned()
        .collect();
    tree.set_disabled(&disabled);
    let naive =
        kola_rewrite::rewrite_fix_with(&filtered, &q, &props, &budget, &FaultPlan::default());
    same("open/tree", &tree.normalize(&q, &budget), &naive);
    assert!(
        tree.index_contains("9"),
        "after a clean run the journaled prune must be restored"
    );

    // Phase 3 — reset: the operator readmits the rule; an empty mask
    // serves the full pool again, fault-free.
    assert!(breaker.reset("9"));
    tree.set_disabled(&breaker.open_rules());
    let naive = kola_rewrite::rewrite_fix_with(&rules, &q, &props, &budget, &FaultPlan::default());
    same("reset/tree", &tree.normalize(&q, &budget), &naive);
    assert!(
        naive
            .report
            .rule_stats
            .iter()
            .any(|(id, s)| id == "9" && s.fired > 0),
        "rule 9 must actually fire again after readmission"
    );
}

#[test]
fn operator_resets_race_concurrent_charges_without_losing_coherence() {
    // True races cannot be compared against a serial spec; what must hold
    // on the sharded breaker regardless of interleaving:
    //   - no charge or reset panics or wedges,
    //   - generation == opened_total + reset_total at quiescence (every
    //     served-set transition is exactly one of the two),
    //   - a final reset sweep leaves no open rules and no entries.
    let breaker = Breaker::sharded(3, 4, REGISTERED);
    std::thread::scope(|scope| {
        for worker in 0..4usize {
            let breaker = &breaker;
            scope.spawn(move || {
                let mut rng = Rng::seed_from_u64(0xDEAD ^ worker as u64);
                for op in 0..2_000u64 {
                    let rule = REGISTERED[rng.gen_range(0..REGISTERED.len())];
                    breaker.charge_from(worker, rule, (worker as u64) << 32 | op);
                }
            });
        }
        // The operator: reset whatever looks open, while charges fly.
        let breaker = &breaker;
        scope.spawn(move || {
            for _ in 0..200 {
                for rule in breaker.open_rules() {
                    breaker.reset(&rule);
                }
                std::thread::yield_now();
            }
        });
    });
    assert_eq!(
        breaker.generation(),
        breaker.opened_total() + breaker.reset_total(),
        "every generation bump must be exactly one opening or one readmission"
    );
    for rule in REGISTERED {
        breaker.reset(rule);
    }
    assert!(breaker.open_rules().is_empty());
    assert!(breaker.snapshot().is_empty());
    assert_eq!(
        breaker.generation(),
        breaker.opened_total() + breaker.reset_total()
    );
}
