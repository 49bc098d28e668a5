//! Differential testing of the fast engine stack (hash-consed terms,
//! discrimination-tree rule index, normalization memo) against the boxed
//! reference engine: identical normal forms, derivations, reports and rule
//! tallies on a governed fuzz corpus — plus the perf-stack regression
//! guarantees (O(changed-subtree) step cost, quarantine reaching the index,
//! active-rule-mask subsets).
//!
//! Structure: `naive ≡ interned linear scan ≡ tree-indexed` — the boxed
//! engine is ground truth and the tree is the production dispatcher.

use kola::term::{Func, Pred, Query};
use kola_exec::rng::Rng;
use kola_rewrite::fault::{FaultKind, FaultSpec, StepSelector};
use kola_rewrite::{Budget, Catalog, Engine, EngineConfig, FaultPlan, Oriented, PropDb, Rewritten};
use std::sync::Arc;

/// Same untyped-garbage generator family as `tests/robustness.rs`.
fn arb_func(rng: &mut Rng, depth: usize) -> Func {
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0..13u32) {
            0 => Func::Id,
            1 => Func::Pi1,
            2 => Func::Pi2,
            3 => Func::Flat,
            4 => Func::Bagify,
            5 => Func::Dedup,
            6 => Func::BUnion,
            7 => Func::BFlat,
            8 => Func::SetUnion,
            9 => Func::SetIntersect,
            10 => Func::SetDiff,
            11 => {
                let names = ["age", "addr", "city", "name", "child", "zz"];
                Func::Prim(Arc::from(names[rng.gen_range(0..names.len())]))
            }
            _ => Func::ConstF(Box::new(Query::Lit(kola::Value::Int(rng.gen::<i64>())))),
        };
    }
    match rng.gen_range(0..9u32) {
        0 => Func::Compose(
            Box::new(arb_func(rng, depth - 1)),
            Box::new(arb_func(rng, depth - 1)),
        ),
        1 => Func::PairWith(
            Box::new(arb_func(rng, depth - 1)),
            Box::new(arb_func(rng, depth - 1)),
        ),
        2 => Func::Times(
            Box::new(arb_func(rng, depth - 1)),
            Box::new(arb_func(rng, depth - 1)),
        ),
        3 => Func::Iterate(
            Box::new(arb_pred_leaf(rng)),
            Box::new(arb_func(rng, depth - 1)),
        ),
        4 => Func::Iter(
            Box::new(arb_pred_leaf(rng)),
            Box::new(arb_func(rng, depth - 1)),
        ),
        5 => Func::Join(
            Box::new(arb_pred_leaf(rng)),
            Box::new(arb_func(rng, depth - 1)),
        ),
        6 => Func::BIterate(
            Box::new(arb_pred_leaf(rng)),
            Box::new(arb_func(rng, depth - 1)),
        ),
        7 => Func::Nest(
            Box::new(arb_func(rng, depth - 1)),
            Box::new(arb_func(rng, depth - 1)),
        ),
        _ => Func::Unnest(
            Box::new(arb_func(rng, depth - 1)),
            Box::new(arb_func(rng, depth - 1)),
        ),
    }
}

fn arb_pred_leaf(rng: &mut Rng) -> Pred {
    match rng.gen_range(0..5u32) {
        0 => Pred::Eq,
        1 => Pred::Lt,
        2 => Pred::Gt,
        3 => Pred::In,
        _ => Pred::ConstP(rng.gen::<bool>()),
    }
}

fn arb_query(rng: &mut Rng, depth: usize) -> Query {
    let f = arb_func(rng, depth);
    let base = Query::App(f, Box::new(Query::Extent(Arc::from("P"))));
    if rng.gen_bool(0.3) {
        let g = arb_func(rng, depth.saturating_sub(2));
        Query::PairQ(
            Box::new(base),
            Box::new(Query::App(g, Box::new(Query::Extent(Arc::from("Q"))))),
        )
    } else {
        base
    }
}

/// A mixed-level rule pool: func/pred/query rules, a backward orientation,
/// and a backward orientation of a one-way rule (which must stay inert).
fn rule_pool(catalog: &Catalog) -> Vec<Oriented<'_>> {
    let fwd = [
        "1", "2", "4", "8", "9", "10", "11", "12", // func level
        "3", "5", "6", "7", "13", "14", "e41", "e42", // pred level
        "app", "e121", "e176", "e177", "e179", // query level
    ];
    let mut rules: Vec<Oriented> = fwd
        .iter()
        .map(|id| Oriented::fwd(catalog.get(id).unwrap()))
        .collect();
    rules.push(Oriented::bwd(catalog.get("14").unwrap()));
    rules.push(Oriented::bwd(catalog.get("e120").unwrap())); // one-way
    rules
}

fn assert_same(seed: u64, label: &str, fast: &Rewritten, naive: &Rewritten) {
    assert_eq!(
        fast.query, naive.query,
        "seed {seed} [{label}]: normal form"
    );
    assert_eq!(
        fast.report.steps, naive.report.steps,
        "seed {seed} [{label}]: steps"
    );
    assert_eq!(
        fast.report.stop, naive.report.stop,
        "seed {seed} [{label}]: stop reason"
    );
    assert_eq!(
        fast.report.rule_stats, naive.report.rule_stats,
        "seed {seed} [{label}]: rule tallies"
    );
    assert_eq!(
        fast.trace.justifications(),
        naive.trace.justifications(),
        "seed {seed} [{label}]: derivation"
    );
    assert_eq!(
        fast.report.quarantined, naive.report.quarantined,
        "seed {seed} [{label}]: quarantine"
    );
    assert_eq!(
        fast.report.depth_clipped, naive.report.depth_clipped,
        "seed {seed} [{label}]: depth clip"
    );
}

#[test]
fn fast_engine_parity_on_fuzz_corpus() {
    // ≥1000 generated terms through every layer combination vs. the boxed
    // engine. The fast engines are shared across seeds, so interner, normal
    // marks and memo accumulate — exactly the long-lived usage pattern.
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules = rule_pool(&catalog);
    let budget = Budget::with_steps(12).depth(40).term_size(4_096);

    let mut interned = Engine::new(rules.clone(), &props, EngineConfig::interned_only());
    let mut indexed = Engine::new(rules.clone(), &props, EngineConfig::indexed());
    let mut fast = Engine::new(rules.clone(), &props, EngineConfig::fast());

    for seed in 0..1_000u64 {
        let mut rng = Rng::seed_from_u64(0xC0FFEE ^ seed);
        let q = arb_query(&mut rng, 5);
        let naive =
            kola_rewrite::rewrite_fix_with(&rules, &q, &props, &budget, &FaultPlan::default());
        assert_same(seed, "interned", &interned.normalize(&q, &budget), &naive);
        assert_same(
            seed,
            "tree-indexed",
            &indexed.normalize(&q, &budget),
            &naive,
        );
        assert_same(seed, "memoized", &fast.normalize(&q, &budget), &naive);
    }
}

#[test]
fn memo_replay_is_identical_and_hits() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules = rule_pool(&catalog);
    let budget = Budget::with_steps(12).depth(40).term_size(4_096);
    let mut fast = Engine::new(rules.clone(), &props, EngineConfig::fast());

    for seed in 0..200u64 {
        let mut rng = Rng::seed_from_u64(0xBEEF ^ seed);
        let q = arb_query(&mut rng, 5);
        let first = fast.normalize(&q, &budget);
        let replay = fast.normalize(&q, &budget);
        assert_same(seed, "replay", &replay, &first);
    }
    assert!(
        fast.memo_hits() > 0,
        "repeat normalizations never hit the memo"
    );
}

#[test]
fn fast_engine_parity_under_fault_injection() {
    // Fault plans must behave identically in both engines: injected
    // failures, oversize rejections, and the resulting quarantines.
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules = rule_pool(&catalog);
    let budget = Budget::with_steps(12)
        .depth(40)
        .term_size(2_048)
        .quarantine_after(2);
    let faults = FaultPlan::new()
        .with(FaultSpec {
            rule_id: "2".into(),
            at: StepSelector::EveryNth(2),
            kind: FaultKind::Fail,
        })
        .with(FaultSpec {
            rule_id: "app".into(),
            at: StepSelector::Steps(vec![1, 3]),
            kind: FaultKind::Oversize(3_000),
        });

    for seed in 0..150u64 {
        let mut rng = Rng::seed_from_u64(0xFA17 ^ seed);
        let q = arb_query(&mut rng, 5);
        let naive = kola_rewrite::rewrite_fix_with(&rules, &q, &props, &budget, &faults);
        // A fresh engine per seed: fault plans make runs unclean, so
        // nothing may be cached from them anyway — but keep the test honest.
        let mut fast = Engine::new(rules.clone(), &props, EngineConfig::fast());
        let got = fast.normalize_with(&q, &budget, &faults);
        assert_same(seed, "faulted-tree", &got, &naive);
        assert_eq!(
            got.report.failures, naive.report.failures,
            "seed {seed}: failure messages"
        );
    }
}

#[test]
fn step_cost_is_changed_subtree_not_whole_term() {
    // A ~2000-node already-normal sibling next to a 50-redex chain: the
    // naive engine re-scans the sibling on every step; the fast engine's
    // normal-subtree marks and cached sizes make each step O(changed
    // subtree). `work()` counts node visits plus interner constructions.
    fn big_normal(depth: usize) -> Func {
        if depth == 0 {
            Func::Prim(Arc::from("age"))
        } else {
            Func::PairWith(
                Box::new(big_normal(depth - 1)),
                Box::new(big_normal(depth - 1)),
            )
        }
    }
    let mut chain = Func::Prim(Arc::from("age"));
    for _ in 0..50 {
        chain = Func::Compose(Box::new(Func::Id), Box::new(chain));
    }
    let q = Query::PairQ(
        Box::new(Query::App(
            big_normal(10), // 2^11 - 1 = 2047 nodes
            Box::new(Query::Extent(Arc::from("P"))),
        )),
        Box::new(Query::App(chain, Box::new(Query::Extent(Arc::from("Q"))))),
    );

    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules: Vec<Oriented> = ["1", "2"]
        .iter()
        .map(|id| Oriented::fwd(catalog.get(id).unwrap()))
        .collect();
    let budget = Budget::with_steps(500);

    let naive = kola_rewrite::rewrite_fix_governed(&rules, &q, &props, &budget);
    let mut fast = Engine::new(rules.clone(), &props, EngineConfig::fast());
    let got = fast.normalize(&q, &budget);
    assert_same(0, "2000-node", &got, &naive);
    assert_eq!(got.report.steps, 50);

    // Interning the input costs ~2100 constructions and the first scan
    // ~2100 visits; every subsequent step must only touch the redex path.
    // The naive equivalent would be 50 steps × ~2100 nodes ≳ 100_000.
    let work = fast.work();
    assert!(
        work < 12_000,
        "step cost scales with whole term, not changed subtree: work = {work}"
    );
}

#[test]
fn quarantine_prunes_rule_index() {
    // A rule that always fails gets quarantined; from the next step on it
    // must not even be *consulted* via the index. The discrimination tree
    // is never edited: the candidate scan skips the quarantined rule, and
    // the quarantine ends with the run.
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules: Vec<Oriented> = ["9", "2"]
        .iter()
        .map(|id| Oriented::fwd(catalog.get(id).unwrap()))
        .collect();
    let faults = FaultPlan::new().with(FaultSpec {
        rule_id: "9".into(),
        at: StepSelector::Always,
        kind: FaultKind::Fail,
    });
    let budget = Budget::with_steps(100).quarantine_after(1);

    // pi1 . (age, city) . id . id . id . age — rule 9 matches at the root
    // window (and faults); rule 2 then strips the ids one step at a time.
    let f = kola::parse::parse_func("pi1 . (age, city) . id . id . id . age").unwrap();
    let q = Query::App(f, Box::new(Query::Extent(Arc::from("P"))));

    let naive = kola_rewrite::rewrite_fix_with(&rules, &q, &props, &budget, &faults);
    let mut fast = Engine::new(rules.clone(), &props, EngineConfig::indexed());
    let got = fast.normalize_with(&q, &budget, &faults);
    assert_same(0, "tree", &got, &naive);

    assert_eq!(got.report.quarantined, vec!["9".to_string()]);
    assert!(
        got.report.steps >= 3,
        "rule 2 kept rewriting after quarantine"
    );
    assert_eq!(
        fast.consult_count("9"),
        1,
        "quarantined rule was consulted again via the index"
    );

    // Nothing of the quarantine outlives its run: the next run, and the
    // run after a cache reset, equal a fresh engine's byte for byte, with
    // and without the fault.
    for plan in [&faults, &FaultPlan::default()] {
        let want = Engine::new(rules.clone(), &props, EngineConfig::indexed())
            .normalize_with(&q, &budget, plan);
        let next = fast.normalize_with(&q, &budget, plan);
        assert_eq!(format!("{next:?}"), format!("{want:?}"), "next run");
        fast.reset_caches();
        let after_reset = fast.normalize_with(&q, &budget, plan);
        assert_eq!(
            format!("{after_reset:?}"),
            format!("{want:?}"),
            "after reset"
        );
    }
}

#[test]
fn active_rule_mask_subsets_agree_across_all_indexes() {
    // PR 4's per-tenant active-rule masks: an engine with rules disabled
    // via `set_disabled` must behave exactly like a naive run over the
    // filtered pool — under the tree and the linear scan, across many mask
    // subsets.
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules = rule_pool(&catalog);
    let budget = Budget::with_steps(12).depth(40).term_size(4_096);

    let masks: [&[&str]; 4] = [
        &["app"],
        &["2", "14"],
        &["e121", "9", "11", "e41"],
        &["1", "2", "3", "5", "6", "7", "10", "12", "13"],
    ];

    let mut tree = Engine::new(rules.clone(), &props, EngineConfig::indexed());
    let mut scan = Engine::new(rules.clone(), &props, EngineConfig::interned_only());

    for (m, mask) in masks.iter().enumerate() {
        let disabled: Vec<String> = mask.iter().map(|s| s.to_string()).collect();
        let filtered: Vec<Oriented> = rules
            .iter()
            .filter(|o| !mask.contains(&o.rule.id.as_str()))
            .cloned()
            .collect();
        tree.set_disabled(&disabled);
        scan.set_disabled(&disabled);

        for seed in 0..100u64 {
            let mut rng = Rng::seed_from_u64(0x3A5C ^ (m as u64) << 32 ^ seed);
            let q = arb_query(&mut rng, 5);
            let naive = kola_rewrite::rewrite_fix_with(
                &filtered,
                &q,
                &props,
                &budget,
                &FaultPlan::default(),
            );
            assert_same(seed, "mask-tree", &tree.normalize(&q, &budget), &naive);
            assert_same(seed, "mask-scan", &scan.normalize(&q, &budget), &naive);
        }
    }
}

#[test]
fn step_cost_stays_changed_subtree_under_a_mask() {
    // The term of `step_cost_is_changed_subtree_not_whole_term`, run
    // with an extra rule masked out: marks proven under the mask must
    // still make each step O(changed subtree), not a rescan of the
    // 2047-node sibling.
    fn big_normal(depth: usize) -> Func {
        if depth == 0 {
            Func::Prim(Arc::from("age"))
        } else {
            Func::PairWith(
                Box::new(big_normal(depth - 1)),
                Box::new(big_normal(depth - 1)),
            )
        }
    }
    let mut chain = Func::Prim(Arc::from("age"));
    for _ in 0..50 {
        chain = Func::Compose(Box::new(Func::Id), Box::new(chain));
    }
    let q = Query::PairQ(
        Box::new(Query::App(
            big_normal(10),
            Box::new(Query::Extent(Arc::from("P"))),
        )),
        Box::new(Query::App(chain, Box::new(Query::Extent(Arc::from("Q"))))),
    );

    let catalog = Catalog::paper();
    let props = PropDb::new();
    let active: Vec<Oriented> = ["1", "2"]
        .iter()
        .map(|id| Oriented::fwd(catalog.get(id).unwrap()))
        .collect();
    let mut rules = active.clone();
    rules.push(Oriented::fwd(catalog.get("4").unwrap()));
    let budget = Budget::with_steps(500);

    let naive = kola_rewrite::rewrite_fix_governed(&active, &q, &props, &budget);
    let mut fast = Engine::new(rules, &props, EngineConfig::fast());
    fast.set_disabled(&["4".to_string()]);
    let got = fast.normalize(&q, &budget);
    assert_same(0, "masked 2000-node", &got, &naive);
    assert_eq!(got.report.steps, 50);
    let work = fast.work();
    assert!(
        work < 12_000,
        "masked step cost scales with whole term, not changed subtree: work = {work}"
    );
}

#[test]
fn interleaved_masks_never_leak_marks_or_memo_between_masks() {
    // One persistent engine per configuration sees each query under a
    // rotating sequence of masks, each twice in a row (so what the first
    // run recorded is on offer to the second) and each mask more than
    // once (so what an earlier mask recorded is on offer to a later one).
    // Every answer must equal a naive run over exactly the active subset.
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules = rule_pool(&catalog);
    let budget = Budget::with_steps(12).depth(40).term_size(4_096);
    let masks: [&[&str]; 6] = [
        &["app"],
        &[],
        &["2", "14"],
        &["app"],
        &["1", "2", "3", "5", "6", "7", "10", "12", "13"],
        &[],
    ];
    let naive_under = |mask: &[&str], q: &Query| {
        let filtered: Vec<Oriented> = rules
            .iter()
            .filter(|o| !mask.contains(&o.rule.id.as_str()))
            .cloned()
            .collect();
        kola_rewrite::rewrite_fix_with(&filtered, q, &props, &budget, &FaultPlan::default())
    };
    let mut fast = Engine::new(rules.clone(), &props, EngineConfig::fast());
    let mut tree = Engine::new(rules.clone(), &props, EngineConfig::indexed());
    for seed in 0..150u64 {
        let mut rng = Rng::seed_from_u64(0x1EA4 ^ seed);
        let q = arb_query(&mut rng, 5);
        for mask in masks {
            let disabled: Vec<String> = mask.iter().map(|s| s.to_string()).collect();
            let naive = naive_under(mask, &q);
            fast.set_disabled(&disabled);
            tree.set_disabled(&disabled);
            for _ in 0..2 {
                assert_same(
                    seed,
                    "interleaved-fast",
                    &fast.normalize(&q, &budget),
                    &naive,
                );
                assert_same(
                    seed,
                    "interleaved-tree",
                    &tree.normalize(&q, &budget),
                    &naive,
                );
            }
        }
    }
}
