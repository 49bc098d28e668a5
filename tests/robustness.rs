//! Failure injection: the evaluator, typechecker, parsers and rewrite
//! engine must *never panic* — ill-typed terms get `Err`, garbage input
//! gets parse errors, and rewriting arbitrary (even ill-typed) terms is
//! total. Driven by the vendored deterministic PRNG so every failure
//! reproduces from its seed.

use kola::term::{Func, Pred, Query};
use kola::value::Value;
use kola_exec::rng::Rng;
use std::sync::Arc;

const CASES: u64 = 256;

/// An *untyped* random function generator — deliberately produces ill-typed
/// terms so the error paths get exercised.
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
            _ => Func::ConstF(Box::new(Query::Lit(Value::Int(rng.gen::<i64>())))),
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

fn arb_value(rng: &mut Rng, depth: usize) -> Value {
    if depth == 0 || rng.gen_bool(0.4) {
        return match rng.gen_range(0..4u32) {
            0 => Value::Unit,
            1 => Value::Bool(rng.gen::<bool>()),
            2 => Value::Int(rng.gen::<i64>()),
            _ => {
                let words = ["", "a", "bc", "xyz"];
                Value::str(words[rng.gen_range(0..words.len())])
            }
        };
    }
    if rng.gen_bool(0.5) {
        Value::pair(arb_value(rng, depth - 1), arb_value(rng, depth - 1))
    } else {
        let n = rng.gen_range(0..4usize);
        Value::set(
            (0..n)
                .map(|_| arb_value(rng, depth - 1))
                .collect::<Vec<_>>(),
        )
    }
}

/// Random printable-ASCII garbage for the parser fuzzers.
fn arb_text(rng: &mut Rng, max: usize) -> String {
    let n = rng.gen_range(0..=max);
    (0..n)
        .map(|_| (b' ' + (rng.gen_range(0..95usize) as u8)) as char)
        .collect()
}

#[test]
fn eval_never_panics_on_garbage() {
    let db = kola::Db::new(kola::Schema::paper_schema());
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let f = arb_func(&mut rng, 4);
        let v = arb_value(&mut rng, 3);
        // Err is fine; panic is not.
        let _ = kola::eval_func(&db, &f, &v);
    }
}

#[test]
fn typecheck_never_panics_on_garbage() {
    let env = kola::typecheck::TypeEnv::paper_env();
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let f = arb_func(&mut rng, 4);
        let _ = kola::typecheck::typecheck_func(&env, &f);
    }
}

#[test]
fn printer_total_and_parser_never_panics() {
    // Printing is total; reparsing the print must not panic (it may fail
    // only for unknown primitive *keywords*, but the prims generated here
    // are valid syntax).
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let f = arb_func(&mut rng, 4);
        let s = f.to_string();
        let _ = kola::parse::parse_func(&s);
    }
}

#[test]
fn rewriting_garbage_is_total() {
    // Apply the whole catalog to an arbitrary (likely ill-typed) query:
    // rewriting is syntactic and must neither panic nor loop.
    let catalog = kola_rewrite::Catalog::paper();
    let props = kola_rewrite::PropDb::new();
    let rules: Vec<kola_rewrite::Oriented> = ["1", "2", "3", "4", "9", "10", "11"]
        .iter()
        .map(|id| kola_rewrite::Oriented::fwd(catalog.get(id).unwrap()))
        .collect();
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let f = arb_func(&mut rng, 4);
        let q = Query::App(f, Box::new(Query::Extent(Arc::from("P"))));
        let (_out, trace) = kola_rewrite::rewrite_fix(&rules, &q, &props, 500);
        assert!(trace.steps.len() <= 500, "seed {seed}");
    }
}

#[test]
fn governed_rewriting_of_garbage_respects_tight_budgets() {
    // The PR's acceptance gate: ≥1000 random ill-typed terms through the
    // governed fixpoint driver AND the strategy interpreter under a tight
    // budget. Invariants, for every seed:
    //   - no panic (the loop completing is the assertion),
    //   - the step budget is never exceeded,
    //   - the report's step count equals the derivation length.
    use kola_rewrite::strategy::{repeat, Strategy};
    use kola_rewrite::{Budget, Runner, StopReason};

    let catalog = kola_rewrite::Catalog::paper();
    let props = kola_rewrite::PropDb::new();
    let rules: Vec<kola_rewrite::Oriented> = ["1", "2", "3", "4", "9", "10", "11", "8", "13"]
        .iter()
        .filter_map(|id| catalog.get(id).map(kola_rewrite::Oriented::fwd))
        .collect();
    let budget = Budget::with_steps(7).depth(32).term_size(4_096);
    let strategy = Strategy::Seq(vec![
        repeat(Strategy::ApplyAny(
            ["2", "1", "9", "10"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        )),
        kola_rewrite::strategy::fix(&["3", "4", "11"]),
    ]);

    for seed in 0..1_000u64 {
        let mut rng = Rng::seed_from_u64(0xFEED ^ seed);
        let f = arb_func(&mut rng, 5);
        let q = Query::App(f, Box::new(Query::Extent(Arc::from("P"))));

        let r = kola_rewrite::rewrite_fix_governed(&rules, &q, &props, &budget);
        assert!(
            r.report.steps <= budget.max_steps,
            "seed {seed}: {} steps exceed budget",
            r.report.steps
        );
        assert_eq!(
            r.report.steps,
            r.trace.steps.len(),
            "seed {seed}: report and derivation disagree"
        );
        if r.report.stop == StopReason::BudgetExhausted {
            assert_eq!(r.report.steps, budget.max_steps, "seed {seed}");
        }

        let runner = Runner::new(&catalog, &props).with_budget(budget.clone());
        let mut trace = kola_rewrite::Trace::new();
        let (_, _, report) = runner.run_governed(&strategy, q, &mut trace);
        assert!(
            report.steps <= budget.max_steps,
            "seed {seed}: strategy run overspent ({} steps)",
            report.steps
        );
        assert_eq!(
            report.steps,
            trace.steps.len(),
            "seed {seed}: strategy report and derivation disagree"
        );
    }
}

#[test]
fn parser_never_panics_on_random_text() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let s = arb_text(&mut rng, 60);
        let _ = kola::parse::parse_query(&s);
        let _ = kola::parse::parse_func(&s);
        let _ = kola::parse::parse_pred(&s);
        let _ = kola_frontend::parse_oql(&s);
        let _ = kola_aqua::parse_aqua(&s);
        let _ = kola_coko::parse_program(&s);
    }
}

#[test]
fn executor_agrees_or_both_fail() {
    // On arbitrary terms the op-counting executor and the reference
    // evaluator either both succeed with the same value or both fail.
    let db = kola::Db::new(kola::Schema::paper_schema());
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let f = arb_func(&mut rng, 4);
        let v = arb_value(&mut rng, 3);
        let reference = kola::eval_func(&db, &f, &v);
        let mut ex = kola_exec::Executor::new(&db, kola_exec::Mode::Smart);
        let q = Query::App(f, Box::new(Query::Lit(v)));
        let got = ex.run(&q);
        match (reference, got) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "seed {seed}"),
            (Err(_), Err(_)) => {}
            (a, b) => panic!("seed {seed} disagreement: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn poison_rule_panics_are_caught_and_attributed_by_both_engines() {
    use kola_rewrite::fault::{
        silence_poison_panics, FaultKind, FaultPlan, FaultSpec, StepSelector,
    };
    use kola_rewrite::{Budget, Catalog, Engine, EngineConfig, Oriented, PropDb, StopReason};

    silence_poison_panics();
    let catalog = Catalog::paper();
    let props = PropDb::new();
    // Rule 2 (id ∘ f ≡ f) is the only rule in this list that fires on an
    // id tower, so a Panic fault on rule 2 must unwind from both engines.
    let rules = vec![
        Oriented::fwd(catalog.get("2").unwrap()),
        Oriented::fwd(catalog.get("9").unwrap()),
    ];
    let q = kola::parse::parse_query("id . id . age ! P").unwrap();
    let faults = FaultPlan::new().with(FaultSpec {
        rule_id: "2".into(),
        at: StepSelector::Always,
        kind: FaultKind::Panic,
    });
    let budget = Budget::default();

    let boxed = kola_rewrite::try_rewrite_fix_with(&rules, &q, &props, &budget, &faults);
    let fast = Engine::new(rules.clone(), &props, EngineConfig::fast())
        .try_normalize_with(&q, &budget, &faults);
    for (name, r) in [("boxed", &boxed), ("fast", &fast)] {
        let err = r
            .as_ref()
            .expect_err(&format!("{name}: poison rule must unwind"));
        assert_eq!(err.rule_id.as_deref(), Some("2"), "{name}");
    }

    // Without the fault, both engines still agree byte-for-byte.
    let clean_boxed =
        kola_rewrite::try_rewrite_fix_with(&rules, &q, &props, &budget, &FaultPlan::new()).unwrap();
    let clean_fast = Engine::new(rules, &props, EngineConfig::fast())
        .try_normalize_with(&q, &budget, &FaultPlan::new())
        .unwrap();
    assert_eq!(clean_boxed.query, clean_fast.query);
    assert_eq!(
        format!("{}", clean_boxed.report),
        format!("{}", clean_fast.report)
    );

    // Engine independence and determinism on the serving path's real
    // failure causes: the chaos stream's poison faults (Panic and Fail on
    // "app" and "e121", the rules that fire on id towers) under every step
    // selector, over the full forward catalog, and an input over the
    // term-size cap. The boxed engine fails exactly as the fast one does —
    // same panic attribution, same stop, same failures — and the fast
    // engine fails the same way when the run is repeated on the same warm
    // engine or on a fresh one. A run is a function of (term, rule set,
    // budget, fault plan), so a second attempt after a failure, on either
    // engine, could never rescue the request. One fast engine serves every
    // case, as a service worker's does.
    let catalog_rules: Vec<Oriented> = catalog.rules().iter().map(Oriented::fwd).collect();
    let mut fast = Engine::new(catalog_rules.clone(), &props, EngineConfig::fast());
    let tower = |height: usize| {
        kola::parse::parse_query(&format!("{}age ! P", "id . ".repeat(height))).unwrap()
    };
    let mut cases: Vec<(Query, Budget, FaultPlan)> = Vec::new();
    for rule in ["app", "e121"] {
        for kind in [FaultKind::Panic, FaultKind::Fail] {
            for at in [
                StepSelector::Always,
                StepSelector::Steps(vec![0, 1]),
                StepSelector::Steps(vec![2]),
                StepSelector::EveryNth(2),
                StepSelector::EveryNth(3),
            ] {
                for height in [2, 5, 9] {
                    let faults = FaultPlan::new().with(FaultSpec {
                        rule_id: rule.into(),
                        at: at.clone(),
                        kind: kind.clone(),
                    });
                    cases.push((tower(height), Budget::with_steps(400), faults));
                }
            }
        }
    }
    cases.push((
        tower(40),
        Budget::with_steps(400).term_size(64),
        FaultPlan::new(),
    ));
    let (mut panicked, mut failed, mut oversize) = (0, 0, 0);
    for (q, budget, faults) in &cases {
        let boxed = kola_rewrite::try_rewrite_fix_with(&catalog_rules, q, &props, budget, faults);
        let served = fast.try_normalize_with(q, budget, faults);
        let again = fast.try_normalize_with(q, budget, faults);
        let fresh = Engine::new(catalog_rules.clone(), &props, EngineConfig::fast())
            .try_normalize_with(q, budget, faults);
        let outcome = |r: &Result<kola_rewrite::Rewritten, kola_rewrite::CaughtPanic>| match r {
            Err(p) => format!("panic {:?}: {}", p.rule_id, p.message),
            Ok(r) => format!("{:?} | {} | {}", r.report.stop, r.report, r.query),
        };
        assert_eq!(outcome(&served), outcome(&again), "{q}: warm rerun");
        assert_eq!(outcome(&served), outcome(&fresh), "{q}: fresh engine");
        match (&boxed, &served) {
            (Err(b), Err(f)) => {
                assert!(b.rule_id.is_some(), "{q}: unattributed panic {b}");
                assert_eq!(b, f, "{q}: panic attribution");
                panicked += 1;
            }
            (Ok(b), Ok(f)) => {
                assert_eq!(b.report.stop, f.report.stop, "{q}: stop");
                assert_eq!(b.report.failures, f.report.failures, "{q}: failures");
                assert_eq!(b.query, f.query, "{q}: plan");
                failed += usize::from(!b.report.failures.is_empty());
                oversize += usize::from(b.report.stop == StopReason::TermTooLarge);
            }
            _ => panic!(
                "{q}: engines disagree on whether the run panics: boxed {:?} vs fast {:?}",
                boxed.as_ref().err(),
                served.as_ref().err()
            ),
        }
    }
    assert!(panicked > 0, "no case reproduced a poison panic");
    assert!(failed > 0, "no case reproduced a contained rule failure");
    assert_eq!(oversize, 1, "the over-cap input must stop TermTooLarge");
}
