//! Differential gate for the equality-saturation engine: on a generated
//! corpus (1000 seeds by default; `EGRAPH_SEEDS` overrides — CI smoke uses
//! 50), the saturating engine's extracted plan must cost no more than the
//! destructive fixpoint engine's output under the extraction cost model
//! (term size). The guarantee is structural — the fixpoint trajectory is
//! unioned into the e-graph's root class before saturating — and this test
//! pins it end to end through `EngineConfig::saturating()`.
//!
//! Every seed also goes through the `kola-verify` semantic gate on a
//! populated database. An input that `typecheck_query` accepts must have a
//! plan that computes the same answer (or is stuck exactly when the input
//! is): the catalog's rules are verified on well-typed terms. An ill-typed
//! input may only be stuck where its plan evaluates — saturation can
//! extract a plan that no longer applies the ill-typed part — and those
//! seeds are counted and printed.
//!
//! Few generated inputs typecheck, so each seed also sends one well-typed
//! selection through both gates, shaped like the benchmark's typed
//! selections: a comparison filter on `age` fused with a map that is an
//! attribute or a depth-1 `kola_verify::Gen` function.

use kola::parse::parse_query;
use kola::term::{Func, Pred, Query};
use kola::typecheck::{typecheck_query, TypeEnv};
use kola::types::Type;
use kola_exec::datagen::{generate, DataSpec};
use kola_exec::rng::Rng;
use kola_rewrite::saturate::term_cost;
use kola_rewrite::{Budget, Catalog, Engine, EngineConfig, Oriented, PropDb, TermSize};
use kola_verify::Gen;
use std::sync::Arc;

/// Same untyped-garbage generator family as `tests/index_parity.rs`.
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

/// A well-typed selection over the person extent: `iterate(cmp @ (age,
/// Kf(c)), map) ! P`, the map a depth-1 `Gen` function to `Int` seven
/// times in ten, an attribute otherwise.
fn typed_selection(rng: &mut Rng, g: &mut Gen, person: &Type) -> Query {
    let c = rng.gen_range(0..60i64);
    let cmp = ["gt", "lt", "geq", "leq", "eq"][rng.gen_range(0..5usize)];
    let map = if rng.gen_range(0..10u32) < 7 {
        g.func(person, &Type::Int, 1).to_string()
    } else {
        ["age", "name", "addr"][rng.gen_range(0..3usize)].to_string()
    };
    parse_query(&format!("iterate({cmp} @ (age, Kf({c})), {map}) ! P")).unwrap()
}

/// The mixed-level pool from `tests/index_parity.rs` (func, pred and query
/// rules, a backward orientation, and an inert backward one-way rule).
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

/// Cost of a boxed query under the parity model (term size), measured the
/// same way extraction measures it: interned, normalized, node-counted.
fn size_cost(q: &Query) -> u64 {
    let mut it = kola::intern::Interner::new();
    term_cost(&it.intern_query(&q.normalize()), &TermSize)
}

fn corpus_len() -> u64 {
    std::env::var("EGRAPH_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000)
}

#[test]
fn extracted_cost_never_exceeds_fixpoint_cost() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules = rule_pool(&catalog);
    // The fixpoint baseline runs the corpus's historical budget; the
    // saturating engine gets more steps (its internal wave replays the
    // same prefix, then saturation spends the rest) — the gate must hold
    // regardless of how far saturation got.
    let fix_budget = Budget::with_steps(12).depth(40).term_size(4_096);
    let sat_budget = Budget::with_steps(64).depth(40).term_size(4_096);

    let mut fix = Engine::new(rules.clone(), &props, EngineConfig::fast());
    let mut sat = Engine::new(rules.clone(), &props, EngineConfig::saturating());

    // Semantic checks evaluate on a populated database; `Q` is bound so
    // the generator's two-extent queries are not vacuously stuck, and typed
    // like the `V` extent it holds.
    let mut db = generate(&DataSpec::small(314));
    let v = db.extent("V").expect("datagen binds V").clone();
    db.bind_extent("Q", v);
    let mut env = TypeEnv::paper_env();
    let vehicles = env.extents[&Arc::from("V")].clone();
    env.bind_extent("Q", vehicles);
    let person = Type::Obj(db.schema().class_id("Person").expect("paper schema"));
    let (mut well_typed, mut unstuck) = (0usize, 0usize);

    for seed in 0..corpus_len() {
        let mut rng = Rng::seed_from_u64(0xC0FFEE ^ seed);
        let q = arb_query(&mut rng, 5);
        let mut g = Gen::new(&db, Rng::seed_from_u64(0x7E57 ^ seed));
        let selection = typed_selection(&mut rng, &mut g, &person);
        for q in [q, selection] {
            let f = fix.normalize(&q, &fix_budget);
            let s = sat.normalize(&q, &sat_budget);
            // Saturation seeds its e-graph with the wave's interned terms
            // as they are, which equals normalizing and re-interning each
            // one only because every wave term is already right-normalized.
            for step in &f.trace.steps {
                assert_eq!(step.after.normalize(), step.after, "seed {seed}: {q}");
            }
            let fc = size_cost(&f.query);
            let sc = size_cost(&s.query);
            assert!(
                sc <= fc,
                "seed {seed}: extracted plan costs {sc} > fixpoint {fc}\n  in : {q}\n  fix: {}\n  sat: {}",
                f.query,
                s.query,
            );
            // The extracted plan must also *mean* the same thing as the
            // input (kola-verify's plan-level semantic gate).
            let typed = typecheck_query(&env, &q).is_ok();
            well_typed += usize::from(typed);
            if let Err(e) = kola_verify::check_plan_semantics(&db, &q, &s.query) {
                let input_stuck = kola::eval_query(&db, &q).is_err();
                let plan_evaluates = kola::eval_query(&db, &s.query).is_ok();
                assert!(
                    !typed && input_stuck && plan_evaluates,
                    "seed {seed}: extracted plan changed semantics (input well-typed: {typed}): {e}\n  in : {q}\n  sat: {}",
                    s.query
                );
                unstuck += 1;
            }
        }
    }
    let inputs = 2 * corpus_len();
    eprintln!(
        "semantic gate: {well_typed} of {inputs} inputs well-typed; {unstuck} ill-typed inputs stuck where their plan evaluates",
    );
    assert!(
        well_typed as u64 >= corpus_len(),
        "only {well_typed} of {inputs} inputs are well-typed: every seed's selection should be"
    );
}

#[test]
fn saturating_engine_reports_are_well_formed() {
    // Spot-check the report surface: steps within budget, a terminal stop
    // reason, and rule tallies consistent with steps (every fire is a step;
    // wave steps and saturation steps share one budget).
    use kola_rewrite::StopReason;
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules = rule_pool(&catalog);
    let budget = Budget::with_steps(64).depth(40).term_size(4_096);
    let mut sat = Engine::new(rules.clone(), &props, EngineConfig::saturating());

    for seed in 0..50u64 {
        let mut rng = Rng::seed_from_u64(0x5A7u64.wrapping_mul(seed + 1));
        let q = arb_query(&mut rng, 5);
        let s = sat.normalize(&q, &budget);
        assert!(
            s.report.steps <= budget.max_steps,
            "seed {seed}: {} steps exceed budget {}",
            s.report.steps,
            budget.max_steps
        );
        let fired: usize = s.report.rule_stats.values().map(|st| st.fired).sum();
        assert_eq!(fired, s.report.steps, "seed {seed}: fires != steps");
        assert!(
            matches!(
                s.report.stop,
                StopReason::NormalForm
                    | StopReason::BudgetExhausted
                    | StopReason::DeadlineExpired
                    | StopReason::CycleDetected
                    | StopReason::TermTooLarge
            ),
            "seed {seed}: non-terminal stop {:?}",
            s.report.stop
        );
    }
}
