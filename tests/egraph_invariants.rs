//! Property tests for the e-graph core and the saturation loop: the
//! union-find is idempotent, congruence holds after every rebuild,
//! saturation is deterministic, and budget exhaustion degrades to
//! best-so-far instead of panicking. Exercised over the same generator
//! family as `tests/egraph_parity.rs` so cyclic classes, chain e-nodes and
//! multi-level terms all occur.

use kola::term::{Func, Pred, Query};
use kola_exec::rng::Rng;
use kola_rewrite::saturate::term_cost;
use kola_rewrite::{
    Budget, Catalog, EGraph, Engine, EngineConfig, Oriented, PropDb, StopReason, TermSize,
};
use std::sync::Arc;

fn arb_func(rng: &mut Rng, depth: usize) -> Func {
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0..8u32) {
            0 => Func::Id,
            1 => Func::Pi1,
            2 => Func::Pi2,
            3 => Func::Flat,
            4 => Func::Bagify,
            5 => Func::Dedup,
            6 => Func::Prim(Arc::from("age")),
            _ => Func::ConstF(Box::new(Query::Lit(kola::Value::Int(rng.gen::<i64>())))),
        };
    }
    match rng.gen_range(0..6u32) {
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
        3 => Func::Iterate(Box::new(arb_pred(rng)), Box::new(arb_func(rng, depth - 1))),
        4 => Func::Iter(Box::new(arb_pred(rng)), Box::new(arb_func(rng, depth - 1))),
        _ => Func::Join(Box::new(arb_pred(rng)), Box::new(arb_func(rng, depth - 1))),
    }
}

fn arb_pred(rng: &mut Rng) -> Pred {
    match rng.gen_range(0..4u32) {
        0 => Pred::Eq,
        1 => Pred::Lt,
        2 => Pred::In,
        _ => Pred::ConstP(rng.gen::<bool>()),
    }
}

fn arb_query(rng: &mut Rng, depth: usize) -> Query {
    Query::App(
        arb_func(rng, depth),
        Box::new(Query::Extent(Arc::from("P"))),
    )
}

fn rule_pool(catalog: &Catalog) -> Vec<Oriented<'_>> {
    let fwd = [
        "1", "2", "4", "8", "9", "10", "3", "5", "6", "13", "app", "e121",
    ];
    let mut rules: Vec<Oriented> = fwd
        .iter()
        .map(|id| Oriented::fwd(catalog.get(id).unwrap()))
        .collect();
    rules.push(Oriented::bwd(catalog.get("app").unwrap()));
    rules
}

/// `find` is idempotent and stable under arbitrary unions: after any
/// sequence of `add_term`/`union`/`rebuild`, `find(find(c)) == find(c)`
/// for every id ever issued, and two unioned ids resolve to one root.
#[test]
fn find_is_idempotent_after_random_unions() {
    for seed in 0..200u64 {
        let mut rng = Rng::seed_from_u64(0xF1D0 ^ seed);
        let mut it = kola::intern::Interner::new();
        let mut eg = EGraph::new();
        let mut ids = Vec::new();
        for _ in 0..8 {
            let q = arb_query(&mut rng, 3);
            ids.push(eg.add_term(&it.intern_query(&q.normalize())));
        }
        // Random unions, including self-unions.
        for _ in 0..6 {
            let a = ids[rng.gen_range(0..ids.len() as u32) as usize];
            let b = ids[rng.gen_range(0..ids.len() as u32) as usize];
            let root = eg.union(a, b);
            assert_eq!(eg.find(a), eg.find(b), "seed {seed}: union did not merge");
            assert_eq!(eg.find(root), root, "seed {seed}: union root not canonical");
        }
        eg.rebuild();
        for &c in &ids {
            let r = eg.find(c);
            assert_eq!(eg.find(r), r, "seed {seed}: find not idempotent at {c}");
        }
    }
}

/// After every rebuild, congruence holds: no two distinct classes contain
/// the same canonicalized e-node (`check_congruence` sweeps the whole
/// graph), and every stored node is canonical.
#[test]
fn rebuild_restores_congruence() {
    for seed in 0..200u64 {
        let mut rng = Rng::seed_from_u64(0xC0DE ^ seed);
        let mut it = kola::intern::Interner::new();
        let mut eg = EGraph::new();
        let mut ids = Vec::new();
        for _ in 0..10 {
            let q = arb_query(&mut rng, 4);
            ids.push(eg.add_term(&it.intern_query(&q.normalize())));
        }
        for _ in 0..8 {
            let a = ids[rng.gen_range(0..ids.len() as u32) as usize];
            let b = ids[rng.gen_range(0..ids.len() as u32) as usize];
            eg.union(a, b);
            eg.rebuild();
            if let Err(e) = eg.check_congruence() {
                panic!("seed {seed}: congruence violated after rebuild: {e}");
            }
        }
    }
}

/// Two identical saturating runs produce bit-identical results: same
/// query, same step count, same stop reason. Saturation's match round is
/// ordered (classes ascending, candidates ascending, e-nodes in canonical
/// order), so nothing in the loop depends on hash iteration order.
#[test]
fn saturation_is_deterministic() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let budget = Budget::with_steps(48).depth(40).term_size(4_096);
    for seed in 0..60u64 {
        let mut rng = Rng::seed_from_u64(0xDE7 ^ seed);
        let q = arb_query(&mut rng, 5);
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let rules = rule_pool(&catalog);
                let mut eng = Engine::new(rules, &props, EngineConfig::saturating());
                eng.normalize(&q, &budget)
            })
            .collect();
        assert_eq!(
            runs[0].query, runs[1].query,
            "seed {seed}: saturation not deterministic"
        );
        assert_eq!(
            runs[0].report.steps, runs[1].report.steps,
            "seed {seed}: step counts diverge"
        );
        assert_eq!(
            runs[0].report.stop, runs[1].report.stop,
            "seed {seed}: stop reasons diverge"
        );
    }
}

/// Budget exhaustion mid-saturation is graceful: the engine reports
/// `BudgetExhausted` (or finishes early), never panics, and still returns
/// a plan no costlier than the input — extraction falls back on
/// best-so-far, and the input itself is always a member of the root class.
#[test]
fn budget_exhaustion_returns_best_so_far() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let size = |q: &Query| {
        let mut it = kola::intern::Interner::new();
        term_cost(&it.intern_query(&q.normalize()), &TermSize)
    };
    for seed in 0..60u64 {
        let mut rng = Rng::seed_from_u64(0xB1D ^ seed);
        let q = arb_query(&mut rng, 5);
        for max_steps in [1, 2, 3, 5, 8] {
            let rules = rule_pool(&catalog);
            let mut eng = Engine::new(rules, &props, EngineConfig::saturating());
            let budget = Budget::with_steps(max_steps).depth(40).term_size(4_096);
            let out = eng.normalize(&q, &budget);
            assert!(
                out.report.steps <= max_steps,
                "seed {seed}/{max_steps}: {} steps overran the budget",
                out.report.steps
            );
            assert!(
                size(&out.query) <= size(&q),
                "seed {seed}/{max_steps}: truncated saturation returned a \
                 costlier plan than the input\n  in : {q}\n  out: {}",
                out.query
            );
            assert!(
                matches!(
                    out.report.stop,
                    StopReason::NormalForm
                        | StopReason::BudgetExhausted
                        | StopReason::CycleDetected
                        | StopReason::TermTooLarge
                ),
                "seed {seed}/{max_steps}: unexpected stop {:?}",
                out.report.stop
            );
        }
    }
}

/// The deadline is read inside the match phase. At 256 steps over the
/// full forward catalog, `synthetic_hidden_join(1)` reaches a match round
/// that runs far past a 20 ms deadline; the run must stop there with
/// `DeadlineExpired` and extract the best plan proven so far, which costs
/// no more than the fixpoint engine's plan, because the root class holds
/// the whole fixpoint trajectory. In a release build the run must also end
/// within 25 ms of the deadline.
#[test]
fn deadline_expiry_inside_a_match_round_stops_the_run() {
    use kola_rewrite::hidden_join::synthetic_hidden_join;
    use std::time::{Duration, Instant};
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules = || catalog.rules().iter().map(Oriented::fwd).collect();
    let q = synthetic_hidden_join(1);
    let cost = |q: &Query| {
        let mut it = kola::intern::Interner::new();
        term_cost(&it.intern_query(&q.normalize()), &TermSize)
    };
    let fixpoint = Engine::new(rules(), &props, EngineConfig::default())
        .normalize(&q, &Budget::with_steps(256));
    let deadline = Duration::from_millis(20);
    let mut eng = Engine::new(rules(), &props, EngineConfig::saturating());
    let started = Instant::now();
    let out = eng.normalize(&q, &Budget::with_steps(256).timeout(deadline));
    let wall = started.elapsed();
    assert_eq!(
        out.report.stop,
        StopReason::DeadlineExpired,
        "{}",
        out.report
    );
    assert!(
        cost(&out.query) <= cost(&fixpoint.query),
        "extracted plan costs more than the fixpoint plan\n  sat: {}\n  fix: {}",
        out.query,
        fixpoint.query
    );
    if !cfg!(debug_assertions) {
        assert!(
            wall <= deadline + Duration::from_millis(25),
            "the run overran its {deadline:?} deadline: {wall:?}"
        );
    }
}
