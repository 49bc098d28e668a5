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
    Budget, Catalog, EGraph, Engine, EngineConfig, EngineStats, Oriented, PropDb, StopReason,
    TermSize,
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

/// Run `f` on a thread of its own and wait at most `limit` for it, so a
/// run that does not end fails the test with a message instead of hanging
/// it.
fn within<T: Send + 'static>(
    limit: std::time::Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    let (tx, rx) = channel();
    std::thread::spawn(move || tx.send(f()));
    match rx.recv_timeout(limit) {
        Ok(v) => v,
        Err(RecvTimeoutError::Timeout) => panic!("{what} did not end within {limit:?}"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
    }
}

/// KG1 over the full forward catalog saturating to `steps` steps, with
/// `deadline` if any: its report, plan, engine counters and wall time.
fn saturate_kg1(
    steps: usize,
    deadline: Option<std::time::Duration>,
) -> (
    kola_rewrite::RewriteReport,
    Query,
    EngineStats,
    std::time::Duration,
) {
    use kola_rewrite::hidden_join::garage_query_kg1;
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules = catalog.rules().iter().map(Oriented::fwd).collect();
    let mut eng = Engine::new(rules, &props, EngineConfig::saturating());
    let mut budget = Budget::with_steps(steps);
    if let Some(d) = deadline {
        budget = budget.timeout(d);
    }
    let started = std::time::Instant::now();
    let out = eng.normalize(&garage_query_kg1(), &budget);
    let wall = started.elapsed();
    (out.report, out.query, eng.stats(), wall)
}

/// The deadline is read inside the match phase. At 3,072 steps over the
/// full forward catalog, KG1's fourth round matches and applies for about
/// a tenth of a second and its fifth for about a quarter, so a 20 ms
/// deadline expires inside a round; the run must stop there with
/// `DeadlineExpired` and extract the best plan proven so far, which costs
/// no more than the fixpoint engine's plan, because the root class holds
/// the whole fixpoint trajectory. In a release build the run must also end
/// within 25 ms of the deadline.
#[test]
fn deadline_expiry_inside_a_match_round_stops_the_run() {
    use kola_rewrite::hidden_join::garage_query_kg1;
    use std::time::Duration;
    const STEPS: usize = 3_072;
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let q = garage_query_kg1();
    let cost = |q: &Query| {
        let mut it = kola::intern::Interner::new();
        term_cost(&it.intern_query(&q.normalize()), &TermSize)
    };
    let rules = catalog.rules().iter().map(Oriented::fwd).collect();
    let fixpoint = Engine::new(rules, &props, EngineConfig::default())
        .normalize(&q, &Budget::with_steps(STEPS));
    let deadline = Duration::from_millis(20);
    let (report, plan, _, wall) = within(
        Duration::from_secs(120),
        "KG1 under a 20 ms deadline",
        move || saturate_kg1(STEPS, Some(deadline)),
    );
    assert_eq!(report.stop, StopReason::DeadlineExpired, "{report}");
    assert!(
        cost(&plan) <= cost(&fixpoint.query),
        "extracted plan costs more than the fixpoint plan\n  sat: {}\n  fix: {}",
        plan,
        fixpoint.query
    );
    if !cfg!(debug_assertions) {
        assert!(
            wall <= deadline + Duration::from_millis(25),
            "the run overran its {deadline:?} deadline: {wall:?}"
        );
    }
}

/// A saturating run with no deadline ends, and its work is bounded by the
/// matcher's caps rather than by the clock. KG1 over the full forward
/// catalog at 3,072 steps spends its budget in its fifth round, on a graph
/// whose cyclic `∘` classes have millions of distinct chain splits per
/// (class, depth) a few levels down: with no cap on a round's chain-split
/// table or on one (class, rule) pair's visits, that round did not end in
/// minutes and its memory kept growing. It now makes about 14.7 M visits,
/// under half a second in a release build.
///
/// The run reaches every bound of the matcher, and the engine counts each
/// search a bound cut short: (class, rule) pairs at the match and visit
/// caps, chain-split table entries at the split and depth caps, and class
/// walks of the rule index at its fuel.
#[test]
fn a_saturating_run_without_a_deadline_ends() {
    use std::time::Duration;
    let (report, _, stats, wall) = within(
        Duration::from_secs(120),
        "KG1 at 3,072 steps with no deadline",
        || saturate_kg1(3_072, None),
    );
    let visits = stats.ematch_visits;
    eprintln!("KG1 at 3,072 steps: {visits} e-match visits, {wall:?}");
    eprintln!("matcher cuts: {stats:?}");
    let cuts = [
        ("match cap", stats.match_cap_cuts),
        ("visit cap", stats.visit_cap_cuts),
        ("split cap", stats.split_cap_cuts),
        ("chain depth", stats.chain_depth_cuts),
        ("index walk fuel", stats.walk_fuel_cuts),
    ];
    for (bound, cut) in cuts {
        assert!(cut > 0, "no search was counted as cut at the {bound}");
    }
    assert_eq!(report.stop, StopReason::BudgetExhausted, "{report}");
    assert!(
        visits <= 30_000_000,
        "the matcher's caps no longer bound a round: {visits} e-match visits"
    );
    if !cfg!(debug_assertions) {
        assert!(
            wall <= Duration::from_secs(3),
            "KG1 at 3,072 steps took {wall:?}"
        );
    }
}

/// The match-phase odometer in `EngineStats`: a fixpoint engine never
/// e-matches, so it reads 0, and a saturating run counts its visits.
/// It also pins, without a clock, that a round stops matching once it has
/// spent the budget: `synthetic_hidden_join(1)` at 256 steps spends it in
/// its fourth round, and matching every class of that round before
/// applying any took the run to 3,038,561 class visits; streamed into
/// apply, the round stops after the class that spends the budget, and the
/// run makes about 50,000 class and chain visits.
#[test]
fn match_phase_counters_read_zero_unless_saturating() {
    use kola_rewrite::hidden_join::synthetic_hidden_join;
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules = || catalog.rules().iter().map(Oriented::fwd).collect();
    let q = synthetic_hidden_join(1);
    let budget = Budget::with_steps(256);

    let mut fast = Engine::new(rules(), &props, EngineConfig::fast());
    fast.normalize(&q, &budget);
    assert_eq!(fast.stats().ematch_visits, 0);

    let mut sat = Engine::new(rules(), &props, EngineConfig::saturating());
    let out = sat.normalize(&q, &budget);
    let visits = sat.stats().ematch_visits;
    eprintln!("shj1 at 256 steps: {visits} e-match visits");
    assert_eq!(out.report.stop, StopReason::BudgetExhausted);
    assert!(visits > 0);
    assert!(
        visits <= 100_000,
        "the round that spent the budget kept matching: {visits} e-match visits"
    );
}
