//! Strategy-combinator behavior across crates: bottom-up sweeps, fixpoints
//! and their interaction with COKO.

use kola::parse::parse_query;
use kola::term::Query;
use kola_coko::{compile, parse_program};
use kola_exec::datagen::{generate, DataSpec};
use kola_rewrite::engine::Trace;
use kola_rewrite::strategy::{fix, Runner};
use kola_rewrite::{Budget, Catalog, PropDb, Strategy};

fn setup() -> (Catalog, PropDb) {
    (Catalog::paper(), PropDb::new())
}

/// One `BottomUp` sweep of `rules` over `q` with at most 100 fires;
/// returns the swept query and the fires.
fn bottom_up(c: &Catalog, p: &PropDb, rules: &[&str], q: &Query) -> (Query, usize) {
    let runner = Runner::new(c, p).with_budget(Budget::with_steps(100));
    let sweep = Strategy::BottomUp(rules.iter().map(|r| r.to_string()).collect());
    let (out, _, report) = runner.run_governed(&sweep, q.clone(), &mut Trace::new());
    (out, report.steps)
}

#[test]
fn bottom_up_sweep_cleans_everywhere_in_one_pass() {
    let (c, p) = setup();
    // Identities buried at several depths.
    let q = parse_query("iterate(Kp(T), (pi1 . (id . age, addr), id . city . id)) ! P").unwrap();
    let (out, fires) = bottom_up(&c, &p, &["1", "2", "9", "10"], &q);
    assert_eq!(out, parse_query("iterate(Kp(T), (age, city)) ! P").unwrap());
    assert!(fires >= 3, "several positions rewritten: {fires}");
}

#[test]
fn bottom_up_agrees_with_fixpoint_on_confluent_sets() {
    // For the confluent cleanup set, BU-sweep and leftmost-outermost
    // fixpoint reach the same normal form.
    let (c, p) = setup();
    let runner = Runner::new(&c, &p);
    let cleanup = ["1", "2", "3", "4", "9", "10"];
    for src in [
        "iterate(Kp(T), id . age . id) ! P",
        "iterate(gt @ id @ (age, Kf(25)), pi1 . (age, addr)) ! P",
        "(pi1, pi2) . (id . age, addr) ! pi1 ! [P, V]",
    ] {
        let q = parse_query(src).unwrap();
        let (bu, _) = bottom_up(&c, &p, &cleanup, &q);
        let mut trace = Trace::new();
        let (fx, _) = runner.run(&fix(&cleanup), q.clone(), &mut trace);
        assert_eq!(bu, fx, "{src}");
    }
}

#[test]
fn coko_bu_keyword_compiles_and_runs() {
    let (c, p) = setup();
    let program =
        parse_program("TRANSFORMATION Clean BEGIN BU { [1], [2], [9], [10] } END").unwrap();
    let strategy = compile(&program, "Clean").unwrap();
    assert!(matches!(strategy, Strategy::BottomUp(_)));
    let runner = Runner::new(&c, &p);
    let q = parse_query("iterate(Kp(T), pi2 . (age, id . city . addr)) ! P").unwrap();
    let mut trace = Trace::new();
    let (out, _) = runner.run(&strategy, q, &mut trace);
    assert_eq!(out, parse_query("iterate(Kp(T), city . addr) ! P").unwrap());
    // The sweep records a summary step.
    assert!(trace.steps.iter().any(|s| s.rule_id.starts_with("bu")));
}

#[test]
fn bu_is_semantics_preserving() {
    let (c, p) = setup();
    let db = generate(&DataSpec::small(88));
    let rules = ["1", "2", "3", "4", "5", "9", "10", "11"];
    for src in [
        "iterate(Kp(T), city) . iterate(Kp(T), addr) ! P",
        "iterate(Kp(T), pi1 . (age, addr)) ! P",
        "iterate(Kp(T) & gt @ (age, Kf(25)), id . age) ! P",
    ] {
        let q = parse_query(src).unwrap();
        let (out, _) = bottom_up(&c, &p, &rules, &q);
        assert_eq!(
            kola::eval_query(&db, &q).unwrap(),
            kola::eval_query(&db, &out).unwrap(),
            "{src}"
        );
    }
}

#[test]
fn nested_repeat_choice_combinations() {
    let (c, p) = setup();
    let runner = Runner::new(&c, &p);
    // REPEAT { [2] | [1] } strips ids from either side.
    let program = parse_program("TRANSFORMATION Strip BEGIN REPEAT { [2] | [1] } END").unwrap();
    let strategy = compile(&program, "Strip").unwrap();
    let q = parse_query("id . age . id . id ! P").unwrap();
    let mut trace = Trace::new();
    let (out, _) = runner.run(&strategy, q, &mut trace);
    assert_eq!(out, parse_query("age ! P").unwrap());
}
