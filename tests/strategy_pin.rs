//! Strategy pin: what the strategy layer derives, hashed.
//!
//! For every run below, the digest covers the plan text, the trace's
//! justification list, the step count and the stop reason. The committed
//! hashes were taken while `Strategy::Fix` still ran the boxed reference
//! engine (`kola_rewrite::engine::rewrite_fix_with`); `Fix` now always runs
//! the interned engine (`kola_rewrite::fast::Engine`), and every run must
//! stay byte-identical.
//!
//! Runs:
//! * the §4.1 untangler on KG1 and the synthetic hidden joins of depth 1–6;
//! * the Figure 4 derivations T1K (stepwise and as a fixpoint) and T2K;
//! * the Figure 6 strategy on K4 and K3;
//! * the COKO library's `UntangleHiddenJoin` block on KG1;
//! * bottom-up sweeps (`BottomUp`, COKO `BU { … }`), alone and after an
//!   `apply`, under step caps 0–5;
//! * the one-step primitives `Apply`, `ApplyAny` and `Choice`, forward and
//!   backward, including a result refused by the term-size cap;
//! * the untangler's step 2 (`repeat(apply("app")) ; apply("19") ;
//!   repeat(apply("app-1"))`) on the synthetic hidden joins of depth 1–6.
//!
//! The hashes of the last three groups were taken while `Apply`, `ApplyAny`
//! and `BottomUp` ran on the boxed engine's one-step search and bottom-up
//! sweep.

use kola::parse::parse_query;
use kola::term::Query;
use kola_aqua::rules::{query_a3, query_a4};
use kola_coko::{compile, parse_program};
use kola_frontend::translate_query;
use kola_rewrite::engine::Trace;
use kola_rewrite::hidden_join::{
    garage_query_kg1, step1_break_up, step2_bottom_out, synthetic_hidden_join, untangle,
};
use kola_rewrite::strategy::{apply, fix, repeat, seq, Runner};
use kola_rewrite::{Budget, Catalog, PropDb, RewriteReport, Strategy};

/// FNV-1a, 64-bit: stable across platforms and toolchains.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // A separator, so adjacent fields cannot run together.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Fold in one run: plan, justifications, steps, stop reason.
    fn run(&mut self, plan: &Query, trace: &Trace, report: &RewriteReport) {
        self.write(plan.to_string().as_bytes());
        for j in trace.justifications() {
            self.write(j.as_bytes());
        }
        self.write(&report.steps.to_le_bytes());
        self.write(format!("{:?}", report.stop).as_bytes());
    }
}

/// Digest of `strategy` run from each of `starts` on the paper catalog.
fn strategy_digest(strategy: &Strategy, starts: &[Query]) -> u64 {
    budgeted_digest(strategy, starts, Budget::default())
}

/// [`strategy_digest`] under `budget`.
fn budgeted_digest(strategy: &Strategy, starts: &[Query], budget: Budget) -> u64 {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let runner = Runner::new(&catalog, &props).with_budget(budget);
    let mut h = Fnv::new();
    for q in starts {
        let mut trace = Trace::new();
        let (plan, _, report) = runner.run_governed(strategy, q.clone(), &mut trace);
        h.run(&plan, &trace, &report);
    }
    h.0
}

fn assert_pin(what: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{what}: strategy output changed (got {got:#018x}, pinned {want:#018x})"
    );
}

#[test]
fn untangler_is_pinned() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let mut h = Fnv::new();
    let queries = std::iter::once(garage_query_kg1()).chain((1..=6).map(synthetic_hidden_join));
    for q in queries {
        let out = untangle(&catalog, &props, &q);
        h.run(&out.query, &out.trace, &out.report);
    }
    assert_pin("untangle on KG1, shj1-6", h.0, 0x65d0_d6e9_32a3_343e);
}

#[test]
fn figure4_strategies_are_pinned() {
    let t1 = parse_query("iterate(Kp(T), city) . iterate(Kp(T), addr) ! P").unwrap();
    let t2 = parse_query("iterate(Kp(T), age) . iterate(gt @ (age, Kf(25)), id) ! P").unwrap();
    let t1k = seq(vec![apply("11"), apply("6"), apply("5")]);
    let t1k_fix = fix(&["11", "6", "5"]);
    let t2k = seq(vec![
        apply("11"),
        fix(&["3", "e32", "1"]),
        apply("13"),
        apply("7"),
        apply("12-1"),
    ]);
    let mut h = Fnv::new();
    h.write(&strategy_digest(&t1k, std::slice::from_ref(&t1)).to_le_bytes());
    h.write(&strategy_digest(&t1k_fix, &[t1]).to_le_bytes());
    h.write(&strategy_digest(&t2k, &[t2]).to_le_bytes());
    assert_pin("Figure 4", h.0, 0xc86a_cb0d_8117_3251);
}

#[test]
fn figure6_strategy_is_pinned() {
    let figure6 = seq(vec![
        fix(&["13", "7", "14", "15", "16", "10", "8"]),
        fix(&["9", "10", "1", "2", "3", "8", "14-1"]),
    ]);
    let starts = [
        translate_query(&query_a4()).unwrap(),
        translate_query(&query_a3()).unwrap(),
    ];
    assert_pin(
        "Figure 6",
        strategy_digest(&figure6, &starts),
        0x6941_1f26_348f_5383,
    );
}

#[test]
fn coko_untangle_block_is_pinned() {
    let strategy = kola_coko::stdlib::untangle_strategy().unwrap();
    assert_pin(
        "HIDDEN_JOIN_COKO on KG1",
        strategy_digest(&strategy, &[garage_query_kg1()]),
        0xa565_4755_a181_637d,
    );
}

fn parse_all(srcs: &[&str]) -> Vec<Query> {
    srcs.iter().map(|s| parse_query(s).unwrap()).collect()
}

fn rule_set(ids: &[&str]) -> Vec<String> {
    ids.iter().map(|s| s.to_string()).collect()
}

/// The inputs on which a bottom-up sweep of the confluent cleanup set and
/// its leftmost-outermost fixpoint agree (`tests/strategies.rs`).
const CONFLUENT_INPUTS: [&str; 3] = [
    "iterate(Kp(T), id . age . id) ! P",
    "iterate(gt @ id @ (age, Kf(25)), pi1 . (age, addr)) ! P",
    "(pi1, pi2) . (id . age, addr) ! pi1 ! [P, V]",
];

#[test]
fn bottom_up_sweeps_are_pinned() {
    let program =
        parse_program("TRANSFORMATION Clean BEGIN BU { [1], [2], [9], [10] } END").unwrap();
    let coko_bu = compile(&program, "Clean").unwrap();
    let mut coko_starts = parse_all(&["iterate(Kp(T), pi2 . (age, id . city . addr)) ! P"]);
    coko_starts.extend(parse_all(&CONFLUENT_INPUTS));
    let cleanup = Strategy::BottomUp(rule_set(&["1", "2", "3", "4", "9", "10"]));
    let mut h = Fnv::new();
    h.write(&strategy_digest(&coko_bu, &coko_starts).to_le_bytes());
    h.write(&strategy_digest(&cleanup, &parse_all(&CONFLUENT_INPUTS)).to_le_bytes());
    assert_pin("BottomUp sweeps", h.0, 0xfb6a_7b29_fb36_84c8);
}

#[test]
fn bottom_up_step_caps_are_pinned() {
    let q = parse_all(&["iterate(Kp(T), (pi1 . (id . age, addr), id . city . id)) ! P"]);
    let bu = Strategy::BottomUp(rule_set(&["1", "2", "9", "10"]));
    let mut h = Fnv::new();
    for strategy in [bu.clone(), seq(vec![apply("1"), bu])] {
        for cap in 0..=5 {
            h.write(&budgeted_digest(&strategy, &q, Budget::with_steps(cap)).to_le_bytes());
        }
    }
    assert_pin("BottomUp under step caps 0-5", h.0, 0x2c2c_bd7c_b257_ce06);
}

#[test]
fn one_step_primitives_are_pinned() {
    let starts = parse_all(&[
        "id . age ! P",
        "age . id ! P",
        "id . age . id ! P",
        "age ! P",
        "iterate(Kp(T), id . age) ! P",
        "iterate(Kp(T), pi1 . (id . age, addr)) ! P",
    ]);
    let any = Strategy::ApplyAny(rule_set(&["1", "2"]));
    let choice = Strategy::Choice(vec![apply("1"), apply("2")]);
    let mut h = Fnv::new();
    for strategy in [any, choice, apply("2-1"), repeat(apply("2"))] {
        h.write(&strategy_digest(&strategy, &starts).to_le_bytes());
    }
    // A result the term-size cap refuses: `id . age ! P` has 5 nodes.
    let age = parse_all(&["age ! P"]);
    let tight = Budget::with_steps(200).term_size(3);
    h.write(&budgeted_digest(&apply("2-1"), &age, tight).to_le_bytes());
    assert_pin("Apply, ApplyAny and Choice", h.0, 0x07ad_0fe6_d0d7_92aa);
}

#[test]
fn untangler_bottom_out_step_is_pinned() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let runner = Runner::new(&catalog, &props);
    let mut h = Fnv::new();
    for n in 1..=6 {
        let q = synthetic_hidden_join(n);
        let (broken_up, _) = runner.run(&step1_break_up(), q, &mut Trace::new());
        let mut trace = Trace::new();
        let (plan, _, report) = runner.run_governed(&step2_bottom_out(), broken_up, &mut trace);
        h.run(&plan, &trace, &report);
    }
    assert_pin("untangler step 2 on shj1-6", h.0, 0xde10_9cbf_3269_d6c5);
}
