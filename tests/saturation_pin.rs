//! Saturation pin: equality saturation's observable output, hashed.
//!
//! For every run below, the digest covers the extracted plan, the step
//! count, the stop reason and the per-rule fire counts of the
//! [`EngineConfig::saturating`] engine. The committed hashes were computed
//! before saturation's e-matcher and instantiator moved onto the compiled
//! rule programs (`kola_rewrite::program`); the move must leave every run
//! byte-identical: which matches are enumerated, in what order, where the
//! per-(class, rule) match cap cuts them off, and which nodes are built.
//! The cliff-run hashes were computed while chain splits were still
//! enumerated recursively per call; the per-round split table must leave
//! them byte-identical as well.
//!
//! Runs:
//! * KG1 and the synthetic hidden joins of depth 1–6 over the full forward
//!   catalog, under `TermSize` and under `OpWeight`, at 224 steps and at
//!   the 256-step cliff;
//! * KG1 over the 23-rule Figure 3 pool of `tests/egraph_fig3.rs`;
//! * the first 300 seeds of the `tests/egraph_parity.rs` corpus, over its
//!   pool and over the full forward catalog.
//!
//! Twenty-six (class, rule) pairs of the runs other than the cliff run
//! reach the per-pair match cap (nine in the Figure 3 run, one in each
//! 224-step hidden-join run set, fifteen in the full-catalog parity run),
//! and a cap of 23 instead of 24 changes the full-catalog parity digest,
//! so where the cap cuts is pinned too.

#[path = "common/match_corpus.rs"]
mod match_corpus;

use kola::term::Query;
use kola_exec::rng::Rng;
use kola_rewrite::hidden_join::{garage_query_kg1, synthetic_hidden_join};
use kola_rewrite::{
    Budget, Catalog, CostModel, Engine, EngineConfig, OpWeight, Oriented, PropDb, Rewritten,
    TermSize,
};

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

    /// Fold in one run: plan, steps, stop reason, per-rule fire counts.
    fn run(&mut self, out: &Rewritten) {
        self.write(out.query.to_string().as_bytes());
        self.write(&out.report.steps.to_le_bytes());
        self.write(format!("{:?}", out.report.stop).as_bytes());
        for (id, stats) in &out.report.rule_stats {
            self.write(id.as_bytes());
            self.write(&stats.fired.to_le_bytes());
        }
    }
}

fn saturate(
    rules: Vec<Oriented<'_>>,
    props: &PropDb,
    cost: Box<dyn CostModel>,
    queries: &[Query],
    budget: &Budget,
) -> u64 {
    let mut engine = Engine::new(rules, props, EngineConfig::saturating());
    engine.set_cost_model(cost);
    let mut h = Fnv::new();
    for q in queries {
        h.run(&engine.normalize(q, budget));
    }
    h.0
}

fn assert_pin(what: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{what}: saturation output changed (got {got:#018x}, pinned {want:#018x})"
    );
}

/// KG1, then the synthetic hidden joins of depth 1–6.
fn hidden_joins() -> Vec<Query> {
    std::iter::once(garage_query_kg1())
        .chain((1..=6).map(synthetic_hidden_join))
        .collect()
}

/// Step budget of the first full-catalog pin.
const CATALOG_STEPS: usize = 224;

#[test]
fn full_catalog_hidden_joins_are_pinned() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let queries = hidden_joins();
    let budget = Budget::with_steps(CATALOG_STEPS);
    let rules = || catalog.rules().iter().map(Oriented::fwd).collect();
    let size = saturate(rules(), &props, Box::new(TermSize), &queries, &budget);
    let weight = saturate(rules(), &props, Box::new(OpWeight), &queries, &budget);
    assert_pin("catalog, TermSize", size, 0x17fd_7f44_5df1_9743);
    assert_pin("catalog, OpWeight", weight, 0x17fd_7f44_5df1_9743);
}

/// Step budget of the cliff run. Here `synthetic_hidden_join(1)` reaches
/// a match round whose chain decomposition, enumerated per call, peeled
/// 2.9 M splits and took about 3 s in a release build; tabled once per
/// (class, depth) per round, the whole test takes a few seconds in a
/// debug build.
const CLIFF_STEPS: usize = 256;

#[test]
fn full_catalog_cliff_run_is_pinned() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let queries = hidden_joins();
    let budget = Budget::with_steps(CLIFF_STEPS);
    let rules = || catalog.rules().iter().map(Oriented::fwd).collect();
    let size = saturate(rules(), &props, Box::new(TermSize), &queries, &budget);
    let weight = saturate(rules(), &props, Box::new(OpWeight), &queries, &budget);
    assert_pin("catalog cliff run, TermSize", size, 0x281b_337d_1872_4adc);
    assert_pin("catalog cliff run, OpWeight", weight, 0x7b4b_7217_7098_0563);
}

#[test]
fn figure3_pool_is_pinned() {
    // The pool of `tests/egraph_fig3.rs`, with its budget.
    const POOL: [&str; 23] = [
        "17", "18", "2", "1", "3", "4", "4a", "9", "10", "5", "6", "app", "19", "20", "21", "22",
        "23", "24", "e32", "e6", "e110", "e111", "e112",
    ];
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let mut rules: Vec<Oriented> = POOL
        .iter()
        .map(|id| Oriented::fwd(catalog.get(id).unwrap()))
        .collect();
    rules.push(Oriented::bwd(catalog.get("app").unwrap()));
    let budget = Budget::with_steps(2_000).depth(64).term_size(16_384);
    let got = saturate(
        rules,
        &props,
        Box::new(OpWeight),
        &[garage_query_kg1()],
        &budget,
    );
    assert_pin("Figure 3 pool", got, 0xb329_e84d_8f28_b2d8);
}

#[test]
fn parity_corpus_is_pinned() {
    // The pool, generator, seeds and saturation budget of
    // `tests/egraph_parity.rs`; then the same queries over the full
    // forward catalog, whose larger rounds cut more (class, rule) pairs at
    // the match cap.
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let fwd = [
        "1", "2", "4", "8", "9", "10", "11", "12", "3", "5", "6", "7", "13", "14", "e41", "e42",
        "app", "e121", "e176", "e177", "e179",
    ];
    let mut rules: Vec<Oriented> = fwd
        .iter()
        .map(|id| Oriented::fwd(catalog.get(id).unwrap()))
        .collect();
    rules.push(Oriented::bwd(catalog.get("14").unwrap()));
    rules.push(Oriented::bwd(catalog.get("e120").unwrap()));
    let queries: Vec<Query> = (0..300u64)
        .map(|seed| match_corpus::arb_query(&mut Rng::seed_from_u64(0xC0FFEE ^ seed), 5))
        .collect();
    let budget = Budget::with_steps(64).depth(40).term_size(4_096);
    let got = saturate(rules, &props, Box::new(TermSize), &queries, &budget);
    assert_pin("parity corpus, 300 seeds", got, 0xb8e5_eb76_b8b1_017f);
    let all = catalog.rules().iter().map(Oriented::fwd).collect();
    let budget = Budget::with_steps(256).depth(40).term_size(4_096);
    let got = saturate(all, &props, Box::new(TermSize), &queries, &budget);
    assert_pin(
        "parity corpus, 300 seeds, full catalog",
        got,
        0xfcfd_f71f_3e88_b04c,
    );
}
