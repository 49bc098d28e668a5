//! The worklist rebuild against its full-sweep oracle on real saturation
//! runs: every run of `tests/saturation_pin.rs`, with its rules, cost
//! models, inputs and budgets. Every `EGraph::rebuild` in this crate's
//! unit tests runs the oracle on a copy of the graph and panics unless
//! the repaired graph equals it (see `egraph::oracle`), so each seeding
//! and each round of these runs is checked.

#[path = "../../../tests/common/match_corpus.rs"]
mod match_corpus;

use crate::hidden_join::{garage_query_kg1, synthetic_hidden_join};
use crate::{Budget, Catalog, CostModel, Engine, EngineConfig, OpWeight, Oriented, PropDb};
use crate::{StopReason, TermSize};
use kola::term::Query;
use kola_exec::rng::Rng;

/// Saturate `queries` on one engine; returns how many runs saturated past
/// their seed wave.
fn saturate(
    rules: Vec<Oriented<'_>>,
    cost: Box<dyn CostModel>,
    queries: &[Query],
    budget: &Budget,
) -> usize {
    let props = PropDb::new();
    let mut engine = Engine::new(rules, &props, EngineConfig::saturating());
    engine.set_cost_model(cost);
    queries
        .iter()
        .filter(|q| engine.normalize(q, budget).report.stop != StopReason::TermTooLarge)
        .count()
}

fn hidden_joins() -> Vec<Query> {
    std::iter::once(garage_query_kg1())
        .chain((1..=6).map(synthetic_hidden_join))
        .collect()
}

#[test]
fn full_catalog_hidden_join_rebuilds_equal_the_full_sweep() {
    let catalog = Catalog::paper();
    let queries = hidden_joins();
    for steps in [224, 256] {
        let budget = Budget::with_steps(steps);
        for cost in [Box::new(TermSize) as Box<dyn CostModel>, Box::new(OpWeight)] {
            let rules = catalog.rules().iter().map(Oriented::fwd).collect();
            assert_eq!(saturate(rules, cost, &queries, &budget), queries.len());
        }
    }
}

#[test]
fn figure3_pool_rebuilds_equal_the_full_sweep() {
    const POOL: [&str; 23] = [
        "17", "18", "2", "1", "3", "4", "4a", "9", "10", "5", "6", "app", "19", "20", "21", "22",
        "23", "24", "e32", "e6", "e110", "e111", "e112",
    ];
    let catalog = Catalog::paper();
    let mut rules: Vec<Oriented> = POOL
        .iter()
        .map(|id| Oriented::fwd(catalog.get(id).unwrap()))
        .collect();
    rules.push(Oriented::bwd(catalog.get("app").unwrap()));
    let budget = Budget::with_steps(2_000).depth(64).term_size(16_384);
    let queries = [garage_query_kg1()];
    assert_eq!(saturate(rules, Box::new(OpWeight), &queries, &budget), 1);
}

#[test]
fn parity_corpus_rebuilds_equal_the_full_sweep() {
    let catalog = Catalog::paper();
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
    let pool = saturate(rules, Box::new(TermSize), &queries, &budget);
    let all = catalog.rules().iter().map(Oriented::fwd).collect();
    let budget = Budget::with_steps(256).depth(40).term_size(4_096);
    let full = saturate(all, Box::new(TermSize), &queries, &budget);
    eprintln!("parity corpus: {pool} and {full} of 300 runs saturated");
    assert!(pool > 250 && full > 250);
}
