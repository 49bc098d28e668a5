//! The worker's metric flush loses nothing. After each request a worker
//! flushes its engine's odometers into the service counters, touching only
//! the rules the run consulted, and records the index-shape gauges once,
//! when its index is first built. This test serves one fixed stream with
//! in-run quarantines and an operator breaker trip and reset, under both
//! engine modes, and checks every flushed number against an independent
//! total:
//!
//! * `Σ rules_attempted` equals `engine_consults`, the engines' own total;
//! * `Σ rules_fired` equals the fires the responses reported;
//! * each `index_tree_*` gauge equals the shape of a freshly built index
//!   over the served catalog, however many quarantine cycles ran.

use kola_rewrite::{
    Catalog, EngineConfig, FaultKind, FaultPlan, FaultSpec, Oriented, RuleIndex, StepSelector,
};
use kola_service::{
    conservation_violations, Outcome, Request, RequestOptions, Response, Service, ServiceConfig,
};

const KG1: &str = "iterate(Kp(T), (id, flat . iter(Kp(T), grgs . pi2) . (id, iter(in @ (pi1, cars . pi2), pi2) . (id, Kf(P))))) ! V";

fn id_tower(height: usize) -> String {
    "id . ".repeat(height) + "age ! P"
}

/// The fixed stream: plain requests, and requests whose injected `app`
/// failures quarantine the rule inside the run (an index remove, restored
/// at the start of the next run). A 64-step budget keeps saturation on
/// KG1 short of its cliff.
fn stream() -> Vec<Request> {
    let plain = RequestOptions {
        max_steps: 64,
        ..RequestOptions::default()
    };
    let quarantining = RequestOptions {
        faults: FaultPlan::new().with(FaultSpec {
            rule_id: "app".to_string(),
            at: StepSelector::Always,
            kind: FaultKind::Fail,
        }),
        quarantine_after: 1,
        ..plain.clone()
    };
    (0..60)
        .map(|i| {
            let (text, options) = match i % 5 {
                0 => (id_tower(1 + i % 7), &plain),
                1 => (format!("gt ? [{}, 2]", i + 3), &plain),
                2 => (KG1.to_string(), &plain),
                3 => (id_tower(2 + i % 3), &quarantining),
                _ => (format!("iterate(Kp(T), id . id . age) ! P{i}"), &plain),
            };
            Request::text(text).with_options(options.clone())
        })
        .collect()
}

fn serve(engine: EngineConfig) {
    let service = Service::start(ServiceConfig {
        workers: 2,
        // Every request reaches an engine, so every reported fire was
        // also flushed.
        cache_capacity: 0,
        engine,
        ..ServiceConfig::default()
    });
    let mut responses: Vec<Response> = Vec::new();
    let mut quarantines = 0;
    for (i, request) in stream().into_iter().enumerate() {
        if i == 20 {
            // Operator trip: the next requests run on a snapshot that masks
            // rule 11 out of the candidate scan.
            for k in 0..10 {
                service.breaker().charge("11", 1_000 + k);
            }
            assert!(service.breaker().is_open("11"));
        }
        if i == 40 {
            service.breaker().reset("11");
        }
        let r = service.call(request);
        assert_ne!(r.outcome, Outcome::Invalid, "request {i}: {:?}", r.error);
        quarantines += r.quarantine.entries.len();
        responses.push(r);
    }
    let s = service.metrics_snapshot();
    assert_eq!(conservation_violations(&s), Vec::<String>::new());
    assert!(quarantines > 0, "the stream quarantined no rule");

    let attempted: u64 = s.family("rules_attempted").iter().map(|(_, n)| n).sum();
    assert!(attempted > 0);
    assert_eq!(attempted, s.counter("engine_consults"));

    let fired: u64 = s.family("rules_fired").iter().map(|(_, n)| n).sum();
    let reported: u64 = responses
        .iter()
        .filter_map(|r| r.report.as_ref())
        .flat_map(|rep| rep.rule_stats.values())
        .map(|rs| rs.fired as u64)
        .sum();
    assert!(reported > 0);
    assert_eq!(fired, reported);

    let catalog = Catalog::paper();
    let served: Vec<Oriented> = catalog.rules().iter().map(Oriented::fwd).collect();
    let shape = RuleIndex::build(&served).describe();
    for (gauge, want) in [
        ("index_tree_nodes", shape.tree_nodes),
        ("index_tree_max_depth", shape.tree_max_depth),
        ("index_tree_edges", shape.tree_edges),
        ("index_tree_wildcard_edges", shape.tree_wildcard_edges),
        ("index_tree_mean_fanout_milli", shape.tree_mean_fanout_milli),
    ] {
        assert_eq!(s.gauge(gauge), want as u64, "{gauge}");
    }
}

#[test]
fn fixpoint_service_flush_balances_the_rule_books() {
    serve(EngineConfig::fast());
}

#[test]
fn saturating_service_flush_balances_the_rule_books() {
    serve(EngineConfig::saturating());
}
