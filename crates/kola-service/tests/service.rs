//! Integration tests for the optimization service: parity with the direct
//! fast and boxed engines, structured overload, breaker trip/recovery,
//! deadline expiry, term-size-capped failures, and request classification.

use kola::term::{Func, Query};
use kola_rewrite::engine::rewrite_fix_with;
use kola_rewrite::strategy;
use kola_rewrite::{
    Budget, Catalog, EngineConfig, FaultKind, FaultPlan, FaultSpec, Oriented, PropDb, Runner,
    StepSelector, Trace,
};
use kola_service::{Outcome, Payload, Request, RequestOptions, Service, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

fn tower(height: usize, leaf: &str) -> Query {
    let mut f = Func::Prim(Arc::from(leaf));
    for _ in 0..height {
        f = Func::Compose(Box::new(Func::Id), Box::new(f));
    }
    Query::App(f, Box::new(Query::Extent(Arc::from("P"))))
}

/// A deterministic 500-query corpus exercising towers, iterates, unions,
/// and tests. Pure function of the seed.
fn corpus_query(seed: u64) -> Query {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |m: u64| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s % m
    };
    let leaf = ["age", "city", "addr"][next(3) as usize];
    match next(4) {
        0 => tower(next(10) as usize, leaf),
        1 => kola::parse::parse_query(&format!("iterate(Kp(T), {leaf}) ! P")).unwrap(),
        2 => kola::parse::parse_query("P union Q").unwrap(),
        _ => {
            let inner = tower(next(6) as usize, leaf);
            Query::PairQ(Box::new(inner), Box::new(Query::Extent(Arc::from("Q"))))
        }
    }
}

/// The direct (non-service) runs the parity criterion compares against:
/// the strategy layer's fixpoint on the fast engine, and the boxed
/// reference engine.
fn direct_runs(
    catalog: &Catalog,
    props: &PropDb,
    q: Query,
) -> [(Query, kola_rewrite::RewriteReport); 2] {
    let ids = catalog.forward_ids();
    let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let runner = Runner::new(catalog, props)
        .with_budget(Budget::default())
        .with_engine(EngineConfig::fast());
    let mut trace = Trace::new();
    let (out, _outcome, report) = runner.run_governed(&strategy::fix(&refs), q.clone(), &mut trace);
    let rules: Vec<Oriented> = catalog.rules().iter().map(Oriented::fwd).collect();
    let boxed = rewrite_fix_with(&rules, &q, props, &Budget::default(), &FaultPlan::default());
    [(out, report), (boxed.query, boxed.report)]
}

#[test]
fn service_output_is_byte_identical_to_direct_fast_engine_run() {
    // The boxed reference engine checks the serving path from here rather
    // than running inside it: every served plan and report must equal both
    // a direct fast-engine run and a direct boxed-engine run.
    let service = Service::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let catalog = Catalog::paper();
    let props = PropDb::new();
    for seed in 0..500u64 {
        let q = corpus_query(seed);
        let response = service.call(Request::ast(q.clone()));
        let [(direct_q, direct_report), (boxed_q, boxed_report)] = direct_runs(&catalog, &props, q);
        assert_eq!(response.outcome, Outcome::Optimized, "seed {seed}");
        let plan = response.plan.expect("optimized plan");
        let report = response.report.expect("fast engine report");
        for (label, want_q, want_report) in [
            ("fast", &direct_q, &direct_report),
            ("boxed", &boxed_q, &boxed_report),
        ] {
            assert_eq!(&*plan, want_q, "seed {seed} [{label}]");
            assert_eq!(&*report, want_report, "seed {seed} [{label}]");
            // Byte-identity, literally: the rendered plans and reports match.
            assert_eq!(
                format!("{plan}"),
                format!("{want_q}"),
                "seed {seed} [{label}]"
            );
            assert_eq!(
                format!("{report:?}"),
                format!("{want_report:?}"),
                "seed {seed} [{label}]"
            );
        }
        assert!(response.panic.is_none(), "seed {seed}");
    }
}

#[test]
fn full_queue_sheds_with_structured_overloaded() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        // This test floods the queue with *identical* requests; with the
        // plan cache on they would coalesce onto the held leader instead
        // of occupying queue slots, and nothing would shed.
        cache_capacity: 0,
        ..ServiceConfig::default()
    });
    let slow = Request::text("id . age ! P").with_options(RequestOptions {
        hold_for: Some(Duration::from_millis(300)),
        ..RequestOptions::default()
    });
    let first = service.submit(slow).expect("first request admitted");
    // Let the worker pick the slow job up so the queue itself is empty.
    std::thread::sleep(Duration::from_millis(50));
    let mut admitted = vec![first];
    let mut sheds = Vec::new();
    for _ in 0..3 {
        match service.submit(Request::text("id . age ! P")) {
            Ok(p) => admitted.push(p),
            Err(r) => sheds.push(r),
        }
    }
    assert!(
        !sheds.is_empty(),
        "submitting capacity+1 requests against a held worker must shed"
    );
    for shed in &sheds {
        assert_eq!(shed.outcome, Outcome::Overloaded);
        assert!(shed.error.as_deref().unwrap().contains("queue full"));
        assert!(shed.plan.is_none());
    }
    // Every admitted request still terminates classified.
    for p in admitted {
        let r = p.wait();
        assert_eq!(r.outcome, Outcome::Optimized);
    }
}

#[test]
fn breaker_trips_on_poison_rule_and_recovers_on_reset() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        breaker_threshold: 2,
        ..ServiceConfig::default()
    });
    let poison = RequestOptions {
        faults: FaultPlan::new().with(FaultSpec {
            rule_id: "app".to_string(),
            at: StepSelector::Always,
            kind: FaultKind::Panic,
        }),
        ..RequestOptions::default()
    };
    // Two poisoned requests: each has its one attempt panic in rule
    // "app", degrades to passthrough, and charges the breaker once.
    for i in 0..2 {
        let r = service.call(Request::text("id . id . age ! P").with_options(poison.clone()));
        assert_eq!(r.outcome, Outcome::Passthrough, "request {i}");
        let panic = r.panic.as_ref().expect("one attempt, one panic");
        assert_eq!(
            panic.rule_id.as_deref(),
            Some("app"),
            "request {i}: panic attributed to the poisoned rule"
        );
    }
    assert_eq!(service.breaker().open_rules(), vec!["app".to_string()]);
    let trips = service.breaker().report();
    assert_eq!(trips.entries.len(), 1);
    assert_eq!(trips.entries[0].rule_id, "app");
    assert_eq!(trips.entries[0].trips, 2);

    // Same poisoned request again: "app" is evicted from the rule set (and
    // the fast engine's index), so the fault never fires and the request
    // optimizes.
    let r = service.call(Request::text("id . id . age ! P").with_options(poison.clone()));
    assert_eq!(r.outcome, Outcome::Optimized);
    assert!(r.panic.is_none());
    let report = r.report.expect("report");
    assert!(
        !report.rule_stats.contains_key("app"),
        "evicted rule must not even be attempted"
    );

    // Operator reset readmits the rule; a clean request uses it again.
    assert!(service.breaker().reset("app"));
    assert!(service.breaker().open_rules().is_empty());
    let r = service.call(Request::text("id . id . age ! P"));
    assert_eq!(r.outcome, Outcome::Optimized);
    let report = r.report.expect("report");
    assert!(
        report.rule_stats.get("app").is_some_and(|s| s.fired > 0),
        "readmitted rule fires again"
    );
}

/// Cross-request memo correctness: a worker's persistent engine memoizes
/// normalizations under the full rule set; after a breaker trip masks a
/// rule the memoized derivation fired, the same query must be re-derived
/// under the *new* rule set — byte-identical to a fresh engine over that
/// set — not replayed from the memo. After the reset, the full-set answer
/// is back.
#[test]
fn persistent_engine_memo_does_not_leak_across_snapshot_swaps() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        breaker_threshold: 2,
        ..ServiceConfig::default()
    });
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let q = kola::parse::parse_query("id . id . age ! P").unwrap();

    // Epoch 0: the clean request runs (and memoizes) under the full set.
    let direct_run_for = |ids: Vec<String>| {
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let runner = Runner::new(&catalog, &props)
            .with_budget(Budget::default())
            .with_engine(EngineConfig::fast());
        let mut trace = Trace::new();
        let (out, _o, report) = runner.run_governed(&strategy::fix(&refs), q.clone(), &mut trace);
        (out, report)
    };
    let r = service.call(Request::ast(q.clone()));
    assert_eq!(r.outcome, Outcome::Optimized);
    let (full_q, full_report) = direct_run_for(catalog.forward_ids());
    assert_eq!(r.plan.as_deref(), Some(&full_q));
    assert_eq!(r.report.as_deref(), Some(&full_report));
    // Run it again: this answer may come from the memo — it must still be
    // byte-identical (memo replays are exact).
    let r = service.call(Request::ast(q.clone()));
    assert_eq!(r.plan.as_deref(), Some(&full_q));
    assert_eq!(r.report.as_deref(), Some(&full_report));

    // Trip "app": two poisoned requests open its breaker → epoch 1.
    let poison = RequestOptions {
        faults: FaultPlan::new().with(FaultSpec {
            rule_id: "app".to_string(),
            at: StepSelector::Always,
            kind: FaultKind::Panic,
        }),
        ..RequestOptions::default()
    };
    for _ in 0..2 {
        service.call(Request::ast(q.clone()).with_options(poison.clone()));
    }
    assert_eq!(service.breaker().open_rules(), vec!["app".to_string()]);

    // The same query under epoch 1 must match a fresh engine over the
    // reduced set — if the full-set memo leaked, "app" would appear in
    // rule_stats (its derivations fired it) and the report would differ.
    let r = service.call(Request::ast(q.clone()));
    assert_eq!(r.outcome, Outcome::Optimized);
    let reduced: Vec<String> = catalog
        .forward_ids()
        .into_iter()
        .filter(|id| id != "app")
        .collect();
    let (reduced_q, reduced_report) = direct_run_for(reduced);
    assert_eq!(r.plan.as_deref(), Some(&reduced_q));
    assert_eq!(r.report.as_deref(), Some(&reduced_report));
    assert!(
        !r.report.unwrap().rule_stats.contains_key("app"),
        "stale epoch-0 memo (derived with \"app\") must not be replayed"
    );

    // Reset: epoch 2 restores the full set; nothing the masked run derived
    // may be replayed — "app" fires again and the answer matches epoch 0's.
    assert!(service.breaker().reset("app"));
    let r = service.call(Request::ast(q.clone()));
    assert_eq!(r.outcome, Outcome::Optimized);
    assert_eq!(r.plan.as_deref(), Some(&full_q));
    assert_eq!(r.report.as_deref(), Some(&full_report));
    assert!(
        r.report
            .unwrap()
            .rule_stats
            .get("app")
            .is_some_and(|s| s.fired > 0),
        "after reset the readmitted rule fires in the re-derivation"
    );
}

/// Deep-term tests run their whole body on an oversized stack, as the
/// service's workers do: engine interning walks the input recursively and
/// even derived `PartialEq` on a 20k-deep term needs more than a default
/// test-thread stack in debug builds.
fn on_big_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(64 * 1024 * 1024)
            .spawn_scoped(scope, f)
            .unwrap()
            .join()
            .unwrap()
    })
}

/// A deadline that dies inside the engine attempt degrades to the
/// passthrough plan — the input itself — rather than surfacing an error,
/// and the response says why.
#[test]
fn service_deadline_expiry_yields_passthrough_response() {
    on_big_stack(service_deadline_expiry_body)
}

fn service_deadline_expiry_body() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    // A workload far too large for the deadline: the attempt burns the
    // whole budget and stops with DeadlineExpired.
    let q = Arc::new(tower(10_000, "age"));
    let r = service.call(Request::ast(Arc::clone(&q)).with_options(RequestOptions {
        max_steps: 50_000,
        timeout: Some(Duration::from_millis(3)),
        ..RequestOptions::default()
    }));
    assert_eq!(r.outcome, Outcome::Passthrough);
    assert!(
        r.plan.as_ref().is_some_and(|p| Arc::ptr_eq(p, &q)),
        "passthrough returns the input plan verbatim"
    );
    assert!(r.report.is_none());
    assert!(r.panic.is_none());
    let error = r.error.expect("the failed attempt is reported");
    assert!(error.contains("deadline expired"), "{error}");
}

/// An input larger than the term-size cap fails its one attempt before
/// any rule runs and passes through: no report, no rule charged, and
/// exactly one failure note.
#[test]
fn input_over_the_term_size_cap_returns_the_input_after_one_attempt() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let q = Arc::new(tower(4, "age"));
    let r = service.call(Request::ast(Arc::clone(&q)).with_options(RequestOptions {
        max_term_size: 1,
        ..RequestOptions::default()
    }));
    assert_eq!(r.outcome, Outcome::Passthrough);
    assert!(
        r.plan.as_ref().is_some_and(|p| Arc::ptr_eq(p, &q)),
        "passthrough returns the input plan verbatim"
    );
    assert!(r.report.is_none());
    assert!(r.panic.is_none());
    assert_eq!(
        r.error.as_deref(),
        Some("fast attempt: input exceeds term-size cap")
    );
    assert_eq!(service.metrics_snapshot().counter("rung_failures"), 1);
    assert!(service.breaker().snapshot().is_empty(), "no rule charged");
}

#[test]
fn kola_text_is_served_exactly_as_its_parsed_ast() {
    // KOLA text reaches the worker's engine unparsed and is built straight
    // into its arena; the reply must be the one the parsed AST gets. The
    // cold path that needs the boxed input (trace recording) runs here
    // too.
    let config = ServiceConfig {
        workers: 2,
        cache_capacity: 0,
        ..ServiceConfig::default()
    };
    let text_service = Service::start(ServiceConfig {
        tracing: true,
        ..config.clone()
    });
    let ast_service = Service::start(config);
    for seed in 0..500u64 {
        let q = corpus_query(seed);
        let text = q.to_string();
        let parsed = kola::parse::parse_query(&text).unwrap();
        let by_text = text_service.call(Request::text(text.clone()));
        let by_ast = ast_service.call(Request::ast(parsed.clone()));
        assert_eq!(by_text.outcome, by_ast.outcome, "seed {seed}: {text}");
        assert_eq!(by_text.plan, by_ast.plan, "seed {seed}: {text}");
        assert_eq!(by_text.report, by_ast.report, "seed {seed}: {text}");
        assert_eq!(by_text.error, by_ast.error, "seed {seed}: {text}");
    }
    let traces = text_service.traces();
    assert_eq!(traces.len(), 500);
    for t in &traces {
        let want = kola::parse::parse_query(&corpus_query(t.request_id).to_string()).unwrap();
        assert_eq!(t.input, want, "trace {} input", t.request_id);
    }

    // A deadline that is gone before the first attempt passes the text
    // through, parsed.
    let dead = RequestOptions {
        timeout: Some(Duration::ZERO),
        ..RequestOptions::default()
    };
    let text = "id . id . age ! P";
    let r = text_service.call(Request::text(text).with_options(dead.clone()));
    assert_eq!(r.outcome, Outcome::Passthrough);
    assert_eq!(
        r.plan.as_deref(),
        Some(&kola::parse::parse_query(text).unwrap())
    );

    // Unparsable text is Invalid on both lanes — engine parse, expired
    // deadline — with the front end's error and no rule charged or attempt
    // counted.
    let before = text_service.metrics_snapshot();
    let lanes = [RequestOptions::default(), dead];
    for opts in &lanes {
        for bad in ["id . ! P", "$f ! P", "P Q"] {
            let r = text_service.call(Request::text(bad).with_options(opts.clone()));
            assert_eq!(r.outcome, Outcome::Invalid, "{bad:?}");
            let want = kola_frontend::parse_any_query(bad).unwrap_err();
            assert_eq!(r.error.as_deref(), Some(want.as_str()), "{bad:?}");
            assert!(r.plan.is_none() && r.report.is_none());
        }
    }
    let after = text_service.metrics_snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(delta("completed_invalid"), 6);
    assert_eq!(delta("rung_failures"), 0);
}

#[test]
fn unparseable_and_oversized_requests_classify_invalid() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        max_request_bytes: 1024,
        ..ServiceConfig::default()
    });
    let r = service.call(Request::text("this is ] not a query ! ("));
    assert_eq!(r.outcome, Outcome::Invalid);
    assert!(r.error.as_deref().unwrap().starts_with("kola:"));
    assert!(r.plan.is_none());

    let r = service.call(Request::text("select . from where".to_string()));
    assert_eq!(r.outcome, Outcome::Invalid);
    assert!(r.error.as_deref().unwrap().starts_with("oql:"));

    let big = format!("id . {} ! P", "id . ".repeat(400));
    assert!(big.len() > 1024);
    let r = service.call(Request {
        payload: Payload::Text(big),
        options: RequestOptions::default(),
        tenant: None,
    });
    assert_eq!(r.outcome, Outcome::Invalid);
    assert!(r.error.as_deref().unwrap().contains("request too large"));
}

#[test]
fn deeply_bracketed_requests_are_invalid_and_the_service_keeps_serving() {
    // Text at the default 64 KiB request limit can nest brackets tens of
    // thousands deep; the parsers reject it past their nesting cap instead
    // of recursing until a worker's stack overflows. An expired deadline
    // sends the text down the passthrough path, which parses it into a
    // boxed tree rather than into the engine's arena.
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let nest = |n: usize, inner: &str| format!("{}{inner}{}", "(".repeat(n), ")".repeat(n));
    let dead = RequestOptions {
        timeout: Some(Duration::ZERO),
        ..RequestOptions::default()
    };
    let shapes = [
        (nest(32_000, "P"), dead.clone()),
        (nest(32_000, "P"), RequestOptions::default()),
        (format!("{} ! P", nest(27_000, "age")), dead),
        (
            format!("select x from x in P where {}", nest(10_000, "x.age = 3")),
            RequestOptions::default(),
        ),
    ];
    for (src, options) in shapes {
        let len = src.len();
        let r = service.call(Request::text(src).with_options(options));
        assert_eq!(r.outcome, Outcome::Invalid, "{len}-byte request");
        assert!(
            r.error.as_deref().unwrap().contains("nested deeper than"),
            "{:?}",
            r.error
        );
    }
    let r = service.call(Request::text("id . age ! P"));
    assert_eq!(r.outcome, Outcome::Optimized);
    assert_eq!(service.unexpected_panics(), 0);
}

#[test]
fn saturating_fleet_never_returns_a_larger_plan_than_the_fast_fleet() {
    // The engine-config knob: a fleet built over `EngineConfig::saturating()`
    // serves the same corpus through the same worker path, and every optimized
    // plan is no larger (term size, the extraction model) than the fast
    // fleet's — the e-graph seed wave makes that structural.
    let fast = Service::start(ServiceConfig {
        workers: 2,
        cache_capacity: 0,
        ..ServiceConfig::default()
    });
    let sat = Service::start(ServiceConfig {
        workers: 2,
        cache_capacity: 0,
        engine: EngineConfig::saturating(),
        ..ServiceConfig::default()
    });
    fn plan_size(q: &Query) -> usize {
        match q {
            Query::App(f, x) => {
                fn fsize(f: &Func) -> usize {
                    1 + match f {
                        Func::Compose(a, b)
                        | Func::PairWith(a, b)
                        | Func::Times(a, b)
                        | Func::Nest(a, b)
                        | Func::Unnest(a, b) => fsize(a) + fsize(b),
                        Func::Iterate(_, g) | Func::Iter(_, g) | Func::Join(_, g) => 1 + fsize(g),
                        _ => 0,
                    }
                }
                fsize(f) + plan_size(x)
            }
            Query::PairQ(a, b) => 1 + plan_size(a) + plan_size(b),
            _ => 1,
        }
    }
    for seed in 0..100u64 {
        let q = corpus_query(seed);
        let f = fast.call(Request::ast(q.clone()));
        let s = sat.call(Request::ast(q.clone()));
        assert!(
            matches!(f.outcome, Outcome::Optimized),
            "seed {seed}: fast fleet degraded: {:?}",
            f.outcome
        );
        assert!(
            matches!(s.outcome, Outcome::Optimized),
            "seed {seed}: saturating fleet degraded: {:?}",
            s.outcome
        );
        let fp = f.plan.expect("fast plan");
        let sp = s.plan.expect("saturating plan");
        assert!(
            plan_size(&sp) <= plan_size(&fp),
            "seed {seed}: saturating fleet returned a larger plan\n  fast: {fp}\n  sat : {sp}"
        );
    }
}
