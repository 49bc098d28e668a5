//! Multi-tenant isolation, proven through the public service surface:
//!
//! 1. **Admission** (`tenant_quota_sheds_only_the_noisy_tenant`,
//!    `unknown_tenants_are_rejected_at_the_door`): a tenant at its quota
//!    gets a structured `Overloaded` while its neighbors keep admitting;
//!    a name the service was not configured with is `Invalid`, never
//!    silently folded into another tenant's state.
//! 2. **Shared engines** (`shared_engines_never_alias_tenant_rule_masks`,
//!    `alternating_tenants_share_one_engines_caches`): two tenants whose
//!    breakers sit at the *same* raw generation but different rule masks
//!    share one persistent worker engine; interleaved traffic must answer
//!    byte-identically to each tenant running solo. The engine shares
//!    between masks only full-rule-set facts, which hold under either
//!    mask — so tenants with no open breaker alternating through one
//!    worker reuse its caches exactly as one tenant does.
//! 3. **Export safety** (`hostile_tenant_names_export_escaped_json`):
//!    tenant names are operator-supplied strings that flow into the
//!    hand-rolled JSON metric export; hostile names must come out escaped.
//!
//! The noisy-neighbor soak (an aggressor tenant's poison panics and
//! admission floods against a clean victim) runs with the soak harness:
//! `kola-bench/tests/noisy_neighbor.rs`.

use kola_service::{Outcome, Request, RequestOptions, Response, Service, ServiceConfig};
use std::time::Duration;

fn id_tower_text(height: usize) -> String {
    let mut s = String::new();
    for _ in 0..height {
        s.push_str("id . ");
    }
    s.push_str("age ! P");
    s
}

fn fingerprint(r: &Response) -> String {
    format!(
        "{:?} | {:?} | {:?} | {:?} | panic={:?} | {:?}",
        r.outcome, r.plan, r.report, r.quarantine, r.panic, r.error
    )
}

#[test]
fn unknown_tenants_are_rejected_at_the_door() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        tenants: vec!["a".to_string()],
        ..ServiceConfig::default()
    });
    let r = service.call(Request::text("id . age ! P").for_tenant("zzz"));
    assert_eq!(r.outcome, Outcome::Invalid);
    assert!(
        r.error
            .as_deref()
            .unwrap_or_default()
            .contains("unknown tenant"),
        "rejection names the cause: {:?}",
        r.error
    );
    assert_eq!(
        &*r.tenant, "zzz",
        "the reply echoes the name the client sent"
    );
    // A known tenant still admits, and the books balance with the unknown
    // submission parked in the catch-all lane.
    let ok = service.call(Request::text("id . age ! P").for_tenant("a"));
    assert_eq!(ok.outcome, Outcome::Optimized);
    assert_eq!(&*ok.tenant, "a");
    let s = service.metrics_snapshot();
    assert_eq!(
        s.family("tenant_submitted"),
        &[("a".to_string(), 1), ("other".to_string(), 1)]
    );
    assert_eq!(
        kola_service::conservation_violations(&s),
        Vec::<String>::new()
    );
}

#[test]
fn tenant_quota_sheds_only_the_noisy_tenant() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 32,
        tenants: vec!["a".to_string(), "b".to_string()],
        tenant_quota: 2,
        cache_capacity: 0,
        ..ServiceConfig::default()
    });
    let held = |ms: u64| {
        Request::text(id_tower_text(3)).with_options(RequestOptions {
            hold_for: Some(Duration::from_millis(ms)),
            ..RequestOptions::default()
        })
    };
    // Occupy the single worker, then give it time to dequeue (quota slots
    // are released at dequeue, so the wall below is deterministic).
    let a1 = service
        .submit(held(300).for_tenant("a"))
        .expect("a1 admitted");
    std::thread::sleep(Duration::from_millis(100));
    // Fill a's quota with queued work, then overflow it.
    let a2 = service
        .submit(held(1).for_tenant("a"))
        .expect("a2 admitted");
    let a3 = service
        .submit(held(1).for_tenant("a"))
        .expect("a3 admitted");
    let shed = match service.submit(held(1).for_tenant("a")) {
        Err(r) => r,
        Ok(_) => panic!("a must be at quota"),
    };
    assert_eq!(shed.outcome, Outcome::Overloaded);
    assert!(
        shed.error
            .as_deref()
            .unwrap_or_default()
            .contains("at quota"),
        "the shed names the tenant wall, not the global one: {:?}",
        shed.error
    );
    assert_eq!(&*shed.tenant, "a");
    // The neighbor keeps admitting through a's wall.
    let b1 = service.submit(held(1).for_tenant("b")).expect("b admits");
    for p in [a1, a2, a3, b1] {
        let r = p.wait();
        assert_eq!(r.outcome, Outcome::Optimized);
    }
    let s = service.metrics_snapshot();
    assert_eq!(s.family("tenant_overloaded"), &[("a".to_string(), 1)]);
    assert_eq!(
        kola_service::conservation_violations(&s),
        Vec::<String>::new()
    );
}

#[test]
fn shared_engines_never_alias_tenant_rule_masks() {
    // One worker serving two tenants whose breakers sit at the SAME raw
    // generation (1) but with different rules evicted: "11" for a, "app"
    // for b. The worker's one persistent engine flips between the two
    // masks on every request below.
    let multi = Service::start(ServiceConfig {
        workers: 1,
        cache_capacity: 0,
        tenants: vec!["a".to_string(), "b".to_string()],
        ..ServiceConfig::default()
    });
    let solo = |rule: &str| {
        let s = Service::start(ServiceConfig {
            workers: 1,
            cache_capacity: 0,
            ..ServiceConfig::default()
        });
        for i in 0..10 {
            s.breaker().charge(rule, 3_000 + i);
        }
        assert!(s.breaker().is_open(rule));
        s
    };
    let solo_a = solo("11");
    let solo_b = solo("app");
    for (tenant, rule) in [("a", "11"), ("b", "app")] {
        let b = multi.tenant_breaker(tenant).expect("tenant exists");
        for i in 0..10 {
            b.charge(rule, 3_000 + i);
        }
        assert!(b.is_open(rule));
        assert_eq!(b.generation(), 1);
    }
    // Interleave the tenants so every request swaps the engine's mask;
    // each must answer exactly as its solo twin.
    for h in 2..10usize {
        let q = id_tower_text(h);
        let a = multi.call(Request::text(q.clone()).for_tenant("a"));
        assert_eq!(
            fingerprint(&a),
            fingerprint(&solo_a.call(Request::text(q.clone()))),
            "height {h}: tenant a diverged from its solo twin"
        );
        let b = multi.call(Request::text(q.clone()).for_tenant("b"));
        assert_eq!(
            fingerprint(&b),
            fingerprint(&solo_b.call(Request::text(q))),
            "height {h}: tenant b diverged from its solo twin"
        );
    }
}

#[test]
fn alternating_tenants_share_one_engines_caches() {
    // Every tower text twice in a row, through one worker with the plan
    // cache off, so the second send can only be saved by the engine's
    // memo and normal-subtree marks. Neither tenant has an open breaker:
    // alternating them must cost the engine exactly what one tenant does.
    let stream: Vec<String> = (1..=100)
        .flat_map(|h| [id_tower_text(h), id_tower_text(h)])
        .collect();
    let run = |tenants: &[&str]| {
        let service = Service::start(ServiceConfig {
            workers: 1,
            cache_capacity: 0,
            tenants: tenants.iter().map(|t| t.to_string()).collect(),
            ..ServiceConfig::default()
        });
        let fingerprints: Vec<String> = stream
            .iter()
            .zip(tenants.iter().cycle())
            .map(|(q, t)| fingerprint(&service.call(Request::text(q.clone()).for_tenant(*t))))
            .collect();
        let s = service.metrics_snapshot();
        (
            fingerprints,
            s.counter("engine_memo_hits"),
            s.counter("engine_visits"),
        )
    };
    let (solo, solo_hits, solo_visits) = run(&["a"]);
    let (alternating, hits, visits) = run(&["a", "b"]);
    assert_eq!(solo, alternating);
    assert!(solo_hits >= 100, "every repeat should replay: {solo_hits}");
    assert_eq!(hits, solo_hits, "engine_memo_hits");
    assert_eq!(visits, solo_visits, "engine_visits");
}

#[test]
fn hostile_tenant_names_export_escaped_json() {
    let hostile = "t\"en\\ant\n\u{1f}";
    let service = Service::start(ServiceConfig {
        workers: 1,
        tenants: vec![hostile.to_string()],
        ..ServiceConfig::default()
    });
    let r = service.call(Request::text("id . age ! P").for_tenant(hostile));
    assert_eq!(r.outcome, Outcome::Optimized);
    let json = service.metrics_snapshot().to_json();
    assert!(
        json.contains(r#"t\"en\\ant\n\u001f"#),
        "tenant name must be escaped in the export"
    );
    assert!(
        !json.contains('\u{1f}'),
        "no raw control byte may reach the export"
    );
}
