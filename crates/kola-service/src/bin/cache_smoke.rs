//! Plan-cache smoke gate for CI (`scripts/ci.sh --cache-smoke`).
//!
//! ```sh
//! cargo run -p kola-service --bin cache-smoke --release
//! ```
//!
//! Two checks, both sized for a CI lane:
//!
//! 1. **Hit-rate soak** — a short repeated-traffic stream at a 90% target
//!    hit rate: every `RepeatedReport` invariant must hold (all requests
//!    optimized, conservation books balanced, zero panics) and the
//!    achieved hit rate must be ≥ 85%.
//! 2. **Mini parity** — a cache-enabled and a cache-disabled service
//!    driven with identical request streams, including an injected-fault
//!    lane that trips a breaker and an operator reset mid-stream, must
//!    answer byte-identically response by response. (The full 500-seed
//!    suite lives in `tests/cache.rs`; this is the always-on subset.)
//!
//! Environment: `CACHE_SMOKE_REQUESTS` (default 1200) sizes the soak.
//! Exits nonzero on any failure.

use kola_rewrite::{FaultKind, FaultPlan, FaultSpec, StepSelector};
use kola_service::{
    run_repeated_stream, RepeatedConfig, Request, RequestOptions, Response, Service, ServiceConfig,
};

fn id_tower_text(height: usize) -> String {
    let mut s = String::new();
    for _ in 0..height {
        s.push_str("id . ");
    }
    s.push_str("age ! P");
    s
}

/// Everything semantic about a response (id and wall-clock excluded).
fn fingerprint(r: &Response) -> String {
    format!(
        "{:?} | {:?} | {:?} | {:?} | panic={:?} | {:?}",
        r.outcome, r.plan, r.report, r.quarantine, r.panic, r.error
    )
}

fn fail(msg: &str) -> ! {
    eprintln!("CACHE SMOKE FAILED: {msg}");
    std::process::exit(1);
}

fn hit_rate_soak(requests: usize) {
    let cfg = RepeatedConfig {
        requests,
        hit_target: 0.9,
        ..RepeatedConfig::default()
    };
    let report = run_repeated_stream(&cfg);
    println!(
        "repeated soak: {} requests, {} hits ({:.1}% of a 90% target), {:.0} req/s",
        report.requests,
        report.cache_hits,
        report.hit_actual * 100.0,
        report.throughput_rps()
    );
    if !report.violations.is_empty() {
        fail(&format!(
            "repeated soak violated invariants:\n{}",
            report.violations.join("\n")
        ));
    }
    if report.hit_actual < 0.85 {
        fail(&format!(
            "achieved hit rate {:.1}% < 85% at a 90% target",
            report.hit_actual * 100.0
        ));
    }
}

fn parity_service(cache_capacity: usize) -> Service {
    Service::start(ServiceConfig {
        workers: 1,
        cache_capacity,
        breaker_threshold: 3,
        ..ServiceConfig::default()
    })
}

fn mini_parity() {
    let cached = parity_service(2_048);
    let uncached = parity_service(0);
    let pool: Vec<String> = (0..4).map(|h| id_tower_text(3 + h)).collect();
    let fault_request = || {
        Request::text(id_tower_text(4)).with_options(RequestOptions {
            faults: FaultPlan::new().with(FaultSpec {
                rule_id: "app".to_string(),
                at: StepSelector::Steps(vec![0]),
                kind: FaultKind::Fail,
            }),
            ..RequestOptions::default()
        })
    };
    let mut hits_seen = 0u64;
    for op in 0..60usize {
        let request = match op % 10 {
            // Fault lane: charges "app"; three of these trip it (a
            // snapshot swap every resident plan must notice).
            3 => fault_request(),
            // Unique tail.
            7 => Request::text(format!("gt ? [{}, 2]", op + 3)),
            // Pool repeats: hits on the cached side from the second lap.
            k => Request::text(pool[k % pool.len()].clone()),
        };
        let a = cached.call(request.clone());
        let b = uncached.call(request);
        if fingerprint(&a) != fingerprint(&b) {
            fail(&format!(
                "parity diverged at op {op}:\n  cache-on:  {}\n  cache-off: {}",
                fingerprint(&a),
                fingerprint(&b)
            ));
        }
        // Mid-stream operator reset — identical on both sides, and
        // another generation move for the cache to survive.
        if op == 40 {
            let open = cached.breaker().open_rules();
            if open != uncached.breaker().open_rules() {
                fail("breaker open sets diverged between parity services");
            }
            for rule in open {
                cached.breaker().reset(&rule);
                uncached.breaker().reset(&rule);
            }
        }
        hits_seen = cached.metrics_snapshot().counter("cache_hits");
    }
    let stale = cached.metrics_snapshot().counter("cache_stale");
    println!("mini parity: 60 ops byte-identical, {hits_seen} hits, {stale} stale reclaims");
    if hits_seen == 0 {
        fail("parity stream never hit the cache — the check proved nothing");
    }
    if stale == 0 {
        fail("no stale reclaim: the trip never invalidated a resident plan");
    }
}

fn main() {
    let requests = std::env::var("CACHE_SMOKE_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_200);
    hit_rate_soak(requests);
    mini_parity();
    println!(
        "cache smoke passed: hit rate >= 85% at 90% target, parity holds through trips/resets"
    );
}
