//! The plan cache's external contract, proven through the public service
//! surface:
//!
//! 1. **Transparency** (`cache_on_is_byte_identical_to_cache_off`): across
//!    500 seeded request streams — repeated pool queries in both text and
//!    AST form, unique queries, injected rule faults that trip breakers
//!    mid-stream, failed engine attempts, and operator reset sweeps — a
//!    cache-enabled service answers byte-identically to a cache-disabled
//!    one, response by response. The cache may change *where* an answer
//!    comes from, never *what* it is.
//! 2. **Single-flight** (`identical_concurrent_misses_coalesce_onto_one_leader`):
//!    N concurrent identical misses cost one engine pass; the other N−1
//!    park on the leader and are served its answer.
//! 3. **Invalidation** (`breaker_trip_invalidates_resident_plans`): a
//!    breaker trip makes every resident plan stale; the next identical
//!    request recomputes under the new rule set and re-caches.
//!
//! The cache's internal mechanics (CLOCK eviction, key aliasing, epoch
//! reclaim) are unit-tested in `src/cache.rs`.

use kola::parse::parse_query;
use kola_exec::rng::{splitmix64, Rng};
use kola_rewrite::{FaultKind, FaultPlan, FaultSpec, StepSelector};
use kola_service::{Outcome, Request, RequestOptions, Response, Service, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

fn id_tower_text(height: usize) -> String {
    let mut s = String::new();
    for _ in 0..height {
        s.push_str("id . ");
    }
    s.push_str("age ! P");
    s
}

/// Everything a client can observe about a response except the id (the
/// two services number independently-submitted streams identically, but
/// keep the comparison honest) and the latency (wall-clock, not semantic).
fn fingerprint(r: &Response) -> String {
    format!(
        "{:?} | {:?} | {:?} | {:?} | panic={:?} | {:?}",
        r.outcome, r.plan, r.report, r.quarantine, r.panic, r.error
    )
}

/// One deterministic parity request. No wall-clock options (timeouts and
/// deadlines make outcomes timing-dependent with or without a cache).
fn gen_parity_request(rng: &mut Rng, op: usize, ast_pool: &[Arc<kola::term::Query>]) -> Request {
    let roll = rng.gen_range(0..100usize);
    if roll < 45 {
        // Repeated text pool: the cache's bread and butter.
        Request::text(id_tower_text(2 + rng.gen_range(0..6usize)))
    } else if roll < 60 {
        // Repeated AST pool: the no-parse submission path, same cache.
        Request::ast(Arc::clone(&ast_pool[rng.gen_range(0..ast_pool.len())]))
    } else if roll < 75 {
        // Unique query: always a miss, fills and churns the cache.
        Request::text(format!("gt ? [{}, 2]", op + 3))
    } else if roll < 90 {
        // Deterministic rule fault: uncacheable by design, charges the
        // breaker — this is what trips rules (and flips the cache
        // generation) mid-stream.
        Request::text(id_tower_text(2 + rng.gen_range(0..4usize))).with_options(RequestOptions {
            faults: FaultPlan::new().with(FaultSpec {
                rule_id: if rng.gen_bool(0.5) { "app" } else { "e121" }.to_string(),
                at: StepSelector::Steps(vec![rng.gen_range(0..2usize)]),
                kind: FaultKind::Fail,
            }),
            ..RequestOptions::default()
        })
    } else {
        // Failed engine attempt: the input exceeds the term-size cap, so
        // the attempt stops before any rule runs. Keyed like any pure
        // request but never inserted, answered with the passthrough plan
        // on both services.
        Request::text(id_tower_text(1 + rng.gen_range(0..4usize))).with_options(RequestOptions {
            max_term_size: 1,
            ..RequestOptions::default()
        })
    }
}

fn parity_service(cache_capacity: usize) -> Service {
    Service::start(ServiceConfig {
        workers: 1,
        cache_capacity,
        // Low enough that the fault lane trips rules inside a 30-request
        // stream — every trip is a snapshot swap the cache must survive.
        breaker_threshold: 3,
        ..ServiceConfig::default()
    })
}

#[test]
fn cache_on_is_byte_identical_to_cache_off() {
    let seeds: u64 = std::env::var("CACHE_PARITY_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500);
    const OPS: usize = 30;
    let ast_pool: Vec<Arc<kola::term::Query>> = (2..5)
        .map(|h| Arc::new(parse_query(&id_tower_text(h)).expect("pool parses")))
        .collect();
    let (mut total_hits, mut total_stale) = (0u64, 0u64);
    let mut master = 0xCAC4E_u64;
    for i in 0..seeds {
        let seed = splitmix64(&mut master) ^ i;
        let cached = parity_service(2_048);
        let uncached = parity_service(0);
        let mut rng = Rng::seed_from_u64(seed);
        for op in 0..OPS {
            let request = gen_parity_request(&mut rng, op, &ast_pool);
            let a = cached.call(request.clone());
            let b = uncached.call(request);
            assert_eq!(
                fingerprint(&a),
                fingerprint(&b),
                "seed {seed:#x} op {op}: cache-on diverged from cache-off"
            );
            // Periodic operator reset sweep — identical on both sides
            // because the charge streams are identical (cache hits only
            // happen for requests that charge nothing). Every reset of an
            // open rule is another generation bump mid-stream.
            if op % 11 == 10 {
                let open = cached.breaker().open_rules();
                assert_eq!(
                    open,
                    uncached.breaker().open_rules(),
                    "seed {seed:#x} op {op}"
                );
                for rule in open {
                    cached.breaker().reset(&rule);
                    uncached.breaker().reset(&rule);
                }
            }
        }
        let s = cached.metrics_snapshot();
        total_hits += s.counter("cache_hits");
        total_stale += s.counter("cache_stale");
        assert_eq!(
            uncached.metrics_snapshot().counter("cache_hits"),
            0,
            "a zero-capacity cache must never hit"
        );
    }
    // The suite exercised what it claims to: plenty of hits, and stale
    // reclaims prove invalidation ran while plans were resident.
    assert!(total_hits > 0, "parity streams never hit the cache");
    assert!(
        total_stale > 0,
        "parity streams never reclaimed a stale plan (no trip landed while a plan was resident)"
    );
}

#[test]
fn identical_concurrent_misses_coalesce_onto_one_leader() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 32,
        ..ServiceConfig::default()
    });
    // The leader holds its worker long enough for the followers to submit
    // while the flight is open. `hold_for` is pacing, not key material —
    // the followers carry default options and still share the key.
    let src = id_tower_text(5);
    let leader = service
        .submit(Request::text(src.clone()).with_options(RequestOptions {
            hold_for: Some(Duration::from_millis(300)),
            ..RequestOptions::default()
        }))
        .expect("leader admitted");
    let followers: Vec<_> = (0..5)
        .map(|_| {
            service
                .submit(Request::text(src.clone()))
                .expect("follower accepted")
        })
        .collect();
    let lead_response = leader.wait();
    let follower_responses: Vec<Response> = followers.into_iter().map(|p| p.wait()).collect();

    assert_eq!(lead_response.outcome, Outcome::Optimized);
    for f in &follower_responses {
        assert_eq!(f.outcome, lead_response.outcome);
        assert_eq!(f.plan, lead_response.plan, "waiters get the leader's plan");
        assert_eq!(f.report, lead_response.report);
    }
    let s = service.metrics_snapshot();
    assert_eq!(
        s.counter("cache_coalesced"),
        5,
        "five waiters parked on the flight"
    );
    assert_eq!(s.counter("admitted"), 1, "one engine pass for six requests");
    assert_eq!(
        s.counter("cache_hits"),
        5,
        "coalesced waiters count as hits"
    );

    // The flight retired into a resident entry: the next identical
    // request is a direct hit, still with no admission.
    let again = service.call(Request::text(src));
    assert_eq!(again.outcome, lead_response.outcome);
    assert_eq!(again.plan, lead_response.plan);
    let s = service.metrics_snapshot();
    assert_eq!(s.counter("admitted"), 1);
    assert_eq!(s.counter("cache_hits"), 6);
    assert_eq!(
        s.counter("cache_hits"),
        s.family("cache_served")
            .iter()
            .map(|(_, n)| *n)
            .sum::<u64>(),
        "every hit was served"
    );
}

#[test]
fn breaker_trip_invalidates_resident_plans() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let src = id_tower_text(6);

    let first = service.call(Request::text(src.clone()));
    assert_eq!(first.outcome, Outcome::Optimized);
    let second = service.call(Request::text(src.clone()));
    assert_eq!(fmt_plan(&second), fmt_plan(&first));
    let s = service.metrics_snapshot();
    assert_eq!(s.counter("cache_insertions"), 1);
    assert_eq!(s.counter("cache_hits"), 1);

    // Operator-visible trip: open a rule directly. Generation moves, so
    // the resident plan — computed under the old rule set — is dead.
    for i in 0..10 {
        service.breaker().charge("11", 1_000 + i);
    }
    assert!(service.breaker().is_open("11"));

    let third = service.call(Request::text(src.clone()));
    assert_eq!(
        third.outcome,
        Outcome::Optimized,
        "recompute under the reduced rule set still answers"
    );
    let s = service.metrics_snapshot();
    assert_eq!(s.counter("cache_hits"), 1, "the stale entry must not serve");
    assert_eq!(
        s.counter("cache_stale"),
        1,
        "the stale entry was reclaimed on sight"
    );
    assert_eq!(s.counter("cache_insertions"), 2, "the recompute re-cached");

    // And the re-cached plan serves under the new generation.
    let fourth = service.call(Request::text(src));
    assert_eq!(fmt_plan(&fourth), fmt_plan(&third));
    assert_eq!(service.metrics_snapshot().counter("cache_hits"), 2);

    // Reset moves the generation again: resident plans die once more.
    service.breaker().reset("11");
    let fifth = service.call(Request::text(id_tower_text(6)));
    assert_eq!(fifth.outcome, Outcome::Optimized);
    assert_eq!(fmt_plan(&fifth), fmt_plan(&first), "full rule set is back");
    let s = service.metrics_snapshot();
    assert_eq!(s.counter("cache_stale"), 2);
}

/// Satellite of the single-flight fix: a leader whose pass turns out
/// unserveable (here: its deadline expires mid-hold, so the ladder
/// degrades to Passthrough) must hand its parked waiters back to the
/// queue as solo passes — never answer them with the failed reply, never
/// leave them parked until their own deadlines.
#[test]
fn failed_leader_requeues_waiters_as_solo_passes() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 32,
        ..ServiceConfig::default()
    });
    let src = id_tower_text(5);
    // The leader holds its worker past its own deadline: the ladder runs
    // with the budget already exhausted and degrades to Passthrough —
    // which is not cacheable, so the flight retires empty-handed.
    let leader = service
        .submit(Request::text(src.clone()).with_options(RequestOptions {
            hold_for: Some(Duration::from_millis(300)),
            timeout: Some(Duration::from_millis(50)),
            ..RequestOptions::default()
        }))
        .expect("leader admitted");
    let followers: Vec<_> = (0..5)
        .map(|_| {
            service
                .submit(Request::text(src.clone()))
                .expect("follower accepted")
        })
        .collect();
    let lead_response = leader.wait();
    assert_eq!(
        lead_response.outcome,
        Outcome::Passthrough,
        "the leader's expired deadline must degrade it"
    );
    // Every waiter fell through to its own engine pass and optimized.
    for f in followers {
        let r = f.wait();
        assert_eq!(
            r.outcome,
            Outcome::Optimized,
            "requeued waiter must answer from its own pass"
        );
    }
    let s = service.metrics_snapshot();
    assert_eq!(s.counter("cache_hits"), 0, "nothing was served from cache");
    assert_eq!(
        s.counter("cache_coalesced"),
        0,
        "no waiter was answered by the leader"
    );
    assert_eq!(
        s.counter("cache_insertions"),
        0,
        "a Passthrough never caches"
    );
    assert_eq!(
        s.counter("admitted"),
        6,
        "leader + five requeued waiters each took a queue slot"
    );
    assert_eq!(
        kola_service::conservation_violations(&s),
        Vec::<String>::new(),
        "requeue keeps the books balanced"
    );
}

/// Satellite of the tenant split: one tenant's breaker trip moves only
/// its own cache generation. The other tenant's resident plans keep
/// serving; the tripped tenant recomputes under its reduced rule set.
#[test]
fn tenant_trip_leaves_other_tenants_plans_resident() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        tenants: vec!["a".to_string(), "b".to_string()],
        ..ServiceConfig::default()
    });
    let src = id_tower_text(6);
    // Warm one line per tenant — same query text, tenant-salted keys.
    let a1 = service.call(Request::text(src.clone()).for_tenant("a"));
    let b1 = service.call(Request::text(src.clone()).for_tenant("b"));
    assert_eq!(a1.outcome, Outcome::Optimized);
    assert_eq!(b1.outcome, Outcome::Optimized);
    let s = service.metrics_snapshot();
    assert_eq!(s.counter("cache_insertions"), 2, "one line per tenant");
    assert_eq!(s.counter("cache_hits"), 0);

    // Operator-visible trip on tenant "a" only.
    let a_breaker = service.tenant_breaker("a").expect("tenant a exists");
    for i in 0..10 {
        a_breaker.charge("11", 2_000 + i);
    }
    assert!(a_breaker.is_open("11"));
    assert_eq!(
        service
            .tenant_breaker("b")
            .expect("tenant b exists")
            .generation(),
        0,
        "b's generation must not move on a's trip"
    );

    // b's repeats keep hitting — ten straight, zero recomputes.
    for _ in 0..10 {
        let b = service.call(Request::text(src.clone()).for_tenant("b"));
        assert_eq!(fmt_plan(&b), fmt_plan(&b1), "b serves its resident plan");
    }
    let s = service.metrics_snapshot();
    assert_eq!(s.counter("cache_hits"), 10, "every b repeat was a hit");
    assert_eq!(s.counter("cache_stale"), 0, "no line went stale yet");

    // a recomputes under its reduced rule set and re-caches.
    let a2 = service.call(Request::text(src.clone()).for_tenant("a"));
    assert_eq!(
        a2.outcome,
        Outcome::Optimized,
        "a still answers under the reduced rule set"
    );
    let s = service.metrics_snapshot();
    assert_eq!(s.counter("cache_stale"), 1, "a's stale line was reclaimed");
    assert_eq!(s.counter("cache_insertions"), 3, "a's recompute re-cached");
    // The hit books are tenant-labelled: all ten hits were b's (plus a's
    // re-cached line serving its next repeat).
    let a3 = service.call(Request::text(src).for_tenant("a"));
    assert_eq!(fmt_plan(&a3), fmt_plan(&a2));
    let s = service.metrics_snapshot();
    let lane = |label: &str| {
        s.family("tenant_cache_hits")
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0, |(_, n)| *n)
    };
    assert_eq!(lane("b"), 10);
    assert_eq!(lane("a"), 1);
    assert_eq!(
        kola_service::conservation_violations(&s),
        Vec::<String>::new()
    );
}

fn fmt_plan(r: &Response) -> String {
    format!("{:?}", r.plan)
}
