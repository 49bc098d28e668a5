//! Trace determinism and replay fidelity.
//!
//! Drives 300 seeded requests through a single-worker traced service —
//! twice, from two fresh services — and asserts:
//!
//! 1. **Determinism**: the two runs record *identical* trace vectors
//!    (same rules in the same order, same fingerprints, same budgets).
//!    With one worker and sequential submission the service is a pure
//!    function of the request stream, and the traces prove it.
//! 2. **Replay fidelity**: every recorded trace re-executes step-by-step
//!    on the boxed reference engine — same rule sequence, same
//!    intermediate fingerprints, same stop reason, same final plan — so
//!    the fast engine that serves requests never needs the boxed engine
//!    beside it.
//!
//! The stream mixes KOLA towers with real redexes, catalog templates, OQL
//! text, injected Fail-kind rule faults, and failed engine attempts. No
//! deadlines and no holds: wall-clock must not shape the derivations.

use kola_exec::rng::{splitmix64, Rng};
use kola_obs::{replay, RewriteTrace};
use kola_rewrite::{Catalog, FaultKind, FaultPlan, FaultSpec, PropDb, StepSelector};
use kola_service::{Payload, Request, RequestOptions, Service, ServiceConfig};

const REQUESTS: usize = 300;
const SEED: u64 = 0x7ACE_5EED;

fn tower_text(height: usize) -> String {
    let mut s = String::new();
    for _ in 0..height {
        s.push_str("id . ");
    }
    s.push_str("age ! P");
    s
}

const TEMPLATES: &[&str] = &[
    "iterate(Kp(T), city) . iterate(Kp(T), addr) ! P",
    "iterate(Kp(T), city . addr) ! P",
    "age . id ! P",
    "sunion ! [P, Q]",
    "P union Q",
    "select p.age from p in P",
    "select p.age from p in P where p.age > 25",
    "select p from p in P where p.age > 18 and not p.age > 65",
];

/// One deterministic request: parseable payload, no deadline, no hold,
/// and a modest step cap — without a deadline, the step budget is what
/// bounds the run, and it bounds it deterministically.
fn generate(rng: &mut Rng) -> Request {
    let mut options = RequestOptions {
        max_steps: 200,
        ..RequestOptions::default()
    };
    let roll = rng.gen_range(0..100usize);
    let payload = if roll < 45 {
        Payload::Text(tower_text(1 + rng.gen_range(0..10usize)))
    } else if roll < 70 {
        Payload::Text(TEMPLATES[rng.gen_range(0..TEMPLATES.len())].to_string())
    } else if roll < 85 {
        // Fail-kind faults (never Panic: deterministic failure, no unwind):
        // the faulted rule's application fails, contained, and the recorded
        // fault plan must be re-injected verbatim at replay.
        options.faults = FaultPlan::new().with(FaultSpec {
            rule_id: if rng.gen_bool(0.5) { "app" } else { "e121" }.to_string(),
            at: StepSelector::Steps(vec![rng.gen_range(0..2usize)]),
            kind: FaultKind::Fail,
        });
        Payload::Text(tower_text(2 + rng.gen_range(0..6usize)))
    } else {
        // Failed engine attempt (input over the term-size cap): the
        // request ends in passthrough and records no trace, in both runs
        // alike.
        options.max_term_size = 1;
        Payload::Text(tower_text(1 + rng.gen_range(0..6usize)))
    };
    Request {
        payload,
        options,
        tenant: None,
    }
}

/// Run the seeded stream through a fresh single-worker traced service and
/// return the recorded traces.
fn run_stream() -> Vec<RewriteTrace> {
    let service = Service::start(ServiceConfig {
        workers: 1,
        tracing: true,
        trace_capacity: REQUESTS,
        // Never open a breaker: evicting a load-bearing structural rule
        // (e.g. "app") would leave later towers grinding through the full
        // step budget instead of normalizing in a handful of steps.
        breaker_threshold: usize::MAX,
        ..ServiceConfig::default()
    });
    let mut seed = SEED;
    for i in 0..REQUESTS {
        let mut rng = Rng::seed_from_u64(splitmix64(&mut seed) ^ i as u64);
        let resp = service.call(generate(&mut rng));
        assert!(
            resp.id == i as u64,
            "sequential single-worker stream must keep request ids dense"
        );
    }
    service.traces()
}

#[test]
fn traced_stream_is_deterministic_and_replays_on_reference_engine() {
    let first = run_stream();
    let second = run_stream();

    // Determinism: two fresh services, same stream, identical traces —
    // including fingerprints, which hash only structure, so they agree
    // across unrelated intern arenas.
    assert!(
        !first.is_empty(),
        "the stream must record traces (successful optimizations happened)"
    );
    assert_eq!(
        first.len(),
        second.len(),
        "both runs must record the same number of traces"
    );
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(
            a, b,
            "request {} traced differently across runs",
            a.request_id
        );
    }

    // Coverage: some traces carry fault plans, and some carry real
    // multi-step derivations.
    assert!(first.iter().any(|t| t.faults != FaultPlan::default()));
    assert!(first.iter().any(|t| t.steps.len() > 2));

    // Replay fidelity: every trace re-executes exactly on the boxed
    // reference engine.
    let catalog = Catalog::paper();
    let props = PropDb::new();
    for trace in &first {
        let outcome = replay(trace, &catalog, &props);
        assert!(
            outcome.is_match(),
            "request {} ({} steps) diverged at replay: {:?}",
            trace.request_id,
            trace.steps.len(),
            outcome
        );
    }
}
