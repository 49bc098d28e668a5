//! Service latency/throughput across worker counts, on two streams.
//!
//! **chaos** — the deterministic chaos stream (same generator and seed as
//! the soak test): clean requests, deep adversarial terms, poison rules,
//! flood phases. Numbers describe the service *with* its degradation
//! machinery engaged — not a happy-path microbenchmark. Like the clean
//! stream, every chaos request carries a fixed 2 ms materialization stall
//! (timeouts are extended by the same stall, so expiry is
//! stall-independent), and the chaos wall-clock is the *serving* window
//! only — the post-hoc trace-replay audit is excluded.
//!
//! **clean** — the no-fault scaling stream: parseable queries with real
//! redexes, driven by 16 closed-loop clients, each request carrying a
//! fixed 2 ms simulated materialization stall (work a worker does while
//! holding no locks). The stall matters: this repo's benchmarks run on a
//! **single core**, where CPU-bound work cannot scale with workers at all
//! — what *can* scale is concurrency, N workers overlapping N stalls.
//! `scaling_efficiency` = (throughput at N workers) / (N × throughput at
//! 1 worker) against each stream's own 1-worker row.
//!
//! With `BENCH_ENFORCE=1` the run fails unless **both** streams scale:
//! clean 4-worker throughput ≥ 1.5× 1-worker, and chaos 8-worker
//! throughput ≥ 2× 1-worker (4-worker ≥ 1.5× in smoke mode, which skips
//! the 8-worker-scale confidence a 300-request stream cannot give). The
//! chaos gate is the one the degraded path earns: with the breaker and
//! trace ring sharded per worker, a fault-saturated stream
//! must scale too — a global lock on any failure surface would flatten it.
//! The measured ratios on an idle host leave generous headroom for noisy
//! shared runners. The clean stream runs with tracing **off** — the
//! default service configuration — so its gate doubles as the
//! zero-cost-when-disabled check for the observability layer.
//!
//! The chaos rows run with tracing **on**: their numbers describe the
//! service with the full degradation *and* provenance machinery engaged,
//! and the 4-worker row's metric snapshot, trace-replay tally, and
//! conservation verdict are emitted as `BENCH_obs.json`.
//!
//! **repeated** — the plan-cache workload: 8 closed-loop clients drawing
//! Zipf-skewed repeats from a fixed 32-query pool at a configured target
//! hit rate (0%, 50%, 90%), the rest a never-repeating unique tail. The
//! 0% row is the baseline: every request takes a worker and its 2 ms
//! stall. At 90% the cache answers nine requests in ten on the submitting
//! thread — no queue slot, no worker, no stall — which is the asymmetry
//! the rows measure. Both scaling streams run with the cache **off**
//! (chaos via `cache_capacity: 0` / `repeated: 0.0`, clean inside
//! `soak::run_clean_stream`): their gates measure worker concurrency, and a
//! cache would answer part of the stream without workers touching it.
//! Cache-on chaos coverage lives in the chaos soak test.
//!
//! **clean_nostall** — the clean stream on one worker with no stall at all
//! (`hold_for: None`): every microsecond of the row is the service's own
//! work — queue handoff, parse, interning, rewriting, metric flush. Its
//! `us_per_request` (wall time over requests; 16 clients keep the worker
//! saturated) is the per-request service cost the stall rows hide. It
//! carries no gate.
//!
//! With `BENCH_ENFORCE=1` the repeated rows gate too: the 90%-target row
//! must achieve ≥ 0.90 hits, serve a sub-10 µs p50 (the stream is
//! hit-dominated, so its p50 *is* the cache-hit latency), and carry ≥ 10×
//! the 0%-row throughput (≥ 6× in smoke mode, where the short stream
//! leaves the ratio noisier). Every row also cross-checks the
//! client-tallied caught panics against the metric counter — the
//! per-row conservation audit.
//!
//! **tenant_solo / tenant_noisy** — the noisy-neighbor pair: a clean
//! victim tenant measured twice on an 8-worker two-tenant service, once
//! alone and once while an aggressor tenant pours poison-rule panics and
//! admission floods into the same workers. Both rows report the
//! *victim's* latency and throughput; the aggressor appears only through
//! whatever damage it manages. With `BENCH_ENFORCE=1` the pair gates the
//! isolation claim quantitatively: victim p99 under attack ≤ 2× its solo
//! p99, and victim throughput ≥ 0.7× solo. The qualitative claims (victim
//! taxonomy unchanged, no cross-tenant breaker charge or cache
//! invalidation, balanced per-tenant books) are asserted unconditionally
//! on both rows via `soak::TenantChaosReport::violations`.
//!
//! Emits `BENCH_service.json` (and `BENCH_obs.json`) at the repository
//! root. `BENCH_SMOKE=1` shrinks the streams for CI: the repeated rows to
//! 1,200 requests, the chaos and clean rows to 300 (the tenant rows keep
//! their 4,000); a smoke run writes both files under `target/bench-smoke/`
//! instead, leaving the committed ones alone.

use kola_bench::smoke_mode;
use kola_bench::soak::{
    artifact_path, run_chaos, run_clean_stream, run_noisy_neighbor, run_repeated_stream,
    throughput_rps, ChaosConfig, ChaosReport, CleanConfig, RepeatedConfig, Tally,
    TenantChaosConfig,
};
use std::time::Duration;

struct Row {
    stream: &'static str,
    workers: usize,
    requests: usize,
    wall_ms: u128,
    throughput_rps: f64,
    scaling_efficiency: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    overloaded: usize,
    passthrough: usize,
    caught_panics: usize,
    peak_arena_nodes: usize,
    /// Target plan-cache hit rate ([0, 1]; 0 for the non-repeated streams).
    hit_target: f64,
    /// Achieved hit rate over the timed window.
    hit_actual: f64,
    /// Plan-cache hits inside the timed window.
    cache_hits: u64,
}

impl Row {
    /// A row for `tally`'s clients over `window`; the fields a tally does
    /// not know (scaling, arena, cache) start at their neutral values.
    fn from_tally(stream: &'static str, workers: usize, tally: &Tally, window: Duration) -> Row {
        let (p50_us, p95_us, p99_us) = tally.percentiles_us();
        Row {
            stream,
            workers,
            requests: tally.requests,
            wall_ms: window.as_millis(),
            throughput_rps: throughput_rps(tally.requests, window),
            scaling_efficiency: 1.0,
            p50_us,
            p95_us,
            p99_us,
            overloaded: tally.overloaded,
            passthrough: tally.passthrough,
            caught_panics: tally.caught_panics,
            peak_arena_nodes: 0,
            hit_target: 0.0,
            hit_actual: 0.0,
            cache_hits: 0,
        }
    }

    /// Wall-clock µs per request: the inverse of the throughput.
    fn us_per_request(&self) -> f64 {
        1e6 / self.throughput_rps.max(1e-9)
    }

    fn print(&self) {
        println!(
            "service/{}/{}w: {} req in {} ms ({:.0} req/s, {:.1} us/req, eff {:.2})  \
             p50 {} us  p95 {} us  p99 {} us  shed {}  passthrough {}  \
             panics-caught {}  peak-arena {}",
            self.stream,
            self.workers,
            self.requests,
            self.wall_ms,
            self.throughput_rps,
            self.us_per_request(),
            self.scaling_efficiency,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.overloaded,
            self.passthrough,
            self.caught_panics,
            self.peak_arena_nodes,
        );
        if self.hit_target > 0.0 || self.cache_hits > 0 {
            println!(
                "service/{}/{}w: hit target {:.0}% -> achieved {:.1}% ({} hits)",
                self.stream,
                self.workers,
                self.hit_target * 100.0,
                self.hit_actual * 100.0,
                self.cache_hits,
            );
        }
    }
}

const WORKER_COUNTS: [usize; 3] = [1, 4, 8];

fn chaos_rows(requests: usize) -> (Vec<Row>, Option<(ChaosConfig, ChaosReport)>) {
    let mut rows = Vec::new();
    let mut obs = None;
    for workers in WORKER_COUNTS {
        let cfg = ChaosConfig {
            requests,
            workers,
            // Tracing on: the chaos rows measure (and the 4-worker row
            // exports) the service with provenance recording engaged.
            tracing: true,
            // Cache off: these are the worker-scaling rows (see the module
            // docs); the repeated rows below are the cache benchmark.
            cache_capacity: 0,
            repeated: 0.0,
            ..ChaosConfig::default()
        };
        let report = run_chaos(&cfg);

        let violations = report.violations();
        assert!(
            violations.is_empty(),
            "chaos invariants violated during bench:\n{}",
            violations.join("\n")
        );
        // Per-row conservation cross-check: every panic the clients saw in
        // a reply is in the books, and nothing panicked unobserved.
        assert_eq!(
            report.metrics.counter("caught_panics"),
            report.tally.caught_panics as u64,
            "chaos/{workers}w: caught-panic books diverge from client tally"
        );
        // Serving window only: the post-hoc plan and replay audits are not
        // the service's concurrency and must not dilute the scaling rows.
        let row = Row::from_tally("chaos", workers, &report.tally, report.elapsed);
        let row = Row {
            scaling_efficiency: efficiency(&rows, workers, row.throughput_rps),
            peak_arena_nodes: report.peak_arena_nodes,
            cache_hits: report.cache_hits,
            ..row
        };
        if workers == 4 {
            obs = Some((cfg, report));
        }
        row.print();
        rows.push(row);
    }
    (rows, obs)
}

/// The scaling rows at 1, 4 and 8 workers, then the 1-worker
/// `clean_nostall` row (see the module docs).
fn clean_rows(requests: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    let runs = WORKER_COUNTS
        .map(|workers| ("clean", workers, CleanConfig::default().stall))
        .into_iter()
        .chain([("clean_nostall", 1, Duration::ZERO)]);
    for (stream, workers, stall) in runs {
        let cfg = CleanConfig {
            requests,
            workers,
            stall,
            ..CleanConfig::default()
        };
        let report = run_clean_stream(&cfg);
        let t = &report.tally;
        assert_eq!(
            t.optimized_fast,
            t.requests,
            "clean stream must optimize every request \
             ({} of {} did not)",
            t.requests - t.optimized_fast,
            t.requests
        );
        let row = Row::from_tally(stream, workers, t, report.elapsed);
        let row = Row {
            scaling_efficiency: if stall.is_zero() {
                1.0
            } else {
                efficiency(&rows, workers, row.throughput_rps)
            },
            peak_arena_nodes: report.peak_arena_nodes,
            ..row
        };
        row.print();
        rows.push(row);
    }
    rows
}

/// The plan-cache rows: one 4-worker repeated-traffic run per target hit
/// rate. The 0% row is the all-miss baseline the 90% row's throughput
/// gate compares against.
fn repeated_rows(requests: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for hit_target in [0.0, 0.5, 0.9] {
        let cfg = RepeatedConfig {
            requests,
            hit_target,
            // The baseline row disables the cache outright: its unique
            // tail would never hit anyway, but a disabled cache also pays
            // zero probe/claim overhead, making the comparison the honest
            // "service without this feature" one.
            cache_capacity: if hit_target > 0.0 { 2_048 } else { 0 },
            ..RepeatedConfig::default()
        };
        let report = run_repeated_stream(&cfg);
        assert!(
            report.violations.is_empty(),
            "repeated stream ({:.0}% target) violated invariants:\n{}",
            hit_target * 100.0,
            report.violations.join("\n")
        );
        // Per-row conservation cross-check (the repeated stream is
        // fault-free, so both sides must be zero).
        assert_eq!(report.tally.caught_panics, 0);
        assert_eq!(report.metrics.counter("caught_panics"), 0);
        let row = Row {
            hit_target,
            hit_actual: report.hit_actual,
            cache_hits: report.cache_hits,
            ..Row::from_tally("repeated", cfg.workers, &report.tally, report.elapsed)
        };
        row.print();
        rows.push(row);
    }
    rows
}

/// The noisy-neighbor rows: the same clean victim measured solo and under
/// an aggressor tenant, on one 8-worker two-tenant service each. Row
/// numbers are the **victim's** view; the aggressor's sheds are printed
/// but gated only through the victim's degradation.
fn tenant_rows(requests: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for aggressor in [false, true] {
        let cfg = TenantChaosConfig {
            victim_requests: requests,
            aggressor_requests: requests,
            aggressor,
            ..TenantChaosConfig::default()
        };
        let report = run_noisy_neighbor(&cfg);
        let violations = report.violations();
        assert!(
            violations.is_empty(),
            "tenant isolation violated during bench ({}):\n{}",
            if aggressor { "noisy" } else { "solo" },
            violations.join("\n")
        );
        let stream = if aggressor {
            "tenant_noisy"
        } else {
            "tenant_solo"
        };
        let row = Row {
            peak_arena_nodes: report.peak_arena_nodes,
            cache_hits: report.metrics.counter("cache_hits"),
            ..Row::from_tally(stream, cfg.workers, &report.victim, report.victim_elapsed)
        };
        row.print();
        if aggressor {
            println!(
                "service/tenant_noisy/{}w: aggressor drove {} req ({} quota sheds, \
                 {} caught panics, {} breaker trips) without touching the victim",
                cfg.workers,
                report.aggressor.requests,
                report.aggressor.overloaded,
                report.aggressor.caught_panics,
                report.aggressor_breaker_opened,
            );
        }
        rows.push(row);
    }
    rows
}

/// throughput_N / (N × throughput_1), against this stream's own 1-worker
/// row (1.0 for the 1-worker row itself).
fn efficiency(rows: &[Row], workers: usize, throughput: f64) -> f64 {
    match rows.iter().find(|r| r.workers == 1) {
        Some(base) if base.throughput_rps > 0.0 => {
            throughput / (workers as f64 * base.throughput_rps)
        }
        _ => 1.0,
    }
}

fn main() {
    let requests = if smoke_mode() { 300 } else { 4_000 };
    // The repeated rows need enough draws for the achieved hit rate to
    // concentrate; 300 is too few for a tight ratio gate.
    let repeated_requests = if smoke_mode() { 1_200 } else { 4_000 };
    // The tenant rows run at full length in smoke mode too. The victim's
    // stream is mostly plan-cache hits, so 4,000 requests take ~50 ms; at
    // 300 or 1,200 the solo/noisy ratios swung across both gates from run
    // to run. Past ~6,000 the misses would fall out of the victim's p99.
    let tenant_requests = 4_000;
    let (mut rows, obs) = chaos_rows(requests);
    rows.extend(clean_rows(requests));
    rows.extend(repeated_rows(repeated_requests));
    rows.extend(tenant_rows(tenant_requests));

    // The CI scaling gates (scripts/ci.sh --bench-smoke sets
    // BENCH_ENFORCE): throughput must actually scale with workers on BOTH
    // streams. The thresholds are deliberately generous — an idle host
    // measures well past them — because CI runners are shared and noisy;
    // they still catch the regressions that matter (a global lock on the
    // hot or the failure path, per-request engine or rule-set rebuilds, a
    // serialized queue or breaker).
    let gate = |stream: &str, n: usize| -> f64 {
        let one = rows
            .iter()
            .find(|r| r.stream == stream && r.workers == 1)
            .expect("1-worker row");
        let n_row = rows
            .iter()
            .find(|r| r.stream == stream && r.workers == n)
            .expect("N-worker row");
        n_row.throughput_rps / one.throughput_rps.max(1e-9)
    };
    let clean4 = gate("clean", 4);
    let chaos4 = gate("chaos", 4);
    let chaos8 = gate("chaos", 8);
    println!("clean-stream scaling: 4w/1w = {clean4:.2}x");
    println!("chaos-stream scaling: 4w/1w = {chaos4:.2}x, 8w/1w = {chaos8:.2}x");
    if std::env::var("BENCH_ENFORCE").is_ok_and(|v| v == "1") {
        assert!(
            clean4 >= 1.5,
            "scaling gate: clean-stream 4-worker throughput is only \
             {clean4:.2}x the 1-worker run (gate: 1.5x) — worker \
             concurrency has regressed"
        );
        if smoke_mode() {
            // 300 requests cannot support an 8-worker claim; the smoke
            // gate checks the same property at 4 workers.
            assert!(
                chaos4 >= 1.5,
                "scaling gate: chaos-stream 4-worker throughput is only \
                 {chaos4:.2}x the 1-worker run (smoke gate: 1.5x) — the \
                 degraded path has re-serialized"
            );
            println!("scaling gates passed (clean 4w >= 1.5x, chaos 4w >= 1.5x)");
        } else {
            assert!(
                chaos8 >= 2.0,
                "scaling gate: chaos-stream 8-worker throughput is only \
                 {chaos8:.2}x the 1-worker run (gate: 2x) — the degraded \
                 path has re-serialized"
            );
            println!("scaling gates passed (clean 4w >= 1.5x, chaos 8w >= 2x)");
        }

        // The plan-cache gates: the 90%-target repeated row must actually
        // hit, must serve hits in microseconds, and must multiply
        // throughput over the all-miss baseline. Both rows are bound by
        // the same 2 ms worker stall, so the ratio is a worker-bypass
        // measurement, not a CPU-speed one.
        let repeated = |target: f64| -> &Row {
            rows.iter()
                .find(|r| r.stream == "repeated" && (r.hit_target - target).abs() < 1e-9)
                .expect("repeated row")
        };
        let base = repeated(0.0);
        let hot = repeated(0.9);
        let speedup = hot.throughput_rps / base.throughput_rps.max(1e-9);
        println!(
            "repeated-stream cache: 90%-target hit rate {:.1}%, p50 {} us, \
             {:.1}x the 0%-hit baseline",
            hot.hit_actual * 100.0,
            hot.p50_us,
            speedup
        );
        assert!(
            hot.hit_actual >= 0.90,
            "cache gate: 90%-target stream achieved only {:.1}% hits",
            hot.hit_actual * 100.0
        );
        assert!(
            hot.p50_us < 10,
            "cache gate: hit-dominated p50 is {} us (gate: < 10 us) — the \
             hit path is doing more than a shard probe",
            hot.p50_us
        );
        let speedup_gate = if smoke_mode() { 6.0 } else { 10.0 };
        assert!(
            speedup >= speedup_gate,
            "cache gate: 90%-hit throughput is only {speedup:.1}x the all-miss \
             baseline (gate: {speedup_gate:.0}x) — hits are not bypassing workers"
        );
        println!("cache gates passed (hits >= 90%, p50 < 10 us, >= {speedup_gate:.0}x baseline)");

        // The noisy-neighbor gates: the victim's service quality under an
        // aggressor flooding poison at 8 workers must stay within a small
        // constant of its solo run. The thresholds leave room for the real
        // cost the aggressor is *allowed* to impose — shared worker time —
        // while catching the failure modes the tenant walls exist for
        // (cross-tenant breaker trips recomputing victim plans, quota
        // exhaustion shedding victim traffic, trace/metric contention).
        let by_stream = |stream: &str| -> &Row {
            rows.iter()
                .find(|r| r.stream == stream)
                .expect("tenant row")
        };
        let solo = by_stream("tenant_solo");
        let noisy = by_stream("tenant_noisy");
        let p99_ratio = noisy.p99_us as f64 / (solo.p99_us as f64).max(1e-9);
        let tput_ratio = noisy.throughput_rps / solo.throughput_rps.max(1e-9);
        println!(
            "noisy-neighbor: victim p99 {} -> {} us ({p99_ratio:.2}x), \
             throughput {:.0} -> {:.0} rps ({tput_ratio:.2}x)",
            solo.p99_us, noisy.p99_us, solo.throughput_rps, noisy.throughput_rps
        );
        assert!(
            p99_ratio <= 2.0,
            "isolation gate: victim p99 under attack is {p99_ratio:.2}x its \
             solo p99 (gate: 2x) — the aggressor is bleeding through the \
             tenant walls"
        );
        assert!(
            tput_ratio >= 0.7,
            "isolation gate: victim throughput under attack is only \
             {tput_ratio:.2}x its solo run (gate: 0.7x) — the aggressor is \
             starving the victim"
        );
        println!("isolation gates passed (victim p99 <= 2x solo, throughput >= 0.7x solo)");
    }

    let json = render_json(&rows);
    let path = artifact_path("BENCH_service.json").expect("create target/bench-smoke");
    std::fs::write(&path, &json).expect("write BENCH_service.json");
    println!("wrote {}", path.display());

    // Observability export: the traced 4-worker chaos row's full metric
    // snapshot, trace-replay tally, and conservation verdict.
    if let Some((cfg, report)) = obs {
        assert!(
            report.conservation.is_empty(),
            "metric books unbalanced after quiescence:\n{}",
            report.conservation.join("\n")
        );
        assert_eq!(
            report.traces_divergent, 0,
            "{} of {} replayed traces diverged from the reference engine",
            report.traces_divergent, report.traces_replayed
        );
        let obs_path = artifact_path("BENCH_obs.json").expect("create target/bench-smoke");
        std::fs::write(&obs_path, report.obs_json("service_soak", &cfg))
            .expect("write BENCH_obs.json");
        println!(
            "wrote {} ({} traces replayed exactly, books balanced)",
            obs_path.display(),
            report.traces_replayed
        );
    }
}

fn render_json(rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"service_soak\",\n");
    out.push_str(&format!("  \"smoke\": {},\n", smoke_mode()));
    out.push_str(
        "  \"workload\": \"chaos: deterministic fault stream, tracing on, \
         cache off, 2 ms per-request stall, serving window only (plan and replay \
         audits excluded); \
         clean: no-fault stream, tracing off (default), cache off, 16 closed-loop \
         clients, 2 ms per-request stall \
         (single-core host: scaling measures worker concurrency); \
         clean_nostall: the clean stream on 1 worker with no stall (hold_for: None), \
         so us_per_request is the service's own per-request cost; \
         repeated: Zipf-skewed 32-query pool at a target hit rate plus a unique \
         tail, 8 closed-loop clients, 4 workers, 2 ms stall on worker passes \
         (cache hits bypass workers entirely); \
         tenant_solo/tenant_noisy: clean victim tenant on an 8-worker \
         two-tenant service, measured alone and under an aggressor tenant's \
         poison+flood stream (rows report the victim's view)\",\n",
    );
    out.push_str("  \"configs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"stream\": \"{}\", \"workers\": {}, \"requests\": {}, \"wall_ms\": {}, \
             \"throughput_rps\": {:.1}, \"us_per_request\": {:.1}, \
             \"scaling_efficiency\": {:.3}, \
             \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \
             \"overloaded\": {}, \"passthrough\": {}, \"caught_panics\": {}, \
             \"peak_arena_nodes\": {}, \"hit_target\": {:.2}, \
             \"hit_actual\": {:.4}, \"cache_hits\": {}}}{}\n",
            r.stream,
            r.workers,
            r.requests,
            r.wall_ms,
            r.throughput_rps,
            r.us_per_request(),
            r.scaling_efficiency,
            r.p50_us,
            r.p95_us,
            r.p99_us,
            r.overloaded,
            r.passthrough,
            r.caught_panics,
            r.peak_arena_nodes,
            r.hit_target,
            r.hit_actual,
            r.cache_hits,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
