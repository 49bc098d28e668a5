//! Chaos soak driver for the optimization service.
//!
//! ```sh
//! CHAOS_REQUESTS=10000 cargo run -p kola-bench --bin chaos-soak --release
//! ```
//!
//! Environment:
//! - `CHAOS_REQUESTS` — requests to generate (default 10000)
//! - `CHAOS_SEED` — master seed (default 0xC0FFEE)
//! - `CHAOS_WORKERS` — worker threads (default 4)
//! - `CHAOS_TRACE` — set to `0` to disable trace recording + replay
//!   (default on: the soak is the replay harness's proving ground)
//! - `BENCH_SMOKE` — a smoke run (any value but empty or `0`), as for the
//!   benches: the artifact goes under `target/bench-smoke/`
//!
//! Writes `BENCH_obs.json` at the repo root: the full metric snapshot,
//! the trace-replay tally, the plan audit's counts and the conservation
//! verdict. A smoke run writes `target/bench-smoke/BENCH_obs.json`
//! instead, leaving the committed file alone. Exits nonzero if
//! any soak invariant is violated (unclassified request, escaped panic,
//! invalid classification, an optimized plan that changed its input's
//! meaning, unbalanced books, or a divergent trace replay).

use kola_bench::soak::{artifact_path, run_chaos, ChaosConfig};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let cfg = ChaosConfig {
        requests: env_u64("CHAOS_REQUESTS", 10_000) as usize,
        seed: env_u64("CHAOS_SEED", 0xC0FFEE),
        workers: env_u64("CHAOS_WORKERS", 4) as usize,
        tracing: env_u64("CHAOS_TRACE", 1) != 0,
        ..ChaosConfig::default()
    };
    println!(
        "chaos soak: {} requests, seed {:#x}, {} workers, tracing {}",
        cfg.requests,
        cfg.seed,
        cfg.workers,
        if cfg.tracing { "on" } else { "off" }
    );
    let report = run_chaos(&cfg);
    println!("{}", report.summary());
    let violations = report.violations();

    let out = report.obs_json("chaos_soak", &cfg);
    match artifact_path("BENCH_obs.json").and_then(|path| {
        std::fs::write(&path, &out)?;
        Ok(path)
    }) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_obs.json: {e}"),
    }

    if violations.is_empty() {
        println!(
            "soak passed: every request classified, books balanced, {} traces replayed exactly",
            report.traces_replayed
        );
    } else {
        for v in &violations {
            eprintln!("VIOLATION: {v}");
        }
        std::process::exit(1);
    }
}
