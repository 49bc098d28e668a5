//! Chaos soak driver for the optimization service.
//!
//! ```sh
//! CHAOS_REQUESTS=10000 cargo run -p kola-service --bin chaos-soak --release
//! ```
//!
//! Environment:
//! - `CHAOS_REQUESTS` — requests to generate (default 10000)
//! - `CHAOS_SEED` — master seed (default 0xC0FFEE)
//! - `CHAOS_WORKERS` — worker threads (default 4)
//! - `CHAOS_TRACE` — set to `0` to disable trace recording + replay
//!   (default on: the soak is the replay harness's proving ground)
//!
//! Writes `BENCH_obs.json` at the repo root: the full metric snapshot,
//! the trace-replay tally, and the conservation verdict. Exits nonzero if
//! any soak invariant is violated (unclassified request, escaped panic,
//! invalid classification, an optimized plan that changed its input's
//! meaning, unbalanced books, or a divergent trace replay).

use kola_service::{run_chaos, ChaosConfig};

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
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    match std::fs::write(path, &out) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
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
