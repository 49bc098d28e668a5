//! Noisy-neighbor smoke driver for multi-tenant isolation.
//!
//! ```sh
//! TENANT_REQUESTS=2000 cargo run -p kola-service --bin tenant-smoke --release
//! ```
//!
//! Environment:
//! - `TENANT_REQUESTS` — requests per tenant (default 2000)
//! - `TENANT_SEED` — master seed (default 0x7E4A47)
//! - `TENANT_WORKERS` — worker threads (default 8)
//!
//! Runs a clean victim tenant against a poison+flood aggressor tenant on
//! one service and exits nonzero if any isolation invariant is violated:
//! a victim reply that is not `Optimized`, a cross-tenant breaker charge,
//! a stale cache reclaim, an escaped panic, or unbalanced per-tenant books.

use kola_service::{run_noisy_neighbor, TenantChaosConfig};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let requests = env_u64("TENANT_REQUESTS", 2_000) as usize;
    let cfg = TenantChaosConfig {
        victim_requests: requests,
        aggressor_requests: requests,
        seed: env_u64("TENANT_SEED", 0x7E4A47),
        workers: env_u64("TENANT_WORKERS", 8) as usize,
        ..TenantChaosConfig::default()
    };
    println!(
        "tenant smoke: {} requests/tenant, seed {:#x}, {} workers",
        requests, cfg.seed, cfg.workers
    );
    let report = run_noisy_neighbor(&cfg);
    println!("{}", report.summary());
    let violations = report.violations();
    if violations.is_empty() {
        println!(
            "smoke passed: victim taxonomy unchanged under {} aggressor trips",
            report.aggressor_breaker_opened
        );
    } else {
        for v in &violations {
            eprintln!("VIOLATION: {v}");
        }
        std::process::exit(1);
    }
}
