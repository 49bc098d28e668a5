//! Benchmark-only crate; see the benches directory.
//!
//! The benches run offline with no external harness: [`bench`] is a minimal
//! measured-loop timer (warmup, then the median of several timed batches)
//! that every `harness = false` bench target shares. [`soak`] is the
//! seeded soak harness for the optimization service, which the
//! `service_soak` bench, the `chaos-soak`/`cache-smoke`/`tenant-smoke`
//! binaries and the soak tests drive.

pub mod soak;

use std::hint::black_box;
use std::time::Instant;

/// Run `f` in a measured loop and print `name: <median> ns/iter`.
///
/// Warmup runs the closure for ~20ms, then the batch size is chosen so one
/// batch takes roughly 10ms, and the median over 5 batches is reported.
pub fn bench<T>(name: &str, f: impl FnMut() -> T) {
    bench_ns(name, f);
}

/// Whether the `BENCH_SMOKE` environment variable requests short runs.
///
/// Smoke mode cuts the warmup and batch time budgets by ~10x so a bench
/// binary finishes in well under a second — suitable for CI gating where
/// only relative ordering (not tight confidence intervals) matters.
pub fn smoke_mode() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Like [`bench`], but returns the median ns/iter so callers can compute
/// speedups and emit machine-readable reports. Honors [`smoke_mode`].
pub fn bench_ns<T>(name: &str, mut f: impl FnMut() -> T) -> u128 {
    let (warm_ms, batch_ns) = if smoke_mode() {
        (2u128, 1_000_000u128)
    } else {
        (20, 10_000_000)
    };
    // Warmup + calibration.
    let calib = Instant::now();
    let mut warm = 0u32;
    while calib.elapsed().as_millis() < warm_ms && warm < 1000 {
        black_box(f());
        warm += 1;
    }
    let per_iter = calib.elapsed().as_nanos().max(1) / u128::from(warm.max(1));
    let batch = ((batch_ns / per_iter.max(1)) as usize).clamp(1, 100_000);

    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        samples.push(t.elapsed().as_nanos() / batch as u128);
    }
    samples.sort_unstable();
    println!("{name}: {} ns/iter (batch {batch} x5)", samples[2]);
    samples[2]
}
