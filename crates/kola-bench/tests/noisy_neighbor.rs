//! The noisy-neighbor soak: an aggressor tenant pouring poison panics and
//! admission floods into the service must leave a clean victim tenant's
//! outcome taxonomy exactly what it is solo — every isolation invariant of
//! [`kola_bench::soak::TenantChaosReport::violations`].

use kola_bench::soak::{run_noisy_neighbor, TenantChaosConfig};
use std::time::Duration;

#[test]
fn noisy_neighbor_soak_holds_isolation() {
    let cfg = TenantChaosConfig {
        victim_requests: 300,
        aggressor_requests: 300,
        workers: 4,
        stall: Duration::from_millis(1),
        ..TenantChaosConfig::default()
    };
    let report = run_noisy_neighbor(&cfg);
    assert_eq!(
        report.violations(),
        Vec::<String>::new(),
        "noisy-neighbor isolation violated:\n{}",
        report.summary()
    );
    assert!(
        report.aggressor.overloaded > 0,
        "the aggressor's floods never hit its quota wall"
    );
    // The solo baseline holds the same invariants (minus the aggression).
    let solo = run_noisy_neighbor(&TenantChaosConfig {
        aggressor: false,
        ..cfg
    });
    assert_eq!(
        solo.violations(),
        Vec::<String>::new(),
        "solo baseline violated:\n{}",
        solo.summary()
    );
    assert_eq!(solo.aggressor.requests, 0);
}
