//! Pins the soak harness's seeded request streams: the first 2,000
//! requests of each generator, for fixed seeds, hashed over everything a
//! request carries — payload, every `RequestOptions` field, and the
//! tenant (the `Debug` rendering of the whole `Request`, fed through
//! 64-bit FNV-1a). A refactor of the harness must leave every hash alone;
//! a deliberate change to a stream changes exactly the hashes it names.

use kola_bench::soak::{
    aggressor_request, clean_request, client_seed, ChaosConfig, CleanConfig, RepeatedConfig,
    RepeatedPool, TenantChaosConfig,
};
use kola_exec::rng::Rng;
use kola_service::Request;
use std::fmt::Write;
use std::time::Duration;

const REQUESTS: usize = 2_000;

/// 64-bit FNV-1a over everything written to it.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

fn hash(requests: impl IntoIterator<Item = Request>) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for r in requests.into_iter().take(REQUESTS) {
        writeln!(h, "{r:?}").unwrap();
    }
    h.0
}

/// `REQUESTS` draws of `next` from one generator seeded `seed`.
fn drawn(seed: u64, mut next: impl FnMut(&mut Rng) -> Request) -> u64 {
    let mut rng = Rng::seed_from_u64(seed);
    hash(std::iter::repeat_with(|| next(&mut rng)))
}

fn stream_hashes() -> Vec<(&'static str, u64)> {
    let chaos = |repeated| ChaosConfig {
        requests: REQUESTS,
        repeated,
        ..ChaosConfig::default()
    };
    let clean = CleanConfig::default();
    let repeated = RepeatedConfig::default();
    let tenants = TenantChaosConfig::default();
    // Client 0 of each closed-loop stream, as its driver seeds it.
    let pool = RepeatedPool::new(&repeated);
    vec![
        ("chaos, repeated 0.15", hash(chaos(0.15).stream())),
        ("chaos, repeated 0", hash(chaos(0.0).stream())),
        (
            "clean, stalled",
            drawn(client_seed(clean.seed, 0), |rng| {
                clean_request(rng, clean.stall)
            }),
        ),
        (
            "clean, no stall",
            drawn(client_seed(clean.seed, 0), |rng| {
                clean_request(rng, Duration::ZERO)
            }),
        ),
        (
            "victim",
            drawn(client_seed(tenants.seed, 0), |rng| {
                clean_request(rng, tenants.stall).for_tenant("victim")
            }),
        ),
        (
            "repeated pool and unique tail",
            drawn(client_seed(repeated.seed, 0), |rng| pool.request(rng)),
        ),
        (
            "aggressor",
            drawn(tenants.seed ^ 0xA66E ^ (101 << 32), |rng| {
                aggressor_request(rng, tenants.stall)
            }),
        ),
    ]
}

#[test]
fn seeded_streams_match_their_pinned_hashes() {
    let expected: [(&str, u64); 7] = [
        ("chaos, repeated 0.15", 0x3322_bbde_f903_4b1e),
        ("chaos, repeated 0", 0xa523_920a_07df_a262),
        ("clean, stalled", 0x6f75_74d9_75a0_6423),
        ("clean, no stall", 0x9004_f7f4_ec31_4f71),
        ("victim", 0x4833_e027_3069_11e8),
        ("repeated pool and unique tail", 0xb8da_656f_e3c2_384d),
        ("aggressor", 0x94b7_bb14_4f66_d9d7),
    ];
    // The chaos stream's deep ASTs nest up to 3,000 levels; their derived
    // `Debug` recursion needs more than a test thread's default stack.
    let got = std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(stream_hashes)
        .unwrap()
        .join()
        .unwrap();
    let mismatches: Vec<String> = expected
        .iter()
        .zip(&got)
        .filter(|((_, want), (_, have))| want != have)
        .map(|((name, want), (_, have))| format!("{name}: pinned {want:#018x}, now {have:#018x}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "request streams changed:\n{}",
        mismatches.join("\n")
    );
}
