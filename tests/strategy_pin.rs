//! Strategy pin: what the strategy layer derives, hashed.
//!
//! For every run below, the digest covers the plan text, the trace's
//! justification list, the step count and the stop reason. The committed
//! hashes were taken while `Strategy::Fix` still ran the boxed reference
//! engine (`kola_rewrite::engine::rewrite_fix_with`); `Fix` now always runs
//! the interned engine (`kola_rewrite::fast::Engine`), and every run must
//! stay byte-identical.
//!
//! Runs:
//! * the §4.1 untangler on KG1 and the synthetic hidden joins of depth 1–6;
//! * the Figure 4 derivations T1K (stepwise and as a fixpoint) and T2K;
//! * the Figure 6 strategy on K4 and K3;
//! * the COKO library's `UntangleHiddenJoin` block on KG1.

use kola::parse::parse_query;
use kola::term::Query;
use kola_aqua::rules::{query_a3, query_a4};
use kola_frontend::translate_query;
use kola_rewrite::engine::Trace;
use kola_rewrite::hidden_join::{garage_query_kg1, synthetic_hidden_join, untangle};
use kola_rewrite::strategy::{apply, fix, seq, Runner};
use kola_rewrite::{Catalog, PropDb, RewriteReport, Strategy};

/// FNV-1a, 64-bit: stable across platforms and toolchains.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // A separator, so adjacent fields cannot run together.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Fold in one run: plan, justifications, steps, stop reason.
    fn run(&mut self, plan: &Query, trace: &Trace, report: &RewriteReport) {
        self.write(plan.to_string().as_bytes());
        for j in trace.justifications() {
            self.write(j.as_bytes());
        }
        self.write(&report.steps.to_le_bytes());
        self.write(format!("{:?}", report.stop).as_bytes());
    }
}

/// Digest of `strategy` run from each of `starts` on the paper catalog.
fn strategy_digest(strategy: &Strategy, starts: &[Query]) -> u64 {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let runner = Runner::new(&catalog, &props);
    let mut h = Fnv::new();
    for q in starts {
        let mut trace = Trace::new();
        let (plan, _, report) = runner.run_governed(strategy, q.clone(), &mut trace);
        h.run(&plan, &trace, &report);
    }
    h.0
}

fn assert_pin(what: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{what}: strategy output changed (got {got:#018x}, pinned {want:#018x})"
    );
}

#[test]
fn untangler_is_pinned() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let mut h = Fnv::new();
    let queries = std::iter::once(garage_query_kg1()).chain((1..=6).map(synthetic_hidden_join));
    for q in queries {
        let out = untangle(&catalog, &props, &q);
        h.run(&out.query, &out.trace, &out.report);
    }
    assert_pin("untangle on KG1, shj1-6", h.0, 0x65d0_d6e9_32a3_343e);
}

#[test]
fn figure4_strategies_are_pinned() {
    let t1 = parse_query("iterate(Kp(T), city) . iterate(Kp(T), addr) ! P").unwrap();
    let t2 = parse_query("iterate(Kp(T), age) . iterate(gt @ (age, Kf(25)), id) ! P").unwrap();
    let t1k = seq(vec![apply("11"), apply("6"), apply("5")]);
    let t1k_fix = fix(&["11", "6", "5"]);
    let t2k = seq(vec![
        apply("11"),
        fix(&["3", "e32", "1"]),
        apply("13"),
        apply("7"),
        apply("12-1"),
    ]);
    let mut h = Fnv::new();
    h.write(&strategy_digest(&t1k, std::slice::from_ref(&t1)).to_le_bytes());
    h.write(&strategy_digest(&t1k_fix, &[t1]).to_le_bytes());
    h.write(&strategy_digest(&t2k, &[t2]).to_le_bytes());
    assert_pin("Figure 4", h.0, 0xc86a_cb0d_8117_3251);
}

#[test]
fn figure6_strategy_is_pinned() {
    let figure6 = seq(vec![
        fix(&["13", "7", "14", "15", "16", "10", "8"]),
        fix(&["9", "10", "1", "2", "3", "8", "14-1"]),
    ]);
    let starts = [
        translate_query(&query_a4()).unwrap(),
        translate_query(&query_a3()).unwrap(),
    ];
    assert_pin(
        "Figure 6",
        strategy_digest(&figure6, &starts),
        0x6941_1f26_348f_5383,
    );
}

#[test]
fn coko_untangle_block_is_pinned() {
    let strategy = kola_coko::stdlib::untangle_strategy().unwrap();
    assert_pin(
        "HIDDEN_JOIN_COKO on KG1",
        strategy_digest(&strategy, &[garage_query_kg1()]),
        0xa565_4755_a181_637d,
    );
}
