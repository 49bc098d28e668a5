//! A gauge of how fast the shared host runs memory-bound code right now.
//!
//! The benchmark's hosts are virtual machines that share caches and memory
//! bandwidth with their neighbours. When a neighbour is busy, the same
//! deterministic work runs up to ~1.6× slower, for seconds to minutes at a
//! time, while a pure ALU loop stays within ~5 %. The gauge times a
//! fixed kernel of the benchmark's own (random read-modify-write over an
//! 8 MB table, then building and dropping a `BTreeSet` of boxed entries),
//! which slows with the executor and the optimizer. It runs no repository
//! code, so a change to the program does not move it.
//!
//! Over 440 interleaved samples on a 2-vCPU VM, the per-window minimum of
//! executor time spread 0.11–0.20 (IQR/median over windows of 10–40
//! samples); divided by the same window's minimum gauge reading it spread
//! 0.03–0.04.

use std::collections::BTreeSet;
use std::time::Instant;

/// Words in the random-access table: 8 MB, larger than the last-level
/// cache share a vCPU gets, smaller than the benchmark's own peak.
const TABLE_WORDS: usize = 1 << 20;
/// Table accesses per sample.
const ACCESSES: usize = 1_000_000;
/// `BTreeSet` inserts per sample.
const INSERTS: u64 = 30_000;
/// What the gauge reads, in ms, on a quiet 2-vCPU VM of the kind the
/// benchmark was built on. Times are reported as they would read at that
/// speed.
pub const NOMINAL_MS: f64 = 17.0;

pub struct HostGauge {
    table: Vec<u64>,
    best_ms: f64,
    samples: usize,
}

impl HostGauge {
    pub fn new() -> HostGauge {
        HostGauge {
            table: (0..TABLE_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
            best_ms: f64::INFINITY,
            samples: 0,
        }
    }

    /// Time the kernel once; the gauge keeps the fastest reading.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mask = self.table.len() - 1;
        let (mut x, mut acc) = (1u64, 0u64);
        for _ in 0..ACCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            let v = self.table[i];
            if v & 1 == 0 {
                acc = acc.wrapping_add(v);
            } else {
                self.table[i] = v ^ acc;
            }
        }
        let mut set = BTreeSet::new();
        for i in 0..INSERTS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            set.insert((x % 5000, i % 977, Box::new(i)));
        }
        std::hint::black_box((acc, set.len()));
        drop(set);
        self.best_ms = self.best_ms.min(t.elapsed().as_secs_f64() * 1e3);
        self.samples += 1;
    }

    /// Fastest reading, in ms.
    pub fn best_ms(&self) -> f64 {
        self.best_ms
    }

    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Factor that turns a time measured in this run into the time at the
    /// nominal speed: nominal reading / fastest reading.
    pub fn factor(&self) -> f64 {
        NOMINAL_MS / self.best_ms
    }
}
