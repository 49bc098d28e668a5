//! A multiply-rotate hasher for maps keyed by the engine's own small
//! integers: e-class ids, snoc cells, interned term ids, and e-nodes, which
//! hold only a tag, class ids and an index into their graph's payload
//! table. Such keys are dense and never come from request text, so a keyed
//! hasher's flooding resistance buys nothing there and its rounds cost
//! more than the lookup. Maps keyed by request payloads (the e-graph's
//! payload table) keep std's hasher; `scripts/ci.sh` guards both halves.

use std::hash::{BuildHasherDefault, Hasher};

/// Word-at-a-time hasher in the style of rustc's `FxHasher`.
#[derive(Default, Clone, Copy)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `HashMap`/`HashSet` state for [`FxHasher`].
pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;
