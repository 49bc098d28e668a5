//! The original single-lock circuit breaker, kept as test support: the
//! executable specification `breaker_parity.rs` holds the sharded
//! [`Breaker`](kola_service::Breaker) to.

use kola_rewrite::{QuarantineEntry, QuarantineReport};
use kola_service::BreakerEntry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The original single-lock breaker: every rule behind one
/// `Mutex<HashMap>`. `breaker_parity.rs` drives identical charge/reset
/// streams through it and the sharded breaker and asserts identical
/// trip/reset sequences and reports.
#[derive(Debug)]
pub struct GlobalBreaker {
    threshold: usize,
    state: Mutex<HashMap<String, BreakerEntry>>,
    generation: AtomicU64,
    opened_total: AtomicU64,
    reset_total: AtomicU64,
}

impl GlobalBreaker {
    /// A breaker that opens a rule after `threshold` charged requests
    /// (`0` is treated as `1`; `usize::MAX` never opens).
    pub fn new(threshold: usize) -> Self {
        GlobalBreaker {
            threshold: threshold.max(1),
            state: Mutex::new(HashMap::new()),
            generation: AtomicU64::new(0),
            opened_total: AtomicU64::new(0),
            reset_total: AtomicU64::new(0),
        }
    }

    /// The current rule-set generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Charge `rule_id` for a failure in request `request_id`. Returns
    /// `true` iff the breaker is open after the charge.
    pub fn charge(&self, rule_id: &str, request_id: u64) -> bool {
        let mut state = self.state.lock().unwrap();
        let e = state.entry(rule_id.to_string()).or_default();
        e.trips += 1;
        if e.first_request.is_none() {
            e.first_request = Some(request_id);
        }
        e.last_request = Some(request_id);
        if self.threshold != usize::MAX && e.trips >= self.threshold && !e.open {
            e.open = true;
            self.generation.fetch_add(1, Ordering::Release);
            self.opened_total.fetch_add(1, Ordering::Release);
        }
        e.open
    }

    /// Read-only failure record for `rule_id`, or `None` if never charged.
    pub fn entry(&self, rule_id: &str) -> Option<BreakerEntry> {
        self.state.lock().unwrap().get(rule_id).copied()
    }

    /// Lifetime count of breaker openings.
    pub fn opened_total(&self) -> u64 {
        self.opened_total.load(Ordering::Acquire)
    }

    /// Lifetime count of open breakers reset.
    pub fn reset_total(&self) -> u64 {
        self.reset_total.load(Ordering::Acquire)
    }

    /// True iff `rule_id`'s breaker is open.
    pub fn is_open(&self, rule_id: &str) -> bool {
        self.state
            .lock()
            .unwrap()
            .get(rule_id)
            .is_some_and(|e| e.open)
    }

    /// Ids of all open-breaker rules, sorted.
    pub fn open_rules(&self) -> Vec<String> {
        let state = self.state.lock().unwrap();
        let mut v: Vec<String> = state
            .iter()
            .filter(|(_, e)| e.open)
            .map(|(id, _)| id.clone())
            .collect();
        v.sort();
        v
    }

    /// Close `rule_id`'s breaker and forget its trip history. Returns
    /// `true` iff there was state to clear.
    pub fn reset(&self, rule_id: &str) -> bool {
        let mut state = self.state.lock().unwrap();
        let removed = state.remove(rule_id);
        if removed.as_ref().is_some_and(|e| e.open) {
            self.generation.fetch_add(1, Ordering::Release);
            self.reset_total.fetch_add(1, Ordering::Release);
        }
        removed.is_some()
    }

    /// Every rule with breaker state, sorted by rule id.
    pub fn snapshot(&self) -> Vec<(String, BreakerEntry)> {
        let state = self.state.lock().unwrap();
        let mut v: Vec<(String, BreakerEntry)> =
            state.iter().map(|(id, e)| (id.clone(), *e)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// The open rules as a [`QuarantineReport`].
    pub fn report(&self) -> QuarantineReport {
        QuarantineReport {
            entries: self
                .snapshot()
                .into_iter()
                .filter(|(_, e)| e.open)
                .map(|(rule_id, e)| QuarantineEntry {
                    rule_id,
                    trips: e.trips,
                    first_failure: e.first_request.map(|r| r as usize),
                    last_failure: e.last_request.map(|r| r as usize),
                })
                .collect(),
        }
    }
}
