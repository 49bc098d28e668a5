//! Cross-request per-rule circuit breakers.
//!
//! `kola-rewrite`'s budget layer quarantines a rule *within one run*; a
//! service sees the same poisoned rule again on the very next request. The
//! [`Breaker`] lifts that quarantine across requests: each rule implicated
//! in a failed request (a caught poison-rule panic, an injected fault, an
//! oversize result) is charged once per request, and after `threshold`
//! charged requests the breaker *opens* — the rule is dropped from the rule
//! set handed to the engines, which also evicts it from the fast engine's
//! discrimination-tree `RuleIndex` (the index is built from exactly that
//! set).
//!
//! An open breaker is a deliberate operator-visible state, not a timeout:
//! rules are data that someone registered, and a rule that keeps panicking
//! should stay out of service until a human (or a test) calls
//! [`Breaker::reset`]. All methods take `&self` so workers share one
//! breaker.
//!
//! ## Sharded charge path
//!
//! The original breaker kept every rule behind one `Mutex<HashMap>`; every
//! failed request on every worker serialized on that lock, which is exactly
//! backwards — the breaker exists *for* the degraded path, so it must be as
//! parallel as the happy path. [`Breaker::sharded`] pre-registers the
//! catalog's rule ids into fixed slots and gives each worker a shard of
//! relaxed-atomic trip counters:
//!
//! - **charge** (hot): one relaxed `fetch_add` on the worker's own shard
//!   counter, a one-time CAS for `first_request`, a relaxed store for
//!   `last_request`, and a relaxed read of the slot's open bit. No lock.
//! - **trip** (cold): only when the cross-shard sum reaches the threshold
//!   does the charger take the state lock, re-sum under the lock (so a
//!   racing [`Breaker::reset`] can't be overridden by a stale sum), set the
//!   slot's open bit, and bump the generation — inside the lock, exactly
//!   like the global breaker, so snapshot publication (see
//!   `crate::snapshot`) is untouched: served-set changes are still observed
//!   with one atomic generation load per request.
//! - **merge**: trip/reset decisions *are* the merge. Shard counters are
//!   never drained; every read surface (`entry`, `snapshot`, `report`)
//!   folds the per-shard counters on demand, so the observable trip counts
//!   are byte-identical to the global breaker's (`tests/breaker_parity.rs`
//!   keeps the single-lock breaker as an executable spec, drives both
//!   through identical streams and asserts identical trip/reset sequences
//!   and reports).
//!
//! The registered ids are the whole universe: a service registers every
//! catalog rule, and every charge names one (a report's rule statistics or
//! a caught panic's attribution). An id outside that set (an operator
//! typo) is refused — `charge` and `reset` return `false`, record nothing,
//! and leave the generation, and with it every cached plan, untouched.

use kola_rewrite::{QuarantineEntry, QuarantineReport};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Failure record for one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BreakerEntry {
    /// Requests in which this rule was implicated in a failure.
    pub trips: usize,
    /// Whether the breaker is open (rule evicted from service).
    pub open: bool,
    /// Id of the first request that charged this rule.
    pub first_request: Option<u64>,
    /// Id of the most recent request that charged this rule.
    pub last_request: Option<u64>,
}

/// `u64::MAX` marks an unset `first_request`/`last_request` slot (request
/// ids are sequence numbers and never reach it).
const UNSET: u64 = u64::MAX;

/// Per-slot lock-free breaker state shared by all shards: the open bit and
/// the first/last implicating request ids. Trip counters live per shard.
#[derive(Debug)]
struct Slot {
    open: AtomicBool,
    first: AtomicU64,
    last: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            open: AtomicBool::new(false),
            first: AtomicU64::new(UNSET),
            last: AtomicU64::new(UNSET),
        }
    }
}

/// One worker's trip counters, one per registered rule slot.
#[derive(Debug)]
struct Shard {
    trips: Vec<AtomicUsize>,
}

/// A shared per-rule circuit breaker (see module docs).
#[derive(Debug)]
pub struct Breaker {
    threshold: usize,
    /// Registered rule id → slot index into `slots` / `shards[_].trips`.
    index: HashMap<String, usize>,
    /// Registered rule ids, by slot index.
    rule_ids: Vec<String>,
    /// Lock-free per-slot state (open bit, first/last request ids).
    slots: Vec<Slot>,
    /// Per-worker trip counters; `shards[s].trips[slot]`.
    shards: Vec<Shard>,
    /// Serializes trip and reset transitions, so generation bumps stay
    /// ordered exactly as in the global breaker.
    state: Mutex<()>,
    /// Bumped on every transition that changes the *served rule set* — a
    /// breaker opening or an open breaker being reset. Snapshot publication
    /// (see `crate::snapshot`) keys off this: readers compare one atomic
    /// against their cached snapshot's epoch instead of taking the state
    /// lock per request. The bump happens while the state lock is held and
    /// *after* the open bit is published, so a reader that observes the new
    /// generation is guaranteed to observe the new open-set too.
    generation: AtomicU64,
    /// Lifetime count of breaker openings (monotone; unlike `generation`
    /// it counts only openings, so `opened - reset` trends tell an operator
    /// whether trips are accumulating). Bumped inside the state lock.
    opened_total: AtomicU64,
    /// Lifetime count of open breakers reset (readmissions).
    reset_total: AtomicU64,
}

impl Breaker {
    /// A breaker that opens a rule after `threshold` charged requests
    /// (`0` is treated as `1`; `usize::MAX` never opens), with `shards`
    /// independent charge lanes (one per worker) and the given rule ids
    /// registered into lock-free slots. Charges to any other id are
    /// refused.
    pub fn sharded(
        threshold: usize,
        shards: usize,
        rule_ids: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        let rule_ids: Vec<String> = rule_ids.into_iter().map(Into::into).collect();
        let index = rule_ids
            .iter()
            .enumerate()
            .map(|(i, id)| (id.clone(), i))
            .collect();
        let slots = (0..rule_ids.len()).map(|_| Slot::new()).collect();
        let shards = (0..shards.max(1))
            .map(|_| Shard {
                trips: (0..rule_ids.len()).map(|_| AtomicUsize::new(0)).collect(),
            })
            .collect();
        Breaker {
            threshold: threshold.max(1),
            index,
            rule_ids,
            slots,
            shards,
            state: Mutex::new(()),
            generation: AtomicU64::new(0),
            opened_total: AtomicU64::new(0),
            reset_total: AtomicU64::new(0),
        }
    }

    /// Number of charge lanes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The current rule-set generation (see the `generation` field docs).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Trip total for a registered slot, folded across shards.
    fn slot_trips(&self, slot: usize) -> usize {
        self.shards
            .iter()
            .map(|s| s.trips[slot].load(Ordering::Relaxed))
            .sum()
    }

    /// Charge `rule_id` for a failure in request `request_id`. Returns
    /// `true` iff the breaker is open after the charge (`false`, with
    /// nothing recorded, for an unregistered id). Callers charge a rule at
    /// most once per request (the worker dedupes). Equivalent to
    /// [`Breaker::charge_from`] on shard 0.
    pub fn charge(&self, rule_id: &str, request_id: u64) -> bool {
        self.charge_from(0, rule_id, request_id)
    }

    /// [`Breaker::charge`] through shard `shard` (a worker index; wrapped
    /// modulo the shard count). Registered rules pay one relaxed RMW on
    /// this shard's counter; the state lock is taken only to decide a trip.
    pub fn charge_from(&self, shard: usize, rule_id: &str, request_id: u64) -> bool {
        let Some(&slot) = self.index.get(rule_id) else {
            return false;
        };
        let lane = &self.shards[shard % self.shards.len()];
        lane.trips[slot].fetch_add(1, Ordering::Relaxed);
        let s = &self.slots[slot];
        let _ = s
            .first
            .compare_exchange(UNSET, request_id, Ordering::AcqRel, Ordering::Relaxed);
        s.last.store(request_id, Ordering::Relaxed);
        if s.open.load(Ordering::Relaxed) {
            return true;
        }
        if self.threshold != usize::MAX && self.slot_trips(slot) >= self.threshold {
            // Cold path: serialize the trip decision on the state lock and
            // re-sum under it, so a racing reset (which zeroes the counters
            // under the same lock) cannot be overridden by a stale sum.
            let _state = self.state.lock().unwrap();
            if !s.open.load(Ordering::Relaxed) && self.slot_trips(slot) >= self.threshold {
                s.open.store(true, Ordering::Release);
                // Inside the lock, after the open bit: see `generation`.
                self.generation.fetch_add(1, Ordering::Release);
                self.opened_total.fetch_add(1, Ordering::Release);
            }
        }
        s.open.load(Ordering::Relaxed)
    }

    /// Charge every rule in `rule_ids` for request `request_id` through
    /// shard `shard` — the worker's batched entry point: one call per
    /// failed request instead of one locked call per implicated rule.
    pub fn charge_many<'r>(
        &self,
        shard: usize,
        rule_ids: impl IntoIterator<Item = &'r str>,
        request_id: u64,
    ) {
        for rule_id in rule_ids {
            self.charge_from(shard, rule_id, request_id);
        }
    }

    /// Fold one registered slot into a [`BreakerEntry`], or `None` if it
    /// was never charged since its last reset.
    fn slot_entry(&self, slot: usize) -> Option<BreakerEntry> {
        let s = &self.slots[slot];
        let first = s.first.load(Ordering::Acquire);
        if first == UNSET {
            return None;
        }
        let last = s.last.load(Ordering::Relaxed);
        Some(BreakerEntry {
            trips: self.slot_trips(slot),
            open: s.open.load(Ordering::Acquire),
            first_request: Some(first),
            last_request: (last != UNSET).then_some(last),
        })
    }

    /// Read-only failure record for `rule_id` — trip count, open state, and
    /// the first/last implicating request ids — or `None` if the rule was
    /// never charged. The per-request surface `QuarantineReport` only shows
    /// *open* rules; this exposes the accumulating state below threshold,
    /// which is what an operator watches to see a rule trending toward a
    /// trip.
    pub fn entry(&self, rule_id: &str) -> Option<BreakerEntry> {
        self.index
            .get(rule_id)
            .and_then(|&slot| self.slot_entry(slot))
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
        self.index
            .get(rule_id)
            .is_some_and(|&slot| self.slots[slot].open.load(Ordering::Acquire))
    }

    /// Ids of all open-breaker rules, sorted.
    pub fn open_rules(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .rule_ids
            .iter()
            .zip(&self.slots)
            .filter(|(_, s)| s.open.load(Ordering::Acquire))
            .map(|(id, _)| id.clone())
            .collect();
        v.sort();
        v
    }

    /// Close `rule_id`'s breaker and forget its trip history, readmitting
    /// the rule. Returns `true` iff there was state to clear (`false` for
    /// an unregistered id).
    pub fn reset(&self, rule_id: &str) -> bool {
        let Some(&slot) = self.index.get(rule_id) else {
            return false;
        };
        let _state = self.state.lock().unwrap();
        let s = &self.slots[slot];
        let existed = s.first.load(Ordering::Acquire) != UNSET;
        for lane in &self.shards {
            lane.trips[slot].store(0, Ordering::Relaxed);
        }
        s.first.store(UNSET, Ordering::Release);
        s.last.store(UNSET, Ordering::Relaxed);
        if s.open.swap(false, Ordering::AcqRel) {
            // Inside the lock: see the `generation` field docs.
            self.generation.fetch_add(1, Ordering::Release);
            self.reset_total.fetch_add(1, Ordering::Release);
        }
        existed
    }

    /// Every rule with breaker state, sorted by rule id.
    pub fn snapshot(&self) -> Vec<(String, BreakerEntry)> {
        let mut v: Vec<(String, BreakerEntry)> = self
            .rule_ids
            .iter()
            .enumerate()
            .filter_map(|(slot, id)| Some((id.clone(), self.slot_entry(slot)?)))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// The open rules as a [`QuarantineReport`] — the same observability
    /// shape the per-run quarantine uses, with request ids in the step
    /// slots.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_trips_open_at_threshold_across_shards() {
        // Charges for one rule spread across three shards still trip at the
        // cross-shard sum, with first/last request ids in stream order.
        let b = Breaker::sharded(3, 3, ["9", "11"]);
        assert!(!b.charge_from(0, "9", 1));
        assert!(!b.charge_from(1, "9", 2));
        assert!(!b.is_open("9"));
        assert!(b.charge_from(2, "9", 7));
        assert!(b.is_open("9"));
        assert!(!b.is_open("11"));
        assert_eq!(b.open_rules(), vec!["9".to_string()]);
        let report = b.report();
        assert_eq!(report.entries.len(), 1);
        assert_eq!(report.entries[0].trips, 3);
        assert_eq!(report.entries[0].first_failure, Some(1));
        assert_eq!(report.entries[0].last_failure, Some(7));
        assert!(b.reset("9"));
        assert!(!b.is_open("9"));
        assert!(b.open_rules().is_empty());
        assert!(!b.reset("9"));
    }

    #[test]
    fn generation_moves_only_on_rule_set_changes() {
        let b = Breaker::sharded(2, 4, ["app", "9"]);
        assert_eq!(b.generation(), 0);
        b.charge_from(1, "app", 1);
        // Charged but not open: the served rule set is unchanged.
        assert_eq!(b.generation(), 0);
        b.charge_from(3, "app", 2);
        assert!(b.is_open("app"));
        assert_eq!(b.generation(), 1);
        // Further charges on an already-open rule change nothing.
        b.charge_from(0, "app", 3);
        assert_eq!(b.generation(), 1);
        // Resetting an unregistered rule changes nothing.
        assert!(!b.reset("e121"));
        assert_eq!(b.generation(), 1);
        // Resetting charged-but-closed state changes nothing either.
        b.charge_from(2, "9", 4);
        b.reset("9");
        assert_eq!(b.generation(), 1);
        // Resetting the open rule readmits it: generation moves.
        b.reset("app");
        assert_eq!(b.generation(), 2);
    }

    #[test]
    fn entry_exposes_accumulating_state_across_trip_and_reset() {
        let b = Breaker::sharded(3, 2, ["9", "app"]);
        assert_eq!(b.entry("9"), None);
        assert_eq!((b.opened_total(), b.reset_total()), (0, 0));

        // Below threshold: visible through `entry`, invisible to the
        // open-rules surfaces.
        b.charge_from(0, "9", 10);
        b.charge_from(1, "9", 11);
        let e = b.entry("9").expect("charged rule has an entry");
        assert_eq!(e.trips, 2);
        assert!(!e.open);
        assert_eq!(e.first_request, Some(10));
        assert_eq!(e.last_request, Some(11));
        assert!(b.report().entries.is_empty());
        assert_eq!((b.opened_total(), b.reset_total()), (0, 0));

        // Trip: entry flips open, opened_total moves once.
        b.charge_from(0, "9", 12);
        let e = b.entry("9").unwrap();
        assert!(e.open);
        assert_eq!(e.trips, 3);
        assert_eq!((b.opened_total(), b.reset_total()), (1, 0));
        // Extra charges on an open breaker accumulate without re-opening.
        b.charge_from(1, "9", 13);
        assert_eq!(b.entry("9").unwrap().trips, 4);
        assert_eq!(b.opened_total(), 1);

        // Reset: entry clears, reset_total moves once.
        assert!(b.reset("9"));
        assert_eq!(b.entry("9"), None);
        assert_eq!((b.opened_total(), b.reset_total()), (1, 1));
        // Resetting charged-but-never-open state is not a readmission.
        b.charge("app", 20);
        b.reset("app");
        assert_eq!((b.opened_total(), b.reset_total()), (1, 1));
    }

    #[test]
    fn never_threshold_never_opens() {
        let b = Breaker::sharded(usize::MAX, 2, ["2"]);
        for i in 0..1000 {
            assert!(!b.charge_from(i as usize % 2, "2", i));
        }
        assert!(!b.is_open("2"));
    }

    #[test]
    fn unregistered_rules_are_refused() {
        let b = Breaker::sharded(1, 4, ["app"]);
        // "mystery" was never registered: charges and resets are refused,
        // record nothing, and never move the generation — which would
        // invalidate every cached plan of the tenant.
        assert!(!b.charge_from(3, "mystery", 5));
        assert!(!b.charge("mystery", 6));
        b.charge_many(1, ["mystery", "app"], 7);
        assert!(!b.is_open("mystery"));
        assert_eq!(b.entry("mystery"), None);
        assert!(!b.reset("mystery"));
        // Only the registered rule of the batch was charged (and tripped).
        assert_eq!(b.open_rules(), vec!["app".to_string()]);
        assert_eq!(b.snapshot().len(), 1);
        assert_eq!(b.generation(), 1);
        assert_eq!((b.opened_total(), b.reset_total()), (1, 0));
    }

    #[test]
    fn charge_many_charges_each_rule_once() {
        let b = Breaker::sharded(2, 2, ["app", "9", "11"]);
        b.charge_many(0, ["app", "9"], 1);
        b.charge_many(1, ["app", "11"], 2);
        assert!(b.is_open("app"));
        assert!(!b.is_open("9"));
        assert!(!b.is_open("11"));
        assert_eq!(b.entry("9").unwrap().trips, 1);
        assert_eq!(b.entry("app").unwrap().trips, 2);
    }
}
