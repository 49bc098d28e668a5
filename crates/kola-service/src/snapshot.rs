//! Read-mostly published rule-set snapshots.
//!
//! The breaker's state changes rarely (a trip, an operator reset); workers
//! need the active rule set on *every* request. Filtering the catalog under
//! the breaker's lock per request — what the ladder did before — puts a
//! shared mutex on the hot path and re-allocates the id list each time.
//! Instead the service publishes an immutable [`RuleSnapshot`] behind an
//! `Arc` and swaps it only when the breaker's generation moves:
//!
//! - **Readers** (workers) keep a cached `Arc<RuleSnapshot>` and pay one
//!   atomic load per request ([`Breaker::generation`]) to detect staleness.
//!   Steady state touches no lock.
//! - **Writers** are the workers themselves: the first one to observe a new
//!   generation rebuilds and publishes under the cell's lock
//!   (publish–subscribe with lazy publication — the breaker does not need
//!   to know about catalogs or cells, and a trip with no traffic behind it
//!   publishes nothing).
//!
//! A snapshot's `epoch` is the breaker generation it was built at — the
//! number the plan cache's staleness checks compare against. The worker
//! engine needs no epoch: it takes the snapshot's `disabled` list as a
//! mask, and shares between masks only facts that stay true under every
//! mask ([`kola_rewrite::Engine::set_disabled`]), so tenants sharing an
//! engine cannot see each other's rule sets through it.

use crate::breaker::Breaker;
use kola_rewrite::Catalog;
use std::sync::{Arc, Mutex};

/// An immutable view of the served rule set at one breaker generation.
#[derive(Debug, Clone)]
pub struct RuleSnapshot {
    /// The breaker generation this snapshot was built at (the number cache
    /// staleness is judged against).
    pub epoch: u64,
    /// Forward catalog ids minus `disabled`, in catalog order — the rule
    /// set a recorded trace replays under. Behind its own `Arc` so
    /// recording a trace shares the list instead of deep-cloning it per
    /// request.
    pub active: Arc<Vec<String>>,
    /// Open-breaker rule ids (sorted) — masked out of the fast engine's
    /// full-catalog candidate scan.
    pub disabled: Vec<String>,
}

impl RuleSnapshot {
    /// Snapshot for `epoch`: the catalog's forward orientation minus
    /// currently open breakers.
    pub fn build(epoch: u64, catalog: &Catalog, breaker: &Breaker) -> RuleSnapshot {
        let disabled = breaker.open_rules();
        let active = catalog
            .forward_ids()
            .into_iter()
            .filter(|id| !disabled.contains(id))
            .collect();
        RuleSnapshot {
            epoch,
            active: Arc::new(active),
            disabled,
        }
    }
}

/// The publication cell (see module docs). One per service, shared by all
/// workers.
#[derive(Debug)]
pub struct SnapshotCell {
    published: Mutex<Arc<RuleSnapshot>>,
}

impl SnapshotCell {
    /// A cell publishing `initial`.
    pub fn new(initial: RuleSnapshot) -> SnapshotCell {
        SnapshotCell {
            published: Mutex::new(Arc::new(initial)),
        }
    }

    /// The currently published snapshot (used to seed a worker's cache).
    pub fn load(&self) -> Arc<RuleSnapshot> {
        Arc::clone(&self.published.lock().unwrap())
    }

    /// Bring `cached` up to the breaker's current generation. The steady
    /// state — generation unchanged — is one atomic load and no locks. On
    /// change, the first reader in rebuilds and publishes; later readers
    /// clone the published `Arc`. Returns `true` iff `cached` was replaced.
    ///
    /// Build-then-verify closes the tag race: the generation is re-read
    /// after building, and because the breaker bumps it *inside* its state
    /// lock, a build that observed newer open-state than `epoch` names is
    /// guaranteed to see a newer generation here and rebuild.
    pub fn refresh(
        &self,
        cached: &mut Arc<RuleSnapshot>,
        catalog: &Catalog,
        breaker: &Breaker,
    ) -> bool {
        if cached.epoch == breaker.generation() {
            return false;
        }
        let mut published = self.published.lock().unwrap();
        while published.epoch != breaker.generation() {
            let epoch = breaker.generation();
            *published = Arc::new(RuleSnapshot::build(epoch, catalog, breaker));
        }
        let replaced = !Arc::ptr_eq(cached, &published);
        *cached = Arc::clone(&published);
        replaced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refresh_tracks_trip_and_reset() {
        let catalog = Catalog::paper();
        let breaker = Breaker::sharded(1, 1, ["app"]);
        let cell = SnapshotCell::new(RuleSnapshot::build(
            breaker.generation(),
            &catalog,
            &breaker,
        ));
        let mut cached = cell.load();
        assert_eq!(cached.epoch, 0);
        assert!(cached.disabled.is_empty());
        assert_eq!(cached.active.len(), catalog.len());
        // Steady state: no swap.
        assert!(!cell.refresh(&mut cached, &catalog, &breaker));

        // Trip: the next refresh publishes a snapshot without the rule.
        breaker.charge("app", 7);
        assert!(cell.refresh(&mut cached, &catalog, &breaker));
        assert_eq!(cached.epoch, 1);
        assert_eq!(cached.disabled, vec!["app".to_string()]);
        assert!(!cached.active.iter().any(|id| id == "app"));
        assert_eq!(cached.active.len(), catalog.len() - 1);

        // A second reader starting cold converges on the same snapshot.
        let mut other = cell.load();
        assert!(!cell.refresh(&mut other, &catalog, &breaker));
        assert!(Arc::ptr_eq(&cached, &other));

        // Reset: full set again, at a fresh epoch.
        breaker.reset("app");
        assert!(cell.refresh(&mut cached, &catalog, &breaker));
        assert_eq!(cached.epoch, 2);
        assert!(cached.disabled.is_empty());
        assert_eq!(cached.active.len(), catalog.len());
    }
}
