//! Named tenant namespaces: per-tenant rule state with enforced isolation.
//!
//! A production optimizer serves many callers whose rule health, quotas,
//! and failure modes must not bleed into each other. This module gives the
//! service N named namespaces, each owning:
//!
//! - its **own sharded [`Breaker`]** — poison traffic from one tenant
//!   trips rules *for that tenant only*, and operator resets are scoped
//!   the same way;
//! - its **own [`SnapshotCell`] generation** — the published rule-set
//!   snapshot each tenant's requests run under, rebuilt only when that
//!   tenant's breaker generation moves;
//! - its **own admission quota** ([`TenantState::quota`]) layered over the
//!   shared per-worker shards — a tenant at quota is shed
//!   [`Outcome::Overloaded`](crate::Outcome::Overloaded) while the others
//!   keep admitting, which is the noisy-neighbor backpressure guarantee
//!   the chaos harness proves ([`crate::chaos::run_noisy_neighbor`]).
//!
//! Workers stay shared: one engine per worker serves every tenant. Each
//! request masks its own tenant's open rules, and the engine shares
//! between masks only full-rule-set facts, which hold under every
//! tenant's mask ([`kola_rewrite::Engine::set_disabled`]). The plan cache
//! is shared too, but keys are tenant-salted
//! and entries tenant-tagged (`cache.rs`), so one tenant's trip
//! invalidates only its own plans and a cross-tenant hit is structurally
//! impossible.

use crate::breaker::Breaker;
use crate::snapshot::{RuleSnapshot, SnapshotCell};
use kola_rewrite::Catalog;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The tenant a request with no explicit label resolves to, and the single
/// namespace of a service configured without tenants.
pub const DEFAULT_TENANT: &str = "default";

/// One tenant namespace's isolated state.
#[derive(Debug)]
pub struct TenantState {
    /// The tenant's name (user-supplied; the observability layer escapes
    /// it wherever it reaches JSON).
    pub name: Arc<str>,
    /// Position in the service's tenant table — the index metric families
    /// and cache keys are salted with.
    pub index: usize,
    /// This tenant's cross-request circuit breaker (sharded per worker,
    /// like the single-tenant breaker was).
    pub breaker: Breaker,
    /// This tenant's published rule-set snapshot cell.
    pub snapshots: SnapshotCell,
    /// Queued-but-unclaimed jobs this tenant currently holds — the
    /// lock-free input to the per-tenant quota decision.
    pub(crate) depth: AtomicUsize,
    /// Admission quota: the most queued jobs this tenant may hold at once.
    pub quota: usize,
}

impl TenantState {
    /// Queued jobs this tenant holds right now (test/observability surface).
    pub fn queued(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }
}

/// The service's tenant table: states in configuration order plus a
/// name → index map for submission-time resolution.
#[derive(Debug)]
pub struct Tenants {
    states: Vec<TenantState>,
    lookup: HashMap<Arc<str>, usize>,
}

impl Tenants {
    /// Build the table. Empty `names` means one [`DEFAULT_TENANT`]
    /// namespace; duplicate names collapse to their first occurrence. Each
    /// tenant gets its own breaker (threshold/worker-sharding identical
    /// across tenants) and its own snapshot cell.
    pub fn new(
        names: &[String],
        breaker_threshold: usize,
        worker_shards: usize,
        rule_ids: &[String],
        catalog: &Catalog,
        quota: usize,
    ) -> Tenants {
        let mut resolved: Vec<Arc<str>> = Vec::new();
        let mut lookup: HashMap<Arc<str>, usize> = HashMap::new();
        let defaults = [DEFAULT_TENANT.to_string()];
        let names = if names.is_empty() {
            &defaults[..]
        } else {
            names
        };
        for name in names {
            let name: Arc<str> = Arc::from(name.as_str());
            if !lookup.contains_key(&name) {
                lookup.insert(Arc::clone(&name), resolved.len());
                resolved.push(name);
            }
        }
        let states = resolved
            .into_iter()
            .enumerate()
            .map(|(index, name)| {
                let breaker = Breaker::sharded(breaker_threshold, worker_shards, rule_ids.to_vec());
                let snapshots =
                    SnapshotCell::new(RuleSnapshot::build(breaker.generation(), catalog, &breaker));
                TenantState {
                    name,
                    index,
                    breaker,
                    snapshots,
                    depth: AtomicUsize::new(0),
                    quota,
                }
            })
            .collect();
        Tenants { states, lookup }
    }

    /// Resolve a request's tenant label to its table index. `None` is the
    /// first configured tenant; an unknown name is `None` (reject at the
    /// door).
    pub fn resolve(&self, label: Option<&str>) -> Option<usize> {
        match label {
            None => Some(0),
            Some(name) => self.lookup.get(name).copied(),
        }
    }

    /// Tenant state at `index`.
    pub fn get(&self, index: usize) -> &TenantState {
        &self.states[index]
    }

    /// Tenant state by name, if served.
    pub fn by_name(&self, name: &str) -> Option<&TenantState> {
        self.lookup.get(name).map(|&i| &self.states[i])
    }

    /// Number of namespaces.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Always false — a table holds at least one tenant.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The states, in configuration order.
    pub fn iter(&self) -> impl Iterator<Item = &TenantState> {
        self.states.iter()
    }

    /// Tenant names, in configuration order (the label set the per-tenant
    /// metric families are registered with).
    pub fn names(&self) -> Vec<String> {
        self.states.iter().map(|t| t.name.to_string()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(names: &[&str]) -> Tenants {
        let catalog = Catalog::paper();
        let rule_ids: Vec<String> = catalog.rules().iter().map(|r| r.id.clone()).collect();
        let names: Vec<String> = names.iter().map(|s| s.to_string()).collect();
        Tenants::new(&names, 3, 2, &rule_ids, &catalog, 8)
    }

    #[test]
    fn empty_config_serves_the_default_tenant() {
        let t = table(&[]);
        assert_eq!(t.len(), 1);
        assert_eq!(&*t.get(0).name, DEFAULT_TENANT);
        assert_eq!(t.resolve(None), Some(0));
        assert_eq!(t.resolve(Some(DEFAULT_TENANT)), Some(0));
        assert_eq!(t.resolve(Some("nobody")), None);
    }

    #[test]
    fn names_resolve_and_duplicates_collapse() {
        let t = table(&["a", "b", "a"]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(Some("a")), Some(0));
        assert_eq!(t.resolve(Some("b")), Some(1));
        assert_eq!(
            t.resolve(None),
            Some(0),
            "unlabeled goes to the first tenant"
        );
        assert!(t.by_name("b").is_some());
        assert_eq!(t.names(), vec!["a".to_string(), "b".to_string()]);
    }
}
