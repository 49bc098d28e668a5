#![warn(missing_docs)]
//! # kola-service — a concurrent optimization service over the KOLA stack
//!
//! The paper treats the optimizer as a library; a deployed optimizer is a
//! *service*: requests arrive concurrently as text, carry deadlines, and
//! must always get an answer — a query optimizer that crashes or hangs
//! takes the whole database front door with it. This crate wraps the
//! governed rewrite engines of `kola-rewrite` in that service shell:
//!
//! - [`service::Service`] — a bounded, per-worker-sharded work queue (with
//!   work-stealing) in front of a pool of panic-isolated worker threads,
//!   each owning a long-lived fast engine whose arena, marks, and memo
//!   persist across requests. A full queue sheds load with a structured
//!   [`request::Outcome::Overloaded`] rejection — decided from one
//!   lock-free depth counter — instead of blocking or growing without
//!   bound. Each worker answers a request with one attempt on its fast
//!   (interned, tree-indexed, memoized) engine under the request's
//!   remaining deadline, then an unoptimized passthrough of the input if
//!   that attempt fails. A run is a deterministic function of (term, rule
//!   set, budget), so a second attempt could only fail again.
//! - [`snapshot::SnapshotCell`] — the read-mostly published rule-set
//!   snapshot workers run under: one atomic load per request in steady
//!   state, and an `Arc` swap when the breaker trips or resets.
//! - [`breaker::Breaker`] — a cross-request per-rule circuit breaker: a
//!   rule implicated in repeated failures (injected faults, poison-rule
//!   panics, oversize results) is evicted from the rule set handed to the
//!   engines — and thereby from the fast engine's `RuleIndex` — until an
//!   operator resets it. This extends the per-run quarantine of
//!   `kola-rewrite::budget` across requests. Failure charges land in
//!   per-worker shards of relaxed atomic counters, so a fault-saturated
//!   stream scales with workers; trips fold the shards and stay
//!   byte-identical to the original single-lock breaker, which
//!   `tests/breaker_parity.rs` keeps as its executable spec. Every catalog
//!   rule is registered at start, and a charge or reset naming any other
//!   id is refused.
//! - [`metrics`] — the service's lock-free metric surface (built on
//!   `kola-obs`): request-lifecycle counters arranged as conservation
//!   invariants the soak harness audits, per-rule attempt/fire families,
//!   latency/queue-depth histograms, and engine odometers delta-flushed
//!   from each worker's persistent engine. With
//!   [`service::ServiceConfig::tracing`] on, every successful optimization
//!   also records a structured `kola_obs::RewriteTrace` that replays
//!   byte-for-byte on the boxed reference engine.
//! - [`tenant`] — named tenant namespaces: each tenant owns its own
//!   breaker, published rule-set snapshot, and admission quota, with
//!   tenant-salted plan-cache keys and per-tenant metric families, so one
//!   tenant's poison traffic trips, invalidates, and backpressures only
//!   itself.
//!
//! The soak harness that proves these properties under chaos — poison
//! rules, adversarially deep terms, random deadlines, floods, a noisy
//! neighbor — lives in `kola-bench` (`kola_bench::soak`), outside the
//! serving library. [`request::RequestOptions::faults`] and
//! [`request::RequestOptions::hold_for`] are the service's test surface:
//! the harness injects rule faults and simulated materialization stalls
//! through them.
//!
//! Serving preserves exactness: with no faults injected the service answer
//! is byte-identical to a direct [`kola_rewrite::Runner`] run on the fast
//! engine and on the boxed reference engine alike (see
//! `tests/service.rs`).

pub mod breaker;
mod cache;
pub mod metrics;
pub mod request;
pub mod service;
pub mod snapshot;
pub mod tenant;

pub use breaker::{Breaker, BreakerEntry};
pub use metrics::{conservation_violations, ServiceMetrics};
pub use request::{Outcome, Payload, Request, RequestOptions, Response};
pub use service::{Pending, Service, ServiceConfig};
pub use snapshot::{RuleSnapshot, SnapshotCell};
pub use tenant::{TenantState, Tenants, DEFAULT_TENANT};
