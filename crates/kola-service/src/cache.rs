//! The fingerprint-keyed normalized-plan cache: serve repeated traffic
//! without touching a worker engine.
//!
//! Normalization is a deterministic function of (input term, active rule
//! set, resource budget) — the paper's rule algebra has no other inputs —
//! which makes its output cacheable by construction (and is why a worker
//! makes one engine attempt per request, never a retry: see `service.rs`).
//! This module memoizes that function at the service door:
//!
//! - **Key.** AST payloads key on [`kola::query_fp`], the interner's
//!   64-bit structural fingerprint computed arena-free on the submitting
//!   thread; text payloads key on a hash of the raw source string (a hit
//!   skips the parse too). Both are folded with the request's budget
//!   parameters — the same query under a different step cap is a
//!   different cache line. A fingerprint match is confirmed structurally
//!   ([`kola_rewrite::budget::queries_equal`] / byte equality) before a
//!   hit is served, closing the 2⁻⁶⁴ collision hole.
//! - **Invalidation.** Every entry is tagged with the breaker
//!   [`generation`](crate::Breaker::generation) it was computed under —
//!   the same counter that versions [`RuleSnapshot`](crate::RuleSnapshot)
//!   epochs. A trip or reset invalidates every entry with one counter
//!   bump: lookups compare epochs and lazily reclaim stale slots; no scan,
//!   no flush, and the publication-ordering argument is the snapshot
//!   cell's (`snapshot.rs`), inherited wholesale.
//! - **Eviction.** Bounded per-shard capacity under CLOCK/second-chance:
//!   a lookup sets the entry's reference bit; the insert hand clears bits
//!   until it finds an unreferenced (or stale — evicted eagerly) victim.
//! - **Single flight.** A miss registers an in-flight marker before it is
//!   enqueued; concurrent identical misses attach as waiters instead of
//!   consuming queue slots and engine passes. The leader's completion
//!   answers every waiter from the one computed response — *when* that
//!   response is serveable (cacheable, derived at the current generation).
//!   A leader that failed, degraded, panicked, or raced a generation bump
//!   instead hands its waiters back to the worker, which requeues each as
//!   a fresh solo job: a waiter is never answered with a reply its own
//!   engine pass would not have produced, and never parks past its
//!   leader's failure.
//! - **Tenancy.** Keys are salted with the request's resolved tenant
//!   index, and entries and flights carry the tenant and compare it on
//!   match — a cross-tenant hit or coalesce is structurally impossible,
//!   not just 2⁻⁶⁴ unlikely. Because invalidation compares each entry's
//!   epoch against *its own tenant's* breaker generation, one tenant's
//!   trip reclaims only that tenant's plans.
//!
//! Only *pure* requests participate (no injected faults), and only
//! optimized responses with no caught panic, no quarantine, and no
//! contained rule failures are inserted —
//! exactly the responses that are a pure function of (term, rule set,
//! budget). Everything else takes the ordinary worker path, which is what
//! keeps cache-on byte-identical to cache-off (`tests/cache.rs` proves it
//! over 500 seeds with trips and resets mid-stream).

use crate::metrics::ServiceMetrics;
use crate::request::{Outcome, Payload, Request, Response};
use kola::query_fp;
use kola::term::Query;
use kola_rewrite::budget::queries_equal;
use kola_rewrite::{QuarantineReport, RewriteReport};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Domain separators so a text source and an AST can never alias one
/// cache line even if the string hash happened to equal a fingerprint.
const TEXT_SALT: u64 = 0x7e57_0000_0000_0001;
const AST_SALT: u64 = 0xa57e_0000_0000_0002;

/// The payload half of a cache key. Owned (`Arc`) so the key survives in
/// the flight table and in resident entries without re-cloning the term.
#[derive(Debug, Clone)]
enum KeyInput {
    /// Raw source text, compared byte-for-byte on a fingerprint match.
    Text(Arc<str>),
    /// Parsed query, compared with `queries_equal` on a fingerprint match.
    Ast(Arc<Query>),
}

impl KeyInput {
    fn matches(&self, other: &KeyInput) -> bool {
        match (self, other) {
            (KeyInput::Text(a), KeyInput::Text(b)) => a == b,
            (KeyInput::Ast(a), KeyInput::Ast(b)) => Arc::ptr_eq(a, b) || queries_equal(a, b),
            _ => false,
        }
    }
}

/// The budget half of a cache key: every option that shapes the plan. The
/// wall-clock timeout and hold are deliberately absent — a successful
/// attempt never stopped on a deadline (the worker classifies that as
/// failure), so cached derivations are deadline-independent, the same
/// argument trace replay relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BudgetKey {
    max_steps: usize,
    max_depth: usize,
    max_term_size: usize,
    quarantine_after: usize,
}

/// A fully-derived cache key, computed once on the submitting thread and
/// carried by the job so the leader's completion can insert without
/// recomputing anything.
#[derive(Debug, Clone)]
pub(crate) struct CacheKey {
    hash: u64,
    /// Resolved tenant index, folded into `hash` and compared on every
    /// match: one tenant's lines and flights are invisible to another's.
    tenant: usize,
    input: KeyInput,
    budget: BudgetKey,
}

/// The memoized answer: everything a [`Response`] needs except the
/// per-request id and latency. Shared by `Arc` — serving a hit clones
/// handles, not plans, reports or quarantine lists.
#[derive(Debug)]
pub(crate) struct CachedPlan {
    outcome: Outcome,
    plan: Arc<Query>,
    report: Option<Arc<RewriteReport>>,
    quarantine: Arc<QuarantineReport>,
}

impl CachedPlan {
    /// Materialize the response this plan answers request `id` with,
    /// labeled for `tenant`. Identical to what the worker path produced
    /// when the entry was inserted: insertion requires no panic, no
    /// failures, and no error text, so those fields are constants here.
    pub(crate) fn response(&self, id: u64, tenant: Arc<str>) -> Response {
        Response {
            id,
            tenant,
            outcome: self.outcome.clone(),
            plan: Some(Arc::clone(&self.plan)),
            report: self.report.clone(),
            quarantine: Arc::clone(&self.quarantine),
            panic: None,
            error: None,
            latency: Duration::ZERO,
        }
    }

    /// Positional label in the `cache_served` counter family.
    pub(crate) fn served_index(&self) -> usize {
        served_index(&self.outcome)
    }
}

/// `cache_served` family position for an outcome (labels registered in
/// [`ServiceMetrics::new`] in this order).
fn served_index(outcome: &Outcome) -> usize {
    match outcome {
        Outcome::Optimized => 0,
        Outcome::Passthrough => 1,
        Outcome::Overloaded | Outcome::Invalid => 2,
    }
}

/// A coalesced identical miss, parked on the leader's flight. Carries the
/// original request so a failed leader's completion can hand the waiter
/// back to the worker for requeue as a fresh solo job ([`PlanCache::complete`]).
pub(crate) struct Waiter {
    /// Service-assigned id of the parked request.
    pub(crate) id: u64,
    /// Submission instant (the waiter's latency clock, whether it is
    /// answered from the leader's pass or requeued).
    pub(crate) submitted: Instant,
    /// The parked request's own deadline, carried into the requeued job.
    pub(crate) deadline: Option<Instant>,
    /// Resolved tenant index (same as the leader's — cross-tenant
    /// coalescing is structurally impossible).
    pub(crate) tenant: usize,
    /// The parked request, cloned at park time for the requeue path.
    pub(crate) request: Request,
    /// The parked submitter's reply channel.
    pub(crate) tx: mpsc::Sender<Response>,
}

/// One in-flight leader computation.
struct Flight {
    input: KeyInput,
    budget: BudgetKey,
    tenant: usize,
    /// Breaker generation the leader registered under; waiters only
    /// attach at the same generation (a coalesced reply must be the reply
    /// the waiter's own engine pass would have produced).
    generation: u64,
    waiters: Vec<Waiter>,
}

/// A resident cache line.
struct Entry {
    /// The key hash the shard index files this line under, so eviction
    /// removes its index entry directly.
    hash: u64,
    input: KeyInput,
    budget: BudgetKey,
    tenant: usize,
    /// Breaker generation the plan was derived under; a mismatch with the
    /// reader's generation is staleness, reclaimed on sight.
    epoch: u64,
    /// CLOCK reference bit: set on hit, cleared by the sweeping hand.
    referenced: bool,
    value: Arc<CachedPlan>,
}

struct ShardInner {
    /// key-hash → slot index. One entry per hash: a colliding insert
    /// replaces (2⁻⁶⁴ events; correctness is preserved by the structural
    /// confirm on read).
    index: HashMap<u64, usize>,
    slots: Vec<Option<Entry>>,
    free: Vec<usize>,
    hand: usize,
    flights: HashMap<u64, Flight>,
}

/// What the pre-admission probe decided (see [`PlanCache::probe`]).
pub(crate) enum Probe {
    /// Fresh entry: serve on the submitting thread, touch no queue slot.
    Hit(Arc<CachedPlan>),
    /// Identical miss already in flight: the sender was parked on it.
    Coalesced,
    /// Proceed to admission.
    Miss,
}

/// What the post-admission claim decided (see [`PlanCache::claim`]).
pub(crate) enum Claim {
    /// An identical miss completed between probe and claim: serve the
    /// fresh entry (the caller releases its queue reservation).
    Hit(Arc<CachedPlan>),
    /// A flight appeared between probe and claim: parked as a waiter (the
    /// caller releases its queue reservation).
    Coalesced,
    /// This request is the flight leader; the key rides with the job and
    /// must be completed ([`PlanCache::complete`]) exactly once.
    Lead(CacheKey),
    /// Cacheable but cannot lead (a different key's flight owns the hash
    /// slot, or the generation moved): compute solo, insert nothing.
    Solo,
}

/// The sharded, lock-light plan cache. Shard count is fixed at
/// construction; each shard is an independent `Mutex<ShardInner>` whose
/// critical sections are a hash-map probe and a bounded CLOCK sweep —
/// never an engine run, never a cross-shard walk.
#[derive(Debug)]
pub(crate) struct PlanCache {
    shards: Vec<Mutex<ShardInner>>,
    per_shard: usize,
}

impl std::fmt::Debug for ShardInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardInner")
            .field("resident", &self.index.len())
            .field("in_flight", &self.flights.len())
            .finish()
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` plans across `shards` shards
    /// (per-shard capacity is the ceiling division, so small caps still
    /// hold something in every shard).
    pub(crate) fn new(capacity: usize, shards: usize) -> PlanCache {
        let shards = shards.max(1).min(capacity.max(1));
        let per_shard = capacity.div_ceil(shards).max(1);
        PlanCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(ShardInner {
                        index: HashMap::new(),
                        slots: Vec::new(),
                        free: Vec::new(),
                        hand: 0,
                        flights: HashMap::new(),
                    })
                })
                .collect(),
            per_shard,
        }
    }

    /// Derive the cache key for `request` under resolved tenant index
    /// `tenant`, or `None` when the request must not touch the cache:
    /// injected faults make the outcome a function of more than (term,
    /// rule set, budget). Timeouts and holds
    /// stay cacheable — they shape *when* a plan arrives, never
    /// *which* plan (see [`BudgetKey`]).
    pub(crate) fn key_of(request: &Request, tenant: usize) -> Option<CacheKey> {
        let o = &request.options;
        if !o.faults.is_empty() {
            return None;
        }
        let budget = BudgetKey {
            max_steps: o.max_steps,
            max_depth: o.max_depth,
            max_term_size: o.max_term_size,
            quarantine_after: o.quarantine_after,
        };
        let (salted, input) = match &request.payload {
            Payload::Text(src) => {
                let mut h = DefaultHasher::new();
                src.hash(&mut h);
                (
                    h.finish() ^ TEXT_SALT,
                    KeyInput::Text(Arc::from(src.as_str())),
                )
            }
            Payload::Ast(q) => (query_fp(q) ^ AST_SALT, KeyInput::Ast(Arc::clone(q))),
        };
        let mut h = DefaultHasher::new();
        salted.hash(&mut h);
        budget.hash(&mut h);
        tenant.hash(&mut h);
        Some(CacheKey {
            hash: h.finish(),
            tenant,
            input,
            budget,
        })
    }

    fn shard(&self, hash: u64) -> &Mutex<ShardInner> {
        &self.shards[(hash as usize) % self.shards.len()]
    }

    /// Pre-admission consult at the key's tenant's breaker generation
    /// `gen`. A [`Probe::Hit`] never touches the depth counter;
    /// [`Probe::Coalesced`] parks the request on the in-flight leader
    /// (cloning it, so a failed leader can hand it back for requeue).
    /// Miss decisions are re-made under the lock by [`PlanCache::claim`]
    /// after the caller has reserved a queue slot — the two-step shape
    /// keeps the depth CAS out of every shard critical section.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn probe(
        &self,
        key: &CacheKey,
        gen: u64,
        id: u64,
        request: &Request,
        submitted: Instant,
        deadline: Option<Instant>,
        tx: &mpsc::Sender<Response>,
        metrics: &ServiceMetrics,
    ) -> Probe {
        let mut inner = self.shard(key.hash).lock().unwrap();
        if let Some(value) = self.lookup_locked(&mut inner, key, gen, metrics) {
            return Probe::Hit(value);
        }
        match join_flight(&mut inner, key, gen, id, request, submitted, deadline, tx) {
            Some(true) => Probe::Coalesced,
            _ => Probe::Miss,
        }
    }

    /// Post-admission re-check and flight registration (the caller holds
    /// a queue-slot reservation). Re-made from scratch because the world
    /// may have moved between [`PlanCache::probe`] and here: an identical
    /// leader may have completed (→ [`Claim::Hit`]) or registered
    /// (→ [`Claim::Coalesced`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn claim(
        &self,
        key: CacheKey,
        gen: u64,
        id: u64,
        request: &Request,
        submitted: Instant,
        deadline: Option<Instant>,
        tx: &mpsc::Sender<Response>,
        metrics: &ServiceMetrics,
    ) -> Claim {
        let mut inner = self.shard(key.hash).lock().unwrap();
        if let Some(value) = self.lookup_locked(&mut inner, &key, gen, metrics) {
            return Claim::Hit(value);
        }
        match join_flight(&mut inner, &key, gen, id, request, submitted, deadline, tx) {
            Some(true) => return Claim::Coalesced,
            // A different key's flight owns this hash (2⁻⁶⁴), or the same
            // key is in flight under an older generation — don't stack a
            // second leader; compute solo and leave the books simple.
            Some(false) => {
                metrics.cache_misses.inc();
                return Claim::Solo;
            }
            None => {}
        }
        metrics.cache_misses.inc();
        inner.flights.insert(
            key.hash,
            Flight {
                input: key.input.clone(),
                budget: key.budget,
                tenant: key.tenant,
                generation: gen,
                waiters: Vec::new(),
            },
        );
        Claim::Lead(key)
    }

    /// Leader completion: retire the flight and, when the response is
    /// serveable — cacheable (optimized, pure) *and* derived at
    /// `epoch == gen` — insert it and answer every parked waiter from it,
    /// doing the waiters' hit accounting here (a coalesced park is not a
    /// hit until its leader actually delivers). Otherwise the waiters are
    /// returned and the caller **must requeue each as a fresh job**: the
    /// leader failed, degraded, panicked, or raced a generation bump, so
    /// its reply is not the reply the waiters' own engine passes would
    /// produce. Called by the worker after the response is built, panic
    /// path included — which is what guarantees a waiter never parks past
    /// its leader's failure.
    #[must_use = "unserved waiters must be requeued as fresh jobs"]
    pub(crate) fn complete(
        &self,
        key: &CacheKey,
        response: &Response,
        epoch: u64,
        gen: u64,
        metrics: &ServiceMetrics,
    ) -> Vec<Waiter> {
        let serveable = cacheable_response(response) && epoch == gen;
        let waiters = {
            let mut inner = self.shard(key.hash).lock().unwrap();
            let flight = inner.flights.remove(&key.hash);
            if serveable {
                if let Some(plan) = &response.plan {
                    let value = Arc::new(CachedPlan {
                        outcome: response.outcome.clone(),
                        plan: Arc::clone(plan),
                        report: response.report.clone(),
                        quarantine: Arc::clone(&response.quarantine),
                    });
                    self.insert_locked(&mut inner, key, epoch, value, metrics);
                }
            }
            flight.map(|f| f.waiters).unwrap_or_default()
        };
        if !serveable {
            return waiters;
        }
        // Answer waiters outside the shard lock: sends are cheap but
        // there is no reason to serialize other submitters behind them.
        for w in waiters {
            metrics.cache_coalesced.inc();
            metrics
                .cache_served
                .add_index(served_index(&response.outcome), 1);
            metrics.tenant_cache_hits.add_index(w.tenant, 1);
            let mut r = response.clone();
            r.id = w.id;
            r.latency = w.submitted.elapsed();
            let _ = w.tx.send(r);
        }
        Vec::new()
    }

    /// Locked lookup: confirm the fingerprint structurally, compare the
    /// entry's epoch against `gen`, reclaim stale lines on sight.
    fn lookup_locked(
        &self,
        inner: &mut ShardInner,
        key: &CacheKey,
        gen: u64,
        metrics: &ServiceMetrics,
    ) -> Option<Arc<CachedPlan>> {
        let slot = *inner.index.get(&key.hash)?;
        let entry = inner.slots[slot].as_mut()?;
        if entry.tenant != key.tenant
            || entry.budget != key.budget
            || !entry.input.matches(&key.input)
        {
            return None;
        }
        if entry.epoch != gen {
            // Stale: the rule set moved since this plan was derived.
            // Reclaim lazily — this is the whole invalidation protocol.
            inner.slots[slot] = None;
            inner.index.remove(&key.hash);
            inner.free.push(slot);
            metrics.cache_stale.inc();
            return None;
        }
        entry.referenced = true;
        Some(Arc::clone(&entry.value))
    }

    /// Locked insert with CLOCK/second-chance eviction. Replaces in place
    /// on a hash collision; otherwise fills a free slot, grows up to the
    /// per-shard cap, then sweeps the hand: stale entries are evicted on
    /// sight, referenced entries get their second chance, and the first
    /// unreferenced entry is the victim.
    fn insert_locked(
        &self,
        inner: &mut ShardInner,
        key: &CacheKey,
        epoch: u64,
        value: Arc<CachedPlan>,
        metrics: &ServiceMetrics,
    ) {
        metrics.cache_insertions.inc();
        let entry = Entry {
            hash: key.hash,
            input: key.input.clone(),
            budget: key.budget,
            tenant: key.tenant,
            epoch,
            referenced: true,
            value,
        };
        if let Some(&slot) = inner.index.get(&key.hash) {
            inner.slots[slot] = Some(entry);
            return;
        }
        let slot = if let Some(free) = inner.free.pop() {
            free
        } else if inner.slots.len() < self.per_shard {
            inner.slots.push(None);
            inner.slots.len() - 1
        } else {
            // Bounded sweep: after one full lap every reference bit is
            // clear, so the second lap's first occupied slot is a victim.
            let mut victim = None;
            for _ in 0..inner.slots.len() * 2 {
                let i = inner.hand;
                inner.hand = (inner.hand + 1) % inner.slots.len();
                match &mut inner.slots[i] {
                    // Eager-stale eviction compares epochs only within the
                    // inserting tenant: another tenant's generation is a
                    // different counter, and judging its entries by ours
                    // would let a trip-churning tenant preferentially
                    // evict its neighbors' fresh plans.
                    Some(e) if e.tenant == key.tenant && e.epoch != epoch => {
                        victim = Some(i);
                        break;
                    }
                    Some(e) if e.referenced => e.referenced = false,
                    Some(_) => {
                        victim = Some(i);
                        break;
                    }
                    None => {
                        victim = Some(i);
                        break;
                    }
                }
            }
            let i = victim.expect("a full CLOCK sweep always yields a victim");
            if let Some(old) = &inner.slots[i] {
                metrics.cache_evicted.inc();
                inner.index.remove(&old.hash);
            }
            i
        };
        inner.slots[slot] = Some(entry);
        inner.index.insert(key.hash, slot);
    }
}

/// Park the arriving request as a waiter on the flight filed under
/// `key`'s hash when that flight computes exactly what the request's own
/// engine pass would: same generation, tenant, budget, and input. The
/// request is cloned, so a failed leader can hand it back for requeue.
/// `None` when no flight holds the hash; `Some(joined)` otherwise.
#[allow(clippy::too_many_arguments)]
fn join_flight(
    inner: &mut ShardInner,
    key: &CacheKey,
    gen: u64,
    id: u64,
    request: &Request,
    submitted: Instant,
    deadline: Option<Instant>,
    tx: &mpsc::Sender<Response>,
) -> Option<bool> {
    let flight = inner.flights.get_mut(&key.hash)?;
    let joined = flight.generation == gen
        && flight.tenant == key.tenant
        && flight.budget == key.budget
        && flight.input.matches(&key.input);
    if joined {
        flight.waiters.push(Waiter {
            id,
            submitted,
            deadline,
            tenant: key.tenant,
            request: request.clone(),
            tx: tx.clone(),
        });
    }
    Some(joined)
}

/// Plans too large to be worth pinning in memory: one chaos-lane deep AST
/// can be ~3000 nodes; 2048 resident entries of that size would dominate
/// the fleet's footprint. The bound is on the *plan* (the dominant
/// allocation of an entry); inputs are shared `Arc`s either way.
const MAX_CACHED_PLAN_NODES: usize = 2_048;

/// Is `response` a pure function of (term, rule set, budget)? Optimized,
/// no caught panic, no error notes, no quarantine, and no
/// contained per-rule failures — any of those would make a cached replay
/// observably different from a fresh engine pass (different panic
/// attributions, different breaker charges).
fn cacheable_response(response: &Response) -> bool {
    matches!(response.outcome, Outcome::Optimized)
        && response.error.is_none()
        && response.panic.is_none()
        && response.quarantine.entries.is_empty()
        && response
            .report
            .as_ref()
            .is_some_and(|r| r.rule_stats.values().all(|s| s.failed == 0))
        && response
            .plan
            .as_ref()
            .is_some_and(|p| p.size() <= MAX_CACHED_PLAN_NODES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestOptions;

    fn metrics() -> ServiceMetrics {
        ServiceMetrics::new(&["app".to_string()], 8)
    }

    fn plan_for(src: &str) -> Arc<CachedPlan> {
        Arc::new(CachedPlan {
            outcome: Outcome::Optimized,
            plan: Arc::new(kola::parse::parse_query(src).unwrap()),
            report: None,
            quarantine: Arc::default(),
        })
    }

    fn key_for(src: &str) -> CacheKey {
        PlanCache::key_of(&Request::text(src), 0).expect("pure request")
    }

    #[test]
    fn text_and_ast_forms_never_alias() {
        let q = kola::parse::parse_query("id . age ! P").unwrap();
        let text = PlanCache::key_of(&Request::text("id . age ! P"), 0).unwrap();
        let ast = PlanCache::key_of(&Request::ast(q), 0).unwrap();
        assert_ne!(text.hash, ast.hash);
        // Same payload, different budget: different line.
        let tight = Request::text("id . age ! P").with_options(RequestOptions {
            max_steps: 7,
            ..RequestOptions::default()
        });
        assert_ne!(PlanCache::key_of(&tight, 0).unwrap().hash, text.hash);
        // Same payload, different tenant: different line.
        assert_ne!(
            PlanCache::key_of(&Request::text("id . age ! P"), 1)
                .unwrap()
                .hash,
            text.hash
        );
    }

    #[test]
    fn tenant_entries_never_serve_other_tenants() {
        let cache = PlanCache::new(8, 1);
        let m = metrics();
        let for_a = PlanCache::key_of(&Request::text("id . age ! P"), 0).unwrap();
        let for_b = PlanCache::key_of(&Request::text("id . age ! P"), 1).unwrap();
        let mut inner = cache.shards[0].lock().unwrap();
        cache.insert_locked(&mut inner, &for_a, 0, plan_for("age ! P"), &m);
        // Tenant b misses on the identical query even at the same
        // generation — and even if the hashes ever collided, the stored
        // tenant tag would refuse the match.
        assert!(cache.lookup_locked(&mut inner, &for_b, 0, &m).is_none());
        assert!(cache.lookup_locked(&mut inner, &for_a, 0, &m).is_some());
        // b's lines are invalidated by *b's* generation, not a's.
        cache.insert_locked(&mut inner, &for_b, 3, plan_for("age ! P"), &m);
        assert!(cache.lookup_locked(&mut inner, &for_b, 3, &m).is_some());
        assert!(cache.lookup_locked(&mut inner, &for_a, 0, &m).is_some());
    }

    #[test]
    fn faulted_requests_are_uncacheable() {
        use kola_rewrite::{FaultKind, FaultPlan, FaultSpec, StepSelector};
        let faulted = Request::text("id . age ! P").with_options(RequestOptions {
            faults: FaultPlan::new().with(FaultSpec {
                rule_id: "app".into(),
                at: StepSelector::Always,
                kind: FaultKind::Panic,
            }),
            ..RequestOptions::default()
        });
        assert!(PlanCache::key_of(&faulted, 0).is_none());
    }

    #[test]
    fn stale_epoch_entries_are_reclaimed_on_lookup() {
        let cache = PlanCache::new(8, 1);
        let m = metrics();
        let key = key_for("id . age ! P");
        {
            let mut inner = cache.shards[0].lock().unwrap();
            cache.insert_locked(&mut inner, &key, 0, plan_for("age ! P"), &m);
            assert!(cache.lookup_locked(&mut inner, &key, 0, &m).is_some());
            // Generation moved: the entry is stale and reclaimed on sight.
            assert!(cache.lookup_locked(&mut inner, &key, 1, &m).is_none());
            assert!(cache.lookup_locked(&mut inner, &key, 1, &m).is_none());
        }
        assert_eq!(m.cache_stale.get(), 1);
    }

    #[test]
    fn clock_gives_referenced_entries_a_second_chance() {
        let cache = PlanCache::new(3, 1);
        let m = metrics();
        let keys: Vec<CacheKey> = ["age ! P", "city ! P", "addr ! P", "id ! P"]
            .iter()
            .map(|s| key_for(&format!("id . {s}")))
            .collect();
        let mut inner = cache.shards[0].lock().unwrap();
        for k in &keys[..3] {
            cache.insert_locked(&mut inner, k, 0, plan_for("P union Q"), &m);
        }
        // Sweep once so every reference bit is cleared, then re-touch only
        // the first entry.
        for k in &keys[..3] {
            assert!(cache.lookup_locked(&mut inner, k, 0, &m).is_some());
        }
        cache.insert_locked(&mut inner, &keys[3], 0, plan_for("P union Q"), &m);
        // Everyone was referenced: the hand cleared all three bits and
        // evicted the first unreferenced slot (the oldest, keys[0]).
        assert_eq!(m.cache_evicted.get(), 1);
        assert!(cache.lookup_locked(&mut inner, &keys[0], 0, &m).is_none());
        assert!(cache.lookup_locked(&mut inner, &keys[3], 0, &m).is_some());
        // Second-chance proper: touch keys[1], insert a fifth — the
        // untouched keys[2] is the victim, not the referenced keys[1].
        assert!(cache.lookup_locked(&mut inner, &keys[1], 0, &m).is_some());
        let k5 = key_for("id . id . age ! P");
        cache.insert_locked(&mut inner, &k5, 0, plan_for("P union Q"), &m);
        assert!(cache.lookup_locked(&mut inner, &keys[1], 0, &m).is_some());
        assert!(cache.lookup_locked(&mut inner, &keys[2], 0, &m).is_none());
    }

    #[test]
    fn oversized_plans_are_not_cacheable() {
        use kola::term::Func;
        let mut f = Func::Prim(Arc::from("age"));
        for _ in 0..MAX_CACHED_PLAN_NODES {
            f = Func::Compose(Box::new(Func::Id), Box::new(f));
        }
        let big = Query::App(f, Box::new(Query::Extent(Arc::from("P"))));
        let r = Response {
            id: 0,
            tenant: Arc::from(crate::tenant::DEFAULT_TENANT),
            outcome: Outcome::Optimized,
            plan: Some(Arc::new(big)),
            report: Some(Arc::default()),
            quarantine: Arc::default(),
            panic: None,
            error: None,
            latency: Duration::ZERO,
        };
        assert!(!cacheable_response(&r));
    }

    #[test]
    fn failed_leader_hands_waiters_back_for_requeue() {
        let cache = PlanCache::new(8, 1);
        let m = metrics();
        let req = Request::text("id . age ! P");
        let key = PlanCache::key_of(&req, 0).unwrap();
        let now = Instant::now();
        let (lead_tx, _lead_rx) = mpsc::channel();
        let Claim::Lead(lead_key) = cache.claim(key.clone(), 0, 1, &req, now, None, &lead_tx, &m)
        else {
            panic!("first claim must lead");
        };
        // A second identical submission parks on the flight.
        let (tx, rx) = mpsc::channel();
        assert!(matches!(
            cache.probe(&key, 0, 2, &req, now, None, &tx, &m),
            Probe::Coalesced
        ));
        // The leader degrades to passthrough (not serveable): the waiter
        // comes back for requeue instead of being answered, no hit is
        // booked, and nothing was sent on its channel.
        let degraded = Response {
            id: 1,
            tenant: Arc::from(crate::tenant::DEFAULT_TENANT),
            outcome: Outcome::Passthrough,
            plan: Some(Arc::new(kola::parse::parse_query("age ! P").unwrap())),
            report: None,
            quarantine: Arc::default(),
            panic: None,
            error: Some("fast: injected".into()),
            latency: Duration::ZERO,
        };
        let unserved = cache.complete(&lead_key, &degraded, 0, 0, &m);
        assert_eq!(unserved.len(), 1);
        assert_eq!(unserved[0].id, 2);
        assert_eq!(unserved[0].tenant, 0);
        assert_eq!(m.tenant_cache_hits.total(), 0);
        assert_eq!(m.cache_coalesced.get(), 0);
        assert!(rx.try_recv().is_err(), "waiter must not see the failure");
        // The flight is retired: the returned request can lead afresh.
        assert!(matches!(
            cache.claim(
                PlanCache::key_of(&unserved[0].request, 0).unwrap(),
                0,
                2,
                &unserved[0].request,
                now,
                None,
                &tx,
                &m
            ),
            Claim::Lead(_)
        ));
    }

    #[test]
    fn successful_leader_answers_waiters_with_hit_accounting() {
        let cache = PlanCache::new(8, 1);
        let m = metrics();
        let req = Request::text("id . age ! P");
        let key = PlanCache::key_of(&req, 0).unwrap();
        let now = Instant::now();
        let (lead_tx, _lead_rx) = mpsc::channel();
        let Claim::Lead(lead_key) = cache.claim(key.clone(), 0, 1, &req, now, None, &lead_tx, &m)
        else {
            panic!("first claim must lead");
        };
        let (tx, rx) = mpsc::channel();
        assert!(matches!(
            cache.probe(&key, 0, 2, &req, now, None, &tx, &m),
            Probe::Coalesced
        ));
        let ok = Response {
            id: 1,
            tenant: Arc::from(crate::tenant::DEFAULT_TENANT),
            outcome: Outcome::Optimized,
            plan: Some(Arc::new(kola::parse::parse_query("age ! P").unwrap())),
            report: Some(Arc::default()),
            quarantine: Arc::default(),
            panic: None,
            error: None,
            latency: Duration::ZERO,
        };
        let unserved = cache.complete(&lead_key, &ok, 0, 0, &m);
        assert!(unserved.is_empty());
        let reply = rx.try_recv().expect("waiter answered at completion");
        assert_eq!(reply.id, 2);
        // Hit accounting happens at completion, once per waiter.
        assert_eq!(m.snapshot().counter("cache_hits"), 1);
        assert_eq!(m.cache_coalesced.get(), 1);
        assert_eq!(m.cache_insertions.get(), 1);
        let s = m.snapshot();
        assert_eq!(s.family("tenant_cache_hits"), &[("default".to_string(), 1)]);
    }
}
