//! The concurrent optimization service: sharded bounded queue, worker pool
//! with persistent per-worker engines, and panic isolation.
//!
//! Request lifecycle (README "Serving" has the picture):
//!
//! ```text
//! submit ──full?──▶ Overloaded (lock-free depth check, never blocks)
//!    │
//!    ▼ queued on a per-worker shard (deadline anchored here: queue wait
//!    │                               counts; idle workers steal)
//! worker: lower OQL text ──err──▶ Invalid
//!    │
//!    ▼ snapshot refresh: one atomic load; Arc swap on breaker change
//!    ▼ one engine attempt on the worker's long-lived engine under the
//!    │   remaining deadline, which parses KOLA text straight into its
//!    │   arena (unparsable text ends here as Invalid; panics caught and
//!    │   attributed); if it fails, the input itself (passthrough)
//!    ▼ reply: Optimized | Passthrough
//! ```
//!
//! Three structures keep the hot path off shared locks:
//!
//! - **Per-worker engines.** Each worker owns one `kola_rewrite::Engine`
//!   for its lifetime: the intern arena, normal-subtree marks, and
//!   normalization memo amortize across requests instead of being rebuilt
//!   per request. Arena growth is bounded by the engine's compaction cap,
//!   and [`Service::peak_arena_nodes`] exposes the high-water mark.
//! - **Snapshot-swapped rule state.** The served rule set is an immutable
//!   [`RuleSnapshot`](crate::snapshot::RuleSnapshot) behind an `Arc`;
//!   workers detect breaker trips/resets with one atomic generation load
//!   and swap the `Arc` — no reader locks, no per-request catalog
//!   filtering. The engine keeps the full catalog and index and masks the
//!   snapshot's disabled rules per request, so a breaker trip costs a
//!   mask, not an engine rebuild.
//! - **Sharded admission.** One bounded queue per worker with
//!   work-stealing; the Overloaded decision reads a single lock-free depth
//!   counter, and enqueue touches only the target shard's lock.
//!
//! ## One attempt, then passthrough
//!
//! A worker answers a request with **one** run of its fast engine
//! (interned, discrimination-tree-indexed, memoized). If that attempt
//! fails, or the deadline is gone before it can start, the worker returns
//! the input query unoptimized. There is no retry: the paper's rules are
//! declarative patterns with no head or body routines, so a run is a
//! deterministic function of (term, rule set, budget, fault plan), and a
//! second attempt under the same snapshot could only fail the same way
//! (`tests/robustness.rs` pins this; DESIGN §5c records the soak tally
//! that retired the retry). The attempt runs under the request's
//! **remaining** deadline — the budget's wall-clock cutoff is the request
//! deadline, so an attempt that overruns is stopped by the engine itself —
//! inside the `try_*` panic boundary of `kola-rewrite`, so a poison-rule
//! panic is caught, attributed to its rule, and charged to the tenant's
//! cross-request [`Breaker`].
//!
//! An attempt *fails* when it panics or when its report stops with
//! `DeadlineExpired` or `TermTooLarge` — stops that mean "no trustworthy
//! optimized plan". An input larger than the request's `max_term_size`
//! stops with `TermTooLarge` before any rule runs, so tests and the soak
//! streams force a failure with a term-size cap of 1, through the same
//! path a real oversize input takes. `BudgetExhausted` and `CycleDetected`
//! are *successes*: the governed engine guarantees the best (smallest)
//! query seen so far, which is a valid plan.
//!
//! The boxed reference engine does not run here: the fast engine is a
//! byte-exact drop-in for it, so every real failure cause — a poison
//! rule's panic, an expired deadline, an over-cap input — fails the boxed
//! engine identically. It checks the serving path from tests
//! (`tests/service.rs`) and replays recorded traces (`kola_obs::replay`).
//!
//! Exactness: the attempt calls `Engine::try_normalize_with` (for KOLA
//! text, `try_normalize_text_with`, which runs the same on the parsed
//! query) with exactly the request's budget and fault plan —
//! byte-identical to a direct fast-engine `Runner` run, whose `Fix` path
//! folds the same engine report into a fresh one (a zero-offset merge).
//! The engines' exactness contract thereby lifts to the service —
//! *including* cross-request reuse, because memo replays are
//! byte-identical to live runs and a replay under a mask is refused when
//! its derivation fired a masked rule (see `tests/service.rs`).
//!
//! ## Panic isolation
//!
//! Workers run on dedicated threads with oversized stacks (deep-term
//! traversals are explicit-stack throughout the engine layer, but debug
//! evaluator frames are large) and wrap each request in `catch_unwind`:
//! the attempt already isolates poison-rule panics, so anything reaching
//! the worker boundary is counted in
//! [`Service::unexpected_panics`] and answered with `Invalid` — the
//! thread, and the service, survive. The engine's cross-run state survives
//! a caught panic intact (see `Engine::try_normalize_with`), so the worker
//! keeps its warm engine afterwards.

use crate::breaker::Breaker;
use crate::cache::{CacheKey, CachedPlan, Claim, PlanCache, Probe, Waiter};
use crate::metrics::ServiceMetrics;
use crate::request::{Outcome, Payload, Request, RequestOptions, Response};
use crate::snapshot::RuleSnapshot;
use crate::tenant::Tenants;
use kola::term::Query;
use kola_frontend::{is_oql, kola_parse_error};
use kola_obs::{RewriteTrace, ShardedTraceRing, Snapshot as MetricsSnapshot};
use kola_rewrite::{
    Catalog, CaughtPanic, Engine, EngineConfig, EngineStats, Oriented, PropDb, QuarantineReport,
    RewriteReport, StopReason, Trace,
};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Service-wide limits and tuning.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads.
    pub workers: usize,
    /// Total work-queue capacity across all shards; submissions beyond it
    /// are shed as [`Outcome::Overloaded`].
    pub queue_capacity: usize,
    /// Cross-request breaker threshold: open a rule after this many
    /// requests in which it was implicated in a failure.
    pub breaker_threshold: usize,
    /// Reject text payloads larger than this (bytes). Text parsing is
    /// recursive; bounding the input bounds the parse.
    pub max_request_bytes: usize,
    /// Record a structured [`RewriteTrace`] for every successfully
    /// optimized request. Off by default: with tracing off the fast
    /// engine's per-step trace building is disabled entirely, so the hot
    /// path carries no provenance cost (the scaling benchmark gates this).
    pub tracing: bool,
    /// Per-worker trace ring capacity when `tracing` is on — each worker's
    /// ring shard keeps the most recent this-many of *its* traces and
    /// counts evictions; the fleet-wide odometers sum the shards.
    pub trace_capacity: usize,
    /// Total plan-cache capacity (resident normalized plans across all
    /// cache shards). `0` disables the cache entirely — every request
    /// takes the worker path, which is what the parity suite compares
    /// against.
    pub cache_capacity: usize,
    /// Tenant namespaces to serve, in order (the first is where unlabeled
    /// requests go). Empty means one `"default"` tenant — the
    /// single-tenant service, unchanged. Each tenant owns its own breaker,
    /// rule-set snapshot generation, admission quota, and plan-cache key
    /// space (see [`crate::tenant`]).
    pub tenants: Vec<String>,
    /// Per-tenant admission quota: the most queued jobs one tenant may
    /// hold at once, layered under the global `queue_capacity`. A tenant
    /// at quota is shed [`Outcome::Overloaded`] while the others keep
    /// admitting. `0` means "no per-tenant cap beyond the global one".
    pub tenant_quota: usize,
    /// Configuration for the long-lived worker engines. Defaults to
    /// [`EngineConfig::fast`]; [`EngineConfig::saturating`] opts the whole
    /// worker fleet into equality saturation with cost-based extraction
    /// (the engine attempt, snapshot masking, and breaker charging are engine-mode
    /// agnostic).
    pub engine: EngineConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            breaker_threshold: 3,
            max_request_bytes: 64 * 1024,
            tracing: false,
            trace_capacity: 1024,
            cache_capacity: 2048,
            tenants: Vec::new(),
            tenant_quota: 0,
            engine: EngineConfig::fast(),
        }
    }
}

pub(crate) struct Job {
    pub(crate) id: u64,
    pub(crate) request: Request,
    submitted: Instant,
    pub(crate) deadline: Option<Instant>,
    reply: mpsc::Sender<Response>,
    /// The single-flight leadership ticket: `Some` iff this job registered
    /// the in-flight marker for its cache key at admission. The worker
    /// must complete it exactly once — insert the response if cacheable
    /// and answer every coalesced waiter, or requeue the waiters when the
    /// response turned out unserveable.
    cache: Option<CacheKey>,
    /// Resolved tenant index (into `Shared::tenants`).
    pub(crate) tenant: usize,
}

/// One worker's slice of the admission queue. Enqueue and dequeue touch
/// only this shard's lock; the global admission decision reads only
/// `Shared::depth`.
struct Shard {
    jobs: Mutex<VecDeque<Job>>,
    cv: Condvar,
}

/// Worker thread stack size. Deep-term traversals are explicit-stack
/// throughout the engine layer, but debug evaluator frames are large and
/// AST requests can nest thousands of levels deep.
pub(crate) const WORKER_STACK: usize = 16 << 20;

/// Plan-cache shard count (clamped to the capacity by
/// [`PlanCache::new`]). More shards, less submit-side lock contention.
const CACHE_SHARDS: usize = 8;

/// An idle worker with an empty home shard parks this long before
/// re-scanning its siblings for stealable work. Submissions to its own
/// shard wake it immediately; work landing on a busy sibling's shard is
/// picked up within one poll.
const STEAL_POLL: Duration = Duration::from_micros(200);

pub(crate) struct Shared {
    /// The paper catalog, parsed once per process ([`paper_catalog`]).
    pub(crate) catalog: &'static Catalog,
    props: PropDb,
    /// The tenant table: per-tenant breaker, snapshot cell, and quota
    /// depth. A single-tenant service is a one-entry table.
    pub(crate) tenants: Tenants,
    shards: Vec<Shard>,
    /// Queued-but-unclaimed jobs across all shards: the lock-free input to
    /// the Overloaded decision.
    depth: AtomicUsize,
    /// Round-robin shard cursor for submissions.
    next_shard: AtomicUsize,
    shutdown: AtomicBool,
    capacity: usize,
    max_request_bytes: usize,
    unexpected_panics: AtomicUsize,
    /// High-water mark of any worker engine's arena, sampled after each
    /// request (the soak harness asserts boundedness).
    peak_arena: AtomicUsize,
    /// Lock-free metric instruments (see [`crate::metrics`]).
    pub(crate) metrics: ServiceMetrics,
    /// Structured-trace sink, present iff [`ServiceConfig::tracing`] — one
    /// ring shard per worker, so recording never crosses workers.
    pub(crate) tracer: Option<ShardedTraceRing>,
    /// The fingerprint-keyed normalized-plan cache (see [`crate::cache`]);
    /// `None` when [`ServiceConfig::cache_capacity`] is zero.
    cache: Option<PlanCache>,
    /// Worker-engine configuration ([`ServiceConfig::engine`]).
    engine_config: EngineConfig,
}

/// A ticket for a queued request; [`Pending::wait`] blocks for the reply.
pub struct Pending {
    id: u64,
    rx: mpsc::Receiver<Response>,
}

impl Pending {
    /// The service-assigned request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the worker replies. A worker always replies — every
    /// admitted request terminates with a classified outcome.
    pub fn wait(self) -> Response {
        self.rx
            .recv()
            .expect("worker dropped reply channel without responding")
    }
}

/// The running service. Dropping it drains the queue and joins the
/// workers.
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

/// The paper catalog, parsed on the first call in the process and shared
/// by every service started after it: the catalog is immutable, and
/// parsing it is most of a cold start.
fn paper_catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(Catalog::paper)
}

impl Service {
    /// Start a service over the paper catalog with `config`.
    pub fn start(config: ServiceConfig) -> Service {
        // Poison-rule panics are caught and attributed; keep their default
        // hook spam out of service logs (chains to the previous hook for
        // everything else).
        kola_rewrite::fault::silence_poison_panics();
        let catalog = paper_catalog();
        let workers_n = config.workers.max(1);
        let capacity = config.queue_capacity.max(1);
        let rule_ids: Vec<String> = catalog.rules().iter().map(|r| r.id.clone()).collect();
        // Each tenant gets its own breaker (every catalog rule in a
        // lock-free slot, charges through the charging worker's own shard)
        // and its own scoped snapshot cell. A quota of 0 means the global
        // capacity is the only cap.
        let quota = if config.tenant_quota == 0 {
            usize::MAX
        } else {
            config.tenant_quota
        };
        let tenants = Tenants::new(
            &config.tenants,
            config.breaker_threshold,
            workers_n,
            &rule_ids,
            catalog,
            quota,
        );
        let metrics = ServiceMetrics::with_tenants(&rule_ids, capacity, &tenants.names());
        let shared = Arc::new(Shared {
            catalog,
            props: PropDb::new(),
            tenants,
            shards: (0..workers_n)
                .map(|_| Shard {
                    jobs: Mutex::new(VecDeque::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            depth: AtomicUsize::new(0),
            next_shard: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            capacity,
            max_request_bytes: config.max_request_bytes,
            unexpected_panics: AtomicUsize::new(0),
            peak_arena: AtomicUsize::new(0),
            metrics,
            tracer: config
                .tracing
                .then(|| ShardedTraceRing::new(workers_n, config.trace_capacity)),
            cache: (config.cache_capacity > 0)
                .then(|| PlanCache::new(config.cache_capacity, CACHE_SHARDS)),
            engine_config: config.engine.clone(),
        });
        let workers = (0..workers_n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("kola-svc-{i}"))
                    .stack_size(WORKER_STACK)
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn service worker")
            })
            .collect();
        Service {
            shared,
            workers,
            next_id: AtomicU64::new(0),
        }
    }

    /// Submit a request. `Err` carries the structured rejection (a full
    /// queue or an oversized/invalid-at-the-door payload); `Ok` is a ticket
    /// for the eventual reply. Never blocks: the admission decision is a
    /// lock-free reservation against the depth counter, and enqueue only
    /// touches one shard's (uncontended in steady state) lock.
    // The Err arm is the cold shed path; boxing it would tax every caller
    // for a variant built only under overload.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, request: Request) -> Result<Pending, Response> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let m = &self.shared.metrics;
        // Resolve the tenant at the door. An unknown name is Invalid —
        // accepting it into some default namespace would let a typo'd
        // label consume (and trip) another tenant's state. The rejection
        // is accounted in the families' `other` catch-all lane.
        let Some(tenant) = self.shared.tenants.resolve(request.tenant.as_deref()) else {
            m.tenant_submitted.add_index(usize::MAX, 1);
            m.tenant_rejected_invalid.add_index(usize::MAX, 1);
            let mut r = Response::rejected(
                id,
                Outcome::Invalid,
                format!(
                    "unknown tenant {:?}",
                    request.tenant.as_deref().unwrap_or_default()
                ),
            );
            if let Some(name) = &request.tenant {
                r.tenant = Arc::clone(name);
            }
            return Err(r);
        };
        m.tenant_submitted.add_index(tenant, 1);
        let ten = self.shared.tenants.get(tenant);
        if let Payload::Text(src) = &request.payload {
            if src.len() > self.shared.max_request_bytes {
                m.tenant_rejected_invalid.add_index(tenant, 1);
                let mut r = Response::rejected(
                    id,
                    Outcome::Invalid,
                    format!(
                        "request too large: {} bytes (limit {})",
                        src.len(),
                        self.shared.max_request_bytes
                    ),
                );
                r.tenant = Arc::clone(&ten.name);
                return Err(r);
            }
        }
        let submitted = Instant::now();
        let deadline = request.options.timeout.map(|t| submitted + t);
        let (tx, rx) = mpsc::channel();
        // Plan-cache consult, BEFORE admission: a hit is answered right
        // here on the submitting thread — no queue slot, no worker, no
        // engine. An identical in-flight miss parks this sender on the
        // leader. Both paths re-validate the tenant's breaker generation
        // so no stale-generation plan is ever served (see `crate::cache`).
        // Keys are tenant-salted: this tenant can only ever see its own
        // lines and flights.
        let key = self
            .shared
            .cache
            .as_ref()
            .and_then(|_| PlanCache::key_of(&request, tenant));
        if let (Some(cache), Some(k)) = (self.shared.cache.as_ref(), &key) {
            let gen = ten.breaker.generation();
            match cache.probe(k, gen, id, &request, submitted, deadline, &tx, m) {
                Probe::Hit(value) => {
                    if ten.breaker.generation() == gen {
                        return Ok(self.serve_hit(id, tenant, submitted, &value, &tx, rx));
                    }
                    // The rule set moved between the generation read and
                    // the lookup: fall through to the worker path rather
                    // than risk a stale plan.
                }
                Probe::Coalesced => {
                    // No hit accounting yet: a park only becomes a hit
                    // when its leader delivers (PlanCache::complete); a
                    // failed leader requeues this request instead.
                    return Ok(Pending { id, rx });
                }
                Probe::Miss => {}
            }
        }
        // Per-tenant quota first: a tenant at its cap is shed while other
        // tenants keep admitting — the noisy-neighbor backpressure wall.
        let mut ten_depth = ten.depth.load(Ordering::Relaxed);
        loop {
            if ten_depth >= ten.quota {
                m.tenant_overloaded.add_index(tenant, 1);
                let mut r = Response::rejected(
                    id,
                    Outcome::Overloaded,
                    format!("tenant {:?} at quota ({} requests)", &*ten.name, ten.quota),
                );
                r.tenant = Arc::clone(&ten.name);
                return Err(r);
            }
            match ten.depth.compare_exchange_weak(
                ten_depth,
                ten_depth + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(current) => ten_depth = current,
            }
        }
        // Then the global backpressure wall. Reserve a queue slot
        // optimistically; losing a race just repeats the compare-exchange
        // against the fresher value.
        let mut depth = self.shared.depth.load(Ordering::Relaxed);
        loop {
            if depth >= self.shared.capacity {
                ten.depth.fetch_sub(1, Ordering::AcqRel);
                m.tenant_overloaded.add_index(tenant, 1);
                let mut r = Response::rejected(
                    id,
                    Outcome::Overloaded,
                    format!("work queue full ({} requests)", self.shared.capacity),
                );
                r.tenant = Arc::clone(&ten.name);
                return Err(r);
            }
            match self.shared.depth.compare_exchange_weak(
                depth,
                depth + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(current) => depth = current,
            }
        }
        // Re-decide under the shard lock now that a slot is held: an
        // identical leader may have completed (serve the fresh entry and
        // release the slots) or registered (park as a waiter and release
        // the slots) between the probe and here; otherwise this request
        // either becomes the flight leader or proceeds solo.
        let mut ticket = None;
        if let (Some(cache), Some(k)) = (self.shared.cache.as_ref(), key) {
            let gen = ten.breaker.generation();
            match cache.claim(k, gen, id, &request, submitted, deadline, &tx, m) {
                Claim::Hit(value) => {
                    if ten.breaker.generation() == gen {
                        self.shared.depth.fetch_sub(1, Ordering::AcqRel);
                        ten.depth.fetch_sub(1, Ordering::AcqRel);
                        return Ok(self.serve_hit(id, tenant, submitted, &value, &tx, rx));
                    }
                }
                Claim::Coalesced => {
                    self.shared.depth.fetch_sub(1, Ordering::AcqRel);
                    ten.depth.fetch_sub(1, Ordering::AcqRel);
                    return Ok(Pending { id, rx });
                }
                Claim::Lead(k) => ticket = Some(k),
                Claim::Solo => {}
            }
        }
        m.queue_depth.record(depth as u64 + 1);
        let job = Job {
            id,
            request,
            submitted,
            deadline,
            reply: tx,
            cache: ticket,
            tenant,
        };
        push_job(&self.shared, job);
        Ok(Pending { id, rx })
    }

    /// Submit and wait: the synchronous client surface. An overloaded or
    /// rejected submission comes back as the rejection response itself, so
    /// every call yields exactly one classified [`Response`].
    pub fn call(&self, request: Request) -> Response {
        match self.submit(request) {
            Ok(pending) => pending.wait(),
            Err(rejection) => rejection,
        }
    }

    /// Answer a cache hit on the submitting thread: clone handles, stamp
    /// the id and latency, send, and hand back the ticket. The plan itself
    /// is never copied — the response shares the cached `Arc`.
    fn serve_hit(
        &self,
        id: u64,
        tenant: usize,
        submitted: Instant,
        value: &CachedPlan,
        tx: &mpsc::Sender<Response>,
        rx: mpsc::Receiver<Response>,
    ) -> Pending {
        let m = &self.shared.metrics;
        m.cache_served.add_index(value.served_index(), 1);
        m.tenant_cache_hits.add_index(tenant, 1);
        let mut response = value.response(id, Arc::clone(&self.shared.tenants.get(tenant).name));
        response.latency = submitted.elapsed();
        m.cache_hit_latency_us
            .record(response.latency.as_micros() as u64);
        let _ = tx.send(response);
        Pending { id, rx }
    }

    /// The first tenant's cross-request circuit breaker (observe trips,
    /// reset rules) — *the* breaker on a single-tenant service.
    pub fn breaker(&self) -> &Breaker {
        &self.shared.tenants.get(0).breaker
    }

    /// Tenant `name`'s circuit breaker, if the service serves that tenant.
    /// Trips and operator resets through it are scoped to that tenant.
    pub fn tenant_breaker(&self, name: &str) -> Option<&Breaker> {
        self.shared.tenants.by_name(name).map(|t| &t.breaker)
    }

    /// The tenant table (names, quotas, queue depths).
    pub fn tenants(&self) -> &Tenants {
        &self.shared.tenants
    }

    /// Panics that reached the worker boundary (i.e. were *not* classified
    /// by the engine attempt's poison-rule isolation). The soak harness asserts this
    /// stays zero.
    pub fn unexpected_panics(&self) -> usize {
        self.shared.unexpected_panics.load(Ordering::Relaxed)
    }

    /// High-water mark of any worker engine's intern arena (live nodes),
    /// sampled after each request. Bounded by the engine's compaction cap
    /// plus one request's growth; the soak harness asserts exactly that.
    pub fn peak_arena_nodes(&self) -> usize {
        self.shared.peak_arena.load(Ordering::Relaxed)
    }

    /// Plain-data snapshot of every metric instrument, with the breaker and
    /// trace-ring odometers appended (`breaker_opened`, `breaker_reset`,
    /// `traces_recorded`, `traces_dropped`) so one snapshot tells the whole
    /// story. See [`crate::metrics`] for the conservation invariants the
    /// counters obey.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut s = self.shared.metrics.snapshot();
        // Aggregate breaker odometers sum the tenants; each tenant also
        // gets its own `breaker_opened/<name>` / `breaker_reset/<name>`
        // pair (names are user-supplied — `to_json` escapes them).
        let mut opened = 0;
        let mut reset = 0;
        for t in self.shared.tenants.iter() {
            opened += t.breaker.opened_total();
            reset += t.breaker.reset_total();
            s.counters.push((
                format!("breaker_opened/{}", t.name),
                t.breaker.opened_total(),
            ));
            s.counters
                .push((format!("breaker_reset/{}", t.name), t.breaker.reset_total()));
        }
        s.counters.push(("breaker_opened".to_string(), opened));
        s.counters.push(("breaker_reset".to_string(), reset));
        let (recorded, dropped) = self
            .shared
            .tracer
            .as_ref()
            .map_or((0, 0), |t| (t.recorded(), t.dropped()));
        s.counters.push(("traces_recorded".to_string(), recorded));
        s.counters.push(("traces_dropped".to_string(), dropped));
        s
    }

    /// The traces currently held by the ring (oldest first). Empty when the
    /// service was started without [`ServiceConfig::tracing`].
    pub fn traces(&self) -> Vec<RewriteTrace> {
        self.shared
            .tracer
            .as_ref()
            .map_or_else(Vec::new, |t| t.snapshot())
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for shard in &self.shared.shards {
            // Acquiring the shard lock pairs with the wait-side re-check,
            // so no worker can sleep through the shutdown flag.
            drop(shard.jobs.lock().unwrap());
            shard.cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Enqueue `job` on the next round-robin shard and wake its worker.
fn push_job(shared: &Shared, job: Job) {
    let cursor = shared.next_shard.fetch_add(1, Ordering::Relaxed);
    let shard = &shared.shards[cursor % shared.shards.len()];
    shard.jobs.lock().unwrap().push_back(job);
    shard.cv.notify_one();
}

/// Requeue the waiters of a failed flight leader as fresh solo jobs.
///
/// Each waiter was parked expecting the leader's one engine pass to stand
/// in for its own; the leader failed (or degraded, panicked, or raced a
/// generation bump), so that pass no longer represents what the waiter's
/// own run would produce — and the waiter must not hang until its deadline
/// either. It re-enters the queue with **no cache key**: no re-probe and
/// no second park, so one failed leader costs its waiters exactly one
/// extra queue round-trip, never a loop. The depth bumps here deliberately
/// bypass the admission walls — these requests were already admitted once
/// and shed-on-requeue would break the "every submission gets exactly one
/// classified reply" contract; the transient overshoot is bounded by the
/// waiter count of one flight. Conservation stays balanced: each requeued
/// waiter's `submitted` is answered by the `admitted` it counts at
/// dequeue.
fn requeue_waiters(shared: &Shared, waiters: Vec<Waiter>) {
    for w in waiters {
        shared.depth.fetch_add(1, Ordering::AcqRel);
        shared
            .tenants
            .get(w.tenant)
            .depth
            .fetch_add(1, Ordering::AcqRel);
        push_job(
            shared,
            Job {
                id: w.id,
                request: w.request,
                submitted: w.submitted,
                deadline: w.deadline,
                reply: w.tx,
                cache: None,
                tenant: w.tenant,
            },
        );
    }
}

/// Per-worker persistent state: the engine whose arena/marks/memo survive
/// across requests, plus one cached rule-set snapshot per served tenant
/// (the engine is shared across tenants: each request masks its tenant's
/// open rules, and the engine shares only full-rule-set facts between
/// masks).
struct WorkerState<'a> {
    engine: Engine<'a>,
    snapshots: Vec<Arc<RuleSnapshot>>,
    /// Engine odometer readings at the last flush; per-request deltas are
    /// pushed into the service counters so one worker's engine stats never
    /// double-count.
    last: EngineStats,
    /// Whether the index-shape gauges have been recorded. The engine builds
    /// its index on its first run and the shape never changes after, so
    /// they are recorded once per worker, not once per request.
    index_recorded: bool,
}

/// Delta-flush the worker engine's odometers into the service counters.
/// O(1) plus one atomic add per rule position the run consulted or fired:
/// the engine lists those positions, so a request never walks the catalog.
/// Fires count only for a request answered with its report (`optimized`),
/// the fires the responses show.
fn flush_engine_stats(shared: &Shared, state: &mut WorkerState<'_>, optimized: bool) {
    let m = &shared.metrics;
    let now = state.engine.stats();
    let last = &state.last;
    m.engine_visits.add(now.visits - last.visits);
    m.engine_consults.add(now.consults - last.consults);
    m.engine_constructed.add(now.constructed - last.constructed);
    m.engine_memo_hits.add(now.memo_hits - last.memo_hits);
    m.engine_memo_lookups
        .add(now.memo_lookups - last.memo_lookups);
    m.engine_compactions.add(now.compactions - last.compactions);
    m.arena_peak.record(now.arena_peak as u64);
    if !state.index_recorded {
        if let Some(ix) = state.engine.index_stats() {
            m.index_tree_nodes.record(ix.tree_nodes as u64);
            m.index_tree_max_depth.record(ix.tree_max_depth as u64);
            m.index_tree_edges.record(ix.tree_edges as u64);
            m.index_tree_wildcard_edges
                .record(ix.tree_wildcard_edges as u64);
            m.index_tree_mean_fanout_milli
                .record(ix.tree_mean_fanout_milli as u64);
            state.index_recorded = true;
        }
    }
    state.last = now;
    // `add_index` is the allocation-free positional lane: family labels
    // were registered in catalog order, matching engine rule positions.
    state.engine.drain_rule_lanes(|pos, consults, fires| {
        if consults > 0 {
            m.rules_attempted.add_index(pos, consults);
        }
        if optimized && fires > 0 {
            m.rules_fired.add_index(pos, fires);
        }
    });
}

fn worker_loop(shared: &Shared, index: usize) {
    // The long-lived engine is built over the FULL forward catalog, in
    // catalog order; per-request snapshots mask open-breaker rules out of
    // its candidate scan (see `RuleSnapshot`), so a breaker trip changes a
    // mask instead of forcing a rebuild.
    let rules: Vec<Oriented<'_>> = shared.catalog.rules().iter().map(Oriented::fwd).collect();
    let mut state = WorkerState {
        engine: Engine::new(rules, &shared.props, shared.engine_config.clone()),
        snapshots: shared.tenants.iter().map(|t| t.snapshots.load()).collect(),
        last: EngineStats::default(),
        index_recorded: false,
    };
    while let Some(mut job) = next_job(shared, index) {
        let tenant = job.tenant;
        // Take the single-flight ticket out before the panic boundary so a
        // handler panic still retires the flight (waiters must never hang
        // — they are requeued below).
        let ticket = job.cache.take();
        let busy = Instant::now();
        let engine = &mut state.engine;
        let snapshot = &mut state.snapshots[tenant];
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle(shared, &job, engine, snapshot, index)
        }));
        let response = outcome.unwrap_or_else(|_| {
            // Nothing should reach this boundary — the attempt catches
            // poison-rule panics itself. Count it, answer anyway.
            shared.unexpected_panics.fetch_add(1, Ordering::Relaxed);
            shared.metrics.tenant_panicked.add_index(tenant, 1);
            let mut r = Response::rejected(
                job.id,
                Outcome::Invalid,
                "internal: request handler panicked".to_string(),
            );
            r.tenant = Arc::clone(&shared.tenants.get(tenant).name);
            r.latency = job.submitted.elapsed();
            r
        });
        if let (Some(cache), Some(key)) = (shared.cache.as_ref(), &ticket) {
            // Retire the flight this job led: insert the response and
            // answer every coalesced waiter if it is cacheable and the
            // tenant's rule set did not move while it was being computed
            // (the snapshot's `epoch` is the generation the attempt ran
            // under); otherwise the waiters come back for requeue as
            // fresh jobs — they are never answered with a failed leader's
            // reply and never left parked.
            let unserved = cache.complete(
                key,
                &response,
                state.snapshots[tenant].epoch,
                shared.tenants.get(tenant).breaker.generation(),
                &shared.metrics,
            );
            requeue_waiters(shared, unserved);
        }
        flush_engine_stats(shared, &mut state, response.report.is_some());
        shared
            .metrics
            .worker_busy_us
            .add(busy.elapsed().as_micros() as u64);
        shared.metrics.tenant_latency_us[tenant].record(response.latency.as_micros() as u64);
        // The client may have given up waiting; a dead receiver is fine.
        let _ = job.reply.send(response);
    }
}

/// Claim the next job for worker `index`: home shard first, then steal
/// from siblings, then park briefly on the home condvar. Returns `None`
/// only at shutdown with every shard drained.
fn next_job(shared: &Shared, index: usize) -> Option<Job> {
    let shards = &shared.shards;
    loop {
        if let Some(job) = shards[index].jobs.lock().unwrap().pop_front() {
            shared.depth.fetch_sub(1, Ordering::AcqRel);
            admit(shared, &job);
            return Some(job);
        }
        // Steal scan. `try_lock`: a contended shard is being served by its
        // own worker right now, so skipping it loses nothing.
        for k in 1..shards.len() {
            let other = &shards[(index + k) % shards.len()];
            if let Ok(mut jobs) = other.jobs.try_lock() {
                if let Some(job) = jobs.pop_front() {
                    drop(jobs);
                    shared.depth.fetch_sub(1, Ordering::AcqRel);
                    admit(shared, &job);
                    return Some(job);
                }
            }
        }
        if shared.shutdown.load(Ordering::Acquire) && shared.depth.load(Ordering::Acquire) == 0 {
            return None;
        }
        let jobs = shards[index].jobs.lock().unwrap();
        if jobs.is_empty() && !shared.shutdown.load(Ordering::Acquire) {
            // Timed wait, not indefinite: a job stolen *to* nobody — pushed
            // to a busy sibling's shard — must still be found promptly.
            let _ = shards[index].cv.wait_timeout(jobs, STEAL_POLL).unwrap();
        }
    }
}

/// Account a dequeued job: it is now *admitted* (owned by a worker, certain
/// to terminate in exactly one completion counter), its tenant's quota
/// slot is released, and whatever deadline budget the queue wait left is
/// sampled here.
fn admit(shared: &Shared, job: &Job) {
    shared
        .tenants
        .get(job.tenant)
        .depth
        .fetch_sub(1, Ordering::AcqRel);
    shared.metrics.tenant_admitted.add_index(job.tenant, 1);
    if let Some(deadline) = job.deadline {
        let remaining = deadline.saturating_duration_since(Instant::now());
        shared
            .metrics
            .deadline_remaining_us
            .record(remaining.as_micros() as u64);
    }
}

/// What the engine attempt optimizes.
#[derive(Debug, Clone, Copy)]
enum Input<'q> {
    /// A parsed query, shared with the caller.
    Ast(&'q Arc<Query>),
    /// KOLA concrete syntax: the attempt parses it straight into the
    /// engine's arena ([`Engine::try_normalize_text_with`]), so the hot
    /// path builds no boxed input.
    Kola(&'q str),
}

impl Input<'_> {
    /// The input as a boxed query: a handle bump for an AST, a parse for
    /// text. Only the cold paths that need the tree call it — passthrough
    /// and trace recording. `Err` is the parse error, worded as
    /// `kola_frontend::parse_any_query` words it.
    fn boxed(&self) -> Result<Arc<Query>, String> {
        match self {
            Input::Ast(q) => Ok(Arc::clone(q)),
            Input::Kola(src) => kola::parse::parse_query(src)
                .map(Arc::new)
                .map_err(kola_parse_error),
        }
    }
}

/// Answer `job` on worker `index`: one attempt on its persistent `engine`
/// under the tenant's current `snapshot`, or the input itself (see the
/// module docs, "One attempt, then passthrough"). Breaker charges go
/// through the worker's shard and traces into its ring. Text that does not
/// parse is `Invalid`; the attempt finds it before any rule has run or
/// been charged, and a request whose deadline died before the attempt
/// finds it when it parses the input for its passthrough plan.
fn handle<'a>(
    shared: &'a Shared,
    job: &Job,
    engine: &mut Engine<'a>,
    snapshot: &mut Arc<RuleSnapshot>,
    index: usize,
) -> Response {
    let ten = shared.tenants.get(job.tenant);
    let m = &shared.metrics;
    let opts = &job.request.options;
    if let Some(hold) = opts.hold_for {
        thread::sleep(hold);
    }
    let invalid = |e: String| {
        m.tenant_completed_invalid.add_index(job.tenant, 1);
        let mut r = Response::rejected(job.id, Outcome::Invalid, e);
        r.tenant = Arc::clone(&ten.name);
        r.latency = job.submitted.elapsed();
        r
    };
    // KOLA text goes to the engine, which parses it into its own arena.
    // OQL is lowered here.
    let parsed: Arc<Query>;
    let input = match &job.request.payload {
        Payload::Text(src) if !is_oql(src) => Input::Kola(src),
        Payload::Text(src) => match kola_frontend::parse_any_query(src) {
            Ok(q) => {
                parsed = Arc::new(q);
                Input::Ast(&parsed)
            }
            Err(e) => return invalid(e),
        },
        // By-Arc payloads are borrowed, never deep-cloned.
        Payload::Ast(q) => Input::Ast(q),
    };

    // One atomic load in steady state; an `Arc` swap when *this tenant's*
    // breaker tripped or reset since this worker last served it.
    ten.snapshots
        .refresh(snapshot, shared.catalog, &ten.breaker);

    // Each worker records into its own trace shard; `None` (the default
    // configuration) turns the engine's per-step trace building off.
    let tracer = shared.tracer.as_ref().map(|t| t.shard(index));
    engine.set_disabled(&snapshot.disabled);
    engine.set_trace(tracer.is_some());

    let mut panic = None;
    let attempt = if expired(job.deadline) {
        // Queue wait ate the deadline: note the expiry so a deadline-driven
        // passthrough always carries an error.
        Err("deadline expired".to_string())
    } else {
        match attempt_once(input, opts, job.deadline, engine) {
            Attempt::Ok(plan, report, trace) => Ok((plan, report, trace)),
            Attempt::Failed(why, report) => {
                m.rung_failures.inc();
                charge_failed_rules(shared, job, index, &report);
                Err(why)
            }
            Attempt::Panicked(p) => {
                m.rung_failures.inc();
                if let Some(id) = &p.rule_id {
                    ten.breaker.charge_from(index, id, job.id);
                }
                let why = p.to_string();
                panic = Some(p);
                Err(why)
            }
            Attempt::Unparsable(e) => return invalid(e),
        }
    };

    let (outcome, plan, report, quarantine, error) = match attempt {
        Ok((plan, report, trace)) => {
            charge_failed_rules(shared, job, index, &report);
            if let Some(ring) = tracer {
                let boxed = match input.boxed() {
                    Ok(q) => q,
                    Err(e) => return invalid(e),
                };
                // Wall-clock deadlines are intentionally not recorded:
                // a successful attempt never stopped on one (classify
                // treats DeadlineExpired as failure), so the derivation
                // is deadline-independent and replays unclocked.
                ring.push(RewriteTrace::record(
                    job.id,
                    Arc::clone(&ten.name),
                    &boxed,
                    Arc::clone(&snapshot.active),
                    opts.max_steps,
                    opts.max_depth,
                    opts.max_term_size,
                    opts.quarantine_after,
                    opts.faults.clone(),
                    &trace,
                    report.stop,
                    &plan,
                ));
            }
            m.tenant_optimized_fast.add_index(job.tenant, 1);
            let quarantine = shared.catalog.quarantine_report(&report);
            (
                Outcome::Optimized,
                Arc::new(plan),
                Some(Arc::new(report)),
                quarantine,
                None,
            )
        }
        Err(why) => {
            // Passthrough: the input itself (an `Arc` clone of the
            // caller's term, or the text parsed once more).
            let plan = match input.boxed() {
                Ok(q) => q,
                Err(e) => return invalid(e),
            };
            if panic.is_some() {
                m.caught_panics.inc();
            }
            m.tenant_passthrough.add_index(job.tenant, 1);
            (
                Outcome::Passthrough,
                plan,
                None,
                QuarantineReport::default(),
                Some(format!("fast attempt: {why}")),
            )
        }
    };
    shared
        .peak_arena
        .fetch_max(engine.arena_len(), Ordering::Relaxed);
    Response {
        id: job.id,
        tenant: Arc::clone(&ten.name),
        outcome,
        plan: Some(plan),
        report,
        quarantine: Arc::new(quarantine),
        panic,
        error,
        latency: job.submitted.elapsed(),
    }
}

/// How the attempt ended. Success carries the derivation trace so the
/// observability sink can record it — empty when tracing is off (the
/// engine skips per-step trace building entirely).
enum Attempt {
    Ok(Query, RewriteReport, Trace),
    Failed(String, RewriteReport),
    Panicked(CaughtPanic),
    /// The text input does not parse.
    Unparsable(String),
}

/// The one fast-engine attempt, straight into the borrowed persistent
/// engine. Byte-identical to a per-request `Runner` run: the `Fix`
/// strategy runs this same `normalize_with` under the same budget and
/// merges its report into a fresh one (offset zero). Text goes through the
/// engine's text entry, which runs what `normalize_with` runs on the
/// parsed query.
fn attempt_once(
    input: Input<'_>,
    opts: &RequestOptions,
    deadline: Option<Instant>,
    engine: &mut Engine<'_>,
) -> Attempt {
    let budget = opts.budget(deadline);
    let run = match input {
        Input::Ast(q) => engine.try_normalize_with(q, &budget, &opts.faults).map(Ok),
        Input::Kola(src) => engine.try_normalize_text_with(src, &budget, &opts.faults),
    };
    match run {
        Err(p) => Attempt::Panicked(p),
        Ok(Err(e)) => Attempt::Unparsable(kola_parse_error(e)),
        Ok(Ok(r)) => classify(r.query, r.report, r.trace),
    }
}

/// Attempt-outcome classification (see the module docs for why
/// `BudgetExhausted`/`CycleDetected` are successes).
fn classify(plan: Query, report: RewriteReport, trace: Trace) -> Attempt {
    match report.stop {
        StopReason::DeadlineExpired => {
            Attempt::Failed("deadline expired mid-rewrite".into(), report)
        }
        StopReason::TermTooLarge => Attempt::Failed("input exceeds term-size cap".into(), report),
        // NormalForm, BudgetExhausted, CycleDetected: the governed
        // engine returns the best (smallest) query seen — a plan.
        _ => Attempt::Ok(plan, report, trace),
    }
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Charge every rule with contained failures in `report` (injected
/// faults, oversize results) to the tenant's breaker, in one batched call
/// through this worker's shard. Each rule is charged at most once per
/// request, so a breaker threshold of N means N bad *requests*.
fn charge_failed_rules(shared: &Shared, job: &Job, worker: usize, report: &RewriteReport) {
    let failed = report
        .rule_stats
        .iter()
        .filter(|(_, stats)| stats.failed > 0)
        .map(|(id, _)| id.as_str());
    shared
        .tenants
        .get(job.tenant)
        .breaker
        .charge_many(worker, failed, job.id);
}
