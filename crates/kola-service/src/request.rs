//! Request/response types for the optimization service.
//!
//! A request is a query in either surface syntax (OQL or KOLA text) or as
//! an already-parsed AST, plus per-request resource options. A response is
//! always produced — the service's contract is that every accepted request
//! terminates with exactly one classified [`Outcome`].

use kola::term::Query;
use kola_rewrite::{Budget, CaughtPanic, FaultPlan, QuarantineReport, RewriteReport};
use std::sync::Arc;
use std::time::Duration;

/// The query payload of a request.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Surface text: OQL (detected by its leading `select`), lowered by
    /// `kola_frontend::parse_any_query`, or KOLA concrete syntax, which the
    /// worker's engine parses straight into its arena.
    Text(String),
    /// An already-parsed query, shared by `Arc`: submission, the queued
    /// job, and the worker all borrow one allocation, so admission never
    /// deep-copies a term on the submitting thread. The chaos harness uses
    /// this lane for adversarially deep terms whose concrete syntax would
    /// be megabytes.
    Ast(Arc<Query>),
}

/// Per-request resource options. Everything a client may bound about its
/// own request; service-wide limits (queue depth, worker count, request
/// size) live in [`crate::service::ServiceConfig`].
#[derive(Debug, Clone)]
pub struct RequestOptions {
    /// Step cap for the engine attempt (see [`Budget::max_steps`]).
    pub max_steps: usize,
    /// Traversal-depth cap (see [`Budget::max_depth`]).
    pub max_depth: usize,
    /// Intermediate-term size cap (see [`Budget::max_term_size`]).
    pub max_term_size: usize,
    /// Per-run rule quarantine threshold (see [`Budget::quarantine_after`]).
    pub quarantine_after: usize,
    /// Wall-clock deadline, measured from *submission* — queue wait counts
    /// against it, as it does for the client.
    pub timeout: Option<Duration>,
    /// Injected faults, forwarded to the engines (testing/chaos surface).
    pub faults: FaultPlan,
    /// Simulated pre-ladder work (testing/chaos surface — deterministic
    /// queue backpressure for the overload tests).
    pub hold_for: Option<Duration>,
}

impl Default for RequestOptions {
    fn default() -> Self {
        let b = Budget::default();
        RequestOptions {
            max_steps: b.max_steps,
            max_depth: b.max_depth,
            max_term_size: b.max_term_size,
            quarantine_after: b.quarantine_after,
            timeout: None,
            faults: FaultPlan::default(),
            hold_for: None,
        }
    }
}

impl RequestOptions {
    /// The per-attempt [`Budget`] these options describe. The deadline is
    /// supplied by the caller (it is anchored at submission time, not at
    /// budget-construction time).
    pub fn budget(&self, deadline: Option<std::time::Instant>) -> Budget {
        let mut b = Budget::default()
            .steps(self.max_steps)
            .depth(self.max_depth)
            .term_size(self.max_term_size)
            .quarantine_after(self.quarantine_after);
        b.deadline = deadline;
        b
    }
}

/// One optimization request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The query to optimize.
    pub payload: Payload,
    /// Per-request resource options.
    pub options: RequestOptions,
    /// Tenant namespace this request runs under. `None` resolves to the
    /// service's first configured tenant (`"default"` on a single-tenant
    /// service); a name the service does not serve is rejected
    /// [`Outcome::Invalid`] at the door.
    pub tenant: Option<Arc<str>>,
}

impl Request {
    /// A request with default options.
    pub fn text(src: impl Into<String>) -> Self {
        Request {
            payload: Payload::Text(src.into()),
            options: RequestOptions::default(),
            tenant: None,
        }
    }

    /// An AST request with default options.
    pub fn ast(q: impl Into<Arc<Query>>) -> Self {
        Request {
            payload: Payload::Ast(q.into()),
            options: RequestOptions::default(),
            tenant: None,
        }
    }

    /// Replace the options (builder style).
    pub fn with_options(mut self, options: RequestOptions) -> Self {
        self.options = options;
        self
    }

    /// Address the request to tenant `name` (builder style).
    pub fn for_tenant(mut self, name: impl Into<Arc<str>>) -> Self {
        self.tenant = Some(name.into());
        self
    }
}

/// Terminal classification of a request. Every submitted request ends in
/// exactly one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The fast engine produced an optimized plan within budget.
    Optimized,
    /// The engine attempt failed or the deadline expired: the input query
    /// is returned unoptimized. Slower for the executor, but correct — and an
    /// answer, not an error.
    Passthrough,
    /// The work queue was full at submission; the request was never
    /// admitted. Structured load shedding, not an error path.
    Overloaded,
    /// The request could not be parsed or violated a service-wide limit;
    /// see [`Response::error`].
    Invalid,
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Outcome::Optimized => write!(f, "optimized"),
            Outcome::Passthrough => write!(f, "passthrough"),
            Outcome::Overloaded => write!(f, "overloaded"),
            Outcome::Invalid => write!(f, "invalid"),
        }
    }
}

/// What the service sends back for one request.
#[derive(Debug, Clone)]
pub struct Response {
    /// Service-assigned request id.
    pub id: u64,
    /// Tenant namespace that served the request (the resolved name, so a
    /// `None`-tenant submission comes back labeled with the tenant it
    /// actually ran under).
    pub tenant: Arc<str>,
    /// Terminal classification.
    pub outcome: Outcome,
    /// The plan: the optimized query, or the input itself on
    /// [`Outcome::Passthrough`]. `None` only for `Overloaded`/`Invalid`.
    /// Shared by `Arc` so the plan cache can answer a hit — and a
    /// passthrough can return its input — without deep-copying the term.
    pub plan: Option<Arc<Query>>,
    /// The successful attempt's rewrite report, untouched — byte-identical to
    /// what a direct [`kola_rewrite::Runner`] run would report. Shared by
    /// `Arc`, so a plan-cache hit answers without copying it.
    pub report: Option<Arc<RewriteReport>>,
    /// Per-run quarantine state (satellite of the successful attempt's
    /// report), restricted to rules the catalog owns. Shared like `report`.
    pub quarantine: Arc<QuarantineReport>,
    /// The poison-rule panic caught (and attributed) during the engine
    /// attempt, if any.
    pub panic: Option<CaughtPanic>,
    /// Why the request was not optimized: the failed engine attempt's
    /// note, or the parse error when `outcome` is `Invalid`.
    pub error: Option<String>,
    /// End-to-end latency from submission to reply (includes queue wait).
    pub latency: Duration,
}

impl Response {
    /// Structured rejection for a request that was never admitted.
    pub(crate) fn rejected(id: u64, outcome: Outcome, why: String) -> Self {
        Response {
            id,
            tenant: Arc::from(crate::tenant::DEFAULT_TENANT),
            outcome,
            plan: None,
            report: None,
            quarantine: Arc::default(),
            panic: None,
            error: Some(why),
            latency: Duration::ZERO,
        }
    }
}
