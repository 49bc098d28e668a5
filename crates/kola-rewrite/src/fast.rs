//! The performance stack over the rewrite engine: hash-consed terms,
//! discrimination-tree rule dispatch, normal-subtree skipping, and a
//! memoized normalization cache. [`EngineConfig`] switches the layers
//! above interning on and off, so the linear rule scan stays available as
//! a differential-testing oracle next to the boxed engine
//! ([`crate::engine::rewrite_fix_with`]). Besides the fixpoint, the same
//! redex search runs the strategy layer's one-step primitive
//! ([`Engine::step`]) and bottom-up sweep ([`Engine::sweep`]).
//!
//! ## Exactness contract
//!
//! [`Engine::normalize_with`] is a drop-in replacement for
//! [`crate::engine::rewrite_fix_with`]: same redex choice
//! (leftmost-outermost, first matching rule in list order), same budgets,
//! same fault injection, same quarantine behavior, same report and trace
//! (the trace only when [`EngineConfig::trace`] is on — turning it off
//! changes nothing but leaves `Rewritten::trace` empty).
//! Every layer preserves this:
//!
//! * **Interning** maps terms into the hash-cons arena of
//!   [`kola::intern`]; equality and cycle detection become pointer
//!   identity, size/depth checks read cached fields, and each rule runs as
//!   a compiled [`Program`] that shares every bound subterm. The
//!   [`kola::intern::icompose`] invariant keeps every constructed term
//!   right-normalized, so no whole-term `normalize()` pass is needed (an
//!   input that is already normalized is interned without a copy, and
//!   KOLA text is parsed straight into the arena by
//!   [`Engine::normalize_text_with`], with no boxed input at all).
//! * **Indexing** walks the interned node through the discrimination tree
//!   ([`RuleIndex`]), which returns candidates in ascending rule position,
//!   so the candidate scan tries the same rules in the same order as the
//!   linear scan, minus ones whose pattern skeleton already rules them out.
//! * **Normal-subtree marking** skips subtrees proven redex-free. Marks are
//!   only committed for fully scanned subtrees (no depth clip inside), in
//!   steps with no rule failures and no active quarantine. Marks proven
//!   under the *full* rule set are read under every mask — normality under
//!   the full set implies normality under any subset, so a skip can never
//!   hide a redex the boxed engine would have found.
//! * **Memoization** replays a previous *clean* derivation (normal-form
//!   stop, zero failures, no depth clip, no faults, no deadline) when the
//!   same input term recurs and the stored run fits inside the current
//!   budget; otherwise it falls through to a live run. Under a mask, a
//!   derivation recorded under the full rule set replays only if every
//!   rule it fired is still active (see [`Engine::set_disabled`]).
//!
//! ## Allocation
//!
//! A step allocates only for the nodes it adds to the arena. A found redex,
//! the run's derivation and a memo entry name the rule by its *position* in
//! the engine's rule list, not by a cloned id: the id `String` is made only
//! for a trace [`Step`] (trace on) and by the report's first record of a
//! rule. The candidate list, the normal-subtree marks and the
//! discrimination-tree walk stack are buffers the engine keeps across steps
//! and runs.
//!
//! ## Long-lived engines
//!
//! An [`Engine`] is built to be *kept*: a service worker owns one for its
//! whole lifetime and the arena, marks, and memo amortize across requests.
//! Two APIs make that safe. [`Engine::set_disabled`] masks rules out of
//! the candidate scan without rebuilding the index. Full-rule-set marks
//! and memo entries stay true under every mask; what a run records under
//! a mask is kept apart and dropped when a different mask is installed
//! (see its docs). [`EngineConfig::arena_capacity`]
//! bounds arena growth: between runs, an over-cap arena is dropped wholesale
//! together with every address-keyed cache ([`Engine::reset_caches`]), so a
//! poison request costs one cold start, not permanent bloat.

use crate::budget::{Budget, RewriteError, RewriteReport, StopReason};
use crate::dtree::{RuleIndex, WalkStack};
use crate::engine::{Gov, Oriented, Rewritten, Step, Trace};
use crate::extract::{CostModel, TermSize};
use crate::fault::{FaultKind, FaultPlan};
use crate::program::{Applied, Level, Program};
use crate::props::PropDb;
use crate::saturate::{saturate_from_trajectory, SatCounters, SaturationParams, Workspace};
use kola::intern::{icompose, ITerm, Interner, PayloadRef, Tag};
use kola::parse::{parse_query_into, ParseError};
use kola::term::Query;
use std::collections::{HashMap, HashSet};

/// Which layers of the performance stack are active over the engine's
/// hash-consed terms. The default is the full stack; differential tests
/// compare any of them with the boxed reference engine
/// ([`crate::engine::rewrite_fix_with`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Dispatch rules through the discrimination tree ([`RuleIndex`])
    /// instead of a linear scan.
    pub indexed: bool,
    /// Cache clean normalizations for replay.
    pub memoized: bool,
    /// Bounded LRU capacity of the normalization memo.
    pub memo_capacity: usize,
    /// Arena compaction threshold in live nodes (`0` = unbounded). A
    /// long-lived engine checks this *between* runs: when a finished run
    /// has left more interned nodes than the cap, the memo, the
    /// normal-subtree marks, and the arena are all dropped before the next
    /// run starts, so one adversarially large request cannot bloat a
    /// persistent worker engine forever.
    pub arena_capacity: usize,
    /// Record the per-step derivation [`Trace`] (each step reifies the
    /// whole after-term back into a boxed [`Query`], an O(term) allocation
    /// per step). `true` preserves the historical drop-in contract with
    /// [`crate::engine::rewrite_fix_with`]; a service that does not need
    /// provenance turns it off ([`Engine::set_trace`]) and the hot loop
    /// allocates nothing per step beyond the rewritten term itself. The [`RewriteReport`]
    /// (rule stats, stop reason, failures) is kept either way.
    pub trace: bool,
    /// Equality-saturation mode: after the ordinary destructive fixpoint
    /// run (the *seed wave*), apply the catalog non-destructively over an
    /// e-graph to saturation and return the cheapest equivalent plan under
    /// the engine's [`CostModel`] ([`Engine::set_cost_model`]). Never worse
    /// than the fixpoint output under the extraction model — the wave is
    /// unioned into the root class before saturating. Requires the rule
    /// index ([`EngineConfig::indexed`]), which saturation matches through;
    /// falls back to plain fixpoint without it, and whenever faults are
    /// injected (fault semantics are defined against the destructive
    /// engine).
    pub saturate: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::fast()
    }
}

impl EngineConfig {
    /// Interned terms only (linear rule scan, no memo).
    pub fn interned_only() -> Self {
        EngineConfig {
            indexed: false,
            memoized: false,
            memo_capacity: 0,
            arena_capacity: 0,
            trace: true,
            saturate: false,
        }
    }

    /// Interned terms + discrimination-tree rule index, no memo.
    pub fn indexed() -> Self {
        EngineConfig {
            indexed: true,
            memoized: false,
            memo_capacity: 0,
            arena_capacity: 0,
            trace: true,
            saturate: false,
        }
    }

    /// The full stack: interned + tree-indexed + memoized.
    pub fn fast() -> Self {
        EngineConfig {
            indexed: true,
            memoized: true,
            memo_capacity: 1024,
            arena_capacity: 1 << 16,
            trace: true,
            saturate: false,
        }
    }

    /// Equality-saturation mode: interned + tree-indexed, destructive wave
    /// then non-destructive saturation + cost-based extraction. No memo —
    /// the output depends on the cost model, not only on the input term,
    /// and the normalization memo stores fixpoint derivations.
    pub fn saturating() -> Self {
        EngineConfig {
            indexed: true,
            memoized: false,
            memo_capacity: 0,
            arena_capacity: 1 << 16,
            trace: true,
            saturate: true,
        }
    }
}

/// A cached clean derivation: every step (for trace/report replay), the
/// normal form, and the resource high-water marks that decide whether the
/// run fits a later budget.
#[derive(Debug)]
struct MemoEntry {
    result: ITerm,
    steps: usize,
    /// `(rule position, term after the step)` for every step.
    derivation: Vec<(usize, ITerm)>,
    max_size: usize,
    max_depth: usize,
    stamp: u64,
    /// Recorded under the installed mask rather than the full set, so
    /// replayable under that mask alone (see [`Engine::set_disabled`]).
    masked: bool,
}

/// Bounded LRU keyed by interned-node identity. Eviction is a linear scan
/// for the oldest stamp — capacities are small and eviction rare, so the
/// simplicity beats a doubly-linked list.
#[derive(Debug, Default)]
struct Memo {
    map: HashMap<usize, MemoEntry>,
    tick: u64,
    hits: u64,
    /// Total lookups (hits + misses) — the denominator observability
    /// needs to turn [`Memo::hits`] into a hit rate.
    lookups: u64,
}

impl Memo {
    /// Look up `key`'s entry under the activity mask `active` (`None` =
    /// the full set). A full-set entry is the derivation any subset
    /// holding all of its fired rules produces too: leftmost-outermost
    /// redexes with no earlier match under the full set have none under a
    /// subset. So under a mask an entry that fired a masked rule is refused
    /// (the live run that follows records its own), and a masked entry —
    /// every one was recorded under the engine's last mask, since
    /// installing another drops them — replays under that mask and never
    /// under the full set.
    fn get(&mut self, key: usize, active: Option<&[bool]>) -> Option<&MemoEntry> {
        self.tick += 1;
        self.lookups += 1;
        let e = self.map.get_mut(&key)?;
        let fits = match active {
            None => !e.masked,
            Some(m) => e.masked || e.derivation.iter().all(|&(pos, _)| m[pos]),
        };
        if !fits {
            return None;
        }
        e.stamp = self.tick;
        self.hits += 1;
        Some(e)
    }

    fn put(&mut self, key: usize, mut e: MemoEntry, capacity: usize) {
        if capacity == 0 {
            return;
        }
        self.tick += 1;
        e.stamp = self.tick;
        if !self.map.contains_key(&key) && self.map.len() >= capacity {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
            {
                self.map.remove(&victim);
            }
        }
        self.map.insert(key, e);
    }
}

/// A fixpoint run's outcome with its result still interned, so saturation
/// can seed from it without a round trip through the boxed [`Query`].
struct Fix {
    result: ITerm,
    trace: Trace,
    report: RewriteReport,
}

impl Fix {
    fn reify(self) -> Rewritten {
        Rewritten {
            query: self.result.to_query(),
            trace: self.trace,
            report: self.report,
        }
    }
}

/// A found redex, already rewritten into the whole-term result, and the
/// position of the oriented rule that fired.
struct AppliedI {
    result: ITerm,
    pos: usize,
}

fn iinflate(out: ITerm, n: usize, level: Level, it: &mut Interner) -> ITerm {
    let mut acc = out;
    let none = PayloadRef::None;
    for _ in 0..n {
        let id = it.mk(Tag::FId, none, &[]);
        acc = match level {
            Level::F => it.mk(Tag::FCompose, none, &[id, acc]),
            Level::P => it.mk(Tag::POplus, none, &[acc, id]),
            Level::Q => it.mk(Tag::QApp, none, &[id, acc]),
        };
    }
    acc
}

/// Per-position rule odometers: lifetime consults, and the consults and
/// fires since the last [`Engine::drain_rule_lanes`]. The positions that
/// moved since then are listed, so a drain costs O(positions touched), not
/// O(rules).
#[derive(Debug, Default)]
struct RuleLanes {
    consults: Vec<u64>,
    /// Sum of `consults`, kept alongside so [`Engine::stats`] stays O(1).
    total: u64,
    /// `(consults, fires)` per position since the last drain.
    pending: Vec<(u64, u64)>,
    /// Positions whose `pending` entry is nonzero, in first-touch order.
    touched: Vec<usize>,
}

impl RuleLanes {
    fn new(n: usize) -> RuleLanes {
        RuleLanes {
            consults: vec![0; n],
            total: 0,
            pending: vec![(0, 0); n],
            touched: Vec::new(),
        }
    }

    fn pending(&mut self, pos: usize) -> &mut (u64, u64) {
        let p = &mut self.pending[pos];
        if *p == (0, 0) {
            self.touched.push(pos);
        }
        p
    }

    fn consult(&mut self, pos: usize) {
        self.consults[pos] += 1;
        self.total += 1;
        self.pending(pos).0 += 1;
    }

    fn fire(&mut self, pos: usize) {
        self.pending(pos).1 += 1;
    }
}

/// The redex search's scratch buffers, owned by the [`Engine`] and reused by
/// every step of every run, so a warm search allocates nothing of its own.
/// Each is empty between steps; a step clears `marks` before its search.
#[derive(Debug, Default)]
struct SearchBufs {
    /// Candidate rule positions at the node being tried.
    cand: Vec<usize>,
    /// Fully scanned redex-free nodes, committed as marks after the step.
    marks: Vec<usize>,
    /// The discrimination tree's walk stack.
    walk: WalkStack,
}

/// One redex search: borrows the engine's parts disjointly so the interner
/// can be threaded mutably while rules/index stay shared.
struct Search<'r, 'a> {
    rules: &'r [Oriented<'a>],
    props: &'r PropDb,
    index: Option<&'r RuleIndex>,
    /// Each position's compiled program, built the first time the
    /// position is consulted.
    progs: &'r mut [Option<Program>],
    /// Per-position activity mask from [`Engine::set_disabled`] (`None` =
    /// the full set). Skipping inactive positions in the
    /// ascending-position candidate scan visits exactly the rules, in
    /// exactly the order, of an index built over the active subset.
    active: Option<&'r [bool]>,
    normal: &'r HashSet<usize>,
    /// Marks proven under the installed mask (`None` = no mask installed).
    masked_normal: Option<&'r HashSet<usize>>,
    visits: &'r mut u64,
    lanes: &'r mut RuleLanes,
    it: &'r mut Interner,
    bufs: &'r mut SearchBufs,
}

impl Search<'_, '_> {
    /// Leftmost-outermost redex search, mirroring the boxed `ro_*` family:
    /// clip first, rules at the node, then descend child by child.
    fn search(&mut self, t: &ITerm, d: usize, gov: &mut Gov) -> Option<AppliedI> {
        if gov.clip(d) {
            return None;
        }
        *self.visits += 1;
        if self.normal.contains(&t.id()) || self.masked_normal.is_some_and(|m| m.contains(&t.id()))
        {
            return None;
        }
        if let Some(found) = self.rules_at(t, gov) {
            return Some(found);
        }
        let kids = t.kids();
        for (i, kid) in kids.iter().enumerate() {
            if let Some(a) = self.search(kid, d + 1, gov) {
                let result = if t.tag() == Tag::FCompose && i == 0 {
                    // A rewritten head segment may itself be a chain;
                    // icompose re-associates so the invariant holds.
                    icompose(self.it, a.result, kids[1].clone())
                } else {
                    self.it.with_kid(t, i, a.result)
                };
                return Some(AppliedI { result, pos: a.pos });
            }
        }
        // Fully scanned, no redex: a candidate "normal" mark, valid only if
        // no descendant was depth-clipped away.
        if d + t.depth() <= gov.max_depth {
            self.bufs.marks.push(t.id());
        }
        None
    }

    fn rules_at(&mut self, t: &ITerm, gov: &mut Gov) -> Option<AppliedI> {
        let level = Level::of(t.tag());
        let mut cand = std::mem::take(&mut self.bufs.cand);
        cand.clear();
        match self.index {
            Some(ix) => {
                let walk = &mut self.bufs.walk;
                match level {
                    Level::F => ix.func_candidates(t, &mut cand, walk),
                    Level::P => ix.pred_candidates(t, &mut cand, walk),
                    Level::Q => ix.query_candidates(t, &mut cand, walk),
                }
            }
            None => cand.extend(0..self.rules.len()),
        }
        let mut found = None;
        for &pos in &cand {
            if self.active.is_some_and(|m| !m[pos]) {
                continue;
            }
            let o = &self.rules[pos];
            if gov.report.is_quarantined(&o.rule.id) {
                continue;
            }
            self.lanes.consult(pos);
            let prog = self.progs[pos].get_or_insert_with(|| Program::compile(o.rule, o.dir));
            match prog.apply(t, self.props, self.it) {
                Applied::NoMatch | Applied::Refused => continue,
                Applied::Rewrote(out) => match gov.faults.fault_for(&o.rule.id, gov.step) {
                    None => {
                        found = Some(AppliedI { result: out, pos });
                        break;
                    }
                    Some(FaultKind::Oversize(n)) => {
                        let inflated = iinflate(out, *n, level, self.it);
                        found = Some(AppliedI {
                            result: inflated,
                            pos,
                        });
                        break;
                    }
                    Some(FaultKind::Fail) => {
                        let e = RewriteError::RuleFailed {
                            rule_id: o.rule.id.clone(),
                            detail: "injected failure".into(),
                        };
                        gov.record_failure(&o.rule.id, &e);
                        continue;
                    }
                    // A poison rule's bug is not a contained error: it
                    // unwinds (same as the boxed engine's behavior).
                    Some(FaultKind::Panic) => crate::fault::poison_panic(&o.rule.id),
                },
                Applied::Failed(e) => {
                    gov.record_failure(&o.rule.id, &e);
                    continue;
                }
            }
        }
        self.bufs.cand = cand;
        found
    }

    /// The bottom-up sweep of [`Engine::sweep`] over `t` at depth `d`: the
    /// kids first, left to right, then the rules at the node until none
    /// fires.
    fn sweep(&mut self, t: &ITerm, d: usize, gov: &mut Gov, sw: &mut Sweep) -> ITerm {
        if gov.clip(d) {
            return t.clone();
        }
        let mut cur = t.clone();
        let mut head = None;
        for (i, kid) in t.kids().iter().enumerate() {
            let swept = self.sweep(kid, d + 1, gov, sw);
            if swept.ptr_eq(kid) {
                continue;
            }
            if t.tag() == Tag::FCompose && i == 0 {
                // A rewritten head segment may itself be a chain; it is
                // re-associated onto the swept tail below.
                head = Some(swept);
            } else {
                cur = self.it.with_kid(&cur, i, swept);
            }
        }
        if let Some(head) = head {
            cur = icompose(self.it, head, cur.kids()[1].clone());
        }
        while !sw.too_large && gov.report.steps < sw.max_steps {
            gov.step = gov.report.steps;
            let Some(a) = self.rules_at(&cur, gov) else {
                break;
            };
            let o = self.rules[a.pos];
            // Sizes add: the whole term loses the node's old subtree and
            // gains the rewritten one.
            let size = sw.size - cur.size() + a.result.size();
            if size > sw.max_size {
                let e = RewriteError::TermTooLarge {
                    size,
                    limit: sw.max_size,
                };
                gov.record_failure(&o.rule.id, &e);
                sw.too_large = !gov.report.is_quarantined(&o.rule.id);
                continue;
            }
            sw.size = size;
            cur = a.result;
            gov.report.steps += 1;
            gov.report.record_fire(&o.rule.id);
            self.lanes.fire(a.pos);
        }
        cur
    }
}

/// A bottom-up sweep's bounds and running state (see [`Engine::sweep`]).
struct Sweep {
    /// The step cap: the sweep fires while the shared report is under it.
    max_steps: usize,
    /// The whole-term size cap.
    max_size: usize,
    /// The whole term's current size.
    size: usize,
    /// Set when a refused oversize fire ends the sweep.
    too_large: bool,
}

/// The interned + indexed + memoized fixpoint engine. Holds its arena,
/// rule index, normal-subtree marks, and memo across runs, so repeated
/// normalizations (fuzz gates, strategy pipelines, benches) amortize.
///
/// Rules and property database are fixed at construction — the caches are
/// only sound for the rule set they were built against.
pub struct Engine<'a> {
    rules: Vec<Oriented<'a>>,
    props: &'a PropDb,
    config: EngineConfig,
    // Declared before `interner`: entries hold `ITerm`s that must drop
    // while the arena's table is still alive.
    memo: Memo,
    /// Marks proven under the full rule set: sound under every mask.
    normal: HashSet<usize>,
    /// Marks proven under `mask` alone: read and recorded only while it is
    /// installed, cleared when [`Engine::set_disabled`] installs another.
    masked_normal: HashSet<usize>,
    index: Option<RuleIndex>,
    /// Per-position activity mask of the last non-empty `disabled` list
    /// (see [`Engine::set_disabled`]); in force only while `masked`.
    mask: Vec<bool>,
    masked: bool,
    /// Arena compactions performed so far (see
    /// [`EngineConfig::arena_capacity`]).
    compactions: u64,
    visits: u64,
    /// Saturation's e-match visits and matcher cuts.
    sat_counters: SatCounters,
    lanes: RuleLanes,
    /// Each rule position's compiled [`Program`], built the first time the
    /// position is consulted, so a cold start compiles nothing. Programs
    /// hold no terms and survive [`Engine::reset_caches`].
    progs: Vec<Option<Program>>,
    /// Extraction objective for saturation mode (unused by fixpoint runs).
    cost_model: Box<dyn CostModel>,
    bufs: SearchBufs,
    /// Saturation's e-graph and buffers, kept between runs (see
    /// [`Workspace::finish`]). Declared before `interner`: it holds
    /// `ITerm`s during a run.
    sat: Workspace,
    interner: Interner,
}

impl<'a> Engine<'a> {
    /// Engine over `rules` (tried in slice order) with `props` available to
    /// preconditions.
    pub fn new(rules: Vec<Oriented<'a>>, props: &'a PropDb, config: EngineConfig) -> Engine<'a> {
        let n = rules.len();
        Engine {
            rules,
            props,
            config,
            memo: Memo::default(),
            normal: HashSet::new(),
            masked_normal: HashSet::new(),
            index: None,
            mask: Vec::new(),
            masked: false,
            compactions: 0,
            visits: 0,
            sat_counters: SatCounters::default(),
            lanes: RuleLanes::new(n),
            progs: vec![None; n],
            cost_model: Box::new(TermSize),
            bufs: SearchBufs::default(),
            sat: Workspace::default(),
            interner: Interner::new(),
        }
    }

    /// Install the extraction objective for saturation mode (default:
    /// [`TermSize`]). Ignored by fixpoint runs. Swapping models touches no
    /// cache — extraction is recomputed per run.
    pub fn set_cost_model(&mut self, model: Box<dyn CostModel>) {
        self.cost_model = model;
    }

    /// Exclude the rules with ids in `disabled` from subsequent runs. The
    /// rules stay in place and the rule index is *not* rebuilt — excluded
    /// positions are masked out of the candidate scan, which visits
    /// exactly the rules, in exactly the order, of an index built over the
    /// remaining subset.
    ///
    /// Rules are patterns with no head routines, so what the caches record
    /// under the full set holds under every subset: a subtree normal under
    /// all rules is normal under any of them, and a derivation whose fired
    /// rules are all active is the one the subset produces. So full-set
    /// marks are read under any mask, and a full-set memo entry replays
    /// under a mask if it fired no masked rule. Marks and memo entries
    /// recorded under a mask hold for that mask alone: they are kept
    /// apart, read only while it is installed, and dropped when a
    /// different one is. With `disabled` empty this is one emptiness check.
    pub fn set_disabled(&mut self, disabled: &[String]) {
        self.masked = !disabled.is_empty();
        if !self.masked {
            return;
        }
        let mut changed = self.mask.len() != self.rules.len();
        self.mask.resize(self.rules.len(), true);
        for (on, o) in self.mask.iter_mut().zip(&self.rules) {
            let now = !disabled.contains(&o.rule.id);
            changed |= *on != now;
            *on = now;
        }
        if changed {
            self.masked_normal.clear();
            self.memo.map.retain(|_, e| !e.masked);
        }
    }

    /// Enable or disable per-step [`Trace`] recording for subsequent runs
    /// (see [`EngineConfig::trace`]). Flipping this touches no cache —
    /// traces are run-local.
    pub fn set_trace(&mut self, on: bool) {
        self.config.trace = on;
    }

    /// Drop every cross-run cache: memo entries first (they pin interned
    /// nodes), then the normal-subtree marks (raw node addresses a fresh
    /// arena could recycle), then the arena itself. The rule index
    /// survives — it holds rule positions, not terms. Counters
    /// ([`Engine::work`], [`Engine::memo_hits`]) keep accumulating.
    pub fn reset_caches(&mut self) {
        self.memo.map.clear();
        self.sat.drop_terms();
        self.normal.clear();
        self.masked_normal.clear();
        self.interner.clear();
        self.compactions += 1;
    }

    /// Live nodes currently in the intern arena.
    pub fn arena_len(&self) -> usize {
        self.interner.len()
    }

    /// How many times the bounded-arena compaction has fired.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Normalize under `budget` with no fault injection.
    pub fn normalize(&mut self, q: &Query, budget: &Budget) -> Rewritten {
        self.normalize_with(q, budget, &FaultPlan::default())
    }

    /// [`Engine::normalize_with`] behind a panic boundary: a rule that
    /// unwinds (a [`FaultKind::Panic`] fault or a genuine bug) is caught
    /// and classified instead of propagating. The engine's cross-run state
    /// survives a caught panic intact: the interner is append-only (a
    /// partially built term is just unreferenced garbage in the arena),
    /// normal-subtree marks and the memo are only committed after clean
    /// steps/runs, and the rule index is never edited after it is built.
    pub fn try_normalize_with(
        &mut self,
        q: &Query,
        budget: &Budget,
        faults: &FaultPlan,
    ) -> Result<Rewritten, crate::fault::CaughtPanic> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.normalize_with(q, budget, faults)
        }))
        .map_err(crate::fault::CaughtPanic::from_payload)
    }

    /// Drop-in replacement for [`crate::engine::rewrite_fix_with`] (same
    /// redex choice, budgets, faults, quarantine, report, and trace), over
    /// whichever layers [`EngineConfig`] enables.
    pub fn normalize_with(&mut self, q: &Query, budget: &Budget, faults: &FaultPlan) -> Rewritten {
        self.prepare_run();
        let input = self.intern(q);
        self.run(input, budget, faults)
    }

    /// Intern `q` in the right-normalized form interning needs, copying it
    /// into that form only when it is not in it already.
    fn intern(&mut self, q: &Query) -> ITerm {
        if q.is_normalized() {
            self.interner.intern_query(q)
        } else {
            self.interner.intern_query(&q.normalize())
        }
    }

    /// Parse KOLA text straight into the arena and normalize it: in one
    /// call, compact the arena if due, build the input's nodes with
    /// [`parse_query_into`] (no boxed [`Query`] is made), and run exactly
    /// what [`Engine::normalize_with`] runs on `parse_query(src)`. Text
    /// [`parse_query`](kola::parse::parse_query) rejects is rejected with
    /// its error, before any rewriting.
    pub fn normalize_text_with(
        &mut self,
        src: &str,
        budget: &Budget,
        faults: &FaultPlan,
    ) -> Result<Rewritten, ParseError> {
        self.prepare_run();
        let input = parse_query_into(&mut self.interner, src)?;
        Ok(self.run(input, budget, faults))
    }

    /// [`Engine::normalize_text_with`] behind the panic boundary of
    /// [`Engine::try_normalize_with`].
    pub fn try_normalize_text_with(
        &mut self,
        src: &str,
        budget: &Budget,
        faults: &FaultPlan,
    ) -> Result<Result<Rewritten, ParseError>, crate::fault::CaughtPanic> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.normalize_text_with(src, budget, faults)
        }))
        .map_err(crate::fault::CaughtPanic::from_payload)
    }

    /// One leftmost-outermost step on `q`, taken as step `report.steps` of
    /// the caller's run: the first rule in list order that matches at the
    /// outermost position fires. Rules quarantined in `report` are skipped,
    /// contained failures are recorded there, and a fire counts one step. A
    /// result larger than `budget.max_term_size` is refused: its rule is
    /// charged a [`RewriteError::TermTooLarge`] failure and no step is
    /// taken. Returns the step taken, if any.
    pub fn step(&mut self, q: &Query, budget: &Budget, report: &mut RewriteReport) -> Option<Step> {
        self.prepare_run();
        let cur = self.intern(q);
        let faults = FaultPlan::default();
        let step = report.steps;
        let mut gov = Gov::new(budget, &faults, report, step);
        let found = self.search().search(&cur, 0, &mut gov);
        // Only the fixpoint commits normal-subtree marks, after a step it
        // checked was clean; this search's are dropped.
        self.bufs.marks.clear();
        let applied = found?;
        let o = self.rules[applied.pos];
        let size = applied.result.size();
        if size > budget.max_term_size {
            let e = RewriteError::TermTooLarge {
                size,
                limit: budget.max_term_size,
            };
            report.record_failure(&o.rule.id, &e, budget.quarantine_after, step);
            return None;
        }
        report.steps += 1;
        report.record_fire(&o.rule.id);
        self.lanes.fire(applied.pos);
        Some(Step {
            rule_id: o.rule.id.clone(),
            dir: o.dir,
            after: applied.result.to_query(),
        })
    }

    /// One bottom-up sweep over `q` (§4.2's "throughout a tree"): each
    /// node's kids are swept first, left to right, then the rules are
    /// applied at the node itself until none fires; a node is not revisited
    /// after its parent fires. Shares the caller's report like
    /// [`Engine::step`], each fire one step, and fires only while
    /// `report.steps` is under `budget.max_steps`. Subtrees beyond the depth
    /// cap are left untouched. A fire that would take the whole term past
    /// `budget.max_term_size` is refused and charged to its rule as a
    /// [`RewriteError::TermTooLarge`] failure; unless that quarantines the
    /// rule, the sweep fires nothing more.
    ///
    /// Returns the swept query, the number of fires, and why the sweep
    /// stopped: `TermTooLarge`, `BudgetExhausted` when it spent every step
    /// left, or `NormalForm`.
    pub fn sweep(
        &mut self,
        q: &Query,
        budget: &Budget,
        report: &mut RewriteReport,
    ) -> (Query, usize, StopReason) {
        self.prepare_run();
        let input = self.intern(q);
        let faults = FaultPlan::default();
        let start = report.steps;
        let mut sw = Sweep {
            max_steps: budget.max_steps,
            max_size: budget.max_term_size,
            size: input.size(),
            too_large: false,
        };
        let mut gov = Gov::new(budget, &faults, report, start);
        let out = self.search().sweep(&input, 0, &mut gov, &mut sw);
        let stop = if sw.too_large {
            StopReason::TermTooLarge
        } else if report.steps >= budget.max_steps {
            StopReason::BudgetExhausted
        } else {
            StopReason::NormalForm
        };
        (out.to_query(), report.steps - start, stop)
    }

    /// A redex search over this engine's rules, index, mask and marks.
    fn search(&mut self) -> Search<'_, 'a> {
        Search {
            rules: &self.rules,
            props: self.props,
            index: self.index.as_ref(),
            active: self.masked.then_some(self.mask.as_slice()),
            normal: &self.normal,
            masked_normal: self.masked.then_some(&self.masked_normal),
            visits: &mut self.visits,
            progs: &mut self.progs,
            lanes: &mut self.lanes,
            it: &mut self.interner,
            bufs: &mut self.bufs,
        }
    }

    /// Ready the caches and index for a run. Bounded arena growth: compact
    /// between runs, before the input is interned, when no run-local
    /// handles exist, so `Interner::clear`'s largest-first release is safe
    /// and no address-keyed cache can alias a recycled node.
    fn prepare_run(&mut self) {
        if self.config.arena_capacity != 0 && self.interner.len() > self.config.arena_capacity {
            self.reset_caches();
        }
        if self.config.indexed && self.index.is_none() {
            self.index = Some(RuleIndex::build(&self.rules));
        }
    }

    /// Normalize the interned, right-normalized `input`: the fixpoint run,
    /// or in saturation mode the seed wave plus e-graph saturation and
    /// extraction. Fault plans stay on the destructive path — fault
    /// semantics are defined step-by-step against it — as does an
    /// unindexed engine.
    fn run(&mut self, input: ITerm, budget: &Budget, faults: &FaultPlan) -> Rewritten {
        if self.config.saturate && faults.is_empty() && self.index.is_some() {
            return self.saturate_run(input, budget, faults);
        }
        self.fixpoint_run(input, budget, faults, None).reify()
    }

    /// The destructive leftmost-outermost fixpoint loop from the interned
    /// input `cur`. Assumes caches and index are already prepared for this
    /// run ([`Engine::prepare_run`]). With `path`, records the interned
    /// trajectory there: the input, then the term after each step.
    fn fixpoint_run(
        &mut self,
        mut cur: ITerm,
        budget: &Budget,
        faults: &FaultPlan,
        mut path: Option<&mut Vec<ITerm>>,
    ) -> Fix {
        let mut report = RewriteReport::new();
        let mut trace = Trace::new();
        if let Some(p) = path.as_deref_mut() {
            p.push(cur.clone());
        }
        if cur.size() > budget.max_term_size {
            let e = RewriteError::TermTooLarge {
                size: cur.size(),
                limit: budget.max_term_size,
            };
            report.failures.push(e.to_string());
            report.stop = StopReason::TermTooLarge;
            return Fix {
                result: cur,
                trace,
                report,
            };
        }

        let memo_eligible = self.config.memoized && faults.is_empty() && budget.deadline.is_none();
        if memo_eligible {
            let active = self.masked.then_some(self.mask.as_slice());
            if let Some(e) = self.memo.get(cur.id(), active) {
                if e.steps < budget.max_steps
                    && e.max_depth <= budget.max_depth
                    && e.max_size <= budget.max_term_size
                {
                    for (pos, after) in &e.derivation {
                        let o = &self.rules[*pos];
                        report.record_fire(&o.rule.id);
                        self.lanes.fire(*pos);
                        if let Some(p) = path.as_deref_mut() {
                            p.push(after.clone());
                        }
                        if self.config.trace {
                            trace.steps.push(Step {
                                rule_id: o.rule.id.clone(),
                                dir: o.dir,
                                after: after.to_query(),
                            });
                        }
                    }
                    report.steps = e.steps;
                    report.stop = StopReason::NormalForm;
                    return Fix {
                        result: e.result.clone(),
                        trace,
                        report,
                    };
                }
            }
        }

        let input = cur.clone();
        let mut seen: HashSet<usize> = HashSet::new();
        seen.insert(cur.id());
        let mut best = cur.clone();
        let mut best_size = cur.size();
        let mut derivation: Vec<(usize, ITerm)> = Vec::new();
        let mut max_size = cur.size();
        let mut max_depth = cur.depth();

        loop {
            if report.steps >= budget.max_steps {
                report.stop = StopReason::BudgetExhausted;
                return Fix {
                    result: best,
                    trace,
                    report,
                };
            }
            if budget.expired() {
                report.stop = StopReason::DeadlineExpired;
                return Fix {
                    result: best,
                    trace,
                    report,
                };
            }
            let step = report.steps;
            let fails_before = report.total_failures();
            // A search that unwound (a poison rule's panic) may have left
            // marks behind; they belong to that run, never to this step.
            self.bufs.marks.clear();
            let found = {
                let mut gov = Gov::new(budget, faults, &mut report, step);
                self.search().search(&cur, 0, &mut gov)
            };
            // Marks are sound only when the scan saw the whole failure-free
            // rule set of their table: they persist across runs, while
            // failures and quarantines are transient. Full-set marks hold
            // under every mask; masked ones only under their own.
            let clean = report.total_failures() == fails_before && report.quarantined.is_empty();
            let marks = self.bufs.marks.drain(..);
            if clean {
                if self.masked {
                    self.masked_normal.extend(marks);
                } else {
                    self.normal.extend(marks);
                }
            }
            let Some(applied) = found else {
                report.stop = StopReason::NormalForm;
                if memo_eligible
                    && !report.depth_clipped
                    && report.quarantined.is_empty()
                    && report.total_failures() == 0
                {
                    self.memo.put(
                        input.id(),
                        MemoEntry {
                            result: cur.clone(),
                            steps: report.steps,
                            derivation,
                            max_size,
                            max_depth,
                            stamp: 0,
                            masked: self.masked,
                        },
                        self.config.memo_capacity,
                    );
                }
                return Fix {
                    result: cur,
                    trace,
                    report,
                };
            };
            let next = applied.result;
            let next_size = next.size();
            let fired = &self.rules[applied.pos];
            if next_size > budget.max_term_size {
                let e = RewriteError::TermTooLarge {
                    size: next_size,
                    limit: budget.max_term_size,
                };
                report.record_failure(&fired.rule.id, &e, budget.quarantine_after, report.steps);
                if !report.is_quarantined(&fired.rule.id) {
                    report.stop = StopReason::TermTooLarge;
                    return Fix {
                        result: best,
                        trace,
                        report,
                    };
                }
                continue;
            }
            cur = next;
            report.steps += 1;
            report.record_fire(&fired.rule.id);
            self.lanes.fire(applied.pos);
            if self.config.trace {
                trace.steps.push(Step {
                    rule_id: fired.rule.id.clone(),
                    dir: fired.dir,
                    after: cur.to_query(),
                });
            }
            if let Some(p) = path.as_deref_mut() {
                p.push(cur.clone());
            }
            derivation.push((applied.pos, cur.clone()));
            max_size = max_size.max(next_size);
            max_depth = max_depth.max(cur.depth());
            if next_size < best_size {
                best = cur.clone();
                best_size = next_size;
            }
            if !seen.insert(cur.id()) {
                report.stop = StopReason::CycleDetected;
                return Fix {
                    result: best,
                    trace,
                    report,
                };
            }
        }
    }

    /// Saturation mode: run the destructive engine once, seed an e-graph
    /// with that wave's interned trajectory, saturate under the remaining
    /// budget, and extract the cheapest equivalent plan under the engine's
    /// cost model. Assumes the rule index is built (saturation matches
    /// through it).
    fn saturate_run(&mut self, input: ITerm, budget: &Budget, faults: &FaultPlan) -> Rewritten {
        let mut trajectory = std::mem::take(&mut self.sat.trajectory);
        let fix = self.fixpoint_run(input, budget, faults, Some(&mut trajectory));
        if fix.report.stop == StopReason::TermTooLarge && fix.report.steps == 0 {
            // The input itself blew the size budget — nothing to saturate.
            return fix.reify();
        }
        trajectory.push(fix.result);
        // Saturation extends the wave's report: steps already spent count
        // against the same budget, quarantines keep suppressing rules.
        let mut report = fix.report;
        let Engine {
            ref rules,
            props,
            ref index,
            ref mask,
            masked,
            ref cost_model,
            ref mut interner,
            ref mut lanes,
            ref mut progs,
            ref mut sat_counters,
            ref mut sat,
            ..
        } = *self;
        let ix = index
            .as_ref()
            .expect("saturation runs with the index built");
        let params = SaturationParams {
            rules,
            props,
            index: ix,
            active: masked.then_some(mask.as_slice()),
            progs,
            counters: sat_counters,
        };
        let query = saturate_from_trajectory(
            &trajectory,
            params,
            budget,
            cost_model.as_ref(),
            &mut report,
            &mut |pos| lanes.fire(pos),
            interner,
            sat,
        );
        sat.trajectory = trajectory;
        sat.finish(self.config.arena_capacity);
        Rewritten {
            query,
            trace: fix.trace,
            report,
        }
    }

    /// Total search work so far: node visits plus interner constructions
    /// (cache misses). Used by regression tests to assert step cost is
    /// O(changed subtree), not O(term).
    pub fn work(&self) -> u64 {
        self.visits + self.interner.constructed()
    }

    /// Memo replays so far.
    pub fn memo_hits(&self) -> u64 {
        self.memo.hits
    }

    /// Raw per-position lifetime consult counters (positions follow the
    /// rule list given at construction).
    pub fn consults(&self) -> &[u64] {
        &self.lanes.consults
    }

    /// Hand each rule position consulted or fired since the last drain to
    /// `f(position, consults, fires)`, in first-touch order, and start the
    /// next interval at zero. O(positions touched): the lane for callers
    /// that flush per-rule metrics after each run.
    pub fn drain_rule_lanes(&mut self, mut f: impl FnMut(usize, u64, u64)) {
        let lanes = &mut self.lanes;
        for pos in lanes.touched.drain(..) {
            let (consults, fires) = std::mem::take(&mut lanes.pending[pos]);
            f(pos, consults, fires);
        }
    }

    /// How many times `rule_id` was actually consulted (application
    /// attempted) at a node, across all runs.
    pub fn consult_count(&self, rule_id: &str) -> u64 {
        self.rules
            .iter()
            .zip(&self.lanes.consults)
            .filter(|(o, _)| o.rule.id == rule_id)
            .map(|(_, n)| *n)
            .sum()
    }

    /// Shape of the currently built index ([`crate::dtree::IndexStats`]),
    /// or `None` when indexing is off or no run has built one yet.
    pub fn index_stats(&self) -> Option<crate::dtree::IndexStats> {
        self.index.as_ref().map(RuleIndex::describe)
    }

    /// Lifetime counters for observability (all monotone except the live
    /// arena length). Cheap to read — every field is already maintained by
    /// the hot path; this just snapshots them.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            visits: self.visits,
            consults: self.lanes.total,
            constructed: self.interner.constructed(),
            memo_hits: self.memo.hits,
            memo_lookups: self.memo.lookups,
            compactions: self.compactions,
            arena_len: self.interner.len(),
            arena_peak: self.interner.peak_len(),
            ematch_visits: self.sat_counters.ematch_visits,
            match_cap_cuts: self.sat_counters.match_cap_cuts,
            visit_cap_cuts: self.sat_counters.visit_cap_cuts,
            split_cap_cuts: self.sat_counters.split_cap_cuts,
            chain_depth_cuts: self.sat_counters.chain_depth_cuts,
            walk_fuel_cuts: self.sat_counters.walk_fuel_cuts,
        }
    }
}

/// A snapshot of an [`Engine`]'s lifetime counters (see [`Engine::stats`]).
/// Subtracting two snapshots taken around a run gives that run's cost, which
/// is how the service attributes engine work to individual requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Node visits during redex search.
    pub visits: u64,
    /// Rule application attempts (the sum of [`Engine::consults`]).
    pub consults: u64,
    /// Interner cache misses (nodes constructed).
    pub constructed: u64,
    /// Memo lookups that replayed a cached derivation.
    pub memo_hits: u64,
    /// Total memo lookups (hits + misses).
    pub memo_lookups: u64,
    /// Bounded-arena compactions fired.
    pub compactions: u64,
    /// Live nodes currently in the arena.
    pub arena_len: usize,
    /// High-water mark of live arena nodes over the engine's life.
    pub arena_peak: usize,
    /// Visits of saturation's e-matcher, its class and chain steps (0
    /// unless saturating).
    pub ematch_visits: u64,
    /// Saturation's (class, rule) pairs whose e-match ran out of the
    /// per-pair match fuel (24, spent by leaf and chain hits) with more to
    /// visit.
    pub match_cap_cuts: u64,
    /// Saturation's (class, rule) pairs whose e-match stopped at the
    /// per-pair visit cap (65,536) with more to visit.
    pub visit_cap_cuts: u64,
    /// Saturation's chain-split table entries cut at the per-entry split
    /// cap (1,024).
    pub split_cap_cuts: u64,
    /// Saturation's (class, rule) pairs and chain-split table entries cut
    /// at the chain depth cap (64).
    pub chain_depth_cuts: u64,
    /// Saturation's class walks of the rule index cut short by the walk's
    /// node-visit fuel (4,096).
    pub walk_fuel_cuts: u64,
}
