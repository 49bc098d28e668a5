//! Equality saturation over the [`EGraph`]: non-destructive application of
//! the rule catalog to a fixpoint, then cost-based extraction.
//!
//! ## Two phases
//!
//! **Seed wave.** The caller first runs the ordinary destructive fixpoint
//! engine and hands its whole interned trajectory here: the input, every
//! intermediate, and the output are registered in the e-graph and unioned
//! into one root class ([`seed_trajectory`]). Each wave step is a rule
//! application — a semantic equality — so the unions are sound, and they
//! make the differential gate *structural*: the fixpoint result is a member
//! of the root class, hence extraction can never return a costlier term
//! than the fixpoint engine under the extraction cost model
//! (`tests/egraph_parity.rs` pins this on 1000 seeds).
//!
//! **Saturation loop.** Rounds that stream each class's matches into
//! apply, closed by a rebuild. A round reads the graph through a
//! [`RoundView`] of it as the round began ([`EGraph::begin_round`]), and
//! only *apply* writes, so no application changes what a later class of
//! the round matches. For each class the round began with, ascending:
//!
//! 1. *Match*: the discrimination tree ([`RuleIndex`]) is walked against
//!    the class itself ([`RuleIndex::query_candidates_class`] and
//!    siblings): every `Sym` edge branches over every same-tagged e-node,
//!    so no member's shape is hidden behind a cheaper representative.
//!    Candidate rules (ascending position, active-mask and quarantine
//!    filtered — the same discipline as the fixpoint engine's candidate
//!    scan) are then e-matched against the *class structure* (see *One
//!    rule program* below).
//! 2. *Refresh*, the first time a round applies a rule with
//!    preconditions: extract a representative term (cheapest under the
//!    engine's cost model) for every class of the round view.
//!    Preconditions are judged on representatives; nothing else reads
//!    them.
//! 3. *Apply* the class's matches at once, in match order: each runs its
//!    alternative's build list into the e-graph and unions the result
//!    with the matched class. Every application that changes the graph
//!    costs one budget step, and the round stops as soon as the budget is
//!    spent, so no later class is matched.
//!
//! After the last class, *rebuild* restores congruence; if the graph did
//! not change this round, the rule set is saturated. A round thus applies
//! the matches, in the order, that matching every class before applying
//! any would have scheduled, but a round that spends the budget early
//! does not pay for matches it never applies.
//!
//! ## One rule program
//!
//! Saturation is the second interpreter of the [`Program`]s the fixpoint
//! engine runs ([`crate::program`]), taken from the engine's per-position
//! table, so both engines give a rule its meaning from one compiled form.
//!
//! * **Match list over e-classes.** Where the fixpoint engine checks one
//!   term, each op here maps a list of slot bindings to a list: `Node`,
//!   `Sym`, `Bool` and `Lit` backtrack over the class's same-tagged
//!   e-nodes, and `Bind`/`Same` (and `RestBind`/`RestSame`) bind or check
//!   a canonical class id in a numbered slot. A node's kids are matched in
//!   order, each kid's whole hit list before the next kid starts. A chain
//!   head's `Seg`s, and any nested `∘` in a head, decompose chain classes
//!   through their `∘` e-nodes; a nested chain must consume its whole
//!   class.
//! * **Build list into the e-graph.** The build list runs through the
//!   same sink trait the interner implements: one e-node per built node,
//!   and `∘` as a plain e-node. Preconditions read `(property, slot)` as
//!   the fixpoint engine does, on the slot's class representative.
//!
//! ## Completeness and bounds
//!
//! E-matching here is deliberately *bounded*: the index walk carries a
//! node-visit fuel budget (pathological same-tag fanout truncates candidate
//! collection), chain decomposition is depth-capped, each (class, depth)
//! lists at most `SPLIT_CAP` chain splits, and both the matches and the
//! visits of one (class, rule) pair are capped (`MATCH_CAP`, `VISIT_CAP`).
//! The split and visit caps bound a round's work with no deadline: on cyclic
//! `∘` classes the distinct splits of one (class, depth) grow about
//! sixfold per level (KG1 at 3,072 steps over the full catalog listed 24 M
//! for one entry at depth 10), and one pair's visits ran past 200 M. The
//! caps sit well above what any pinned or benchmarked run reaches (at
//! most 252 splits per entry and 14,272 visits per pair). Each bound that
//! stops a search with more to visit is counted in [`crate::EngineStats`]
//! (`match_cap_cuts` and its siblings). All bounds
//! trade completeness for predictable cost; soundness is never at stake
//! because every union is justified by a rule instance, and the seed wave
//! — not matcher completeness — is what guarantees the differential gate.
//! Budget exhaustion mid-saturation simply stops asserting new equalities;
//! extraction still returns the best of everything proven so far (never
//! worse than the wave).
//!
//! Chain decomposition peels one segment off a cursor's head class at a
//! time, through the class's `∘` e-nodes, up to the depth cap. Every
//! chain match of a round peels the same few classes again, through every
//! cursor and every rule, so the splits of each (class, depth) are
//! enumerated once per round into a `PeelTable`, built from the head
//! classes' own entries: on `synthetic_hidden_join(1)` over the full
//! catalog, one round that matched every class asked for splits 75 k
//! times and filled 357 entries. A trailing chain metavariable binds the
//! rest of the chain as a *cursor*: folded with lookups only in the round
//! view, it is the class of the whole composition if the view has one,
//! and otherwise a slot token for the run left over. `apply` folds a
//! token into the graph, and only for a match that fires, so matching
//! makes no class.
//!
//! The deadline is read between rounds and between applications, before
//! each (class, rule) pair and every `DEADLINE_EVERY` visits inside one
//! e-match. An expiry mid-round drops the class being matched, keeps what
//! earlier classes applied, rebuilds and extracts, so a run overshoots its
//! deadline by at most one short stretch of matching plus rebuild and
//! extraction.
//!
//! ## Allocation
//!
//! A round can make millions of class visits on a cliff input, so the
//! e-match itself reads tags and class ids and allocates nothing, and a
//! warm run allocates little beyond the interned nodes it adds:
//!
//! * **A workspace the engine keeps.** The e-graph, the seed's term-id
//!   map, the round-start union-find, the peel table, the match buffers,
//!   the class, candidate and match lists, the index's class-walk stacks
//!   and the extractor's tables live in a [`Workspace`] that
//!   [`crate::fast::Engine`] keeps between runs and clears rather than
//!   drops; class storage past a run's graph is kept for the next. A run
//!   whose graph grew past the engine's `arena_capacity` classes drops the
//!   workspace when it ends, so one outsized request keeps no storage. A
//!   warm fused typed selection makes a median of about 50 allocations,
//!   against 331 with a fresh graph and buffers per run
//!   (`tests/alloc_budget.rs`).
//! * **Compact e-nodes.** An e-node is 20 bytes and `Copy`, and names its
//!   payload by an index into the graph's payload table, so building a
//!   leaf the graph already has, or a `∘` node, allocates nothing.
//! * **Tag-ranged scans.** `rebuild` leaves a class's e-nodes sorted by
//!   `(tag, payload, kids)`, and the round view reads those lists as
//!   rebuild left them, so the nodes an op can meet — those of its tag —
//!   are one run of the list, found by binary search. The rest are never
//!   touched: over the full catalog at 256 steps, `synthetic_hidden_join(1)`
//!   met 20.4 M e-nodes in a node-by-node scan, of which 0.43 M had the
//!   op's tag.
//! * **No copy for the round view.** `union` leaves the loser's e-node list
//!   in place until `rebuild` moves it, `add` puts new classes past the
//!   round's id bound, the view resolves ids through the union-find
//!   parents copied at round start, and a memo hit counts in the view only
//!   below that bound. Copying the graph each round instead read
//!   `opt_p50_us` 6–15 % higher on the `plan_saturate` benchmark.
//! * **Slot rows in one buffer.** A binding is a row of class ids, one per
//!   metavariable, in a buffer reused class after class. Each hit list is
//!   a run of rows on a stack in that buffer: binding a variable or
//!   recording a hit copies a row to the top, and a node's kids or a
//!   chain's segments drop their intermediate lists when done, so the rows
//!   that stay are the class's scheduled matches' bindings. Any slot count
//!   fits without a heap fallback.
//! * **Reused cursors.** Chain cursors and match remainders are runs in two
//!   more reused buffers, and the peel table keeps its maps between rounds.
//!   Chain segment starts are computed once per compiled alternative.
//! * **One memo per extraction table.** A class's extracted term is the
//!   same whichever class asks for it, so the representatives of a round
//!   are materialized into one table, each class once.

use crate::budget::{Budget, RewriteReport, StopReason};
use crate::dtree::{ClassWalk, RuleIndex};
use crate::egraph::{ClassId, EGraph, ENode, RoundStart, RoundView, TermIds};
use crate::engine::Oriented;
use crate::extract::{CostModel, Extractor};
use crate::fxhash::FxBuild;
use crate::program::{subtree_end, Alt, Level, MatchOp, Program, Sink};
use crate::props::PropDb;
use kola::intern::{ITerm, Interner, Payload, PayloadRef, Tag};
use kola::pattern::VarKind;
use kola::term::Query;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Everything the saturation loop needs besides the graph itself.
pub(crate) struct SaturationParams<'r, 'a> {
    /// The rule list, in engine order (positions match `index`).
    pub rules: &'r [Oriented<'a>],
    /// Property database for precondition checks.
    pub props: &'r PropDb,
    /// Discrimination tree over `rules`, as built: quarantined and masked
    /// rules stay in it and matching skips them, exactly as the
    /// fixpoint engine's candidate scan does.
    pub index: &'r RuleIndex,
    /// Per-position activity mask (`None` = all active).
    pub active: Option<&'r [bool]>,
    /// Each position's compiled program, shared with the fixpoint engine:
    /// built the first time either engine consults the position.
    pub progs: &'r mut [Option<Program>],
    /// The engine's lifetime saturation counters, advanced in place.
    pub counters: &'r mut SatCounters,
}

/// Saturation's lifetime counters, kept by the engine (see
/// [`crate::EngineStats`]). Each `*_cuts` counter counts the searches one
/// bound stopped while they had more to visit: (class, rule) pairs for the
/// e-match bounds, peel-table entries for the split table, class walks for
/// the index walk.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SatCounters {
    /// E-match visits: `EMatch::class` and `EMatch::chain` calls.
    pub ematch_visits: u64,
    /// Pairs cut at [`MATCH_CAP`].
    pub match_cap_cuts: u64,
    /// Pairs cut at [`VISIT_CAP`].
    pub visit_cap_cuts: u64,
    /// Peel-table entries cut at [`SPLIT_CAP`].
    pub split_cap_cuts: u64,
    /// Pairs and peel-table entries cut at [`CHAIN_DEPTH`].
    pub chain_depth_cuts: u64,
    /// Class walks cut by the index walk's fuel.
    pub walk_fuel_cuts: u64,
}

/// The saturation loop's storage: the e-graph and every buffer a run
/// fills. The engine keeps one and a run clears it rather than dropping
/// it, so a warm run allocates only past the high-water mark of the runs
/// before it ([`Workspace::finish`] bounds what is kept).
#[derive(Default)]
pub(crate) struct Workspace {
    eg: EGraph,
    /// The seed wave's interned term ids → classes.
    seen: TermIds,
    /// The seed wave's trajectory, filled by the engine.
    pub trajectory: Vec<ITerm>,
    /// The union-find as the current round began: the round matches, and
    /// extracts representatives, through this view of the graph.
    start: RoundStart,
    /// Representative (cheapest) term per raw class id of the round view;
    /// `None` while a class has no finite-cost realization. Empty until a
    /// round first applies a rule with preconditions.
    reps: Vec<Option<ITerm>>,
    /// The classes the current round began with, ascending.
    classes: Vec<ClassId>,
    /// The class being matched: its candidate rule positions, then its
    /// scheduled matches.
    cand: Vec<usize>,
    matches: Vec<Match>,
    /// The current round's chain splits and cursor folds.
    peel: PeelTable,
    bufs: MatchBufs,
    /// The slots of the match being applied, with its cursors folded.
    built: Vec<ClassId>,
    /// The index's class walk.
    walk: ClassWalk,
    /// Best cost per class, for representatives and the final extraction.
    ext: Extractor,
    /// The final extraction's term per class.
    terms: Vec<Option<ITerm>>,
}

impl Workspace {
    /// End a run: drop the whole workspace when the run's graph had more
    /// than `cap` classes (`0` = unbounded), so one outsized request does
    /// not keep its storage, and otherwise every interned term it holds,
    /// so none outlives an arena compaction.
    pub(crate) fn finish(&mut self, cap: usize) {
        if cap != 0 && self.eg.id_bound() > cap {
            *self = Workspace::default();
        } else {
            self.drop_terms();
        }
    }

    /// Drop every interned term the workspace holds.
    pub(crate) fn drop_terms(&mut self) {
        self.trajectory.clear();
        self.reps.clear();
        self.terms.clear();
    }
}

/// Max e-match bindings enumerated per (class, rule) per round.
const MATCH_CAP: usize = 24;

/// Max e-match visits (`EMatch::class` and `EMatch::chain` calls) per
/// (class, rule) per round.
const VISIT_CAP: u32 = 1 << 16;

/// Register the fixpoint trajectory (input, every intermediate, output),
/// already interned and right-normalized by the wave, and union it into one
/// root class. Returns the root.
pub fn seed_trajectory(eg: &mut EGraph, trajectory: &[ITerm]) -> ClassId {
    seed_into(eg, &mut TermIds::default(), trajectory)
}

/// [`seed_trajectory`] with a term-id map of the caller's, empty or not.
fn seed_into(eg: &mut EGraph, seen: &mut TermIds, trajectory: &[ITerm]) -> ClassId {
    let (input, steps) = trajectory
        .split_first()
        .expect("a trajectory starts at its input");
    // One term-id map for the whole trajectory: a node the terms share is
    // added once.
    let root = eg.add_term_rec(input, seen);
    for t in steps {
        let c = eg.add_term_rec(t, seen);
        eg.union(root, c);
    }
    eg.rebuild();
    eg.find(root)
}

/// Run seeded saturation + extraction from the seed wave's `trajectory`:
/// its interned input first, its fixpoint output last. Returns the
/// extracted best query, right-normalized; by construction it costs no
/// more than the fixpoint output under `cost`. `report` arrives
/// with the seed wave's steps/quarantines already recorded and is extended
/// in place; `budget.max_steps` bounds *total* steps (wave + saturation),
/// mirroring how the fixpoint engine treats one budget per run. Each
/// application that changes the graph is also handed to `on_fire` by rule
/// position. The graph and buffers are `work`'s, cleared first.
#[allow(clippy::too_many_arguments)]
pub(crate) fn saturate_from_trajectory(
    trajectory: &[ITerm],
    params: SaturationParams,
    budget: &Budget,
    cost: &dyn CostModel,
    report: &mut RewriteReport,
    on_fire: &mut dyn FnMut(usize),
    it: &mut Interner,
    work: &mut Workspace,
) -> Query {
    work.eg.clear();
    work.seen.clear();
    let root = seed_into(&mut work.eg, &mut work.seen, trajectory);
    let mut sat = Sat {
        params,
        it,
        w: work,
    };
    loop {
        if report.steps >= budget.max_steps {
            report.stop = StopReason::BudgetExhausted;
            break;
        }
        if budget.expired() {
            report.stop = StopReason::DeadlineExpired;
            break;
        }
        let before = sat.w.eg.version();
        let stop = sat.round(report, budget, cost, on_fire);
        sat.w.eg.rebuild();
        if let Some(stop) = stop {
            report.stop = stop;
            break;
        }
        if sat.w.eg.version() == before {
            report.stop = StopReason::NormalForm;
            break;
        }
    }
    let Sat { params, it, w } = sat;
    let peel = &mut w.peel;
    params.counters.split_cap_cuts += std::mem::take(&mut peel.split_cuts);
    params.counters.chain_depth_cuts += std::mem::take(&mut peel.depth_cuts);
    w.ext.relax(w.eg.view(), cost);
    w.terms.clear();
    match w.ext.term_in(w.eg.view(), root, it, &mut w.terms) {
        Some(t) => t.to_query().normalize(),
        // Unreachable in practice (the root always has the concrete input
        // as witness), but never panic on it.
        None => trajectory[0].to_query(),
    }
}

/// Cost of one concrete interned term under `cost` (no e-graph involved).
pub fn term_cost(t: &ITerm, cost: &dyn CostModel) -> u64 {
    // Arity is at most 3: the kid costs sit in a stack array.
    let kids = t.kids();
    let mut kid_costs = [0u64; 3];
    for (slot, k) in kid_costs.iter_mut().zip(kids) {
        *slot = term_cost(k, cost);
    }
    cost.node_cost(t.tag(), t.payload(), &kid_costs[..kids.len()])
}

/// One scheduled rule application: rule position, the alternative whose
/// head matched, the matched class, and where its bindings and (for
/// function rules) its unconsumed chain suffix lie in [`MatchBufs`].
///
/// Slot `i` of the bindings holds the canonical class bound to the rule
/// program's `i`-th metavariable, or a cursor ([`CURSOR`]). Consistency is
/// canonical-class equality: two syntactically different binding
/// candidates in one class are provably equal, so unifying them is sound —
/// strictly more matches than the pointer-equality the destructive matcher
/// requires.
#[derive(Clone)]
struct Match {
    pos: usize,
    /// Index into the program's alternatives — the body built must belong
    /// to the same alternative the head match bound.
    alt: usize,
    class: ClassId,
    /// Where the slot row starts in [`MatchBufs::rows`]; it is the
    /// alternative's slot count wide.
    slots: usize,
    /// Chain segments left over after a prefix match (function level
    /// only), in [`MatchBufs::rests`]; the instantiated body is re-composed
    /// onto them.
    remainder: Range<usize>,
}

/// Per-round decomposition/enumeration limits. Depth bounds recursion
/// through chain e-nodes (cyclic classes make unbounded descent possible).
const CHAIN_DEPTH: usize = 64;

/// Max chain splits listed per (class, depth) of a round's peel table.
const SPLIT_CAP: usize = 1024;

struct Sat<'s, 'r, 'a> {
    params: SaturationParams<'r, 'a>,
    it: &'s mut Interner,
    w: &'s mut Workspace,
}

/// The match phase's working memory, cleared for every class and grown
/// only while a class needs more than any before it.
#[derive(Default)]
struct MatchBufs {
    /// Slot rows, each one e-match's slot count wide (at least 1): the hit
    /// lists of the e-match in progress on a stack, and below them the
    /// bindings of every match the class has scheduled.
    rows: Vec<ClassId>,
    /// Chain cursors on a stack, one per level of chain recursion, each a
    /// run of classes whose composition is the chain left to match.
    cursors: Vec<ClassId>,
    /// The scheduled matches' unconsumed chain suffixes; in `apply`, the
    /// classes of the cursor being folded.
    rests: Vec<ClassId>,
    /// The suffix of each hit of the chain head in progress, in hit order.
    hit_rests: Vec<Range<usize>>,
}

impl Sat<'_, '_, '_> {
    /// The representative of the class in a slot; `None` for a cursor.
    fn rep(&self, c: ClassId) -> Option<&ITerm> {
        if cursor_cell(c).is_some() {
            return None;
        }
        self.w
            .reps
            .get(self.w.eg.find(c) as usize)
            .and_then(Option::as_ref)
    }

    /// Extract the representative of every class of the round view.
    fn refresh_reps(&mut self, cost: &dyn CostModel) {
        let w = &mut *self.w;
        let view = w.start.view(&w.eg);
        w.ext.relax(view, cost);
        w.reps.clear();
        for c in view.class_ids() {
            w.ext.term_in(view, c, self.it, &mut w.reps);
        }
    }

    /// One round: match each class the round began with, ascending, and
    /// apply its matches at once, in order. Matching reads the graph as the
    /// round began, so no apply changes what a later class matches. Returns
    /// why the run stops, when it stops within the round: once the budget
    /// is spent, no later class is matched.
    fn round(
        &mut self,
        report: &mut RewriteReport,
        budget: &Budget,
        cost: &dyn CostModel,
        on_fire: &mut dyn FnMut(usize),
    ) -> Option<StopReason> {
        let w = &mut *self.w;
        w.eg.begin_round(&mut w.start);
        let view = w.start.view(&w.eg);
        w.peel.reset(view.id_bound());
        w.reps.clear();
        w.classes.clear();
        w.classes.extend(view.class_ids());
        for i in 0..self.w.classes.len() {
            if !self.match_class(self.w.classes[i], report, budget) {
                return Some(StopReason::DeadlineExpired);
            }
            let rules = self.params.rules;
            if self.w.reps.is_empty()
                && self
                    .w
                    .matches
                    .iter()
                    .any(|m| !rules[m.pos].rule.preconditions.is_empty())
            {
                self.refresh_reps(cost);
            }
            for k in 0..self.w.matches.len() {
                if budget.expired() {
                    return Some(StopReason::DeadlineExpired);
                }
                let m = self.w.matches[k].clone();
                let v = self.w.eg.version();
                if self.apply(&m) && self.w.eg.version() != v {
                    report.steps += 1;
                    report.record_fire(&rules[m.pos].rule.id);
                    on_fire(m.pos);
                    if report.steps >= budget.max_steps {
                        return Some(StopReason::BudgetExhausted);
                    }
                }
            }
        }
        None
    }

    /// Schedule class `c`'s matches in `matches`, read through the round
    /// view: candidates ascending, alternatives and e-nodes in canonical
    /// order. The deadline is read before each (class, rule) pair and after
    /// the last; false when it expired, and the class's matches are
    /// dropped.
    fn match_class(&mut self, c: ClassId, report: &RewriteReport, budget: &Budget) -> bool {
        let w = &mut *self.w;
        let counters = &mut *self.params.counters;
        w.matches.clear();
        w.bufs.rows.clear();
        w.bufs.rests.clear();
        let view = w.start.view(&w.eg);
        let (rules, index) = (self.params.rules, self.params.index);
        // Walk the discrimination tree against the class itself: every
        // `Sym` edge branches over every same-tagged e-node, so no member's
        // shape is hidden behind a cheaper representative.
        let Some(level) = view.nodes(c).first().map(|n| Level::of(n.tag)) else {
            return true;
        };
        let whole = match level {
            Level::F => index.func_candidates_class(view, c, &mut w.cand, &mut w.walk),
            Level::P => index.pred_candidates_class(view, c, &mut w.cand, &mut w.walk),
            Level::Q => index.query_candidates_class(view, c, &mut w.cand, &mut w.walk),
        };
        counters.walk_fuel_cuts += u64::from(!whole);
        for &pos in &w.cand {
            if budget.expired() {
                return false;
            }
            if self.params.active.is_some_and(|m| !m[pos]) {
                continue;
            }
            let o = &rules[pos];
            if report.is_quarantined(&o.rule.id) {
                continue;
            }
            let prog =
                self.params.progs[pos].get_or_insert_with(|| Program::compile(o.rule, o.dir));
            let (visits, cuts) = ematch_rule(
                view,
                &mut w.peel,
                &mut w.bufs,
                budget,
                prog,
                level,
                c,
                pos,
                &mut w.matches,
            );
            counters.ematch_visits += visits;
            counters.match_cap_cuts += u64::from(cuts.matches);
            counters.visit_cap_cuts += u64::from(cuts.visits);
            counters.chain_depth_cuts += u64::from(cuts.depth);
        }
        !budget.expired()
    }

    /// Apply one scheduled match: check preconditions on representatives,
    /// fold the cursors the body reads into the graph, build the body and
    /// union it with the matched class. Returns false when the application
    /// was skipped (failed precondition or unbound variable — the latter
    /// mirrors the fixpoint engine's contained `RuleFailed`).
    fn apply(&mut self, m: &Match) -> bool {
        let o = &self.params.rules[m.pos];
        let prog = self.params.progs[m.pos].as_ref();
        let alt = &prog.expect("a matched rule's program is compiled").alts[m.alt];
        let slots = &self.w.bufs.rows[m.slots..m.slots + alt.names.len()];
        if !o.rule.preconditions.is_empty() {
            // Each precondition is judged on its bound function class's
            // representative; properties are semantic, so any member's
            // verdict stands for the class. A bound function class with no
            // representative skips the application.
            let unrepresented = alt
                .names
                .iter()
                .zip(slots)
                .any(|((kind, _), &c)| *kind == VarKind::Func && self.rep(c).is_none());
            if unrepresented || !alt.preconditions_hold(|i| self.rep(slots[i]), self.params.props) {
                return false;
            }
        }
        let w = &mut *self.w;
        // Only a match that fires makes the classes of its cursors.
        w.built.clear();
        w.built
            .extend_from_slice(&w.bufs.rows[m.slots..m.slots + alt.names.len()]);
        for i in alt.build_slots() {
            if let Some(cell) = cursor_cell(w.built[i]) {
                let run = &mut w.bufs.rests;
                let at = run.len();
                w.peel.push_tail(cell, run);
                w.built[i] = fold_cursor(&mut w.eg, &run[at..]);
                run.truncate(at);
            }
        }
        let built = &w.built;
        let Ok(body) = alt.run_build(|i| built[i], &mut w.eg) else {
            return false;
        };
        let result = if m.remainder.is_empty() {
            body
        } else {
            let tail = fold_cursor(&mut w.eg, &w.bufs.rests[m.remainder.clone()]);
            w.eg.compose(body, tail)
        };
        w.eg.union(m.class, result);
        true
    }
}

/// Saturation builds rule bodies as e-nodes: one `add` per built node, and
/// `∘` as a plain e-node — classes carry no associativity discipline.
impl Sink for EGraph {
    type Node = ClassId;

    fn mk(&mut self, tag: Tag, payload: PayloadRef<'_>, kids: &[ClassId]) -> ClassId {
        let payload = self.payload_id(payload);
        self.add(ENode::new(tag, payload, kids))
    }

    fn compose(&mut self, a: ClassId, b: ClassId) -> ClassId {
        self.mk(Tag::FCompose, PayloadRef::None, &[a, b])
    }
}

/// Which bounds cut one (class, rule) pair's e-match short.
#[derive(Clone, Copy, Default)]
struct PairCuts {
    /// [`MATCH_CAP`].
    matches: bool,
    /// [`VISIT_CAP`].
    visits: bool,
    /// [`CHAIN_DEPTH`].
    depth: bool,
}

/// E-match the alternatives of `prog` at class `c` in rule order, those of
/// the class's level, and schedule every hit. Each alternative runs with
/// the rest of [`MATCH_CAP`] as its fuel; none starts once the cap is
/// reached. Returns its class visits and the bounds that cut it short.
#[allow(clippy::too_many_arguments)]
fn ematch_rule(
    view: RoundView<'_>,
    peel: &mut PeelTable,
    bufs: &mut MatchBufs,
    budget: &Budget,
    prog: &Program,
    level: Level,
    c: ClassId,
    pos: usize,
    out: &mut Vec<Match>,
) -> (u64, PairCuts) {
    let mut found = 0usize;
    let mut visits = 0u32;
    let mut cuts = PairCuts::default();
    // Whether the fuel, spent by hits or by the visit cap, left a search
    // or an alternative of the level unmatched.
    let mut starved = false;
    for (ai, alt) in prog.alts.iter().enumerate() {
        if alt.level != level {
            continue;
        }
        if found >= MATCH_CAP || visits >= VISIT_CAP {
            starved = true;
            break;
        }
        // The hits land after an all-unbound row, which is dropped after.
        let width = alt.names.len().max(1);
        let unbound = bufs.rows.len();
        bufs.rows.resize(unbound + width, 0);
        let mut m = EMatch {
            view,
            peel: &mut *peel,
            bufs: &mut *bufs,
            budget,
            alt,
            width,
            fuel: MATCH_CAP - found,
            visits,
            starved: false,
            expired: false,
            too_deep: false,
        };
        if alt.chain {
            m.bufs.cursors.push(c);
            m.chain(&alt.head_segs, 0..1, unbound, CHAIN_DEPTH, true);
            m.bufs.cursors.clear();
        } else {
            m.class(0, c, unbound, CHAIN_DEPTH);
        }
        visits = m.visits;
        starved |= m.starved && !m.expired;
        cuts.depth |= m.too_deep;
        bufs.rows.drain(unbound..unbound + width);
        let hits = (bufs.rows.len() - unbound) / width;
        debug_assert!(!alt.chain || bufs.hit_rests.len() == hits);
        found += hits;
        out.extend((0..hits).map(|k| Match {
            pos,
            alt: ai,
            class: c,
            slots: unbound + k * width,
            remainder: bufs.hit_rests.get(k).cloned().unwrap_or(0..0),
        }));
        bufs.hit_rests.clear();
    }
    cuts.visits = starved && visits >= VISIT_CAP;
    cuts.matches = starved && visits < VISIT_CAP;
    (u64::from(visits), cuts)
}

/// One alternative's match list run over e-classes. Where the fixpoint
/// engine checks one term, an op here backtracks over every same-tagged
/// e-node of a class, so each op maps a hit list to a hit list. A node's
/// kids are matched in order, each kid's full hit list before the next kid
/// starts; fuel is spent only by leaf hits and final chain hits.
///
/// Hit lists are runs of slot rows on the stack in [`MatchBufs::rows`], and
/// a row is named by where it starts. Every method leaves exactly its own
/// hits appended to the stack, in order: a node's kids and a chain's
/// segments build their intermediate lists above the caller's and drop
/// them before they return.
struct EMatch<'g, 'p> {
    /// The graph as the round began; an e-match never writes the graph.
    view: RoundView<'g>,
    /// The round's chain splits, filled on first ask, and cursor folds.
    peel: &'g mut PeelTable,
    bufs: &'g mut MatchBufs,
    /// Its deadline is read every [`DEADLINE_EVERY`] class visits; on
    /// expiry the fuel is spent, so the enumeration unwinds at once.
    budget: &'p Budget,
    alt: &'p Alt,
    /// Slot row width: the alternative's slot count, at least 1.
    width: usize,
    fuel: usize,
    visits: u32,
    /// A search was abandoned for want of fuel.
    starved: bool,
    /// The deadline expired, and spent the fuel.
    expired: bool,
    /// A search was abandoned at [`CHAIN_DEPTH`].
    too_deep: bool,
}

/// Visits between two deadline reads inside one e-match. One (class,
/// rule) pair can make up to [`VISIT_CAP`] visits, tens of nanoseconds
/// each.
const DEADLINE_EVERY: u32 = 1024;

impl<'p> EMatch<'_, 'p> {
    /// Match the subpattern at `ops[pc]` against class `c` under the
    /// bindings in row `b`: a variable binds the class, a `∘` goes through
    /// full-consumption chain matching (so association differences between
    /// pattern and class cannot hide a match), anything else backtracks
    /// over the class's e-nodes of the op's tag.
    fn class(&mut self, pc: usize, c: ClassId, b: usize, depth: usize) {
        self.visit();
        if self.out_of_fuel() || self.out_of_depth(depth) {
            return;
        }
        let c = self.view.find(c);
        let alt = self.alt;
        let op = &alt.matcher[pc];
        if let Some(var) = var_slot(op) {
            self.bind(b, var, c);
            return;
        }
        if *op == MatchOp::Node(Tag::FCompose, 2) {
            // Full consumption only: a sub-pattern chain must equal the
            // whole segment, not a prefix of it.
            let at = self.bufs.cursors.len();
            self.bufs.cursors.push(c);
            self.chain(alt.compose_segs(pc), at..at + 1, b, depth, false);
            self.bufs.cursors.truncate(at);
            return;
        }
        let tag = match *op {
            MatchOp::Node(tag, _) | MatchOp::Sym(tag, _) => tag,
            MatchOp::Bool(_) => Tag::PConstP,
            MatchOp::Lit(_) => Tag::QLit,
            ref op => unreachable!("{op:?} never meets an e-node"),
        };
        // The round view's node lists are sorted, so the nodes of one tag
        // are a run of it.
        let nodes = tag_run(self.view.nodes(c), tag);
        for k in nodes {
            if self.out_of_fuel() {
                return;
            }
            self.node(pc, c, k, b, depth);
        }
    }

    /// Match the op at `ops[pc]` against the `k`-th e-node of class `c`,
    /// which has the op's tag.
    fn node(&mut self, pc: usize, c: ClassId, k: usize, b: usize, depth: usize) {
        let n = self.view.nodes(c)[k];
        let payload = self.view.payload(n.payload);
        let hit = match &self.alt.matcher[pc] {
            MatchOp::Node(_, arity) => {
                if *arity > 0 {
                    debug_assert_eq!(n.kids().len(), *arity);
                    return self.kids(pc + 1, n.kids(), b, depth - 1);
                }
                true
            }
            MatchOp::Sym(_, s) => matches!(payload, Payload::Sym(x) if x == s),
            MatchOp::Bool(v) => matches!(payload, Payload::Bool(x) if x == v),
            MatchOp::Lit(v) => matches!(payload, Payload::Value(w) if w.as_ref() == v),
            op => unreachable!("{op:?} never meets an e-node"),
        };
        if hit {
            self.fuel = self.fuel.saturating_sub(1);
            let width = self.width;
            self.bufs.rows.extend_from_within(b..b + width);
        }
    }

    /// Match the kid subpatterns from `ops[pc]` on against `kids`, in
    /// order: every hit of one kid is in before the next kid starts.
    fn kids(&mut self, mut pc: usize, kids: &[ClassId], b: usize, depth: usize) {
        let (&last, init) = kids.split_last().expect("a node op has kids");
        let width = self.width;
        let base = self.bufs.rows.len();
        // The hits so far: row `b` alone, then each kid's list in turn.
        let mut hits = b..b + width;
        for &k in init {
            let start = self.bufs.rows.len();
            for r in hits.step_by(width) {
                self.class(pc, k, r, depth);
            }
            hits = start..self.bufs.rows.len();
            pc = subtree_end(&self.alt.matcher, pc);
        }
        let start = self.bufs.rows.len();
        for r in hits.step_by(width) {
            self.class(pc, last, r, depth);
        }
        self.bufs.rows.drain(base..start);
    }

    /// Chain-prefix e-matching: match the segments that start at `segs`
    /// against the chain structure of the cursor at `cursor` in
    /// [`MatchBufs::cursors`] (a run of classes whose composition is the
    /// chain), decomposing through `∘` e-nodes. The rule programs' chain
    /// prefix over e-classes: all but the last segment consume exactly one
    /// chain segment; a trailing metavariable swallows the whole rest; a
    /// trailing concrete segment consumes one and leaves the remainder for
    /// re-composition. A chain head (`keep_rest`) records each hit's
    /// remainder in [`MatchBufs::hit_rests`]; a nested chain keeps only the
    /// hits that leave none.
    fn chain(
        &mut self,
        segs: &'p [usize],
        cursor: Range<usize>,
        b: usize,
        depth: usize,
        keep_rest: bool,
    ) {
        self.visit();
        if self.out_of_fuel() || self.out_of_depth(depth) || cursor.is_empty() {
            return;
        }
        let ops = &self.alt.matcher;
        let width = self.width;
        let head = self.bufs.cursors[cursor.start];
        let suffix = cursor.start + 1..cursor.end;
        let [last] = *segs else {
            let Some((&p, later)) = segs.split_first() else {
                return;
            };
            // Non-final segment: consume exactly one chain segment. The
            // hits of a split that matches continue on the cursor its
            // rest makes.
            for i in self.peel.splits_of(self.view, head, depth) {
                if self.out_of_fuel() {
                    return;
                }
                let (seg, tail) = self.peel.splits[i];
                let at = self.bufs.rows.len();
                match var_slot(&ops[p]) {
                    Some(var) => {
                        self.bind(b, var, seg);
                    }
                    None => self.class(p, seg, b, depth - 1),
                }
                let end = self.bufs.rows.len();
                if end == at {
                    continue;
                }
                let rest = self.push_rest(tail, suffix.clone());
                for r in (at..end).step_by(width) {
                    self.chain(later, rest.clone(), r, depth - 1, keep_rest);
                }
                self.bufs.cursors.truncate(rest.start);
                self.bufs.rows.drain(at..end);
            }
            return;
        };
        // Final segment.
        if let Some(var) = var_slot(&ops[last]) {
            let c = self.peel.fold(self.view, &self.bufs.cursors[cursor]);
            if self.bind(b, var, c) {
                self.fuel = self.fuel.saturating_sub(1);
                if keep_rest {
                    let at = self.bufs.rests.len();
                    self.bufs.hit_rests.push(at..at);
                }
            }
            return;
        }
        for i in self.peel.splits_of(self.view, head, depth) {
            if self.out_of_fuel() {
                return;
            }
            let (seg, tail) = self.peel.splits[i];
            let at = self.bufs.rows.len();
            self.class(last, seg, b, depth - 1);
            let end = self.bufs.rows.len();
            for r in (at..end).step_by(width) {
                self.fuel = self.fuel.saturating_sub(1);
                let bufs = &mut *self.bufs;
                if keep_rest {
                    let from = bufs.rests.len();
                    self.peel.push_tail(tail, &mut bufs.rests);
                    bufs.rests.extend_from_slice(&bufs.cursors[suffix.clone()]);
                    bufs.hit_rests.push(from..bufs.rests.len());
                } else if tail != EMPTY || !suffix.is_empty() {
                    continue;
                }
                bufs.rows.extend_from_within(r..r + width);
            }
            self.bufs.rows.drain(at..end);
        }
    }

    /// Count one visit. The deadline is read every [`DEADLINE_EVERY`]
    /// visits; on expiry, or at [`VISIT_CAP`], the fuel is spent, so the
    /// enumeration unwinds at once.
    fn visit(&mut self) {
        self.visits += 1;
        if self.visits >= VISIT_CAP {
            self.fuel = 0;
        } else if self.visits.is_multiple_of(DEADLINE_EVERY) && self.budget.expired() {
            self.fuel = 0;
            self.expired = true;
        }
    }

    /// Whether the fuel is spent; called where a search has more to visit,
    /// so a true answer abandons it.
    fn out_of_fuel(&mut self) -> bool {
        self.starved |= self.fuel == 0;
        self.fuel == 0
    }

    /// Whether `depth` is spent, as [`EMatch::out_of_fuel`] is for fuel.
    fn out_of_depth(&mut self, depth: usize) -> bool {
        self.too_deep |= depth == 0;
        depth == 0
    }

    /// Push a copy of row `b` with the variable's slot holding `c`, a
    /// canonical class or a cursor; nothing when the slot already holds
    /// another. Returns whether it pushed.
    fn bind(&mut self, b: usize, (i, bound): (usize, bool), c: ClassId) -> bool {
        let rows = &mut self.bufs.rows;
        if bound && rows[b + i] != c {
            return false;
        }
        let at = rows.len();
        rows.extend_from_within(b..b + self.width);
        rows[at + i] = c;
        true
    }

    /// Push a cursor onto the cursor stack: `tail`'s classes, then a copy
    /// of the cursor classes at `suffix`. Returns where it lies.
    fn push_rest(&mut self, tail: Cell, suffix: Range<usize>) -> Range<usize> {
        let cursors = &mut self.bufs.cursors;
        let at = cursors.len();
        self.peel.push_tail(tail, cursors);
        cursors.extend_from_within(suffix);
        at..cursors.len()
    }
}

/// The indices of `nodes`' e-nodes tagged `tag`: a run, because `rebuild`
/// leaves a class's nodes sorted by tag first.
fn tag_run(nodes: &[ENode], tag: Tag) -> Range<usize> {
    debug_assert!(
        nodes.is_sorted_by_key(|n| n.tag),
        "a class's e-nodes are sorted"
    );
    let lo = nodes.partition_point(|n| n.tag < tag);
    lo..lo + nodes[lo..].partition_point(|n| n.tag == tag)
}

/// A variable op's slot, and whether an earlier op bound it (a check
/// rather than a bind).
fn var_slot(op: &MatchOp) -> Option<(usize, bool)> {
    match *op {
        MatchOp::Bind(i) | MatchOp::RestBind(i) => Some((i, false)),
        MatchOp::Same(i) | MatchOp::RestSame(i) => Some((i, true)),
        _ => None,
    }
}

/// A list of classes (a peeled tail, or a cursor's run) as a hash-consed
/// snoc cell: with
/// `cells[k] == (prev, c)`, cell `k > 0` stands for cell `prev`'s list
/// followed by `c`, and [`EMPTY`] for the empty list. Equal lists get
/// equal cells, so a split is two words and deduplicates by value.
type Cell = u32;

/// The empty tail.
const EMPTY: Cell = 0;

/// One round's chain splits and cursor folds. A split of the cursor `c, rest…` peels
/// one chain segment off its head class `c`: `(segment class, tail ++
/// rest)`, where the tail is the classes the peel uncovered on its way
/// down `c`'s `∘` e-nodes. The class itself is a segment when it has a
/// non-`∘` e-node; each `∘` e-node `h ∘ t` contributes the splits of `h`
/// one level down, each with `t` appended to its tail, except when `h` is
/// `c` itself (a cyclic chain class). First occurrence wins, so an entry
/// lists its splits in depth-first peel order, without repeats, up to
/// [`SPLIT_CAP`] of them.
///
/// The splits of a cursor depend only on its head class and the depth
/// left, and stay fixed for a round: the table reads the round view, and
/// a cursor holds only classes of it (a fold the view lacks becomes a
/// token, which is bound into a slot but never enters a cursor). An entry
/// is therefore built once per (canonical class, depth), from the head
/// classes' own entries, and the table is emptied with the round. Its
/// cells also list the classes of the round's cursor tokens
/// ([`PeelTable::fold`]).
#[derive(Default)]
struct PeelTable {
    /// `id_bound` when the round began: every class the table reads lies
    /// below it.
    bound: usize,
    /// (canonical class, depth) → its splits' range in `splits`.
    entries: HashMap<(ClassId, usize), Range<usize>, FxBuild>,
    /// Every entry's splits, one entry's contiguous: (segment, tail).
    splits: Vec<(ClassId, Cell)>,
    /// Snoc cells, `(prev, class)`; index 0 stands for [`EMPTY`].
    cells: Vec<(Cell, ClassId)>,
    cell_ids: HashMap<(Cell, ClassId), Cell, FxBuild>,
    /// The splits of the entry being filled.
    seen: HashSet<(ClassId, Cell), FxBuild>,
    /// Entries cut at [`SPLIT_CAP`] and at [`CHAIN_DEPTH`], since the
    /// counts were last taken; kept across rounds.
    split_cuts: u64,
    depth_cuts: u64,
}

impl PeelTable {
    /// Empty the table for a round that begins at `id_bound` `bound`.
    fn reset(&mut self, bound: usize) {
        self.bound = bound;
        self.entries.clear();
        self.splits.clear();
        self.cells.clear();
        self.cells.push((EMPTY, 0));
        self.cell_ids.clear();
    }

    /// The range in `splits` of class `c`'s splits at `depth`, filled on
    /// first ask and cut at [`SPLIT_CAP`].
    fn splits_of(&mut self, eg: RoundView<'_>, c: ClassId, depth: usize) -> Range<usize> {
        if depth == 0 {
            return 0..0;
        }
        let c = eg.find(c);
        if let Some(r) = self.entries.get(&(c, depth)) {
            return r.clone();
        }
        debug_assert!(
            (c as usize) < self.bound,
            "class {c} was made during the round"
        );
        let nodes = eg.nodes(c);
        let composes = &nodes[tag_run(nodes, Tag::FCompose)];
        // Fill the heads' entries first, so this one is written in one
        // piece at the end of `splits`. At depth 1 a head has none: the
        // peel stops there.
        let mut too_deep = false;
        for n in composes {
            let head = eg.find(n.kids()[0]);
            if head != c {
                too_deep |= depth == 1;
                self.splits_of(eg, head, depth - 1);
            }
        }
        self.depth_cuts += u64::from(too_deep);
        let start = self.splits.len();
        self.seen.clear();
        if composes.len() < nodes.len() {
            self.seen.insert((c, EMPTY));
            self.splits.push((c, EMPTY));
        }
        'fill: for n in composes {
            let head = eg.find(n.kids()[0]);
            if head == c {
                continue;
            }
            let tail = eg.find(n.kids()[1]);
            for i in self.splits_of(eg, head, depth - 1) {
                if self.splits.len() - start == SPLIT_CAP {
                    self.split_cuts += 1;
                    break 'fill;
                }
                let (seg, prev) = self.splits[i];
                let split = (seg, self.snoc(prev, tail));
                if self.seen.insert(split) {
                    self.splits.push(split);
                }
            }
        }
        let r = start..self.splits.len();
        self.entries.insert((c, depth), r.clone());
        r
    }

    /// The cell of `prev`'s list followed by `c`.
    fn snoc(&mut self, prev: Cell, c: ClassId) -> Cell {
        let next = self.cells.len() as Cell;
        let cell = *self.cell_ids.entry((prev, c)).or_insert(next);
        if cell == next {
            self.cells.push((prev, c));
        }
        cell
    }

    /// Fold a cursor into one class as [`fold_cursor`] would, right-associated,
    /// but with lookups only: the view's class of the whole composition if
    /// it has one, or else the cursor whose cell lists the run left after
    /// folding the longest suffix the view has. Equal runs get equal
    /// cursors and no cursor equals a class, so a slot check compares two
    /// folds exactly as it would compare the classes folding would make.
    fn fold(&mut self, view: RoundView<'_>, cursor: &[ClassId]) -> ClassId {
        let (&last, init) = cursor.split_last().expect("a cursor is not empty");
        let mut acc = last;
        for (i, &c) in init.iter().enumerate().rev() {
            match view.lookup_compose(c, acc) {
                Some(folded) => acc = folded,
                None => {
                    let cell = init[..=i]
                        .iter()
                        .chain([&acc])
                        .fold(EMPTY, |cell, &c| self.snoc(cell, c));
                    // A token must not read as a class.
                    assert!(cell < CURSOR && view.id_bound() <= CURSOR as usize);
                    return CURSOR | cell;
                }
            }
        }
        acc
    }

    /// Push `tail`'s classes onto `buf`, in order.
    fn push_tail(&self, mut tail: Cell, buf: &mut Vec<ClassId>) {
        let at = buf.len();
        while tail != EMPTY {
            let (prev, c) = self.cells[tail as usize];
            buf.push(c);
            tail = prev;
        }
        buf[at..].reverse();
    }
}

/// A slot binding with this bit set is a cursor, not a class: a trailing
/// chain metavariable's binding that the round view could not fold into
/// one class. The other bits are the cell that lists its classes.
const CURSOR: ClassId = 1 << 31;

/// The cell of a cursor binding; `None` for a class.
fn cursor_cell(slot: ClassId) -> Option<Cell> {
    (slot & CURSOR != 0).then_some(slot & !CURSOR)
}

/// Fold a cursor into a single class of the live graph, right-associated.
fn fold_cursor(eg: &mut EGraph, cursor: &[ClassId]) -> ClassId {
    let mut iter = cursor.iter().rev();
    let mut acc = *iter.next().expect("fold_cursor: non-empty cursor");
    for &c in iter {
        acc = eg.compose(c, acc);
    }
    acc
}
