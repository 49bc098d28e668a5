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
//! **Saturation loop.** Classic match-apply-rebuild rounds:
//!
//! 1. *Match*: for every class (ascending id), the discrimination tree
//!    ([`RuleIndex`]) is walked against the class itself
//!    ([`RuleIndex::query_candidates_class`] and siblings): every `Sym`
//!    edge branches over every same-tagged e-node, so no member's shape is
//!    hidden behind a cheaper representative. Candidate rules (ascending
//!    position, active-mask and quarantine filtered — the same discipline
//!    as the fixpoint engine's candidate scan) are then e-matched against
//!    the *class structure* (see *One rule program* below).
//! 2. *Refresh*, only when a matched rule has preconditions: extract a
//!    representative term (cheapest under the engine's cost model) for
//!    every class that existed when the round began. Preconditions are
//!    judged on representatives; nothing else reads them.
//! 3. *Apply*: each match runs its alternative's build list into the
//!    e-graph and unions the result with the matched class. Every
//!    application that changes the graph costs one budget step.
//! 4. *Rebuild*: restore congruence; if the graph did not change this
//!    round, the rule set is saturated.
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
//! collection), chain decomposition is depth-capped, and match enumeration
//! is capped per (class, rule) pair. All bounds trade completeness for
//! predictable cost; soundness is never at stake because every union is
//! justified by a rule instance, and the seed wave — not matcher
//! completeness — is what guarantees the differential gate. Budget
//! exhaustion mid-saturation simply stops asserting new equalities;
//! extraction still returns the best of everything proven so far (never
//! worse than the wave).
//!
//! Chain decomposition peels one segment off a cursor's head class at a
//! time, through the class's `∘` e-nodes, up to the depth cap. Every
//! chain match of a round peels the same few classes again, through every
//! cursor and every rule, so the splits of each (class, depth) are
//! enumerated once per match round into a `PeelTable`, built from the
//! head classes' own entries: on `synthetic_hidden_join(1)` over the full
//! catalog, one round asks for splits 75 k times and fills 357 entries.
//!
//! The deadline is read between rounds and between applications, before
//! each (class, rule) pair of a match round, and every `DEADLINE_EVERY`
//! class visits inside one e-match. An expiry mid-round drops the round's
//! matches and extracts, so a run overshoots its deadline by at most one
//! short stretch of matching plus extraction.
//!
//! ## Allocation
//!
//! A match round makes millions of class visits on a cliff input, so the
//! e-match itself reads tags and class ids and allocates nothing:
//!
//! * **Tag-ranged scans.** `rebuild` leaves a class's e-nodes sorted by
//!   `(tag, payload, kids)`, and a match phase adds no e-node to an
//!   existing class, so the nodes an op can meet — those of its tag — are
//!   one run of the list, found by binary search. The rest are never
//!   touched: over the full catalog at 256 steps, `synthetic_hidden_join(1)`
//!   met 20.4 M e-nodes in a node-by-node scan, of which 0.43 M had the
//!   op's tag.
//! * **Slot rows in one buffer.** A binding is a row of class ids, one per
//!   metavariable, in a buffer the round reuses. Each hit list is a run of
//!   rows on a stack in that buffer: binding a variable or recording a hit
//!   copies a row to the top, and a node's kids or a chain's segments drop
//!   their intermediate lists when done, so the rows that stay are the
//!   scheduled matches' bindings. Any slot count fits without a heap
//!   fallback.
//! * **Reused cursors.** Chain cursors and match remainders are runs in two
//!   more round buffers, and the peel table keeps its maps between rounds.
//!   Chain segment starts are computed once per compiled alternative.

use crate::budget::{Budget, RewriteReport, StopReason};
use crate::dtree::RuleIndex;
use crate::egraph::{ClassId, EGraph, ENode};
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
    /// rules stay in it and the match round skips them, exactly as the
    /// fixpoint engine's candidate scan does.
    pub index: &'r RuleIndex,
    /// Per-position activity mask (`None` = all active).
    pub active: Option<&'r [bool]>,
    /// Each position's compiled program, shared with the fixpoint engine:
    /// built the first time either engine consults the position.
    pub progs: &'r mut [Option<Program>],
    /// The engine's match-phase odometers, advanced in place.
    pub stats: &'r mut MatchStats,
}

/// Lifetime odometers of saturation's match phases (see
/// [`crate::EngineStats`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MatchStats {
    /// `EMatch::class` calls.
    pub visits: u64,
    /// Classes made while matching: `fold_cursor`'s folds of a chain
    /// cursor that a trailing chain metavariable binds.
    pub classes: u64,
}

/// Max e-match bindings enumerated per (class, rule) per round.
const MATCH_CAP: usize = 24;

/// Register the fixpoint trajectory (input, every intermediate, output),
/// already interned and right-normalized by the wave, and union it into one
/// root class. Returns the root.
pub fn seed_trajectory(eg: &mut EGraph, trajectory: &[ITerm]) -> ClassId {
    let (input, steps) = trajectory
        .split_first()
        .expect("a trajectory starts at its input");
    let root = eg.add_term(input);
    for t in steps {
        let c = eg.add_term(t);
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
/// position.
pub(crate) fn saturate_from_trajectory(
    trajectory: &[ITerm],
    params: SaturationParams,
    budget: &Budget,
    cost: &dyn CostModel,
    report: &mut RewriteReport,
    on_fire: &mut dyn FnMut(usize),
    it: &mut Interner,
) -> Query {
    let mut eg = EGraph::new();
    let root = seed_trajectory(&mut eg, trajectory);
    let mut sat = Sat {
        eg,
        params,
        it,
        reps: Vec::new(),
        peel: PeelTable::default(),
        bufs: MatchBufs::default(),
    };
    'outer: loop {
        if report.steps >= budget.max_steps {
            report.stop = StopReason::BudgetExhausted;
            break;
        }
        if budget.expired() {
            report.stop = StopReason::DeadlineExpired;
            break;
        }
        // Matching only adds classes (chain folds), so the classes below
        // `bound` are exactly those the round began with, and their
        // representatives are what they were before the match.
        let bound = sat.eg.id_bound();
        let Some(matches) = sat.match_round(report, budget) else {
            report.stop = StopReason::DeadlineExpired;
            break;
        };
        if matches
            .iter()
            .any(|m| !sat.params.rules[m.pos].rule.preconditions.is_empty())
        {
            sat.refresh_reps(cost, bound);
        }
        let before = sat.eg.version();
        let mut progressed = false;
        for m in matches {
            if report.steps >= budget.max_steps {
                report.stop = StopReason::BudgetExhausted;
                sat.eg.rebuild();
                break 'outer;
            }
            if budget.expired() {
                report.stop = StopReason::DeadlineExpired;
                sat.eg.rebuild();
                break 'outer;
            }
            let v = sat.eg.version();
            let applied = sat.apply(&m);
            if applied && sat.eg.version() != v {
                report.steps += 1;
                report.record_fire(&sat.params.rules[m.pos].rule.id);
                on_fire(m.pos);
                progressed = true;
            }
        }
        sat.eg.rebuild();
        if !progressed && sat.eg.version() == before {
            report.stop = StopReason::NormalForm;
            break;
        }
    }

    let Sat { eg, it, .. } = sat;
    match Extractor::new(&eg, cost).term(&eg, root, it) {
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
/// program's `i`-th metavariable. Consistency is canonical-class equality:
/// two syntactically different binding candidates in one class are
/// provably equal, so unifying them is sound — strictly more matches than
/// the pointer-equality the destructive matcher requires.
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

struct Sat<'s, 'r, 'a> {
    eg: EGraph,
    params: SaturationParams<'r, 'a>,
    it: &'s mut Interner,
    /// Representative (cheapest) term per raw class id, as of the last
    /// refresh; `None` while a class has no finite-cost realization yet,
    /// and for classes made since.
    reps: Vec<Option<ITerm>>,
    /// The current match round's chain splits.
    peel: PeelTable,
    bufs: MatchBufs,
}

/// The match phase's working memory, cleared at the start of every round
/// and grown only while a round needs more than any before it.
#[derive(Default)]
struct MatchBufs {
    /// Slot rows, each one e-match's slot count wide (at least 1): the hit
    /// lists of the e-match in progress on a stack, and below them the
    /// bindings of every match the round has scheduled.
    rows: Vec<ClassId>,
    /// Chain cursors on a stack, one per level of chain recursion, each a
    /// run of classes whose composition is the chain left to match.
    cursors: Vec<ClassId>,
    /// The scheduled matches' unconsumed chain suffixes.
    rests: Vec<ClassId>,
    /// The suffix of each hit of the chain head in progress, in hit order.
    hit_rests: Vec<Range<usize>>,
}

impl Sat<'_, '_, '_> {
    fn rep(&self, c: ClassId) -> Option<&ITerm> {
        self.reps
            .get(self.eg.find(c) as usize)
            .and_then(Option::as_ref)
    }

    /// Re-extract the representative of every class with a raw id below
    /// `bound`; later classes get none.
    fn refresh_reps(&mut self, cost: &dyn CostModel, bound: usize) {
        let ext = Extractor::new(&self.eg, cost);
        let mut reps: Vec<Option<ITerm>> = vec![None; bound];
        for c in self.eg.class_ids().filter(|&c| (c as usize) < bound) {
            reps[c as usize] = ext.term(&self.eg, c, self.it);
        }
        self.reps = reps;
    }

    /// Collect this round's matches. Deterministic: classes ascending,
    /// candidates ascending, alternatives and e-nodes in canonical order.
    /// The deadline is read before each (class, rule) pair; `None` when it
    /// expired mid-round, and the round's matches are dropped.
    fn match_round(&mut self, report: &RewriteReport, budget: &Budget) -> Option<Vec<Match>> {
        let mut out = Vec::new();
        let mut cand: Vec<usize> = Vec::new();
        let (rules, index) = (self.params.rules, self.params.index);
        let classes: Vec<ClassId> = self.eg.class_ids().collect();
        let bound = self.eg.id_bound();
        self.peel.reset(bound);
        self.bufs.rows.clear();
        self.bufs.rests.clear();
        let mut visits = 0u64;
        let mut expired = false;
        for &c in &classes {
            // Walk the discrimination tree against the class itself: every
            // `Sym` edge branches over every same-tagged e-node, so no
            // member's shape is hidden behind a cheaper representative.
            let Some(level) = self.eg.nodes(c).first().map(|n| Level::of(n.tag)) else {
                continue;
            };
            match level {
                Level::F => index.func_candidates_class(&self.eg, c, &mut cand),
                Level::P => index.pred_candidates_class(&self.eg, c, &mut cand),
                Level::Q => index.query_candidates_class(&self.eg, c, &mut cand),
            }
            for &pos in &cand {
                expired = budget.expired();
                if expired {
                    break;
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
                visits += ematch_rule(
                    &mut self.eg,
                    &mut self.peel,
                    &mut self.bufs,
                    budget,
                    prog,
                    level,
                    c,
                    pos,
                    &mut out,
                );
            }
            if expired {
                break;
            }
        }
        // Only `fold_cursor` adds classes while matching.
        self.params.stats.visits += visits;
        self.params.stats.classes += (self.eg.id_bound() - bound) as u64;
        (!expired && !budget.expired()).then_some(out)
    }

    /// Apply one scheduled match: check preconditions on representatives,
    /// build the body into the e-graph, union it with the matched class.
    /// Returns false when the application was skipped (failed precondition
    /// or unbound variable — the latter mirrors the fixpoint engine's
    /// contained `RuleFailed`).
    fn apply(&mut self, m: &Match) -> bool {
        let o = &self.params.rules[m.pos];
        let prog = self.params.progs[m.pos].as_ref();
        let alt = &prog.expect("a matched rule's program is compiled").alts[m.alt];
        let slots = &self.bufs.rows[m.slots..m.slots + alt.names.len()];
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
        let Ok(body) = alt.run_build(|i| slots[i], &mut self.eg) else {
            return false;
        };
        let result = if m.remainder.is_empty() {
            body
        } else {
            let tail = fold_cursor(&mut self.eg, &self.bufs.rests[m.remainder.clone()]);
            self.eg.compose(body, tail)
        };
        self.eg.union(m.class, result);
        true
    }
}

/// Saturation builds rule bodies as e-nodes: one `add` per built node, and
/// `∘` as a plain e-node — classes carry no associativity discipline.
impl Sink for EGraph {
    type Node = ClassId;

    fn mk(&mut self, tag: Tag, payload: PayloadRef<'_>, kids: &[ClassId]) -> ClassId {
        self.add(ENode {
            tag,
            payload: payload.to_owned(),
            kids: kids.into(),
        })
    }

    fn compose(&mut self, a: ClassId, b: ClassId) -> ClassId {
        self.mk(Tag::FCompose, PayloadRef::None, &[a, b])
    }
}

/// E-match the alternatives of `prog` at class `c` in rule order, those of
/// the class's level, and schedule every hit. Each alternative runs with
/// the rest of [`MATCH_CAP`] as its fuel; none starts once the cap is
/// reached. Returns its class visits.
#[allow(clippy::too_many_arguments)]
fn ematch_rule(
    eg: &mut EGraph,
    peel: &mut PeelTable,
    bufs: &mut MatchBufs,
    budget: &Budget,
    prog: &Program,
    level: Level,
    c: ClassId,
    pos: usize,
    out: &mut Vec<Match>,
) -> u64 {
    let mut found = 0usize;
    let mut visits = 0u64;
    for (ai, alt) in prog.alts.iter().enumerate() {
        if found >= MATCH_CAP {
            break;
        }
        if alt.level != level {
            continue;
        }
        // The hits land after an all-unbound row, which is dropped after.
        let width = alt.names.len().max(1);
        let unbound = bufs.rows.len();
        bufs.rows.resize(unbound + width, 0);
        let mut m = EMatch {
            eg: &mut *eg,
            peel: &mut *peel,
            bufs: &mut *bufs,
            budget,
            alt,
            width,
            fuel: MATCH_CAP - found,
            visits: 0,
        };
        if alt.chain {
            m.bufs.cursors.push(c);
            m.chain(&alt.head_segs, 0..1, unbound, CHAIN_DEPTH, true);
            m.bufs.cursors.clear();
        } else {
            m.class(0, c, unbound, CHAIN_DEPTH);
        }
        visits += u64::from(m.visits);
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
    visits
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
    /// Mutable only to fold chain cursors into classes.
    eg: &'g mut EGraph,
    /// The round's chain splits, filled on first ask.
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
}

/// Class visits between two deadline reads inside one e-match. One
/// (class, rule) pair of a cliff round makes millions of visits, tens of
/// nanoseconds each.
const DEADLINE_EVERY: u32 = 1024;

impl<'p> EMatch<'_, 'p> {
    /// Match the subpattern at `ops[pc]` against class `c` under the
    /// bindings in row `b`: a variable binds the class, a `∘` goes through
    /// full-consumption chain matching (so association differences between
    /// pattern and class cannot hide a match), anything else backtracks
    /// over the class's e-nodes of the op's tag.
    fn class(&mut self, pc: usize, c: ClassId, b: usize, depth: usize) {
        self.visits = self.visits.wrapping_add(1);
        if self.visits.is_multiple_of(DEADLINE_EVERY) && self.budget.expired() {
            self.fuel = 0;
        }
        if self.fuel == 0 || depth == 0 {
            return;
        }
        let c = self.eg.find(c);
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
        // Matching adds classes (chain folds) but never e-nodes to an
        // existing class, so `c`'s node list is stable under the walk, and
        // sorted, so the nodes of one tag are a run of it.
        let nodes = tag_run(self.eg.nodes(c), tag);
        for k in nodes {
            if self.fuel == 0 {
                return;
            }
            self.node(pc, c, k, b, depth);
        }
    }

    /// Match the op at `ops[pc]` against the `k`-th e-node of class `c`,
    /// which has the op's tag.
    fn node(&mut self, pc: usize, c: ClassId, k: usize, b: usize, depth: usize) {
        let n = &self.eg.nodes(c)[k];
        let hit = match &self.alt.matcher[pc] {
            MatchOp::Node(_, arity) => {
                if *arity > 0 {
                    let kids = n.kids;
                    debug_assert_eq!(kids.len(), *arity);
                    return self.kids(pc + 1, &kids, b, depth - 1);
                }
                true
            }
            MatchOp::Sym(_, s) => matches!(&n.payload, Payload::Sym(x) if x == s),
            MatchOp::Bool(v) => matches!(n.payload, Payload::Bool(x) if x == *v),
            MatchOp::Lit(v) => matches!(&n.payload, Payload::Value(w) if w.as_ref() == v),
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
        if self.fuel == 0 || depth == 0 || cursor.is_empty() {
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
            for i in self.peel.splits_of(self.eg, head, depth) {
                if self.fuel == 0 {
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
            let folded = fold_cursor(self.eg, &self.bufs.cursors[cursor]);
            let c = self.eg.find(folded);
            if self.bind(b, var, c) {
                self.fuel = self.fuel.saturating_sub(1);
                if keep_rest {
                    let at = self.bufs.rests.len();
                    self.bufs.hit_rests.push(at..at);
                }
            }
            return;
        }
        for i in self.peel.splits_of(self.eg, head, depth) {
            if self.fuel == 0 {
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

    /// Push a copy of row `b` with the variable's slot holding the
    /// canonical class `c`; nothing when the slot already holds another
    /// class. Returns whether it pushed.
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
    debug_assert!(nodes.is_sorted(), "a class's e-nodes are sorted");
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

/// A list of peeled tail classes as a hash-consed snoc cell: with
/// `cells[k] == (prev, c)`, cell `k > 0` stands for cell `prev`'s list
/// followed by `c`, and [`EMPTY`] for the empty list. Equal lists get
/// equal cells, so a split is two words and deduplicates by value.
type Cell = u32;

/// The empty tail.
const EMPTY: Cell = 0;

/// One match round's chain splits. A split of the cursor `c, rest…` peels
/// one chain segment off its head class `c`: `(segment class, tail ++
/// rest)`, where the tail is the classes the peel uncovered on its way
/// down `c`'s `∘` e-nodes. The class itself is a segment when it has a
/// non-`∘` e-node; each `∘` e-node `h ∘ t` contributes the splits of `h`
/// one level down, each with `t` appended to its tail, except when `h` is
/// `c` itself (a cyclic chain class). First occurrence wins, so an entry
/// lists its splits in depth-first peel order, without repeats.
///
/// The splits of a cursor depend only on its head class and the depth
/// left, and stay fixed for a round: the match phase unions nothing, so no
/// existing class gains an e-node, and the classes `fold_cursor` adds are
/// bound into slots but never enter a cursor. An entry is therefore built
/// once per (canonical class, depth), from the head classes' own entries,
/// and the table is dropped with the round.
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
    /// first ask.
    fn splits_of(&mut self, eg: &EGraph, c: ClassId, depth: usize) -> Range<usize> {
        if depth == 0 {
            return 0..0;
        }
        let c = eg.find(c);
        if let Some(r) = self.entries.get(&(c, depth)) {
            return r.clone();
        }
        debug_assert!(
            (c as usize) < self.bound,
            "class {c} was made during the match phase"
        );
        let nodes = eg.nodes(c);
        let composes = &nodes[tag_run(nodes, Tag::FCompose)];
        // Fill the heads' entries first, so this one is written in one
        // piece at the end of `splits`.
        for n in composes {
            let head = eg.find(n.kids[0]);
            if head != c {
                self.splits_of(eg, head, depth - 1);
            }
        }
        let start = self.splits.len();
        self.seen.clear();
        if composes.len() < nodes.len() {
            self.seen.insert((c, EMPTY));
            self.splits.push((c, EMPTY));
        }
        for n in composes {
            let head = eg.find(n.kids[0]);
            if head == c {
                continue;
            }
            let tail = eg.find(n.kids[1]);
            for i in self.splits_of(eg, head, depth - 1) {
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

/// Fold a cursor back into a single class, right-associated.
fn fold_cursor(eg: &mut EGraph, cursor: &[ClassId]) -> ClassId {
    let mut iter = cursor.iter().rev();
    let mut acc = *iter.next().expect("fold_cursor: non-empty cursor");
    for &c in iter {
        acc = eg.compose(c, acc);
    }
    acc
}
