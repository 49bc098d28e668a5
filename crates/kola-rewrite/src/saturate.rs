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

use crate::budget::{Budget, RewriteReport, StopReason};
use crate::dtree::RuleIndex;
use crate::egraph::{ClassId, EGraph, ENode};
use crate::engine::Oriented;
use crate::extract::{CostModel, Extractor};
use crate::program::{compose_segments, head_segments, subtree_end, Level, MatchOp, Program, Sink};
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
    let kid_costs: Vec<u64> = t.kids().iter().map(|k| term_cost(k, cost)).collect();
    cost.node_cost(t.tag(), t.payload(), &kid_costs)
}

/// Slot-valued bindings: slot `i` holds the canonical class bound to the
/// rule program's `i`-th metavariable. Consistency is canonical-class
/// equality: two syntactically different binding candidates in one class
/// are provably equal, so unifying them is sound — strictly more matches
/// than the pointer-equality the destructive matcher requires.
type Slots = Vec<ClassId>;

/// One scheduled rule application: rule position, the alternative whose
/// head matched, the matched class, bindings, and (for function rules) the
/// unconsumed chain suffix.
struct Match {
    pos: usize,
    /// Index into the program's alternatives — the body built must belong
    /// to the same alternative the head match bound.
    alt: usize,
    class: ClassId,
    slots: Slots,
    /// Chain segments left over after a prefix match (function level only);
    /// the instantiated body is re-composed onto them.
    remainder: Vec<ClassId>,
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
        let mut peel = PeelTable::new(self.eg.id_bound());
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
                if budget.expired() {
                    return None;
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
                ematch_rule(
                    &mut self.eg,
                    &mut peel,
                    budget,
                    prog,
                    level,
                    c,
                    pos,
                    &mut out,
                );
            }
        }
        (!budget.expired()).then_some(out)
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
        if !o.rule.preconditions.is_empty() {
            // Each precondition is judged on its bound function class's
            // representative; properties are semantic, so any member's
            // verdict stands for the class. A bound function class with no
            // representative skips the application.
            let unrepresented = alt
                .names
                .iter()
                .zip(&m.slots)
                .any(|((kind, _), &c)| *kind == VarKind::Func && self.rep(c).is_none());
            if unrepresented || !alt.preconditions_hold(|i| self.rep(m.slots[i]), self.params.props)
            {
                return false;
            }
        }
        let Ok(body) = alt.run_build(|i| m.slots[i], &mut self.eg) else {
            return false;
        };
        let result = if m.remainder.is_empty() {
            body
        } else {
            let tail = fold_cursor(&mut self.eg, &m.remainder);
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
            kids: kids.to_vec(),
        })
    }

    fn compose(&mut self, a: ClassId, b: ClassId) -> ClassId {
        self.mk(Tag::FCompose, PayloadRef::None, &[a, b])
    }
}

/// E-match the alternatives of `prog` at class `c` in rule order, those of
/// the class's level, and schedule every hit. Each alternative runs with
/// the rest of [`MATCH_CAP`] as its fuel; none starts once the cap is
/// reached.
#[allow(clippy::too_many_arguments)]
fn ematch_rule(
    eg: &mut EGraph,
    peel: &mut PeelTable,
    budget: &Budget,
    prog: &Program,
    level: Level,
    c: ClassId,
    pos: usize,
    out: &mut Vec<Match>,
) {
    let mut found = 0usize;
    for (ai, alt) in prog.alts.iter().enumerate() {
        if found >= MATCH_CAP {
            break;
        }
        if alt.level != level {
            continue;
        }
        let mut m = EMatch {
            eg: &mut *eg,
            peel: &mut *peel,
            budget,
            ops: &alt.matcher,
            fuel: MATCH_CAP - found,
            visits: 0,
        };
        let unbound = vec![0; alt.names.len()];
        let mut hits: Vec<(Slots, Vec<ClassId>)> = Vec::new();
        if alt.chain {
            let segs = head_segments(&alt.matcher);
            m.chain(&segs, &[c], &unbound, &mut hits, CHAIN_DEPTH);
        } else {
            let mut whole = Vec::new();
            m.class(0, c, &unbound, &mut whole, CHAIN_DEPTH);
            hits.extend(whole.into_iter().map(|s| (s, Vec::new())));
        }
        found += hits.len();
        out.extend(hits.into_iter().map(|(slots, remainder)| Match {
            pos,
            alt: ai,
            class: c,
            slots,
            remainder,
        }));
    }
}

/// One alternative's match list run over e-classes. Where the fixpoint
/// engine checks one term, an op here backtracks over every same-tagged
/// e-node of a class, so each op maps a hit list to a hit list. A node's
/// kids are matched in order, each kid's full hit list before the next kid
/// starts; fuel is spent only by leaf hits and final chain hits.
struct EMatch<'g, 'p> {
    /// Mutable only to fold chain cursors into classes.
    eg: &'g mut EGraph,
    /// The round's chain splits, filled on first ask.
    peel: &'g mut PeelTable,
    /// Its deadline is read every [`DEADLINE_EVERY`] class visits; on
    /// expiry the fuel is spent, so the enumeration unwinds at once.
    budget: &'p Budget,
    ops: &'p [MatchOp],
    fuel: usize,
    visits: u32,
}

/// Class visits between two deadline reads inside one e-match. One
/// (class, rule) pair of a cliff round makes millions of visits, tens of
/// nanoseconds each.
const DEADLINE_EVERY: u32 = 1024;

impl EMatch<'_, '_> {
    /// Match the subpattern at `ops[pc]` against class `c`: a variable
    /// binds the class, a `∘` goes through full-consumption chain matching
    /// (so association differences between pattern and class cannot hide a
    /// match), anything else backtracks over the class's e-nodes.
    fn class(&mut self, pc: usize, c: ClassId, binds: &Slots, out: &mut Vec<Slots>, depth: usize) {
        self.visits = self.visits.wrapping_add(1);
        if self.visits.is_multiple_of(DEADLINE_EVERY) && self.budget.expired() {
            self.fuel = 0;
        }
        if self.fuel == 0 || depth == 0 {
            return;
        }
        let c = self.eg.find(c);
        let ops = self.ops;
        if let Some(var) = var_slot(&ops[pc]) {
            out.extend(bind(binds, var, c));
            return;
        }
        if ops[pc] == MatchOp::Node(Tag::FCompose, 2) {
            let mut segs = Vec::new();
            compose_segments(ops, pc, &mut segs);
            let mut hits = Vec::new();
            self.chain(&segs, &[c], binds, &mut hits, depth);
            // Full consumption only: a sub-pattern chain must equal the
            // whole segment, not a prefix of it.
            out.extend(
                hits.into_iter()
                    .filter(|(_, rest)| rest.is_empty())
                    .map(|(b, _)| b),
            );
            return;
        }
        // Matching adds classes (chain folds) but never e-nodes to an
        // existing class, so `c`'s node list is stable under the walk.
        for k in 0..self.eg.nodes(c).len() {
            if self.fuel == 0 {
                return;
            }
            self.node(pc, c, k, binds, out, depth);
        }
    }

    /// Match the op at `ops[pc]` against the `k`-th e-node of class `c`.
    fn node(
        &mut self,
        pc: usize,
        c: ClassId,
        k: usize,
        binds: &Slots,
        out: &mut Vec<Slots>,
        depth: usize,
    ) {
        let n = &self.eg.nodes(c)[k];
        let hit = match &self.ops[pc] {
            MatchOp::Node(tag, arity) => {
                if n.tag != *tag {
                    return;
                }
                if *arity > 0 {
                    let mut kids = [0; 3];
                    kids[..*arity].copy_from_slice(&n.kids);
                    return self.kids(pc + 1, &kids[..*arity], binds, out, depth - 1);
                }
                true
            }
            MatchOp::Sym(tag, s) => {
                n.tag == *tag && matches!(&n.payload, Payload::Sym(b) if b == s)
            }
            MatchOp::Bool(b) => {
                n.tag == Tag::PConstP && matches!(n.payload, Payload::Bool(v) if v == *b)
            }
            MatchOp::Lit(v) => {
                n.tag == Tag::QLit && matches!(&n.payload, Payload::Value(w) if w.as_ref() == v)
            }
            op => unreachable!("{op:?} never meets an e-node"),
        };
        if hit {
            self.fuel = self.fuel.saturating_sub(1);
            out.push(binds.clone());
        }
    }

    /// Match the kid subpatterns from `ops[pc]` on against `kids`, in
    /// order: every hit of one kid is in before the next kid starts.
    fn kids(
        &mut self,
        mut pc: usize,
        kids: &[ClassId],
        binds: &Slots,
        out: &mut Vec<Slots>,
        depth: usize,
    ) {
        let (&last, init) = kids.split_last().expect("a node op has kids");
        let mut hits: Vec<Slots> = Vec::new();
        for (j, &k) in init.iter().enumerate() {
            let mut next = Vec::new();
            if j == 0 {
                self.class(pc, k, binds, &mut next, depth);
            } else {
                for b in &hits {
                    self.class(pc, k, b, &mut next, depth);
                }
            }
            hits = next;
            pc = subtree_end(self.ops, pc);
        }
        let from = if init.is_empty() {
            std::slice::from_ref(binds)
        } else {
            &hits[..]
        };
        for b in from {
            self.class(pc, last, b, out, depth);
        }
    }

    /// Chain-prefix e-matching: match the segments that start at `segs`
    /// against the chain structure of a cursor (a list of classes whose
    /// composition is the chain), decomposing through `∘` e-nodes. The
    /// rule programs' chain prefix over e-classes: all but the last segment
    /// consume exactly one chain segment; a trailing metavariable swallows
    /// the whole rest; a trailing concrete segment consumes one and leaves
    /// the remainder for re-composition.
    fn chain(
        &mut self,
        segs: &[usize],
        cursor: &[ClassId],
        binds: &Slots,
        out: &mut Vec<(Slots, Vec<ClassId>)>,
        depth: usize,
    ) {
        if self.fuel == 0 || depth == 0 {
            return;
        }
        let ops = self.ops;
        let Some((&head, suffix)) = cursor.split_first() else {
            return;
        };
        let [last] = *segs else {
            let Some((&p, later)) = segs.split_first() else {
                return;
            };
            // Non-final segment: consume exactly one chain segment. A split
            // that matches writes its rest into one buffer the recursion
            // reads.
            let mut rest = Vec::new();
            for i in self.peel.splits_of(self.eg, head, depth) {
                if self.fuel == 0 {
                    return;
                }
                let (seg, tail) = self.peel.splits[i];
                if let Some(var) = var_slot(&ops[p]) {
                    if let Some(b) = bind(binds, var, seg) {
                        self.peel.write_rest(tail, suffix, &mut rest);
                        self.chain(later, &rest, &b, out, depth - 1);
                    }
                } else {
                    let mut seg_hits = Vec::new();
                    self.class(p, seg, binds, &mut seg_hits, depth - 1);
                    if !seg_hits.is_empty() {
                        self.peel.write_rest(tail, suffix, &mut rest);
                    }
                    for b in &seg_hits {
                        self.chain(later, &rest, b, out, depth - 1);
                    }
                }
            }
            return;
        };
        // Final segment.
        if let Some(var) = var_slot(&ops[last]) {
            let folded = fold_cursor(self.eg, cursor);
            if let Some(b) = bind(binds, var, self.eg.find(folded)) {
                self.fuel = self.fuel.saturating_sub(1);
                out.push((b, Vec::new()));
            }
            return;
        }
        for i in self.peel.splits_of(self.eg, head, depth) {
            if self.fuel == 0 {
                return;
            }
            let (seg, tail) = self.peel.splits[i];
            let mut seg_hits = Vec::new();
            self.class(last, seg, binds, &mut seg_hits, depth - 1);
            for b in seg_hits {
                self.fuel = self.fuel.saturating_sub(1);
                let mut rest = Vec::new();
                self.peel.write_rest(tail, suffix, &mut rest);
                out.push((b, rest));
            }
        }
    }
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

/// `binds` with the variable's slot holding the canonical class `c`, or
/// `None` when the slot already holds another class.
fn bind(binds: &Slots, (i, bound): (usize, bool), c: ClassId) -> Option<Slots> {
    if bound {
        return (binds[i] == c).then(|| binds.clone());
    }
    let mut b = binds.clone();
    b[i] = c;
    Some(b)
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
struct PeelTable {
    /// `id_bound` when the round began: every class the table reads lies
    /// below it.
    bound: usize,
    /// (canonical class, depth) → its splits' range in `splits`.
    entries: HashMap<(ClassId, usize), Range<usize>>,
    /// Every entry's splits, one entry's contiguous: (segment, tail).
    splits: Vec<(ClassId, Cell)>,
    /// Snoc cells, `(prev, class)`; index 0 stands for [`EMPTY`].
    cells: Vec<(Cell, ClassId)>,
    cell_ids: HashMap<(Cell, ClassId), Cell>,
}

impl PeelTable {
    fn new(bound: usize) -> PeelTable {
        PeelTable {
            bound,
            entries: HashMap::new(),
            splits: Vec::new(),
            cells: vec![(EMPTY, 0)],
            cell_ids: HashMap::new(),
        }
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
        let mut entry: Vec<(ClassId, Cell)> = Vec::new();
        let mut seen: HashSet<(ClassId, Cell)> = HashSet::new();
        let nodes = eg.nodes(c);
        if nodes.iter().any(|n| n.tag != Tag::FCompose) {
            seen.insert((c, EMPTY));
            entry.push((c, EMPTY));
        }
        for n in nodes.iter().filter(|n| n.tag == Tag::FCompose) {
            let head = eg.find(n.kids[0]);
            if head == c {
                continue;
            }
            let tail = eg.find(n.kids[1]);
            for i in self.splits_of(eg, head, depth - 1) {
                let (seg, prev) = self.splits[i];
                let split = (seg, self.snoc(prev, tail));
                if seen.insert(split) {
                    entry.push(split);
                }
            }
        }
        let r = self.splits.len()..self.splits.len() + entry.len();
        self.splits.extend(entry);
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

    /// Overwrite `buf` with `tail`'s classes followed by `suffix`.
    fn write_rest(&self, mut tail: Cell, suffix: &[ClassId], buf: &mut Vec<ClassId>) {
        buf.clear();
        while tail != EMPTY {
            let (prev, c) = self.cells[tail as usize];
            buf.push(c);
            tail = prev;
        }
        buf.reverse();
        buf.extend_from_slice(suffix);
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
