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
//!    the *class structure*: metavariables bind e-classes, alternatives
//!    backtrack over every e-node of a class, and function rules use the
//!    same chain-prefix semantics as the fixpoint engine's rule programs
//!    ([`crate::program`]), decomposing chain classes
//!    through their `∘` e-nodes.
//! 2. *Refresh*, only when a matched rule has preconditions: extract a
//!    representative term (cheapest under the engine's cost model) for
//!    every class that existed when the round began. Preconditions are
//!    judged on representatives; nothing else reads them.
//! 3. *Apply*: each match instantiates the rule body as e-nodes and unions
//!    it with the matched class. Every application that changes the graph
//!    costs one budget step.
//! 4. *Rebuild*: restore congruence; if the graph did not change this
//!    round, the rule set is saturated.
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

use crate::budget::{Budget, RewriteReport, StopReason};
use crate::dtree::RuleIndex;
use crate::egraph::{ClassId, EGraph, ENode};
use crate::engine::Oriented;
use crate::extract::{CostModel, Extractor};
use crate::props::{PropDb, PropTerm};
use crate::rule::{Direction, RewritePair, Rule};
use kola::intern::{ITerm, Interner, Payload, Tag};
use kola::pattern::{PFunc, PPred, PQuery};
use kola::term::Query;
use kola::value::Sym;
use std::collections::BTreeMap;

/// Everything the saturation loop needs besides the graph itself.
pub struct SaturationParams<'r, 'a> {
    /// The rule list, in engine order (positions match `index`).
    pub rules: &'r [Oriented<'a>],
    /// Property database for precondition checks.
    pub props: &'r PropDb,
    /// Discrimination tree over `rules` (quarantine pruning already
    /// applied by the caller, exactly as in the fixpoint engine).
    pub index: &'r RuleIndex,
    /// Per-position activity mask (`None` = all active).
    pub active: Option<&'r [bool]>,
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
pub fn saturate_from_trajectory(
    trajectory: &[ITerm],
    params: &SaturationParams,
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
        let matches = sat.match_round(report);
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

/// Class-valued metavariable bindings.
/// Consistency is canonical-class equality: two syntactically different
/// binding candidates in one class are provably equal, so unifying them is
/// sound — strictly more matches than the pointer-equality the destructive
/// matcher requires.
#[derive(Debug, Clone, Default)]
struct EBinds {
    funcs: BTreeMap<Sym, ClassId>,
    preds: BTreeMap<Sym, ClassId>,
    objs: BTreeMap<Sym, ClassId>,
}

impl EBinds {
    fn bind(map: &mut BTreeMap<Sym, ClassId>, v: &Sym, c: ClassId) -> bool {
        match map.get(v) {
            Some(&existing) => existing == c,
            None => {
                map.insert(v.clone(), c);
                true
            }
        }
    }
}

/// One scheduled rule application: rule position, the alternative whose
/// head matched, the matched class, bindings, and (for function rules) the
/// unconsumed chain suffix.
struct Match {
    pos: usize,
    /// Index into the rule's `alts` — the body instantiated must belong to
    /// the same alternative the head match bound.
    alt: usize,
    class: ClassId,
    binds: EBinds,
    /// Chain segments left over after a prefix match (function level only);
    /// the instantiated body is re-composed onto them.
    remainder: Vec<ClassId>,
}

/// Per-round decomposition/enumeration limits. Depth bounds recursion
/// through chain e-nodes (cyclic classes make unbounded descent possible).
const CHAIN_DEPTH: usize = 64;

struct Sat<'s, 'r, 'a> {
    eg: EGraph,
    params: &'s SaturationParams<'r, 'a>,
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
    fn match_round(&mut self, report: &RewriteReport) -> Vec<Match> {
        let mut out = Vec::new();
        let mut cand: Vec<usize> = Vec::new();
        let mut buf: Vec<usize> = Vec::new();
        let classes: Vec<ClassId> = self.eg.class_ids().collect();
        for &c in &classes {
            // Walk the discrimination tree against the class itself: every
            // `Sym` edge branches over every same-tagged e-node, so no
            // member's shape is hidden behind a cheaper representative.
            let level = self.eg.nodes(c).first().map(|n| level_of(n.tag));
            let Some(level) = level else { continue };
            match level {
                Level::F => self
                    .params
                    .index
                    .func_candidates_class(&self.eg, c, &mut buf),
                Level::P => self
                    .params
                    .index
                    .pred_candidates_class(&self.eg, c, &mut buf),
                Level::Q => self
                    .params
                    .index
                    .query_candidates_class(&self.eg, c, &mut buf),
            }
            std::mem::swap(&mut cand, &mut buf);
            for &pos in &cand {
                if self.params.active.is_some_and(|m| !m[pos]) {
                    continue;
                }
                let o = &self.params.rules[pos];
                if report.is_quarantined(&o.rule.id) {
                    continue;
                }
                if o.dir == Direction::Backward && !o.rule.bidirectional {
                    continue;
                }
                self.ematch_rule(o.rule, o.dir, &level, c, pos, &mut out);
            }
        }
        out
    }

    /// E-match one rule (all alternatives of the class's level) and push
    /// scheduled applications, capped at [`MATCH_CAP`] per (class, rule).
    fn ematch_rule(
        &mut self,
        rule: &Rule,
        dir: Direction,
        level: &Level,
        c: ClassId,
        pos: usize,
        out: &mut Vec<Match>,
    ) {
        let cap = MATCH_CAP;
        let mut found = 0usize;
        for (ai, alt) in rule.alts.iter().enumerate() {
            if found >= cap {
                break;
            }
            match (alt, level) {
                (RewritePair::F(l, r), Level::F) => {
                    let head = match dir {
                        Direction::Forward => l,
                        Direction::Backward => r,
                    };
                    let psegs = crate::matching::pchain_segments(head);
                    let mut hits: Vec<(EBinds, Vec<ClassId>)> = Vec::new();
                    let mut fuel = cap.saturating_sub(found);
                    self.ematch_chain(
                        &psegs,
                        &[c],
                        &EBinds::default(),
                        &mut hits,
                        &mut fuel,
                        CHAIN_DEPTH,
                    );
                    for (binds, remainder) in hits {
                        found += 1;
                        out.push(Match {
                            pos,
                            alt: ai,
                            class: c,
                            binds,
                            remainder,
                        });
                    }
                }
                (RewritePair::P(l, r), Level::P) => {
                    let head = match dir {
                        Direction::Forward => l,
                        Direction::Backward => r,
                    };
                    let mut hits: Vec<EBinds> = Vec::new();
                    let mut fuel = cap.saturating_sub(found);
                    self.ematch_pred(
                        head,
                        c,
                        &EBinds::default(),
                        &mut hits,
                        &mut fuel,
                        CHAIN_DEPTH,
                    );
                    for binds in hits {
                        found += 1;
                        out.push(Match {
                            pos,
                            alt: ai,
                            class: c,
                            binds,
                            remainder: Vec::new(),
                        });
                    }
                }
                (RewritePair::Q(l, r), Level::Q) => {
                    let head = match dir {
                        Direction::Forward => l,
                        Direction::Backward => r,
                    };
                    let mut hits: Vec<EBinds> = Vec::new();
                    let mut fuel = cap.saturating_sub(found);
                    self.ematch_query(
                        head,
                        c,
                        &EBinds::default(),
                        &mut hits,
                        &mut fuel,
                        CHAIN_DEPTH,
                    );
                    for binds in hits {
                        found += 1;
                        out.push(Match {
                            pos,
                            alt: ai,
                            class: c,
                            binds,
                            remainder: Vec::new(),
                        });
                    }
                }
                _ => {}
            }
        }
    }

    /// Chain-prefix e-matching: match pattern segments against the chain
    /// structure of a cursor (a list of classes whose composition is the
    /// chain), decomposing through `∘` e-nodes. Mirrors the rule programs'
    /// chain prefix ([`crate::program`]): all but the last segment
    /// consume exactly one chain segment; a trailing metavariable swallows
    /// the whole rest; a trailing concrete segment consumes one and leaves
    /// the remainder for re-composition.
    fn ematch_chain(
        &mut self,
        psegs: &[&PFunc],
        cursor: &[ClassId],
        binds: &EBinds,
        out: &mut Vec<(EBinds, Vec<ClassId>)>,
        fuel: &mut usize,
        depth: usize,
    ) {
        if *fuel == 0 || depth == 0 {
            return;
        }
        let [last] = psegs else {
            let Some(p) = psegs.first() else { return };
            // Non-final segment: consume exactly one chain segment.
            for (seg, rest) in self.segment_splits(cursor, depth) {
                if *fuel == 0 {
                    return;
                }
                if let PFunc::Var(v) = p {
                    let mut b = binds.clone();
                    if EBinds::bind(&mut b.funcs, v, self.eg.find(seg)) {
                        self.ematch_chain(&psegs[1..], &rest, &b, out, fuel, depth - 1);
                    }
                } else {
                    let mut seg_hits: Vec<EBinds> = Vec::new();
                    self.ematch_segment(p, seg, binds, &mut seg_hits, fuel, depth - 1);
                    for b in seg_hits {
                        self.ematch_chain(&psegs[1..], &rest, &b, out, fuel, depth - 1);
                    }
                }
            }
            return;
        };
        // Final pattern segment.
        match last {
            PFunc::Var(v) => {
                if cursor.is_empty() {
                    return;
                }
                let folded = self.fold_cursor(cursor);
                let mut b = binds.clone();
                if EBinds::bind(&mut b.funcs, v, self.eg.find(folded)) {
                    *fuel = fuel.saturating_sub(1);
                    out.push((b, Vec::new()));
                }
            }
            _ => {
                for (seg, rest) in self.segment_splits(cursor, depth) {
                    if *fuel == 0 {
                        return;
                    }
                    let mut seg_hits: Vec<EBinds> = Vec::new();
                    self.ematch_segment(last, seg, binds, &mut seg_hits, fuel, depth - 1);
                    for b in seg_hits {
                        *fuel = fuel.saturating_sub(1);
                        out.push((b, rest.clone()));
                    }
                }
            }
        }
    }

    /// Enumerate ways to peel one chain segment off the cursor:
    /// `(segment class, remaining cursor)`. The head class itself counts as
    /// a segment when it has a non-`∘` e-node; each of its `∘` e-nodes
    /// splits into head and tail. Deduplicated, deterministic order.
    fn segment_splits(&self, cursor: &[ClassId], depth: usize) -> Vec<(ClassId, Vec<ClassId>)> {
        let mut out: Vec<(ClassId, Vec<ClassId>)> = Vec::new();
        if depth == 0 {
            return out;
        }
        let Some((&c0, rest)) = cursor.split_first() else {
            return out;
        };
        let c0 = self.eg.find(c0);
        if self.eg.nodes(c0).iter().any(|n| n.tag != Tag::FCompose) {
            out.push((c0, rest.to_vec()));
        }
        for n in self.eg.nodes(c0) {
            if n.tag != Tag::FCompose {
                continue;
            }
            let head = self.eg.find(n.kids[0]);
            let tail = self.eg.find(n.kids[1]);
            // Guard against cyclic chain classes: never descend back into
            // the class we are decomposing.
            if head == c0 {
                continue;
            }
            let mut sub = Vec::with_capacity(rest.len() + 2);
            sub.push(head);
            sub.push(tail);
            sub.extend_from_slice(rest);
            for split in self.segment_splits(&sub, depth - 1) {
                if !out.contains(&split) {
                    out.push(split);
                }
            }
        }
        out
    }

    /// Fold a cursor back into a single class, right-associated.
    fn fold_cursor(&mut self, cursor: &[ClassId]) -> ClassId {
        let mut iter = cursor.iter().rev();
        let mut acc = *iter.next().expect("fold_cursor: non-empty cursor");
        for &c in iter {
            acc = self.eg.add(ENode {
                tag: Tag::FCompose,
                payload: Payload::None,
                kids: vec![c, acc],
            });
        }
        acc
    }

    /// Match a *non-compose* function pattern against one chain segment
    /// (a class). Compose patterns recurse back through chain matching so
    /// nested chains in either the pattern or the class line up.
    fn ematch_segment(
        &mut self,
        pat: &PFunc,
        c: ClassId,
        binds: &EBinds,
        out: &mut Vec<EBinds>,
        fuel: &mut usize,
        depth: usize,
    ) {
        self.ematch_func(pat, c, binds, out, fuel, depth);
    }

    /// E-match a function pattern against a class: a metavariable binds the
    /// class; anything else backtracks over the class's e-nodes. Compose
    /// patterns go through full-consumption chain matching, so association
    /// differences between pattern and class cannot hide a match.
    fn ematch_func(
        &mut self,
        pat: &PFunc,
        c: ClassId,
        binds: &EBinds,
        out: &mut Vec<EBinds>,
        fuel: &mut usize,
        depth: usize,
    ) {
        if *fuel == 0 || depth == 0 {
            return;
        }
        let c = self.eg.find(c);
        if let PFunc::Var(v) = pat {
            let mut b = binds.clone();
            if EBinds::bind(&mut b.funcs, v, c) {
                out.push(b);
            }
            return;
        }
        if matches!(pat, PFunc::Compose(..)) {
            let psegs = crate::matching::pchain_segments(pat);
            let mut hits: Vec<(EBinds, Vec<ClassId>)> = Vec::new();
            self.ematch_chain(&psegs, &[c], binds, &mut hits, fuel, depth);
            // Full consumption only: a sub-pattern chain must equal the
            // whole segment, not a prefix of it.
            out.extend(
                hits.into_iter()
                    .filter(|(_, rem)| rem.is_empty())
                    .map(|(b, _)| b),
            );
            return;
        }
        let nodes = self.eg.nodes(c).to_vec();
        for node in nodes {
            if *fuel == 0 {
                return;
            }
            self.ematch_func_node(pat, &node, binds, out, fuel, depth);
        }
    }

    fn ematch_func_node(
        &mut self,
        pat: &PFunc,
        n: &ENode,
        binds: &EBinds,
        out: &mut Vec<EBinds>,
        fuel: &mut usize,
        depth: usize,
    ) {
        match (pat, n.tag) {
            (PFunc::Id, Tag::FId)
            | (PFunc::Pi1, Tag::FPi1)
            | (PFunc::Pi2, Tag::FPi2)
            | (PFunc::Flat, Tag::FFlat)
            | (PFunc::Bagify, Tag::FBagify)
            | (PFunc::Dedup, Tag::FDedup)
            | (PFunc::BUnion, Tag::FBUnion)
            | (PFunc::BFlat, Tag::FBFlat)
            | (PFunc::SetUnion, Tag::FSetUnion)
            | (PFunc::SetIntersect, Tag::FSetIntersect)
            | (PFunc::SetDiff, Tag::FSetDiff) => {
                *fuel = fuel.saturating_sub(1);
                out.push(binds.clone());
            }
            (PFunc::Prim(a), Tag::FPrim) => {
                if matches!(&n.payload, Payload::Sym(b) if a == b) {
                    *fuel = fuel.saturating_sub(1);
                    out.push(binds.clone());
                }
            }
            (PFunc::PairWith(p1, p2), Tag::FPairWith)
            | (PFunc::Times(p1, p2), Tag::FTimes)
            | (PFunc::Nest(p1, p2), Tag::FNest)
            | (PFunc::Unnest(p1, p2), Tag::FUnnest)
                if same_ff(pat, n.tag) =>
            {
                let mut mid = Vec::new();
                self.ematch_func(p1, n.kids[0], binds, &mut mid, fuel, depth - 1);
                for b in mid {
                    self.ematch_func(p2, n.kids[1], &b, out, fuel, depth - 1);
                }
            }
            (PFunc::ConstF(pq), Tag::FConstF) => {
                self.ematch_query(pq, n.kids[0], binds, out, fuel, depth - 1);
            }
            (PFunc::CurryF(pf, pq), Tag::FCurryF) => {
                let mut mid = Vec::new();
                self.ematch_func(pf, n.kids[0], binds, &mut mid, fuel, depth - 1);
                for b in mid {
                    self.ematch_query(pq, n.kids[1], &b, out, fuel, depth - 1);
                }
            }
            (PFunc::Cond(pp, pf, pg), Tag::FCond) => {
                let mut mid = Vec::new();
                self.ematch_pred(pp, n.kids[0], binds, &mut mid, fuel, depth - 1);
                let mut mid2 = Vec::new();
                for b in mid {
                    self.ematch_func(pf, n.kids[1], &b, &mut mid2, fuel, depth - 1);
                }
                for b in mid2 {
                    self.ematch_func(pg, n.kids[2], &b, out, fuel, depth - 1);
                }
            }
            (PFunc::Iterate(pp, pf), Tag::FIterate)
            | (PFunc::Iter(pp, pf), Tag::FIter)
            | (PFunc::Join(pp, pf), Tag::FJoin)
            | (PFunc::BIterate(pp, pf), Tag::FBIterate)
                if same_pf_iter(pat, n.tag) =>
            {
                let mut mid = Vec::new();
                self.ematch_pred(pp, n.kids[0], binds, &mut mid, fuel, depth - 1);
                for b in mid {
                    self.ematch_func(pf, n.kids[1], &b, out, fuel, depth - 1);
                }
            }
            _ => {}
        }
    }

    fn ematch_pred(
        &mut self,
        pat: &PPred,
        c: ClassId,
        binds: &EBinds,
        out: &mut Vec<EBinds>,
        fuel: &mut usize,
        depth: usize,
    ) {
        if *fuel == 0 || depth == 0 {
            return;
        }
        let c = self.eg.find(c);
        if let PPred::Var(v) = pat {
            let mut b = binds.clone();
            if EBinds::bind(&mut b.preds, v, c) {
                out.push(b);
            }
            return;
        }
        let nodes = self.eg.nodes(c).to_vec();
        for n in nodes {
            if *fuel == 0 {
                return;
            }
            match (pat, n.tag) {
                (PPred::Eq, Tag::PEq)
                | (PPred::Lt, Tag::PLt)
                | (PPred::Leq, Tag::PLeq)
                | (PPred::Gt, Tag::PGt)
                | (PPred::Geq, Tag::PGeq)
                | (PPred::In, Tag::PIn) => {
                    *fuel = fuel.saturating_sub(1);
                    out.push(binds.clone());
                }
                (PPred::PrimP(a), Tag::PPrimP) => {
                    if matches!(&n.payload, Payload::Sym(b) if a == b) {
                        *fuel = fuel.saturating_sub(1);
                        out.push(binds.clone());
                    }
                }
                (PPred::ConstP(a), Tag::PConstP) => {
                    if matches!(&n.payload, Payload::Bool(b) if *a == *b) {
                        *fuel = fuel.saturating_sub(1);
                        out.push(binds.clone());
                    }
                }
                (PPred::Oplus(pp, pf), Tag::POplus) => {
                    let mut mid = Vec::new();
                    self.ematch_pred(pp, n.kids[0], binds, &mut mid, fuel, depth - 1);
                    for b in mid {
                        self.ematch_func(pf, n.kids[1], &b, out, fuel, depth - 1);
                    }
                }
                (PPred::And(p1, p2), Tag::PAnd) | (PPred::Or(p1, p2), Tag::POr)
                    if same_pp2(pat, n.tag) =>
                {
                    let mut mid = Vec::new();
                    self.ematch_pred(p1, n.kids[0], binds, &mut mid, fuel, depth - 1);
                    for b in mid {
                        self.ematch_pred(p2, n.kids[1], &b, out, fuel, depth - 1);
                    }
                }
                (PPred::Not(p), Tag::PNot) | (PPred::Conv(p), Tag::PConv)
                    if same_pp1(pat, n.tag) =>
                {
                    self.ematch_pred(p, n.kids[0], binds, out, fuel, depth - 1);
                }
                (PPred::CurryP(pp, pq), Tag::PCurryP) => {
                    let mut mid = Vec::new();
                    self.ematch_pred(pp, n.kids[0], binds, &mut mid, fuel, depth - 1);
                    for b in mid {
                        self.ematch_query(pq, n.kids[1], &b, out, fuel, depth - 1);
                    }
                }
                _ => {}
            }
        }
    }

    fn ematch_query(
        &mut self,
        pat: &PQuery,
        c: ClassId,
        binds: &EBinds,
        out: &mut Vec<EBinds>,
        fuel: &mut usize,
        depth: usize,
    ) {
        if *fuel == 0 || depth == 0 {
            return;
        }
        let c = self.eg.find(c);
        if let PQuery::Var(v) = pat {
            let mut b = binds.clone();
            if EBinds::bind(&mut b.objs, v, c) {
                out.push(b);
            }
            return;
        }
        let nodes = self.eg.nodes(c).to_vec();
        for n in nodes {
            if *fuel == 0 {
                return;
            }
            match (pat, n.tag) {
                (PQuery::Lit(a), Tag::QLit) => {
                    if matches!(&n.payload, Payload::Value(b) if b.as_ref() == a) {
                        *fuel = fuel.saturating_sub(1);
                        out.push(binds.clone());
                    }
                }
                (PQuery::Extent(a), Tag::QExtent) => {
                    if matches!(&n.payload, Payload::Sym(b) if a == b) {
                        *fuel = fuel.saturating_sub(1);
                        out.push(binds.clone());
                    }
                }
                (PQuery::PairQ(p1, p2), Tag::QPairQ)
                | (PQuery::Union(p1, p2), Tag::QUnion)
                | (PQuery::Intersect(p1, p2), Tag::QIntersect)
                | (PQuery::Diff(p1, p2), Tag::QDiff)
                    if same_qq2(pat, n.tag) =>
                {
                    let mut mid = Vec::new();
                    self.ematch_query(p1, n.kids[0], binds, &mut mid, fuel, depth - 1);
                    for b in mid {
                        self.ematch_query(p2, n.kids[1], &b, out, fuel, depth - 1);
                    }
                }
                (PQuery::App(pf, pq), Tag::QApp) => {
                    let mut mid = Vec::new();
                    self.ematch_func(pf, n.kids[0], binds, &mut mid, fuel, depth - 1);
                    for b in mid {
                        self.ematch_query(pq, n.kids[1], &b, out, fuel, depth - 1);
                    }
                }
                (PQuery::Test(pp, pq), Tag::QTest) => {
                    let mut mid = Vec::new();
                    self.ematch_pred(pp, n.kids[0], binds, &mut mid, fuel, depth - 1);
                    for b in mid {
                        self.ematch_query(pq, n.kids[1], &b, out, fuel, depth - 1);
                    }
                }
                _ => {}
            }
        }
    }

    /// Apply one scheduled match: check preconditions on representatives,
    /// instantiate the body as e-nodes, union with the matched class.
    /// Returns false when the application was skipped (failed precondition
    /// or unbound variable — the latter mirrors the fixpoint engine's
    /// contained `RuleFailed`).
    fn apply(&mut self, m: &Match) -> bool {
        let o = &self.params.rules[m.pos];
        if !o.rule.preconditions.is_empty() {
            // Each precondition is judged on its bound function class's
            // representative; properties are semantic, so any member's
            // verdict stands for the class. A bound class with no
            // representative skips the application.
            if m.binds.funcs.values().any(|&c| self.rep(c).is_none()) {
                return false;
            }
            let holds = o.rule.preconditions.iter().all(|p| match &p.subject {
                PropTerm::FuncVar(name) => m
                    .binds
                    .funcs
                    .get(name)
                    .and_then(|&c| self.rep(c))
                    .is_some_and(|t| self.params.props.holds_interned(p.prop, t)),
            });
            if !holds {
                return false;
            }
        }
        // The body must come from the same alternative whose head produced
        // the bindings — alts of one rule need not share variable sets.
        let level = class_level(&self.eg, m.class);
        match (&o.rule.alts[m.alt], &level) {
            (RewritePair::F(l, r), Some(Level::F)) => {
                let body = match o.dir {
                    Direction::Forward => r,
                    Direction::Backward => l,
                };
                let Ok(body_c) = self.einst_func(body, &m.binds) else {
                    return false;
                };
                let result = if m.remainder.is_empty() {
                    body_c
                } else {
                    let tail = self.fold_cursor(&m.remainder);
                    self.eg.add(ENode {
                        tag: Tag::FCompose,
                        payload: Payload::None,
                        kids: vec![body_c, tail],
                    })
                };
                self.eg.union(m.class, result);
                true
            }
            (RewritePair::P(l, r), Some(Level::P)) => {
                let body = match o.dir {
                    Direction::Forward => r,
                    Direction::Backward => l,
                };
                let Ok(body_c) = self.einst_pred(body, &m.binds) else {
                    return false;
                };
                self.eg.union(m.class, body_c);
                true
            }
            (RewritePair::Q(l, r), Some(Level::Q)) => {
                let body = match o.dir {
                    Direction::Forward => r,
                    Direction::Backward => l,
                };
                let Ok(body_c) = self.einst_query(body, &m.binds) else {
                    return false;
                };
                self.eg.union(m.class, body_c);
                true
            }
            _ => false,
        }
    }

    fn einst_func(&mut self, pat: &PFunc, binds: &EBinds) -> Result<ClassId, ()> {
        macro_rules! leaf {
            ($tag:expr) => {
                Ok(self.eg.add(ENode::leaf($tag, Payload::None)))
            };
        }
        macro_rules! node {
            ($tag:expr, $kids:expr) => {{
                let kids = $kids;
                Ok(self.eg.add(ENode {
                    tag: $tag,
                    payload: Payload::None,
                    kids,
                }))
            }};
        }
        match pat {
            PFunc::Var(v) => binds.funcs.get(v).copied().ok_or(()),
            PFunc::Id => leaf!(Tag::FId),
            PFunc::Pi1 => leaf!(Tag::FPi1),
            PFunc::Pi2 => leaf!(Tag::FPi2),
            PFunc::Flat => leaf!(Tag::FFlat),
            PFunc::Bagify => leaf!(Tag::FBagify),
            PFunc::Dedup => leaf!(Tag::FDedup),
            PFunc::BUnion => leaf!(Tag::FBUnion),
            PFunc::BFlat => leaf!(Tag::FBFlat),
            PFunc::SetUnion => leaf!(Tag::FSetUnion),
            PFunc::SetIntersect => leaf!(Tag::FSetIntersect),
            PFunc::SetDiff => leaf!(Tag::FSetDiff),
            PFunc::Prim(n) => Ok(self
                .eg
                .add(ENode::leaf(Tag::FPrim, Payload::Sym(n.clone())))),
            PFunc::Compose(a, b) => {
                let ia = self.einst_func(a, binds)?;
                let ib = self.einst_func(b, binds)?;
                node!(Tag::FCompose, vec![ia, ib])
            }
            PFunc::PairWith(a, b) => {
                let k = vec![self.einst_func(a, binds)?, self.einst_func(b, binds)?];
                node!(Tag::FPairWith, k)
            }
            PFunc::Times(a, b) => {
                let k = vec![self.einst_func(a, binds)?, self.einst_func(b, binds)?];
                node!(Tag::FTimes, k)
            }
            PFunc::ConstF(q) => {
                let k = vec![self.einst_query(q, binds)?];
                node!(Tag::FConstF, k)
            }
            PFunc::CurryF(f, q) => {
                let k = vec![self.einst_func(f, binds)?, self.einst_query(q, binds)?];
                node!(Tag::FCurryF, k)
            }
            PFunc::Cond(p, f, g) => {
                let k = vec![
                    self.einst_pred(p, binds)?,
                    self.einst_func(f, binds)?,
                    self.einst_func(g, binds)?,
                ];
                node!(Tag::FCond, k)
            }
            PFunc::Iterate(p, f) => {
                let k = vec![self.einst_pred(p, binds)?, self.einst_func(f, binds)?];
                node!(Tag::FIterate, k)
            }
            PFunc::Iter(p, f) => {
                let k = vec![self.einst_pred(p, binds)?, self.einst_func(f, binds)?];
                node!(Tag::FIter, k)
            }
            PFunc::Join(p, f) => {
                let k = vec![self.einst_pred(p, binds)?, self.einst_func(f, binds)?];
                node!(Tag::FJoin, k)
            }
            PFunc::Nest(f, g) => {
                let k = vec![self.einst_func(f, binds)?, self.einst_func(g, binds)?];
                node!(Tag::FNest, k)
            }
            PFunc::Unnest(f, g) => {
                let k = vec![self.einst_func(f, binds)?, self.einst_func(g, binds)?];
                node!(Tag::FUnnest, k)
            }
            PFunc::BIterate(p, f) => {
                let k = vec![self.einst_pred(p, binds)?, self.einst_func(f, binds)?];
                node!(Tag::FBIterate, k)
            }
        }
    }

    fn einst_pred(&mut self, pat: &PPred, binds: &EBinds) -> Result<ClassId, ()> {
        macro_rules! leaf {
            ($tag:expr) => {
                Ok(self.eg.add(ENode::leaf($tag, Payload::None)))
            };
        }
        match pat {
            PPred::Var(v) => binds.preds.get(v).copied().ok_or(()),
            PPred::Eq => leaf!(Tag::PEq),
            PPred::Lt => leaf!(Tag::PLt),
            PPred::Leq => leaf!(Tag::PLeq),
            PPred::Gt => leaf!(Tag::PGt),
            PPred::Geq => leaf!(Tag::PGeq),
            PPred::In => leaf!(Tag::PIn),
            PPred::PrimP(n) => Ok(self
                .eg
                .add(ENode::leaf(Tag::PPrimP, Payload::Sym(n.clone())))),
            PPred::ConstP(b) => Ok(self.eg.add(ENode::leaf(Tag::PConstP, Payload::Bool(*b)))),
            PPred::Oplus(p, f) => {
                let k = vec![self.einst_pred(p, binds)?, self.einst_func(f, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::POplus,
                    payload: Payload::None,
                    kids: k,
                }))
            }
            PPred::And(a, b) => {
                let k = vec![self.einst_pred(a, binds)?, self.einst_pred(b, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::PAnd,
                    payload: Payload::None,
                    kids: k,
                }))
            }
            PPred::Or(a, b) => {
                let k = vec![self.einst_pred(a, binds)?, self.einst_pred(b, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::POr,
                    payload: Payload::None,
                    kids: k,
                }))
            }
            PPred::Not(p) => {
                let k = vec![self.einst_pred(p, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::PNot,
                    payload: Payload::None,
                    kids: k,
                }))
            }
            PPred::Conv(p) => {
                let k = vec![self.einst_pred(p, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::PConv,
                    payload: Payload::None,
                    kids: k,
                }))
            }
            PPred::CurryP(p, q) => {
                let k = vec![self.einst_pred(p, binds)?, self.einst_query(q, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::PCurryP,
                    payload: Payload::None,
                    kids: k,
                }))
            }
        }
    }

    fn einst_query(&mut self, pat: &PQuery, binds: &EBinds) -> Result<ClassId, ()> {
        match pat {
            PQuery::Var(v) => binds.objs.get(v).copied().ok_or(()),
            PQuery::Lit(v) => Ok(self.eg.add(ENode::leaf(
                Tag::QLit,
                Payload::Value(std::sync::Arc::new(v.clone())),
            ))),
            PQuery::Extent(n) => Ok(self
                .eg
                .add(ENode::leaf(Tag::QExtent, Payload::Sym(n.clone())))),
            PQuery::PairQ(a, b) => {
                let k = vec![self.einst_query(a, binds)?, self.einst_query(b, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::QPairQ,
                    payload: Payload::None,
                    kids: k,
                }))
            }
            PQuery::App(f, q) => {
                let k = vec![self.einst_func(f, binds)?, self.einst_query(q, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::QApp,
                    payload: Payload::None,
                    kids: k,
                }))
            }
            PQuery::Test(p, q) => {
                let k = vec![self.einst_pred(p, binds)?, self.einst_query(q, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::QTest,
                    payload: Payload::None,
                    kids: k,
                }))
            }
            PQuery::Union(a, b) => {
                let k = vec![self.einst_query(a, binds)?, self.einst_query(b, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::QUnion,
                    payload: Payload::None,
                    kids: k,
                }))
            }
            PQuery::Intersect(a, b) => {
                let k = vec![self.einst_query(a, binds)?, self.einst_query(b, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::QIntersect,
                    payload: Payload::None,
                    kids: k,
                }))
            }
            PQuery::Diff(a, b) => {
                let k = vec![self.einst_query(a, binds)?, self.einst_query(b, binds)?];
                Ok(self.eg.add(ENode {
                    tag: Tag::QDiff,
                    payload: Payload::None,
                    kids: k,
                }))
            }
        }
    }
}

/// Term level of a class (from any e-node's tag — levels never mix within
/// a class because every rule and every congruence is level-preserving).
fn class_level(eg: &EGraph, c: ClassId) -> Option<Level> {
    eg.nodes(c).first().map(|n| level_of(n.tag))
}

enum Level {
    F,
    P,
    Q,
}

fn level_of(t: Tag) -> Level {
    if t <= Tag::FSetDiff {
        Level::F
    } else if t <= Tag::PCurryP {
        Level::P
    } else {
        Level::Q
    }
}

fn same_ff(pat: &PFunc, tag: Tag) -> bool {
    matches!(
        (pat, tag),
        (PFunc::PairWith(..), Tag::FPairWith)
            | (PFunc::Times(..), Tag::FTimes)
            | (PFunc::Nest(..), Tag::FNest)
            | (PFunc::Unnest(..), Tag::FUnnest)
    )
}

fn same_pf_iter(pat: &PFunc, tag: Tag) -> bool {
    matches!(
        (pat, tag),
        (PFunc::Iterate(..), Tag::FIterate)
            | (PFunc::Iter(..), Tag::FIter)
            | (PFunc::Join(..), Tag::FJoin)
            | (PFunc::BIterate(..), Tag::FBIterate)
    )
}

fn same_pp2(pat: &PPred, tag: Tag) -> bool {
    matches!(
        (pat, tag),
        (PPred::And(..), Tag::PAnd) | (PPred::Or(..), Tag::POr)
    )
}

fn same_pp1(pat: &PPred, tag: Tag) -> bool {
    matches!(
        (pat, tag),
        (PPred::Not(..), Tag::PNot) | (PPred::Conv(..), Tag::PConv)
    )
}

fn same_qq2(pat: &PQuery, tag: Tag) -> bool {
    matches!(
        (pat, tag),
        (PQuery::PairQ(..), Tag::QPairQ)
            | (PQuery::Union(..), Tag::QUnion)
            | (PQuery::Intersect(..), Tag::QIntersect)
            | (PQuery::Diff(..), Tag::QDiff)
    )
}
