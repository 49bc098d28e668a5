//! Cost-based extraction from an [`EGraph`]: pick the cheapest term each
//! e-class can denote, under a pluggable [`CostModel`].
//!
//! Extraction is a Bellman-Ford-style relaxation: a class's best cost is
//! the min over its e-nodes of `node_cost(tag, payload, best kid costs)`,
//! iterated to fixpoint. Classes reachable only through cycles (which
//! saturation can create — `f = id . f` is a perfectly good equality) never
//! acquire a finite cost and are simply not extractable; any class that
//! held a concrete term before saturation always is, so the engine's root
//! class always extracts.
//!
//! Materialization ([`Extractor::term`]) follows best nodes back down
//! through the interner. `∘` nodes go through [`kola::intern::icompose`],
//! so the extracted term is right-normalized even though e-classes carry no
//! associativity discipline — saturation may build `(f ∘ g) ∘ h` shapes,
//! and they flatten here. Cost models must therefore be
//! association-insensitive (all provided ones are: they only sum over
//! constructor occurrences).
//!
//! Determinism: relaxation scans classes in id order and nodes in sorted
//! order, replacing only on *strictly* smaller cost, so ties resolve to the
//! first candidate in canonical order and two runs extract identical terms.

use crate::egraph::{ClassId, EGraph, ENode, RoundView};
use kola::intern::{icompose, ITerm, Interner, Payload, PayloadRef, Tag};

/// A cost model over e-nodes. `kid_costs` are the best costs of the
/// children's classes; implementations combine them with the node's own
/// weight (use saturating arithmetic — saturation graphs can be deep).
///
/// **Contract:** the result must be *strictly greater* than every entry of
/// `kid_costs` (give every constructor weight ≥ 1). Materialization follows
/// best-node edges, and strict monotonicity is what makes that walk acyclic
/// through cyclic e-classes. All provided models satisfy this.
///
/// `Send + Sync` so an engine holding a boxed model stays movable across
/// service worker threads.
pub trait CostModel: Send + Sync {
    /// Cost of a term built from this constructor over the cheapest
    /// realization of each child.
    fn node_cost(&self, tag: Tag, payload: &Payload, kid_costs: &[u64]) -> u64;
}

/// Term size: every constructor costs 1. Extraction under this model
/// minimizes node count — the same measure the fixpoint engine's
/// best-so-far tracking uses, which is what the differential parity gate
/// (`tests/egraph_parity.rs`) compares.
#[derive(Debug, Clone, Copy, Default)]
pub struct TermSize;

impl CostModel for TermSize {
    fn node_cost(&self, _tag: Tag, _payload: &Payload, kid_costs: &[u64]) -> u64 {
        kid_costs.iter().fold(1u64, |acc, &k| acc.saturating_add(k))
    }
}

/// Operator-weighted cost: a coarse physical model that charges
/// iteration-shaped operators (nested-loop scans) heavily, `flat`
/// (materializing nested collections) moderately, and joins — which a
/// backend can hash or sort — lightly. This is the model under which
/// equality saturation rediscovers the paper's Figure 3 hidden-join plan:
/// the KG1 and KG2 forms are size-comparable, but KG2's `join` beats KG1's
/// nested `iter`s by orders of weight. A finer effort model (e.g. one fed
/// by `kola-exec`'s cardinality estimates) slots in through the same trait.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpWeight;

impl CostModel for OpWeight {
    fn node_cost(&self, tag: Tag, _payload: &Payload, kid_costs: &[u64]) -> u64 {
        let own: u64 = match tag {
            Tag::FIterate | Tag::FIter | Tag::FBIterate => 24,
            Tag::FFlat | Tag::FBFlat => 8,
            Tag::FJoin => 4,
            _ => 1,
        };
        kid_costs.iter().fold(own, |acc, &k| acc.saturating_add(k))
    }
}

/// Best cost and witness node per class, computed once per e-graph state.
/// Its table can be relaxed again over another graph, reusing its storage.
#[derive(Debug, Default)]
pub struct Extractor {
    /// Indexed by raw class id (consult via `find`); `None` = unextractable.
    best: Vec<Option<(u64, ENode)>>,
}

impl Extractor {
    /// Relax to fixpoint over `eg` (which must be clean — rebuild first).
    pub fn new(eg: &EGraph, cost: &dyn CostModel) -> Extractor {
        let mut ext = Extractor::default();
        ext.relax(eg.view(), cost);
        ext
    }

    /// Relax to fixpoint over the classes of `eg`, a view of a clean graph,
    /// replacing what the table held.
    pub(crate) fn relax(&mut self, eg: RoundView<'_>, cost: &dyn CostModel) {
        let best = &mut self.best;
        best.clear();
        best.resize(eg.id_bound(), None);
        loop {
            let mut changed = false;
            for c in eg.class_ids() {
                for node in eg.nodes(c) {
                    // Arity is at most 3: the kid costs sit in a stack array.
                    let mut kid_costs = [0u64; 3];
                    let mut all = true;
                    for (slot, &k) in kid_costs.iter_mut().zip(node.kids()) {
                        match &best[eg.find(k) as usize] {
                            Some((kc, _)) => *slot = *kc,
                            None => {
                                all = false;
                                break;
                            }
                        }
                    }
                    if !all {
                        continue;
                    }
                    let kid_costs = &kid_costs[..node.kids().len()];
                    let total = cost.node_cost(node.tag, eg.payload(node.payload), kid_costs);
                    let slot = &mut best[c as usize];
                    if slot.as_ref().is_none_or(|(old, _)| total < *old) {
                        *slot = Some((total, *node));
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Best cost of class `c`, if extractable.
    pub fn cost(&self, eg: &EGraph, c: ClassId) -> Option<u64> {
        self.best[eg.find(c) as usize].as_ref().map(|(k, _)| *k)
    }

    /// Materialize the cheapest term of class `c` into the interner.
    /// Returns `None` iff the class is unextractable.
    pub fn term(&self, eg: &EGraph, c: ClassId, it: &mut Interner) -> Option<ITerm> {
        self.term_in(eg.view(), c, it, &mut Vec::new())
    }

    /// [`Extractor::term`] over the view the extractor was relaxed over,
    /// with `terms` (indexed by canonical class) as the memo of the classes
    /// materialized so far: a class's term is the same whichever class
    /// asks for it, so one memo serves any number of calls over one table.
    pub(crate) fn term_in(
        &self,
        eg: RoundView<'_>,
        c: ClassId,
        it: &mut Interner,
        terms: &mut Vec<Option<ITerm>>,
    ) -> Option<ITerm> {
        if terms.len() < eg.id_bound() {
            terms.resize(eg.id_bound(), None);
        }
        self.term_rec(eg, c, it, terms)
    }

    fn term_rec(
        &self,
        eg: RoundView<'_>,
        c: ClassId,
        it: &mut Interner,
        terms: &mut [Option<ITerm>],
    ) -> Option<ITerm> {
        let c = eg.find(c);
        if let Some(t) = &terms[c as usize] {
            return Some(t.clone());
        }
        let (_, node) = self.best[c as usize].as_ref()?;
        // Arity is at most 3: the children are built into a stack array.
        let mut kids: [Option<ITerm>; 3] = [None, None, None];
        for (slot, &k) in kids.iter_mut().zip(node.kids()) {
            *slot = Some(self.term_rec(eg, k, it, terms)?);
        }
        let payload = PayloadRef::from(eg.payload(node.payload));
        let t = match kids {
            [None, ..] => it.mk(node.tag, payload, &[]),
            [Some(k0), None, _] => it.mk(node.tag, payload, &[k0]),
            // Classes carry no associativity discipline; restore the
            // right-normalized chain invariant on the way out.
            [Some(k0), Some(k1), None] if node.tag == Tag::FCompose => icompose(it, k0, k1),
            [Some(k0), Some(k1), None] => it.mk(node.tag, payload, &[k0, k1]),
            [Some(k0), Some(k1), Some(k2)] => it.mk(node.tag, payload, &[k0, k1, k2]),
        };
        terms[c as usize] = Some(t.clone());
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::egraph::{EGraph, NO_PAYLOAD};
    use kola::parse::parse_func;

    #[test]
    fn extracts_the_smaller_member_after_union() {
        let mut it = Interner::new();
        let mut eg = EGraph::new();
        let big = it.intern_func(&parse_func("id . id . age").unwrap().normalize());
        let small = it.intern_func(&parse_func("age").unwrap());
        let cb = eg.add_term(&big);
        let cs = eg.add_term(&small);
        eg.union(cb, cs);
        eg.rebuild();
        let ext = Extractor::new(&eg, &TermSize);
        assert_eq!(ext.cost(&eg, cb), Some(1));
        let t = ext.term(&eg, cb, &mut it).unwrap();
        assert!(t.ptr_eq(&small));
    }

    #[test]
    fn cyclic_class_extracts_its_finite_witness() {
        let mut eg = EGraph::new();
        // Build `age` and `id ∘ age`, then assert they are equal: the class
        // now contains a node whose child is the class itself (a cycle),
        // plus the finite leaf witness. Extraction must terminate and pick
        // the witness.
        let sym = eg.payload_id(PayloadRef::Sym("age"));
        let age = eg.add(ENode::leaf(Tag::FPrim, sym));
        let idc = eg.add(ENode::leaf(Tag::FId, NO_PAYLOAD));
        let comp = eg.add(ENode::new(Tag::FCompose, NO_PAYLOAD, &[idc, age]));
        eg.union(comp, age);
        eg.rebuild();
        let ext = Extractor::new(&eg, &TermSize);
        assert_eq!(ext.cost(&eg, comp), Some(1));
        let mut it = Interner::new();
        let t = ext.term(&eg, comp, &mut it).unwrap();
        assert_eq!(t.to_func(), parse_func("age").unwrap());
    }
}
