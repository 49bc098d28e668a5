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

use crate::egraph::{ClassId, EGraph, ENode};
use kola::intern::{icompose, ITerm, Interner, Payload, PayloadRef, Tag};
use std::collections::HashMap;

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
#[derive(Debug)]
pub struct Extractor {
    /// Indexed by raw class id (consult via `find`); `None` = unextractable.
    best: Vec<Option<(u64, ENode)>>,
}

impl Extractor {
    /// Relax to fixpoint over `eg` (which must be clean — rebuild first).
    pub fn new(eg: &EGraph, cost: &dyn CostModel) -> Extractor {
        let mut best: Vec<Option<(u64, ENode)>> = vec![None; eg.id_bound()];
        loop {
            let mut changed = false;
            for c in eg.class_ids() {
                for node in eg.nodes(c) {
                    let mut kid_costs = Vec::with_capacity(node.kids.len());
                    let mut all = true;
                    for &k in &node.kids {
                        match &best[eg.find(k) as usize] {
                            Some((kc, _)) => kid_costs.push(*kc),
                            None => {
                                all = false;
                                break;
                            }
                        }
                    }
                    if !all {
                        continue;
                    }
                    let total = cost.node_cost(node.tag, &node.payload, &kid_costs);
                    let slot = &mut best[c as usize];
                    if slot.as_ref().is_none_or(|(old, _)| total < *old) {
                        *slot = Some((total, node.clone()));
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Extractor { best }
    }

    /// Best cost of class `c`, if extractable.
    pub fn cost(&self, eg: &EGraph, c: ClassId) -> Option<u64> {
        self.best[eg.find(c) as usize].as_ref().map(|(k, _)| *k)
    }

    /// Materialize the cheapest term of class `c` into the interner.
    /// Returns `None` iff the class is unextractable.
    pub fn term(&self, eg: &EGraph, c: ClassId, it: &mut Interner) -> Option<ITerm> {
        let mut memo: HashMap<ClassId, ITerm> = HashMap::new();
        self.term_rec(eg, eg.find(c), it, &mut memo)
    }

    fn term_rec(
        &self,
        eg: &EGraph,
        c: ClassId,
        it: &mut Interner,
        memo: &mut HashMap<ClassId, ITerm>,
    ) -> Option<ITerm> {
        let c = eg.find(c);
        if let Some(t) = memo.get(&c) {
            return Some(t.clone());
        }
        let (_, node) = self.best[c as usize].as_ref()?;
        // Arity is at most 3: the children are built into a stack array.
        let mut kids: [Option<ITerm>; 3] = [None, None, None];
        for (slot, &k) in kids.iter_mut().zip(&node.kids) {
            *slot = Some(self.term_rec(eg, k, it, memo)?);
        }
        let payload = PayloadRef::from(&node.payload);
        let t = match kids {
            [None, ..] => it.mk(node.tag, payload, &[]),
            [Some(k0), None, _] => it.mk(node.tag, payload, &[k0]),
            // Classes carry no associativity discipline; restore the
            // right-normalized chain invariant on the way out.
            [Some(k0), Some(k1), None] if node.tag == Tag::FCompose => icompose(it, k0, k1),
            [Some(k0), Some(k1), None] => it.mk(node.tag, payload, &[k0, k1]),
            [Some(k0), Some(k1), Some(k2)] => it.mk(node.tag, payload, &[k0, k1, k2]),
        };
        memo.insert(c, t.clone());
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::egraph::EGraph;
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
        let age = eg.add(ENode::leaf(Tag::FPrim, Payload::Sym("age".into())));
        let idc = eg.add(ENode::leaf(Tag::FId, Payload::None));
        let comp = eg.add(ENode {
            tag: Tag::FCompose,
            payload: Payload::None,
            kids: vec![idc, age],
        });
        eg.union(comp, age);
        eg.rebuild();
        let ext = Extractor::new(&eg, &TermSize);
        assert_eq!(ext.cost(&eg, comp), Some(1));
        let mut it = Interner::new();
        let t = ext.term(&eg, comp, &mut it).unwrap();
        assert_eq!(t.to_func(), parse_func("age").unwrap());
    }
}
