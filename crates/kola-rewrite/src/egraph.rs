//! E-graph core: e-classes of interned KOLA terms under a union-find, with
//! hashcons-based congruence closure.
//!
//! An [`EGraph`] stores *e-nodes* — one constructor application whose
//! children are e-class ids instead of subterms — grouped into *e-classes*
//! of provably-equal terms. Registering a term ([`EGraph::add_term`]) walks
//! the hash-consed [`ITerm`] DAG bottom-up; asserting an equality
//! ([`EGraph::union`]) merges two classes; [`EGraph::rebuild`] restores the
//! two invariants every operation relies on:
//!
//! * **hashcons**: no two distinct classes contain the same canonical
//!   e-node, so structural lookup ([`EGraph::lookup`]) is exact;
//! * **congruence**: if the children of two e-nodes are pairwise equal and
//!   the constructors match, their classes are equal.
//!
//! Rebuilding is a full-sweep fixpoint (canonicalize + dedup every class,
//! merge congruent shapes, repeat until stable) rather than the
//! parent-worklist repair of large e-graph engines: the saturation budgets
//! in this repo keep graphs in the thousands of nodes, where the sweep's
//! simplicity — and its deterministic, sorted class contents — are worth
//! more than asymptotic finesse. Determinism is load-bearing: the
//! saturation driver ([`crate::saturate`]) iterates classes in id order and
//! nodes in sorted order, so two runs over the same input take identical
//! trajectories (pinned by `tests/egraph_invariants.rs`).
//!
//! Union-find roots are always the *smallest* id in their class, so
//! canonical ids are stable under merge order.

use crate::fxhash::FxBuild;
use kola::intern::{ITerm, Payload, Tag};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// An e-class identifier. Plain index into the union-find.
pub type ClassId = u32;

/// One constructor application over e-classes: the term analogue of an
/// interned node with every child abstracted to its equivalence class.
/// `Ord` (via the derived lexicographic order) gives classes a canonical
/// node order, which the saturation driver's determinism relies on.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ENode {
    /// Constructor tag (same space as interned terms).
    pub tag: Tag,
    /// Non-child payload (`Prim` symbol, literal value, …).
    pub payload: Payload,
    /// Child e-classes, in constructor order.
    pub kids: ENodeKids,
}

impl ENode {
    /// Leaf node helper.
    pub fn leaf(tag: Tag, payload: Payload) -> ENode {
        ENode {
            tag,
            payload,
            kids: ENodeKids::default(),
        }
    }
}

/// An e-node's child classes, stored inline: every constructor has arity
/// ≤ 3, so an e-node owns no heap memory beyond its payload's. It
/// compares, orders and hashes as the slice it holds, so sorted class
/// contents are what they would be over a `Vec<ClassId>`.
#[derive(Clone, Copy, Default)]
pub struct ENodeKids {
    len: u8,
    ids: [ClassId; 3],
}

impl ENodeKids {
    /// The children, in constructor order.
    pub fn as_slice(&self) -> &[ClassId] {
        &self.ids[..usize::from(self.len)]
    }
}

impl From<&[ClassId]> for ENodeKids {
    /// Panics on more than three children: no constructor has them.
    fn from(kids: &[ClassId]) -> ENodeKids {
        assert!(
            kids.len() <= 3,
            "constructor arity is at most 3, got {}",
            kids.len()
        );
        let mut ids = [0; 3];
        ids[..kids.len()].copy_from_slice(kids);
        ENodeKids {
            len: kids.len() as u8,
            ids,
        }
    }
}

impl FromIterator<ClassId> for ENodeKids {
    fn from_iter<I: IntoIterator<Item = ClassId>>(iter: I) -> ENodeKids {
        let mut kids = ENodeKids::default();
        for k in iter {
            assert!(kids.len < 3, "constructor arity is at most 3");
            kids.ids[usize::from(kids.len)] = k;
            kids.len += 1;
        }
        kids
    }
}

impl Deref for ENodeKids {
    type Target = [ClassId];

    fn deref(&self) -> &[ClassId] {
        self.as_slice()
    }
}

impl DerefMut for ENodeKids {
    fn deref_mut(&mut self) -> &mut [ClassId] {
        &mut self.ids[..usize::from(self.len)]
    }
}

impl<'a> IntoIterator for &'a ENodeKids {
    type Item = &'a ClassId;
    type IntoIter = std::slice::Iter<'a, ClassId>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for ENodeKids {
    fn eq(&self, other: &ENodeKids) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ENodeKids {}

impl PartialOrd for ENodeKids {
    fn partial_cmp(&self, other: &ENodeKids) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ENodeKids {
    fn cmp(&self, other: &ENodeKids) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for ENodeKids {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for ENodeKids {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// Interned term id → the class [`EGraph::add_term_rec`] gave it.
pub(crate) type TermIds = HashMap<usize, ClassId, FxBuild>;

/// One equivalence class: its e-nodes, kept sorted and deduplicated after
/// every [`EGraph::rebuild`].
#[derive(Debug, Default, Clone)]
pub struct EClass {
    /// The e-nodes whose canonical form lives in this class.
    pub nodes: Vec<ENode>,
}

/// The e-graph. See the module docs for the invariants; note that `add` /
/// `union` may leave the graph *dirty* — callers batch mutations and then
/// [`EGraph::rebuild`] once, which is the standard equality-saturation
/// rhythm (match → apply → rebuild). A saturation round reads the graph
/// as it began through a [`RoundView`] while it writes.
#[derive(Debug, Default)]
pub struct EGraph {
    /// Union-find parents; `parent[i] == i` iff `i` is canonical.
    parent: Vec<ClassId>,
    /// Canonical e-node → canonical class. May be stale between a `union`
    /// and the next `rebuild`; reads canonicalize on the way in and out.
    /// Keyed by payloads taken from request text, so it keeps std's keyed
    /// hasher.
    memo: HashMap<ENode, ClassId>,
    /// Class storage, indexed by id; `None` for absorbed (non-root) ids
    /// once a `rebuild` has moved their e-nodes into their root.
    classes: Vec<Option<EClass>>,
    /// Total successful unions over the graph's lifetime.
    unions: u64,
    /// Bumped on every structural change (new class or union). The
    /// saturation driver snapshots this to detect a fixpoint.
    version: u64,
    /// True between a union and the rebuild that repairs it.
    dirty: bool,
}

impl EGraph {
    /// An empty e-graph.
    pub fn new() -> EGraph {
        EGraph::default()
    }

    /// Canonical representative of `c`.
    pub fn find(&self, mut c: ClassId) -> ClassId {
        while self.parent[c as usize] != c {
            c = self.parent[c as usize];
        }
        c
    }

    /// `node` with every child replaced by its canonical class.
    pub fn canonicalize(&self, node: &ENode) -> ENode {
        let mut canon = node.clone();
        self.canonicalize_kids(&mut canon.kids);
        canon
    }

    fn canonicalize_kids(&self, kids: &mut ENodeKids) {
        for k in kids.iter_mut() {
            *k = self.find(*k);
        }
    }

    /// The class currently holding `node`'s shape, if any. Exact (not a
    /// heuristic) whenever the graph is clean.
    pub fn lookup(&self, node: &ENode) -> Option<ClassId> {
        let canon = self.canonicalize(node);
        self.memo.get(&canon).map(|&c| self.find(c))
    }

    /// Insert an e-node, returning its (possibly pre-existing) class.
    pub fn add(&mut self, mut node: ENode) -> ClassId {
        self.canonicalize_kids(&mut node.kids);
        if let Some(&c) = self.memo.get(&node) {
            return self.find(c);
        }
        let id = self.parent.len() as ClassId;
        self.parent.push(id);
        self.classes.push(Some(EClass {
            nodes: vec![node.clone()],
        }));
        self.memo.insert(node, id);
        self.version += 1;
        id
    }

    /// Register a whole interned term bottom-up, sharing the DAG: each
    /// distinct interned node is added once per call.
    pub fn add_term(&mut self, t: &ITerm) -> ClassId {
        self.add_term_rec(t, &mut TermIds::default())
    }

    /// [`EGraph::add_term`], sharing `seen` (interned term id → class) with
    /// earlier calls, so a node that several terms share is added once.
    pub(crate) fn add_term_rec(&mut self, t: &ITerm, seen: &mut TermIds) -> ClassId {
        if let Some(&c) = seen.get(&t.id()) {
            return self.find(c);
        }
        let kids = t
            .kids()
            .iter()
            .map(|k| self.add_term_rec(k, seen))
            .collect();
        let c = self.add(ENode {
            tag: t.tag(),
            payload: t.payload().clone(),
            kids,
        });
        seen.insert(t.id(), c);
        c
    }

    /// Assert `a = b`. Returns the surviving canonical id; marks the graph
    /// dirty when the classes were distinct. The smaller id always wins, so
    /// canonical ids do not depend on merge order.
    pub fn union(&mut self, a: ClassId, b: ClassId) -> ClassId {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        let (keep, lose) = if ra < rb { (ra, rb) } else { (rb, ra) };
        // The loser's e-nodes stay where they are until `rebuild` moves
        // them, so a [`RoundView`] still reads both classes as they stood.
        self.parent[lose as usize] = keep;
        self.unions += 1;
        self.version += 1;
        self.dirty = true;
        keep
    }

    /// Restore the hashcons and congruence invariants after a batch of
    /// `union`s: move every absorbed class's e-nodes into its root, sweep
    /// every class (canonicalize, sort, dedup its nodes), merge any two
    /// classes sharing a canonical shape, and repeat until no merge fires.
    /// Also path-compresses the union-find.
    pub fn rebuild(&mut self) {
        // The pass that ends the loop merges nothing, so the memo it fills
        // maps every canonical node to its own canonical class.
        let mut memo = std::mem::take(&mut self.memo);
        loop {
            // Path-compress so the sweeps below pay O(1) per find.
            for i in 0..self.parent.len() {
                let root = self.find(i as ClassId);
                self.parent[i] = root;
                if root != i as ClassId {
                    if let Some(moved) = self.classes[i].take() {
                        self.classes[root as usize]
                            .as_mut()
                            .expect("canonical class has storage")
                            .nodes
                            .extend(moved.nodes);
                    }
                }
            }
            let mut changed = false;
            memo.clear();
            for id in 0..self.parent.len() as ClassId {
                if self.parent[id as usize] != id {
                    continue;
                }
                let nodes = &mut self.classes[id as usize]
                    .as_mut()
                    .expect("canonical class has storage")
                    .nodes;
                for n in nodes.iter_mut() {
                    for k in n.kids.iter_mut() {
                        *k = self.parent[*k as usize];
                    }
                }
                // Equal nodes are identical, so an unstable sort orders the
                // list exactly as a stable one, without a merge buffer.
                nodes.sort_unstable();
                nodes.dedup();
            }
            for id in 0..self.parent.len() as ClassId {
                if self.parent[id as usize] != id {
                    continue;
                }
                // A merge here never moves nodes into `id`'s class, only
                // `id` into an earlier one, so the list is taken out while
                // it is read and handed to wherever `id` ends up.
                let nodes = std::mem::take(
                    &mut self.classes[id as usize]
                        .as_mut()
                        .expect("canonical class has storage")
                        .nodes,
                );
                for n in &nodes {
                    match memo.get(n) {
                        None => {
                            memo.insert(n.clone(), id);
                        }
                        Some(&other) => {
                            let other = self.find(other);
                            let here = self.find(id);
                            if other != here {
                                // Congruent shapes in distinct classes:
                                // their parents made their kids equal.
                                self.union(other, here);
                                changed = true;
                            }
                        }
                    }
                }
                let root = self.find(id);
                let home = &mut self.classes[root as usize]
                    .as_mut()
                    .expect("canonical class has storage")
                    .nodes;
                if root == id {
                    *home = nodes;
                } else {
                    home.extend(nodes);
                }
            }
            if !changed {
                break;
            }
        }
        self.memo = memo;
        self.dirty = false;
    }

    /// Canonical class ids, ascending.
    pub fn class_ids(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.parent.len() as ClassId).filter(move |&id| self.parent[id as usize] == id)
    }

    /// The e-nodes of `c`'s class, sorted. Clean graphs only: between a
    /// `union` and the next `rebuild` a class's absorbed e-nodes still lie
    /// with the class that lost the union.
    pub fn nodes(&self, c: ClassId) -> &[ENode] {
        debug_assert!(!self.dirty, "nodes() of a dirty graph: rebuild first");
        self.view().nodes(c)
    }

    /// The graph as it stands, read through a [`RoundView`]. Clean graphs
    /// only: a dirty one's classes are missing their absorbed e-nodes.
    pub(crate) fn view(&self) -> RoundView<'_> {
        RoundView {
            eg: self,
            parent: &self.parent,
        }
    }

    /// Record the union-find as it stands at the start of a saturation
    /// round into `start`, which [`RoundStart::view`] then reads through.
    /// The graph must be clean.
    pub(crate) fn begin_round(&self, start: &mut RoundStart) {
        debug_assert!(!self.dirty, "a round starts on a rebuilt graph");
        start.parent.clear();
        start.parent.extend_from_slice(&self.parent);
    }

    /// Number of canonical classes.
    pub fn num_classes(&self) -> usize {
        self.class_ids().count()
    }

    /// Total e-nodes across all canonical classes, absorbed ones that
    /// `rebuild` has yet to move included.
    pub fn num_nodes(&self) -> usize {
        self.classes.iter().flatten().map(|cl| cl.nodes.len()).sum()
    }

    /// Total ids ever allocated (canonical or absorbed) — the bound array
    /// consumers (e.g. the extractor) index by.
    pub fn id_bound(&self) -> usize {
        self.parent.len()
    }

    /// Lifetime union count.
    pub fn unions(&self) -> u64 {
        self.unions
    }

    /// Structural-change counter (see field docs).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// True between a union and its repairing rebuild.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Check both invariants; returns a description of the first violation.
    /// Test-facing (property suite); O(total nodes).
    pub fn check_congruence(&self) -> Result<(), String> {
        if self.dirty {
            return Err("graph is dirty: rebuild() has not run".into());
        }
        let mut seen: HashMap<ENode, ClassId> = HashMap::new();
        for c in self.class_ids() {
            for n in self.nodes(c) {
                let canon = self.canonicalize(n);
                if let Some(&other) = seen.get(&canon) {
                    if self.find(other) != self.find(c) {
                        return Err(format!(
                            "congruence violation: {canon:?} in classes {} and {}",
                            self.find(other),
                            self.find(c)
                        ));
                    }
                }
                seen.insert(canon.clone(), c);
                match self.memo.get(&canon) {
                    Some(&m) if self.find(m) == self.find(c) => {}
                    Some(&m) => {
                        return Err(format!(
                            "hashcons points {canon:?} at class {} but it lives in {}",
                            self.find(m),
                            self.find(c)
                        ));
                    }
                    None => return Err(format!("hashcons is missing {canon:?}")),
                }
            }
        }
        Ok(())
    }
}

/// The union-find parents of a graph as a saturation round began
/// ([`EGraph::begin_round`]); its buffer is reused from round to round.
#[derive(Debug, Default)]
pub(crate) struct RoundStart {
    parent: Vec<ClassId>,
}

impl RoundStart {
    /// `eg` as it stood when the round began. Valid while the round only
    /// adds e-nodes and unions classes: `add` puts new classes past the
    /// round's id bound and never an e-node into an existing class, and
    /// `union` leaves both classes' e-nodes where they were, so every class
    /// below the bound still holds exactly its round-start e-nodes.
    pub(crate) fn view<'g>(&'g self, eg: &'g EGraph) -> RoundView<'g> {
        debug_assert!(self.parent.len() <= eg.parent.len());
        RoundView {
            eg,
            parent: &self.parent,
        }
    }
}

/// A read-only view of an [`EGraph`] at one clean moment: the classes below
/// its id bound, their e-nodes, and the union-find as it stood then. A
/// saturation round matches through one while its apply steps write the
/// graph; nothing is copied but the union-find parents.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RoundView<'g> {
    eg: &'g EGraph,
    /// The parents then; the length is the view's id bound.
    parent: &'g [ClassId],
}

impl<'g> RoundView<'g> {
    /// Canonical representative of `c` in the view.
    pub(crate) fn find(&self, mut c: ClassId) -> ClassId {
        while self.parent[c as usize] != c {
            c = self.parent[c as usize];
        }
        c
    }

    /// The e-nodes of `c`'s class in the view, sorted.
    pub(crate) fn nodes(&self, c: ClassId) -> &'g [ENode] {
        let c = self.find(c);
        self.eg.classes[c as usize]
            .as_ref()
            .map(|cl| cl.nodes.as_slice())
            .unwrap_or(&[])
    }

    /// Canonical class ids in the view, ascending.
    pub(crate) fn class_ids(&self) -> impl Iterator<Item = ClassId> + 'g {
        let parent = self.parent;
        (0..parent.len() as ClassId).filter(move |&id| parent[id as usize] == id)
    }

    /// Ids in the view: every class it holds lies below.
    pub(crate) fn id_bound(&self) -> usize {
        self.parent.len()
    }

    /// The class of `a ∘ b` in the view, for canonical `a` and `b`, if it
    /// has one. A memo entry made since the view began names a class at or
    /// past its id bound, and does not count.
    pub(crate) fn lookup_compose(&self, a: ClassId, b: ClassId) -> Option<ClassId> {
        let node = ENode {
            tag: Tag::FCompose,
            payload: Payload::None,
            kids: ENodeKids::from(&[a, b][..]),
        };
        let c = *self.eg.memo.get(&node)?;
        ((c as usize) < self.parent.len()).then(|| self.find(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kola::intern::Interner;
    use kola::parse::parse_func;

    fn reg(eg: &mut EGraph, it: &mut Interner, src: &str) -> ClassId {
        let t = it.intern_func(&parse_func(src).unwrap().normalize());
        eg.add_term(&t)
    }

    #[test]
    fn add_term_is_hashconsed() {
        let mut it = Interner::new();
        let mut eg = EGraph::new();
        let a = reg(&mut eg, &mut it, "iterate(Kp(T), city . addr)");
        let b = reg(&mut eg, &mut it, "iterate(Kp(T), city . addr)");
        assert_eq!(a, b);
        assert_eq!(eg.num_classes(), eg.num_nodes());
    }

    #[test]
    fn num_nodes_counts_absorbed_nodes_before_rebuild() {
        let mut it = Interner::new();
        let mut eg = EGraph::new();
        let a = reg(&mut eg, &mut it, "a");
        let b = reg(&mut eg, &mut it, "b");
        eg.union(a, b);
        assert!(eg.is_dirty());
        assert_eq!(eg.num_nodes(), 2);
        eg.rebuild();
        assert_eq!(eg.num_nodes(), 2);
        assert_eq!(eg.nodes(a).len(), 2);
    }

    #[test]
    fn union_then_rebuild_closes_congruence() {
        let mut it = Interner::new();
        let mut eg = EGraph::new();
        // f = a . b, g = c . b; assert a = c, so f and g become congruent.
        let a = reg(&mut eg, &mut it, "a");
        let c = reg(&mut eg, &mut it, "c");
        let f = reg(&mut eg, &mut it, "a . b");
        let g = reg(&mut eg, &mut it, "c . b");
        assert_ne!(eg.find(f), eg.find(g));
        eg.union(a, c);
        eg.rebuild();
        assert_eq!(eg.find(f), eg.find(g));
        eg.check_congruence().unwrap();
    }

    #[test]
    fn min_id_root_survives_any_merge_order() {
        let mut it = Interner::new();
        let mut eg = EGraph::new();
        let a = reg(&mut eg, &mut it, "a");
        let b = reg(&mut eg, &mut it, "b");
        let c = reg(&mut eg, &mut it, "c");
        eg.union(c, b);
        eg.union(b, a);
        eg.rebuild();
        assert_eq!(eg.find(c), a);
        assert_eq!(eg.find(b), a);
    }
}
