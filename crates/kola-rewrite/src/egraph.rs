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
//! ## Rebuilding repairs what changed
//!
//! Rebuilding is the worklist repair of egg (Willsey et al., POPL 2021).
//! Every class keeps a *use list*: the classes that hold an e-node with it
//! among their kids. `union` queues its loser; `rebuild` moves each
//! loser's e-nodes and use list into its root, then repairs the *touched*
//! classes — each merge root and each class on a loser's use list — and
//! nothing else: it re-canonicalizes their e-nodes, re-keys the memo
//! entries whose e-node changed, sorts and dedups their lists, and merges
//! any class whose e-node now collides with another's in the memo. It
//! loops while the repair merges more classes; a clean graph's rebuild
//! returns at once. Only an e-node over a loser can change its canonical
//! form, and every such e-node lies in a class on that loser's use list,
//! so untouched classes are already canonical, sorted and collision-free.
//!
//! The result equals what a full sweep (canonicalize, sort and dedup every
//! class, merge congruent shapes, repeat until stable) leaves, byte for
//! byte: the partition is the least congruence holding the asserted
//! unions, whatever order merges fire in; the root of a class is its
//! smallest id; a class's e-nodes are the sorted set of its members'
//! canonical forms; the memo maps each of them to its class; and `unions`
//! and `version` count the merges, which the partition fixes. The crate's
//! unit tests run that full sweep as an oracle after every rebuild.
//!
//! Determinism is load-bearing: the saturation driver ([`crate::saturate`])
//! iterates classes in id order and nodes in sorted order, so two runs over
//! the same input take identical trajectories (pinned by
//! `tests/egraph_invariants.rs`). Union-find roots are always the
//! *smallest* id in their class, so canonical ids are stable under merge
//! order.
//!
//! ## Compact e-nodes
//!
//! An [`ENode`] is 20 bytes and `Copy`: its payload (a `Prim` symbol, a
//! literal, …) is an index into the graph's payload table, the one map
//! keyed by request text, which keeps std's keyed hasher. The memo is
//! keyed by the e-nodes themselves, engine integers only, and uses the
//! crate's Fx hasher. A class's e-nodes are ordered by tag, then payload
//! *value* (compared through the table), then kids, so the order does not
//! depend on the order payloads entered the table.

use crate::fxhash::FxBuild;
use kola::intern::{ITerm, Payload, PayloadRef, Tag};
use kola::value::{Sym, Value};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An e-class identifier. Plain index into the union-find.
pub type ClassId = u32;

/// An index into a graph's payload table ([`EGraph::payload`]).
pub type PayloadId = u32;

/// The payload id of [`Payload::None`], the same in every graph.
pub const NO_PAYLOAD: PayloadId = 0;

/// One constructor application over e-classes: the term analogue of an
/// interned node with every child abstracted to its equivalence class.
/// Its kids are stored inline (every constructor has arity ≤ 3) and its
/// payload is an index into the graph's payload table, so an e-node owns
/// no heap memory and copies as 20 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ENode {
    /// Constructor tag (same space as interned terms).
    pub tag: Tag,
    /// How many of `ids` are kids.
    len: u8,
    /// Non-child payload (`Prim` symbol, literal value, …), in the graph's
    /// payload table.
    pub payload: PayloadId,
    /// Child e-classes, in constructor order; unused ones are 0.
    ids: [ClassId; 3],
}

impl ENode {
    /// An e-node over `kids`. Panics on more than three: no constructor has
    /// them.
    pub fn new(tag: Tag, payload: PayloadId, kids: &[ClassId]) -> ENode {
        assert!(
            kids.len() <= 3,
            "constructor arity is at most 3, got {}",
            kids.len()
        );
        let mut ids = [0; 3];
        ids[..kids.len()].copy_from_slice(kids);
        ENode {
            tag,
            len: kids.len() as u8,
            payload,
            ids,
        }
    }

    /// Leaf node helper.
    pub fn leaf(tag: Tag, payload: PayloadId) -> ENode {
        ENode::new(tag, payload, &[])
    }

    /// The child classes, in constructor order.
    pub fn kids(&self) -> &[ClassId] {
        &self.ids[..usize::from(self.len)]
    }

    fn kids_mut(&mut self) -> &mut [ClassId] {
        &mut self.ids[..usize::from(self.len)]
    }
}

impl Hash for ENode {
    /// Two words: tag, arity and payload, then the kids. Unused kid slots
    /// are 0, so equal e-nodes hash equally.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(
            u64::from(self.tag as u8) | u64::from(self.len) << 8 | u64::from(self.payload) << 32,
        );
        state.write_u64(u64::from(self.ids[0]) | u64::from(self.ids[1]) << 32);
        state.write_u32(self.ids[2]);
    }
}

/// A graph's payloads, each stored once and named by its index. Ids 0–2
/// are `None`, `false` and `true`; a symbol or literal gets the next id the
/// first time the graph meets it. Keyed by request text, so it keeps std's
/// keyed hasher.
#[derive(Debug, Clone)]
struct Payloads {
    values: Vec<Payload>,
    syms: HashMap<Sym, PayloadId>,
    lits: HashMap<Arc<Value>, PayloadId>,
}

impl Default for Payloads {
    fn default() -> Payloads {
        Payloads {
            values: vec![Payload::None, Payload::Bool(false), Payload::Bool(true)],
            syms: HashMap::new(),
            lits: HashMap::new(),
        }
    }
}

impl Payloads {
    fn clear(&mut self) {
        self.values.truncate(3);
        self.syms.clear();
        self.lits.clear();
    }

    fn get(&self, id: PayloadId) -> &Payload {
        &self.values[id as usize]
    }

    /// The id of a borrowed payload; a new symbol or literal is copied in.
    fn id(&mut self, p: PayloadRef<'_>) -> PayloadId {
        match p {
            PayloadRef::None => NO_PAYLOAD,
            PayloadRef::Bool(b) => 1 + PayloadId::from(b),
            PayloadRef::Sym(s) => match self.syms.get(s) {
                Some(&id) => id,
                None => self.add_sym(Sym::from(s)),
            },
            PayloadRef::Value(v) => match self.lits.get(v) {
                Some(&id) => id,
                None => self.add_lit(Arc::new(v.clone())),
            },
        }
    }

    /// The id of an owned payload; a new symbol or literal is shared, not
    /// copied.
    fn id_owned(&mut self, p: &Payload) -> PayloadId {
        match p {
            Payload::Sym(s) => match self.syms.get(&**s) {
                Some(&id) => id,
                None => self.add_sym(s.clone()),
            },
            Payload::Value(v) => match self.lits.get(&**v) {
                Some(&id) => id,
                None => self.add_lit(v.clone()),
            },
            p => self.id(PayloadRef::from(p)),
        }
    }

    fn add_sym(&mut self, s: Sym) -> PayloadId {
        let id = self.values.len() as PayloadId;
        self.values.push(Payload::Sym(s.clone()));
        self.syms.insert(s, id);
        id
    }

    fn add_lit(&mut self, v: Arc<Value>) -> PayloadId {
        let id = self.values.len() as PayloadId;
        self.values.push(Payload::Value(v.clone()));
        self.lits.insert(v, id);
        id
    }

    /// The canonical e-node order: tag, payload value, kids.
    fn cmp_nodes(&self, a: &ENode, b: &ENode) -> Ordering {
        a.tag
            .cmp(&b.tag)
            .then_with(|| {
                if a.payload == b.payload {
                    Ordering::Equal
                } else {
                    self.get(a.payload).cmp(self.get(b.payload))
                }
            })
            .then_with(|| a.kids().cmp(b.kids()))
    }
}

/// Interned term id → the class [`EGraph::add_term_rec`] gave it.
pub(crate) type TermIds = HashMap<usize, ClassId, FxBuild>;

/// One equivalence class: its e-nodes, kept sorted and deduplicated after
/// every [`EGraph::rebuild`], and its use list.
#[derive(Debug, Default, Clone)]
pub struct EClass {
    /// The e-nodes whose canonical form lives in this class.
    pub nodes: Vec<ENode>,
    /// The classes that hold an e-node with this class among its kids,
    /// as they were when the e-node was added (read through `find`; may
    /// repeat): the first and last of its cells in the graph's use cells.
    uses: (u32, u32),
}

/// Every class's use list, as cells `(user class, next cell)` linked in
/// one buffer, so a list costs no allocation of its own and a merge
/// splices the loser's list onto its root's in O(1). Cell 0 is a
/// sentinel: a `next` of 0 ends a list, and `(0, 0)` is the empty list.
#[derive(Debug, Clone)]
struct UseCells(Vec<(ClassId, u32)>);

impl Default for UseCells {
    fn default() -> UseCells {
        UseCells(vec![(0, 0)])
    }
}

impl UseCells {
    /// Append `user` to `list`.
    fn push(&mut self, list: &mut (u32, u32), user: ClassId) {
        let cell = self.0.len() as u32;
        self.0.push((user, 0));
        if list.0 == 0 {
            list.0 = cell;
        } else {
            self.0[list.1 as usize].1 = cell;
        }
        list.1 = cell;
    }

    /// Move `from`'s cells onto the end of `to`.
    fn splice(&mut self, to: &mut (u32, u32), from: &mut (u32, u32)) {
        if from.0 == 0 {
            return;
        }
        if to.0 == 0 {
            to.0 = from.0;
        } else {
            self.0[to.1 as usize].1 = from.0;
        }
        to.1 = from.1;
        *from = (0, 0);
    }

    /// The users on `list`, in order.
    fn users(&self, list: (u32, u32)) -> impl Iterator<Item = ClassId> + '_ {
        let mut at = list.0;
        std::iter::from_fn(move || {
            if at == 0 {
                return None;
            }
            let (user, next) = self.0[at as usize];
            at = next;
            Some(user)
        })
    }
}

/// The e-graph. See the module docs for the invariants; note that `add` /
/// `union` may leave the graph *dirty* — callers batch mutations and then
/// [`EGraph::rebuild`] once, which is the standard equality-saturation
/// rhythm (match → apply → rebuild). A saturation round reads the graph
/// as it began through a [`RoundView`] while it writes.
#[derive(Debug, Default, Clone)]
pub struct EGraph {
    /// Union-find parents; `parent[i] == i` iff `i` is canonical.
    parent: Vec<ClassId>,
    /// Canonical e-node → its class (read through `find`). An entry over a
    /// union's loser is stale until the next `rebuild` re-keys it.
    memo: HashMap<ENode, ClassId, FxBuild>,
    payloads: Payloads,
    uses: UseCells,
    /// Class storage, indexed by id. An absorbed class's storage is empty
    /// once a `rebuild` has moved it into its root. Storage past
    /// `parent.len()` is spare, kept by [`EGraph::clear`] for reuse.
    classes: Vec<EClass>,
    /// The losers of the unions since the last `rebuild`.
    pending: Vec<ClassId>,
    /// `rebuild`'s list of classes to repair.
    touched: Vec<ClassId>,
    /// E-nodes across all class storage, absorbed ones included.
    live_nodes: usize,
    /// Canonical classes.
    live_classes: usize,
    /// Total successful unions over the graph's lifetime.
    unions: u64,
    /// Bumped on every structural change (new class or union). The
    /// saturation driver snapshots this to detect a fixpoint.
    version: u64,
}

impl EGraph {
    /// An empty e-graph.
    pub fn new() -> EGraph {
        EGraph::default()
    }

    /// Empty the graph, keeping its storage for the next graph built in it.
    pub(crate) fn clear(&mut self) {
        for cl in &mut self.classes[..self.parent.len()] {
            cl.nodes.clear();
            cl.uses = (0, 0);
        }
        self.uses.0.truncate(1);
        self.parent.clear();
        self.memo.clear();
        self.payloads.clear();
        self.pending.clear();
        self.live_nodes = 0;
        self.live_classes = 0;
        self.unions = 0;
        self.version = 0;
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
        let mut canon = *node;
        for k in canon.kids_mut() {
            *k = self.find(*k);
        }
        canon
    }

    /// The payload an e-node's [`ENode::payload`] names.
    pub fn payload(&self, id: PayloadId) -> &Payload {
        self.payloads.get(id)
    }

    /// The id of `p` in this graph's payload table, adding it if new.
    pub fn payload_id(&mut self, p: PayloadRef<'_>) -> PayloadId {
        self.payloads.id(p)
    }

    /// The class currently holding `node`'s shape, if any. Exact (not a
    /// heuristic) whenever the graph is clean.
    pub fn lookup(&self, node: &ENode) -> Option<ClassId> {
        let canon = self.canonicalize(node);
        self.memo.get(&canon).map(|&c| self.find(c))
    }

    /// Insert an e-node, returning its (possibly pre-existing) class.
    pub fn add(&mut self, node: ENode) -> ClassId {
        let node = self.canonicalize(&node);
        if let Some(&c) = self.memo.get(&node) {
            return self.find(c);
        }
        let id = self.parent.len() as ClassId;
        self.parent.push(id);
        if self.classes.len() == id as usize {
            self.classes.push(EClass::default());
        }
        self.classes[id as usize].nodes.push(node);
        for (i, &k) in node.kids().iter().enumerate() {
            if !node.kids()[..i].contains(&k) {
                self.uses.push(&mut self.classes[k as usize].uses, id);
            }
        }
        self.memo.insert(node, id);
        self.live_nodes += 1;
        self.live_classes += 1;
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
        // Arity is at most 3: the kid classes sit in a stack array.
        let mut kids = [0; 3];
        for (slot, k) in kids.iter_mut().zip(t.kids()) {
            *slot = self.add_term_rec(k, seen);
        }
        let payload = self.payloads.id_owned(t.payload());
        let c = self.add(ENode::new(t.tag(), payload, &kids[..t.kids().len()]));
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
        self.pending.push(lose);
        self.unions += 1;
        self.version += 1;
        self.live_classes -= 1;
        keep
    }

    /// Restore the hashcons and congruence invariants after a batch of
    /// `union`s, repairing only the classes the batch touched (see the
    /// module docs): move each loser's e-nodes and use list into its root,
    /// then re-canonicalize, sort and dedup each merge root and each class
    /// on a loser's use list, merging the classes whose e-nodes collide;
    /// repeat while that merges more. A clean graph returns at once.
    pub fn rebuild(&mut self) {
        #[cfg(test)]
        let expected = oracle::rebuilt_by_full_sweep(self);
        let mut touched = std::mem::take(&mut self.touched);
        while !self.pending.is_empty() {
            touched.clear();
            for i in 0..self.pending.len() {
                let lose = self.pending[i];
                let root = self.find(lose);
                self.parent[lose as usize] = root;
                let mut moved = std::mem::take(&mut self.classes[lose as usize]);
                touched.extend(self.uses.users(moved.uses));
                touched.push(root);
                let home = &mut self.classes[root as usize];
                home.nodes.append(&mut moved.nodes);
                self.uses.splice(&mut home.uses, &mut moved.uses);
                // Hand the emptied storage back, keeping its capacity.
                self.classes[lose as usize] = moved;
            }
            self.pending.clear();
            for t in &mut touched {
                *t = self.find(*t);
            }
            touched.sort_unstable();
            touched.dedup();
            for &t in &touched {
                // A class this pass merged away is repaired in the next,
                // inside its root.
                if self.parent[t as usize] == t {
                    self.repair(t);
                }
            }
        }
        self.touched = touched;
        #[cfg(test)]
        oracle::assert_same(self, &expected);
    }

    /// Re-canonicalize class `t`'s e-nodes, re-key the memo entries of the
    /// ones that changed, merge `t` with any class that holds one of them
    /// already, then sort and dedup the list.
    fn repair(&mut self, t: ClassId) {
        let mut nodes = std::mem::take(&mut self.classes[t as usize].nodes);
        for n in &mut nodes {
            let old = *n;
            *n = self.canonicalize(&old);
            // Only a changed e-node's old key is stale; an unchanged one's
            // entry stays for the lookup below to read.
            if *n != old {
                self.memo.remove(&old);
            }
            let held = match self.memo.entry(*n) {
                Entry::Vacant(e) => {
                    e.insert(t);
                    continue;
                }
                Entry::Occupied(e) => *e.get(),
            };
            let (other, here) = (self.find(held), self.find(t));
            if other != here {
                // Congruent shapes in distinct classes: their parents made
                // their kids equal.
                self.union(other, here);
            }
        }
        // Equal nodes are identical, so an unstable sort orders the list
        // exactly as a stable one, without a merge buffer.
        nodes.sort_unstable_by(|a, b| self.payloads.cmp_nodes(a, b));
        let before = nodes.len();
        nodes.dedup();
        self.live_nodes -= before - nodes.len();
        // No union moves storage, so `t`'s list is still empty here.
        self.classes[t as usize].nodes = nodes;
    }

    /// Canonical class ids, ascending.
    pub fn class_ids(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.parent.len() as ClassId).filter(move |&id| self.parent[id as usize] == id)
    }

    /// The e-nodes of `c`'s class, sorted. Clean graphs only: between a
    /// `union` and the next `rebuild` a class's absorbed e-nodes still lie
    /// with the class that lost the union.
    pub fn nodes(&self, c: ClassId) -> &[ENode] {
        debug_assert!(!self.is_dirty(), "nodes() of a dirty graph: rebuild first");
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
        debug_assert!(!self.is_dirty(), "a round starts on a rebuilt graph");
        start.parent.clear();
        start.parent.extend_from_slice(&self.parent);
    }

    /// Number of canonical classes. O(1).
    pub fn num_classes(&self) -> usize {
        self.live_classes
    }

    /// Total e-nodes across all classes, absorbed ones that `rebuild` has
    /// yet to move included. O(1).
    pub fn num_nodes(&self) -> usize {
        self.live_nodes
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
        !self.pending.is_empty()
    }

    /// Check both invariants; returns a description of the first violation.
    /// Test-facing (property suite); O(total nodes).
    pub fn check_congruence(&self) -> Result<(), String> {
        if self.is_dirty() {
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
                seen.insert(canon, c);
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
        &self.eg.classes[self.find(c) as usize].nodes
    }

    /// The payload an e-node of the view names.
    pub(crate) fn payload(&self, id: PayloadId) -> &'g Payload {
        self.eg.payloads.get(id)
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
        let node = ENode::new(Tag::FCompose, NO_PAYLOAD, &[a, b]);
        let c = *self.eg.memo.get(&node)?;
        ((c as usize) < self.parent.len()).then(|| self.find(c))
    }
}

/// The rebuild that the worklist repair replaced, kept as its test oracle:
/// a full sweep over every class, repeated until no merge fires. Every
/// unit-test rebuild runs it on a copy of the graph and requires the
/// repaired graph to equal the copy.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// A copy of `eg` rebuilt by the full sweep.
    pub(crate) fn rebuilt_by_full_sweep(eg: &EGraph) -> EGraph {
        let mut eg = eg.clone();
        // The pass that ends the loop merges nothing, so the memo it fills
        // maps every canonical node to its own canonical class.
        let mut memo = std::mem::take(&mut eg.memo);
        loop {
            // Path-compress so the sweeps below pay O(1) per find.
            for i in 0..eg.parent.len() {
                let root = eg.find(i as ClassId);
                eg.parent[i] = root;
                if root != i as ClassId {
                    let moved = std::mem::take(&mut eg.classes[i].nodes);
                    eg.classes[root as usize].nodes.extend(moved);
                }
            }
            let mut changed = false;
            memo.clear();
            for id in 0..eg.parent.len() as ClassId {
                if eg.parent[id as usize] != id {
                    continue;
                }
                let nodes = &mut eg.classes[id as usize].nodes;
                for n in nodes.iter_mut() {
                    for k in n.kids_mut() {
                        *k = eg.parent[*k as usize];
                    }
                }
                nodes.sort_unstable_by(|a, b| eg.payloads.cmp_nodes(a, b));
                nodes.dedup();
            }
            for id in 0..eg.parent.len() as ClassId {
                if eg.parent[id as usize] != id {
                    continue;
                }
                // A merge here never moves nodes into `id`'s class, only
                // `id` into an earlier one, so the list is taken out while
                // it is read and handed to wherever `id` ends up.
                let nodes = std::mem::take(&mut eg.classes[id as usize].nodes);
                for n in &nodes {
                    match memo.get(n) {
                        None => {
                            memo.insert(*n, id);
                        }
                        Some(&other) => {
                            let other = eg.find(other);
                            let here = eg.find(id);
                            if other != here {
                                eg.union(other, here);
                                changed = true;
                            }
                        }
                    }
                }
                let root = eg.find(id);
                eg.classes[root as usize].nodes.extend(nodes);
            }
            if !changed {
                break;
            }
        }
        eg.memo = memo;
        eg.pending.clear();
        eg
    }

    /// Panic unless the repaired `eg` equals the oracle's `want`: the
    /// partition and its roots, every class's e-node list, the memo as a
    /// map from canonical e-node to canonical class, the union and version
    /// counters, and the live counts against a scan.
    pub(crate) fn assert_same(eg: &EGraph, want: &EGraph) {
        assert!(!eg.is_dirty(), "rebuild left the graph dirty");
        assert_eq!(eg.id_bound(), want.id_bound(), "id bound");
        for i in 0..eg.id_bound() as ClassId {
            assert_eq!(eg.find(i), want.find(i), "root of class {i}");
        }
        let mut nodes = 0;
        for c in want.class_ids() {
            assert_eq!(
                eg.classes[c as usize].nodes, want.classes[c as usize].nodes,
                "e-nodes of class {c}"
            );
            nodes += want.classes[c as usize].nodes.len();
        }
        let stored: usize = eg.classes.iter().map(|cl| cl.nodes.len()).sum();
        assert_eq!(stored, nodes, "e-nodes stored outside a canonical class");
        assert_eq!(eg.memo.len(), want.memo.len(), "memo size");
        for (n, &c) in &eg.memo {
            let held = want.memo.get(n).map(|&w| want.find(w));
            assert_eq!(held, Some(eg.find(c)), "memo entry {n:?}");
        }
        assert_eq!(eg.unions(), want.unions(), "union count");
        assert_eq!(eg.version(), want.version(), "version");
        assert_eq!(eg.num_nodes(), nodes, "live e-node count");
        assert_eq!(
            eg.num_classes(),
            want.class_ids().count(),
            "live class count"
        );
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
    fn an_enode_is_twenty_bytes() {
        assert_eq!(std::mem::size_of::<ENode>(), 20);
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

    #[test]
    fn a_cleared_graph_rebuilds_as_a_new_one() {
        let mut it = Interner::new();
        let mut eg = EGraph::new();
        let a = reg(&mut eg, &mut it, "a . b");
        let c = reg(&mut eg, &mut it, "c . b");
        eg.union(a, c);
        eg.rebuild();
        eg.clear();
        let mut fresh = EGraph::new();
        for g in [&mut eg, &mut fresh] {
            let x = reg(g, &mut it, "b . a");
            let y = reg(g, &mut it, "b . c");
            let a = reg(g, &mut it, "a");
            let c = reg(g, &mut it, "c");
            g.union(c, a);
            g.rebuild();
            assert_eq!(g.find(x), g.find(y));
        }
        oracle::assert_same(&eg, &fresh);
    }

    /// A splitmix64 step: the random batches below need no dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Random batches of adds and unions, rebuilt after each batch: every
    /// rebuild must equal the full sweep's (checked inside `rebuild`), and
    /// leave both invariants holding. Adds land on clean and dirty graphs
    /// alike, over few leaves, so congruences cascade.
    #[test]
    fn worklist_rebuild_equals_the_full_sweep_on_random_batches() {
        const TAGS: [Tag; 3] = [Tag::FCompose, Tag::FPairWith, Tag::FTimes];
        let mut it = Interner::new();
        for seed in 0..200u64 {
            let mut rng = seed;
            let mut eg = EGraph::new();
            let syms = ["a", "b", "c", "d"];
            let mut ids: Vec<ClassId> = syms
                .iter()
                .map(|s| {
                    let p = eg.payload_id(PayloadRef::Sym(s));
                    eg.add(ENode::leaf(Tag::FPrim, p))
                })
                .collect();
            ids.push(reg(&mut eg, &mut it, "iterate(Kp(T), a . b)"));
            for _ in 0..6 {
                let adds = next(&mut rng) % 24;
                let unions = next(&mut rng) % 6;
                for i in 0..adds + unions {
                    fn pick(ids: &[ClassId], rng: &mut u64) -> ClassId {
                        ids[(next(rng) % ids.len() as u64) as usize]
                    }
                    let two = |rng: &mut u64| (pick(&ids, rng), pick(&ids, rng));
                    if i % 4 == 3 && i >= adds {
                        let (a, b) = two(&mut rng);
                        eg.union(a, b);
                    } else {
                        let tag = TAGS[(next(&mut rng) % 3) as usize];
                        let (a, b) = two(&mut rng);
                        ids.push(eg.add(ENode::new(tag, NO_PAYLOAD, &[a, b])));
                    }
                    if i % 5 == 4 {
                        let (a, b) = (pick(&ids, &mut rng), pick(&ids, &mut rng));
                        eg.union(a, b);
                    }
                }
                eg.rebuild();
                eg.check_congruence().unwrap();
            }
        }
    }
}
