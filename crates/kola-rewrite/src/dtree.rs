//! Discrimination-tree (path-indexed) rule dispatch over interned terms.
//!
//! A *discrimination tree* is the classic term-indexing structure
//! (Stickel/McCune): every oriented rule head is serialized into its
//! **preorder constructor walk** (one
//! [`Edge::Sym`] per concrete constructor, one [`Edge::Star`] per
//! metavariable, which stands for a whole subtree) and inserted into a trie.
//! Candidate selection at a redex is then a single walk of the interned
//! term's own preorder against the trie, following `Sym` edges where tags
//! agree and `Star` edges always (popping the whole subtree), collecting
//! rule positions at accepting nodes.
//!
//! ## Exactness contract
//!
//! The walk returns a **superset** of the rules whose head can match the
//! node, in **ascending rule position** (candidates are sorted, so "first
//! matching rule in list order" is preserved bit-for-bit). Sources of
//! over-approximation, all deliberate:
//!
//! * payloads are not discriminated — `Prim("age")` and `Prim("addr")` share
//!   the `Sym(FPrim)` edge (tag-only edges keep the alphabet small);
//! * walks longer than [`MAX_WALK`] edges are truncated, accepting early
//!   (deep patterns admit a few extra candidates instead of growing the
//!   trie without bound);
//! * at the function level only the **first chain segment** of the pattern
//!   is indexed, mirroring [`crate::matching::match_func_prefix`], which
//!   commits on the first segment before examining the window's tail.
//!
//! Under-approximation is impossible by construction: every edge the walk
//! refuses corresponds to a constructor disagreement that would also make
//! the rule programs' tag checks ([`crate::program`]) fail.
//!
//! ## Immutability
//!
//! The index is never edited after [`RuleIndex::build`]. A rule that a run
//! quarantines, or that a mask disables, stays among the candidates; the
//! candidate scan of each interpreter skips it before consulting it, so
//! the index holds rule positions and nothing about any run.

use crate::egraph::{ClassId, EGraph};
use crate::engine::Oriented;
use crate::matching::{pchain_segments, pfunc_tag, ppred_tag, pquery_tag};
use crate::program::{func_kids, pred_kids, query_kids};
use crate::rule::{Direction, RewritePair};
use kola::intern::{ITerm, Tag};
use kola::pattern::{PFunc, PPred, PQuery};

/// Truncation cap on a pattern's edge walk. Patterns longer than this accept
/// early (superset semantics); the deepest catalog head is well under it.
const MAX_WALK: usize = 32;

/// Node-visit budget for one e-graph trie walk ([`DTree::walk_eg`]). The
/// walk branches over every same-tagged e-node of a class, so pathological
/// graphs could explode; exhausting fuel truncates the walk (candidates
/// already collected stand — bounded completeness, never unsoundness,
/// since every candidate is still e-matched structurally).
const WALK_EG_FUEL: usize = 4_096;

/// Sentinel for "no node".
const NONE: u32 = u32::MAX;

/// One edge label of the trie: a concrete constructor or a metavariable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Edge {
    /// A metavariable: consumes one whole subtree of the term.
    Star,
    /// A concrete constructor: consumes one node, descends into its kids.
    Sym(Tag),
}

/// A trie node. Children are a small sorted-by-insertion linear-scan vec —
/// fanout is bounded by the tag alphabet and in practice tiny.
#[derive(Debug, Clone, Default)]
struct DNode {
    /// The `*` child, if any.
    star: u32,
    /// Concrete-constructor children.
    kids: Vec<(Tag, u32)>,
    /// Rule positions whose pattern walk ends here (ascending — patterns
    /// are inserted in rule-position order).
    accepts: Vec<usize>,
}

impl DNode {
    fn new() -> DNode {
        DNode {
            star: NONE,
            kids: Vec::new(),
            accepts: Vec::new(),
        }
    }

    fn kid(&self, tag: Tag) -> Option<u32> {
        self.kids.iter().find(|(t, _)| *t == tag).map(|(_, n)| *n)
    }
}

/// The stack of a candidate walk ([`RuleIndex::func_candidates`] and its
/// siblings), kept by the caller between walks so a warm lookup allocates
/// nothing. Between walks it holds no terms, only its capacity.
#[derive(Debug, Default)]
pub struct WalkStack(Vec<&'static ITerm>);

impl WalkStack {
    /// The empty buffer, for a walk over terms that live for `'t`.
    fn lend<'t>(&mut self) -> Vec<&'t ITerm> {
        std::mem::take(&mut self.0)
    }

    /// Take the buffer back after a walk, emptied.
    fn give_back(&mut self, mut walk: Vec<&ITerm>) {
        walk.clear();
        // An empty `Vec` of references re-typed to another lifetime: the
        // in-place collect keeps the allocation, and no element exists for
        // the closure to see.
        self.0 = walk.into_iter().map(|_| unreachable!()).collect();
    }
}

/// One level's trie (func, pred, or query), with node 0 the root.
#[derive(Debug, Clone)]
struct DTree {
    nodes: Vec<DNode>,
}

impl Default for DTree {
    fn default() -> Self {
        DTree {
            nodes: vec![DNode::new()],
        }
    }
}

impl DTree {
    /// Walk `edges` from the root, creating nodes as needed; returns the
    /// final node's index.
    fn insert_path(&mut self, edges: &[Edge]) -> u32 {
        let mut at = 0u32;
        for e in edges {
            let next = match e {
                Edge::Star => self.nodes[at as usize].star,
                Edge::Sym(t) => self.nodes[at as usize].kid(*t).unwrap_or(NONE),
            };
            at = if next != NONE {
                next
            } else {
                let fresh = self.nodes.len() as u32;
                self.nodes.push(DNode::new());
                match e {
                    Edge::Star => self.nodes[at as usize].star = fresh,
                    Edge::Sym(t) => self.nodes[at as usize].kids.push((*t, fresh)),
                }
                fresh
            };
        }
        at
    }

    /// Collect accepts along every trie path compatible with the term whose
    /// preorder remainder sits on `stack` (top = next subtree). Arriving at
    /// a node yields its accepts unconditionally: for full patterns the
    /// preorder serialization is prefix-free (arity is tag-determined), so
    /// arrival means the whole skeleton agreed; for truncated patterns
    /// arrival early is exactly the intended superset.
    fn walk(&self, at: u32, stack: &mut Vec<&ITerm>, out: &mut Vec<usize>) {
        let node = &self.nodes[at as usize];
        out.extend_from_slice(&node.accepts);
        let Some(&t) = stack.last() else { return };
        if node.star != NONE {
            stack.pop();
            self.walk(node.star, stack, out);
            stack.push(t);
        }
        if let Some(next) = node.kid(t.tag()) {
            stack.pop();
            let kids = t.kids();
            for k in kids.iter().rev() {
                stack.push(k);
            }
            self.walk(next, stack, out);
            for _ in kids {
                stack.pop();
            }
            stack.push(t);
        }
    }

    /// [`DTree::walk`] lifted to e-graph classes: the stack holds class ids
    /// (top = next subtree), a `Star` edge consumes one class, and a `Sym`
    /// edge tries **every** e-node of the top class with that tag,
    /// descending into its kid classes. This is what makes candidate
    /// selection complete over class *membership* rather than one
    /// representative per class: a cheap `iterate` extraction can hide a
    /// `∘` member (or a `×` hide a pair), and only the class walk sees
    /// both. Each recursive call advances one trie edge, so cyclic classes
    /// terminate — depth is bounded by the trie, not the graph.
    fn walk_eg(
        &self,
        at: u32,
        eg: &EGraph,
        stack: &mut Vec<ClassId>,
        out: &mut Vec<usize>,
        fuel: &mut usize,
    ) {
        if *fuel == 0 {
            return;
        }
        *fuel -= 1;
        let node = &self.nodes[at as usize];
        out.extend_from_slice(&node.accepts);
        let Some(&c) = stack.last() else { return };
        if node.star != NONE {
            stack.pop();
            self.walk_eg(node.star, eg, stack, out, fuel);
            stack.push(c);
        }
        if node.kids.is_empty() {
            return;
        }
        let depth = stack.len();
        for en in eg.nodes(eg.find(c)) {
            if let Some(next) = node.kid(en.tag) {
                stack.pop();
                for &k in en.kids.iter().rev() {
                    stack.push(k);
                }
                self.walk_eg(next, eg, stack, out, fuel);
                stack.truncate(depth - 1);
                stack.push(c);
            }
        }
    }

    /// Nodes reachable from `at`, accept entries among them, and max depth.
    fn subtree_stats(&self, at: u32, depth: usize, acc: &mut (usize, usize, usize)) {
        let node = &self.nodes[at as usize];
        acc.0 += 1;
        acc.1 += node.accepts.len();
        acc.2 = acc.2.max(depth);
        if node.star != NONE {
            self.subtree_stats(node.star, depth + 1, acc);
        }
        for (_, n) in &node.kids {
            self.subtree_stats(*n, depth + 1, acc);
        }
    }
}

/// Discrimination-tree index over an oriented rule list (see module docs).
///
/// This is the engine's dispatch structure; the linear rule scan
/// (`EngineConfig::interned_only`) and the boxed engine are its
/// differential oracles.
#[derive(Debug, Clone, Default)]
pub struct RuleIndex {
    func: DTree,
    pred: DTree,
    query: DTree,
    /// Shape as built (see [`RuleIndex::describe`]).
    stats: IndexStats,
}

impl RuleIndex {
    /// Build the index for `rules` (positions refer to this slice).
    /// Backward orientations of one-way rules are unreachable and are not
    /// indexed.
    pub fn build(rules: &[Oriented]) -> RuleIndex {
        let mut ix = RuleIndex::default();
        for (pos, o) in rules.iter().enumerate() {
            if o.dir == Direction::Backward && !o.rule.bidirectional {
                continue;
            }
            for alt in &o.rule.alts {
                let (tree, edges) = match alt {
                    RewritePair::F(l, r) => {
                        let head = if o.dir == Direction::Forward { l } else { r };
                        (&mut ix.func, func_edges(head))
                    }
                    RewritePair::P(l, r) => {
                        let head = if o.dir == Direction::Forward { l } else { r };
                        (&mut ix.pred, pred_edges(head))
                    }
                    RewritePair::Q(l, r) => {
                        let head = if o.dir == Direction::Forward { l } else { r };
                        (&mut ix.query, query_edges(head))
                    }
                };
                let node = tree.insert_path(&edges);
                let accepts = &mut tree.nodes[node as usize].accepts;
                // A rule's alternatives are processed consecutively; two
                // alts with the same skeleton would double-insert.
                if accepts.last() != Some(&pos) {
                    accepts.push(pos);
                }
            }
        }
        ix.stats = ix.measure();
        ix
    }

    /// Candidate rule positions for a function node, ascending. The walk
    /// starts at the chain's first segment — what the prefix matcher
    /// commits on — mirroring the pattern side.
    pub fn func_candidates(&self, t: &ITerm, out: &mut Vec<usize>, stack: &mut WalkStack) {
        let mut seg = t;
        while seg.tag() == Tag::FCompose {
            seg = &seg.kids()[0];
        }
        self.candidates(&self.func, seg, out, stack);
    }

    /// Candidate rule positions for a predicate node, ascending.
    pub fn pred_candidates(&self, t: &ITerm, out: &mut Vec<usize>, stack: &mut WalkStack) {
        self.candidates(&self.pred, t, out, stack);
    }

    /// Candidate rule positions for a query node, ascending.
    pub fn query_candidates(&self, t: &ITerm, out: &mut Vec<usize>, stack: &mut WalkStack) {
        self.candidates(&self.query, t, out, stack);
    }

    fn candidates(&self, tree: &DTree, t: &ITerm, out: &mut Vec<usize>, stack: &mut WalkStack) {
        out.clear();
        let mut walk = stack.lend();
        walk.push(t);
        tree.walk(0, &mut walk, out);
        stack.give_back(walk);
        out.sort_unstable();
        out.dedup();
    }

    /// Candidate rule positions for a function-level e-class, ascending.
    /// Function patterns index their first chain segment, so the walk runs
    /// once per *segment head*: every class reachable from `c` by following
    /// `∘` e-nodes' left kids (cycle-guarded) that owns at least one
    /// non-`∘` member. This mirrors [`RuleIndex::func_candidates`]'s
    /// leading-compose strip, generalized to all members of the class.
    pub fn func_candidates_class(&self, eg: &EGraph, c: ClassId, out: &mut Vec<usize>) {
        out.clear();
        let mut heads: Vec<ClassId> = Vec::new();
        let mut seen: Vec<ClassId> = Vec::new();
        let mut work = vec![eg.find(c)];
        while let Some(h) = work.pop() {
            if seen.contains(&h) {
                continue;
            }
            seen.push(h);
            let mut plain = false;
            for en in eg.nodes(h) {
                if en.tag == Tag::FCompose {
                    work.push(eg.find(en.kids[0]));
                } else {
                    plain = true;
                }
            }
            if plain {
                heads.push(h);
            }
        }
        heads.sort_unstable();
        let mut fuel = WALK_EG_FUEL;
        for h in heads {
            let mut stack = vec![h];
            self.func.walk_eg(0, eg, &mut stack, out, &mut fuel);
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Candidate rule positions for a predicate-level e-class, ascending.
    pub fn pred_candidates_class(&self, eg: &EGraph, c: ClassId, out: &mut Vec<usize>) {
        self.candidates_class(&self.pred, eg, c, out);
    }

    /// Candidate rule positions for a query-level e-class, ascending.
    pub fn query_candidates_class(&self, eg: &EGraph, c: ClassId, out: &mut Vec<usize>) {
        self.candidates_class(&self.query, eg, c, out);
    }

    fn candidates_class(&self, tree: &DTree, eg: &EGraph, c: ClassId, out: &mut Vec<usize>) {
        out.clear();
        let mut stack = vec![eg.find(c)];
        let mut fuel = WALK_EG_FUEL;
        tree.walk_eg(0, eg, &mut stack, out, &mut fuel);
        out.sort_unstable();
        out.dedup();
    }

    /// Tree-shape summary for observability (see [`IndexStats`]), as
    /// measured once by [`RuleIndex::build`], so reading it is O(1).
    pub fn describe(&self) -> IndexStats {
        self.stats
    }

    /// Walk the three tries for [`RuleIndex::describe`].
    fn measure(&self) -> IndexStats {
        fn level(t: &DTree) -> (usize, usize, usize, usize, usize, usize) {
            let mut acc = (0usize, 0usize, 0usize);
            t.subtree_stats(0, 0, &mut acc);
            let (nodes, entries, max_depth) = acc;
            let root = &t.nodes[0];
            let edges: usize = t
                .nodes
                .iter()
                .map(|n| n.kids.len() + usize::from(n.star != NONE))
                .sum();
            let stars: usize = t.nodes.iter().map(|n| usize::from(n.star != NONE)).sum();
            let root_fanout = root.kids.len() + usize::from(root.star != NONE);
            (nodes, entries, max_depth, edges, stars, root_fanout)
        }
        let (fn_, fe, fd, fed, fs, fb) = level(&self.func);
        let (pn, pe, pd, ped, ps, pb) = level(&self.pred);
        let (qn, qe, qd, qed, qs, qb) = level(&self.query);
        let nodes = fn_ + pn + qn;
        let edges = fed + ped + qed;
        let interior = nodes.saturating_sub(
            [&self.func, &self.pred, &self.query]
                .iter()
                .flat_map(|t| t.nodes.iter())
                .filter(|n| n.kids.is_empty() && n.star == NONE)
                .count(),
        );
        IndexStats {
            func_buckets: fb,
            func_entries: fe,
            func_wildcard: wildcard_accepts(&self.func),
            pred_buckets: pb,
            pred_entries: pe,
            pred_wildcard: wildcard_accepts(&self.pred),
            query_buckets: qb,
            query_entries: qe,
            query_wildcard: wildcard_accepts(&self.query),
            tree_nodes: nodes,
            tree_max_depth: fd.max(pd).max(qd),
            tree_edges: edges,
            tree_wildcard_edges: fs + ps + qs,
            tree_mean_fanout_milli: (edges * 1000).checked_div(interior).unwrap_or(0),
        }
    }
}

/// Accept entries sitting in the root's `*` subtree — the rules every node
/// at that level must consider regardless of shape.
fn wildcard_accepts(t: &DTree) -> usize {
    let root = &t.nodes[0];
    if root.star == NONE {
        return 0;
    }
    let mut acc = (0usize, 0usize, 0usize);
    t.subtree_stats(root.star, 1, &mut acc);
    acc.1
}

/// Shape summary of the rule index (see [`RuleIndex::describe`]). The
/// per-level `{buckets,entries,wildcard}` triples are the root fanout, the
/// accept entries, and the accepts under the root `*` edge; the `tree_*`
/// fields describe the trie as a whole.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Distinct root-level choices at the function level.
    pub func_buckets: usize,
    /// Total indexed positions at the function level.
    pub func_entries: usize,
    /// Wildcard (metavariable-rooted) positions at the function level.
    pub func_wildcard: usize,
    /// Distinct root-level choices at the predicate level.
    pub pred_buckets: usize,
    /// Total indexed positions at the predicate level.
    pub pred_entries: usize,
    /// Wildcard positions at the predicate level.
    pub pred_wildcard: usize,
    /// Distinct root-level choices at the query level.
    pub query_buckets: usize,
    /// Total indexed positions at the query level.
    pub query_entries: usize,
    /// Wildcard positions at the query level.
    pub query_wildcard: usize,
    /// Total trie nodes across the three levels.
    pub tree_nodes: usize,
    /// Deepest pattern walk in edges.
    pub tree_max_depth: usize,
    /// Total trie edges across the three levels.
    pub tree_edges: usize,
    /// Trie edges labelled `*`.
    pub tree_wildcard_edges: usize,
    /// Mean fanout of interior nodes, in milli-edges (×1000). Integer so
    /// the struct stays `Eq`.
    pub tree_mean_fanout_milli: usize,
}

/// Preorder edge walk of a function head: the first chain segment only
/// (see module docs), truncated at [`MAX_WALK`].
fn func_edges(pat: &PFunc) -> Vec<Edge> {
    let mut out = Vec::new();
    emit_func(&mut out, pchain_segments(pat)[0]);
    out
}

fn pred_edges(pat: &PPred) -> Vec<Edge> {
    let mut out = Vec::new();
    emit_pred(&mut out, pat);
    out
}

fn query_edges(pat: &PQuery) -> Vec<Edge> {
    let mut out = Vec::new();
    emit_query(&mut out, pat);
    out
}

/// Emit a node's edge, then its children's walks in the interner's kid
/// order, through the rule compiler's kid visitor.
fn emit_func(out: &mut Vec<Edge>, p: &PFunc) {
    if emit(out, pfunc_tag(p)) {
        func_kids(out, p, emit_func, emit_pred, emit_query);
    }
}

fn emit_pred(out: &mut Vec<Edge>, p: &PPred) {
    if emit(out, ppred_tag(p)) {
        pred_kids(out, p, emit_func, emit_pred, emit_query);
    }
}

fn emit_query(out: &mut Vec<Edge>, p: &PQuery) {
    if emit(out, pquery_tag(p)) {
        query_kids(out, p, emit_func, emit_pred, emit_query);
    }
}

/// Emit one node's edge (`Star` for a metavariable) unless the walk is at
/// [`MAX_WALK`]; whether its children's walks follow.
fn emit(out: &mut Vec<Edge>, tag: Option<Tag>) -> bool {
    if out.len() >= MAX_WALK {
        return false;
    }
    out.push(tag.map_or(Edge::Star, Edge::Sym));
    tag.is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::program::{Applied, Program};
    use crate::props::PropDb;
    use kola::intern::Interner;
    use kola::parse::{parse_func, parse_pred, parse_query};

    fn full_forward(c: &Catalog) -> Vec<Oriented<'_>> {
        c.rules().iter().map(Oriented::fwd).collect()
    }

    #[test]
    fn walk_is_superset_of_brute_force_matches() {
        // Brute-force oracle: at every probe node, every rule position whose
        // oriented head matches there (the compiled rule programs over the
        // whole catalog) must be among the tree's candidates, and the candidates
        // must be ascending. Every probe has at least one matching rule, so
        // no probe passes vacuously. (Full behavioral equality is pinned by
        // the engine parity suites.)
        let catalog = Catalog::paper();
        let rules = full_forward(&catalog);
        let tree = RuleIndex::build(&rules);
        let progs: Vec<Program> = rules
            .iter()
            .map(|o| Program::compile(o.rule, o.dir))
            .collect();
        let props = PropDb::new();
        let mut it = Interner::new();
        let mut cand = Vec::new();
        let mut stack = WalkStack::default();
        let check = |src: &str, t: &ITerm, cand: &[usize], it: &mut Interner| {
            assert!(cand.windows(2).all(|w| w[0] < w[1]), "{src}: not ascending");
            let mut matched = 0;
            for (pos, (o, prog)) in rules.iter().zip(&progs).enumerate() {
                if !matches!(prog.apply(t, &props, it), Applied::NoMatch) {
                    matched += 1;
                    assert!(
                        cand.contains(&pos),
                        "{src}: tree dropped matching rule {}",
                        o.rule.id
                    );
                }
            }
            assert!(matched > 0, "{src}: probe matches no rule");
        };

        let funcs = [
            "pi1 . (age, addr)",
            "id . age",
            "iterate(Kp(T), city) . iterate(Kp(T), addr)",
            "iterate(Kp(F), age) . flat",
            "con(Kp(T), pi1, pi2) . age",
            "dedup . bagify",
            "(pi2, pi1) . (pi2, pi1)",
        ];
        for src in funcs {
            let t = it.intern_func(&parse_func(src).unwrap());
            tree.func_candidates(&t, &mut cand, &mut stack);
            check(src, &t, &cand, &mut it);
        }
        let preds = ["Kp(T) & Kp(T)", "~~lt", "inv(gt)", "eq @ (pi2, pi1)"];
        for src in preds {
            let t = it.intern_pred(&parse_pred(src).unwrap());
            tree.pred_candidates(&t, &mut cand, &mut stack);
            check(src, &t, &cand, &mut it);
        }
        let queries = ["P union P", "id ! P", "{} intersect P"];
        for src in queries {
            let t = it.intern_query(&parse_query(src).unwrap());
            tree.query_candidates(&t, &mut cand, &mut stack);
            check(src, &t, &cand, &mut it);
        }
    }

    #[test]
    fn describe_reports_tree_shape() {
        let catalog = Catalog::paper();
        let rules = full_forward(&catalog);
        // The full catalog's forward index, field by field.
        let stats = RuleIndex::build(&rules).describe();
        assert_eq!(
            stats,
            IndexStats {
                func_buckets: 19,
                func_entries: 219,
                func_wildcard: 3,
                pred_buckets: 6,
                pred_entries: 204,
                pred_wildcard: 0,
                query_buckets: 5,
                query_entries: 224,
                query_wildcard: 0,
                tree_nodes: 2177,
                tree_max_depth: 16,
                tree_edges: 2174,
                tree_wildcard_edges: 1128,
                tree_mean_fanout_milli: 1344,
            }
        );
    }
}
