//! Rule programs: each oriented rule compiled once into flat op lists.
//!
//! A KOLA rule is pure pattern matching (no head or body routines), so an
//! oriented alternative compiles to a closed program of two op lists:
//!
//! * a **match list** run over an explicit stack of borrowed `&ITerm`s —
//!   tag and payload checks, slot binds and same-slot checks, and the
//!   chain-prefix ops that match a function head against a prefix of a
//!   right-normalized `∘` chain in place;
//! * a **build list** run over a stack of built nodes — push a slot, a
//!   leaf, a node over the top children, or a `∘` — into a `Sink`.
//!
//! Metavariables are numbered at compile time: slot `i` is the `i`-th
//! distinct `(kind, name)` the head meets in match order. Bindings are a
//! fixed array of borrowed `&ITerm`s, preconditions read slots, and an
//! `ITerm` is cloned only when a node is built.
//!
//! ## Two interpreters
//!
//! A program has one compiled form and two interpreters, so the two
//! interned engines cannot disagree about what a rule means:
//!
//! * [`Program::apply`] runs it at one interned term for the fixpoint
//!   engine ([`crate::fast`]), building into the [`Interner`];
//! * equality saturation ([`crate::saturate`]) runs the same match list
//!   over e-classes, with class ids in the slots, and the same build list
//!   into the e-graph. Each alternative records where its head's chain
//!   segments and its `∘` subpatterns' segments start, and `subtree_end`
//!   finds a node's kid subpatterns in the flat list.
//!
//! Both engines take a rule position's program from one lazily filled
//! table in the [`crate::fast::Engine`].
//!
//! ## Chain prefixes
//!
//! A function head `p₁ ∘ … ∘ pₘ` is matched against the first segments of
//! the right-normalized chain `s₁ ∘ (s₂ ∘ (… ∘ sₙ))`. A cursor holds the
//! unconsumed suffix node. `Seg` splits its first segment off
//! and pushes it for the segment's ops; a trailing `$f` binds the suffix
//! node itself (`RestBind`). Hash-consing makes that node the
//! very chain a segment-vector matcher would rebuild, so nothing is
//! rebuilt, and after a non-variable last segment the cursor *is* the tail
//! that the rewritten prefix is composed onto.
//!
//! ## Normalization invariant
//!
//! Every `∘` a program builds goes through [`icompose`], which
//! re-associates on the fly, so a term assembled from right-normalized
//! parts is right-normalized. The fixpoint engine depends on this to stay
//! in step with the boxed engine, which re-normalizes after every step.

use crate::budget::RewriteError;
use crate::matching::{pchain_segments, pfunc_tag, ppred_tag, pquery_tag};
use crate::props::{PropDb, PropKind, PropTerm};
use crate::rule::{Direction, RewritePair, Rule};
use crate::subst::UnboundVar;
use kola::intern::{icompose, ITerm, Interner, Payload, PayloadRef, Tag};
use kola::pattern::{PFunc, PPred, PQuery, VarKind};
use kola::value::{Sym, Value};

/// A term's syntactic level, read off its root tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Function level (`F*` tags).
    F,
    /// Predicate level (`P*` tags).
    P,
    /// Query level (`Q*` tags).
    Q,
}

impl Level {
    /// The level of a node with root tag `t`.
    pub fn of(t: Tag) -> Level {
        if t <= Tag::FSetDiff {
            Level::F
        } else if t <= Tag::PCurryP {
            Level::P
        } else {
            Level::Q
        }
    }
}

/// One match instruction. Every op but the chain ops pops the term it
/// checks off the match stack.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum MatchOp {
    /// The term's tag is `tag`; push its `arity` children, last first, so
    /// the first child is matched next.
    Node(Tag, usize),
    /// A `Prim`/`PrimP`/`Extent` leaf with this symbol.
    Sym(Tag, Sym),
    /// A `Kp(b)` leaf with this boolean.
    Bool(bool),
    /// A literal leaf with this value.
    Lit(Value),
    /// Bind the term to a slot (the variable's first occurrence).
    Bind(usize),
    /// The term is the node already bound to a slot (pointer equality).
    Same(usize),
    /// Split the chain cursor's first segment off and push it; fails when
    /// the chain is used up.
    Seg,
    /// Bind the whole unconsumed chain (the cursor node) to a slot; fails
    /// when the chain is used up.
    RestBind(usize),
    /// The whole unconsumed chain is the node bound to a slot.
    RestSame(usize),
}

/// One build instruction, in postfix order.
#[derive(Debug, Clone, PartialEq)]
enum BuildOp {
    /// Push the node bound to a slot.
    Slot(usize),
    /// Push a payload-free leaf.
    Leaf(Tag),
    /// Push a `Prim`/`PrimP`/`Extent` leaf.
    Sym(Tag, Sym),
    /// Push `Kp(b)`.
    Bool(bool),
    /// Push a literal.
    Lit(Value),
    /// Pop `arity` children (first child deepest) and push the node.
    Node(Tag, usize),
    /// Pop `b`, then `a`, and push `a ∘ b` built by [`icompose`].
    Compose,
    /// The body names a variable the head never binds: the rule is
    /// malformed and the build fails here, as instantiation would.
    Unbound(Sym),
}

/// Slots, match-stack entries and build-stack entries a program holds in
/// fixed arrays; a program that needs more of any takes a heap buffer.
/// The catalog's largest programs need 7 slots, 5 match-stack entries and
/// 7 build-stack entries (see the tests).
const INLINE: usize = 8;

/// One compiled oriented alternative.
#[derive(Debug, Clone)]
pub(crate) struct Alt {
    pub(crate) level: Level,
    /// The head is a function chain matched by prefix (function level).
    pub(crate) chain: bool,
    pub(crate) matcher: Vec<MatchOp>,
    /// Where a chain head's segments start ([`head_segments`]); empty for
    /// other heads.
    pub(crate) head_segs: Vec<usize>,
    /// Where each `∘` subpattern's segments start ([`compose_segments`]),
    /// by the index of its `∘` op.
    compose_segs: Vec<(usize, Vec<usize>)>,
    build: Vec<BuildOp>,
    /// `(property, slot of the function variable it is about)`; `None`
    /// when the head never binds that variable, which fails the check.
    pre: Vec<(PropKind, Option<usize>)>,
    /// The build list holds a [`BuildOp::Unbound`].
    fails: bool,
    /// `(kind, name)` of each slot, in slot order.
    pub(crate) names: Vec<(VarKind, Sym)>,
    match_depth: usize,
    build_depth: usize,
}

/// Where a build list puts the nodes it makes: the interner, for the
/// fixpoint engine, or the e-graph, for saturation.
pub(crate) trait Sink {
    /// A built node: an interned term or an e-class.
    type Node: Clone;
    /// The node `tag` over `kids`, with `payload`.
    fn mk(&mut self, tag: Tag, payload: PayloadRef<'_>, kids: &[Self::Node]) -> Self::Node;
    /// `a ∘ b`.
    fn compose(&mut self, a: Self::Node, b: Self::Node) -> Self::Node;
}

impl Sink for Interner {
    type Node = ITerm;

    fn mk(&mut self, tag: Tag, payload: PayloadRef<'_>, kids: &[ITerm]) -> ITerm {
        Interner::mk(self, tag, payload, kids)
    }

    /// Re-associates, so the built term stays right-normalized.
    fn compose(&mut self, a: ITerm, b: ITerm) -> ITerm {
        icompose(self, a, b)
    }
}

/// What running a program at a node gives.
#[derive(Debug)]
pub enum Applied {
    /// No alternative's head matches.
    NoMatch,
    /// The first matching head's bindings fail a precondition.
    Refused,
    /// The first matching head binds, the preconditions hold, and this is
    /// the rewritten node, unconsumed chain tail included.
    Rewrote(ITerm),
    /// The first matching head binds, but its body names a variable the
    /// head never binds.
    Failed(RewriteError),
}

/// A rule compiled in one orientation: its alternatives in rule order.
/// Holds no term, so it outlives any arena it runs over.
#[derive(Debug, Clone)]
pub struct Program {
    rule_id: String,
    pub(crate) alts: Vec<Alt>,
}

impl Program {
    /// Compile `rule` oriented by `dir`. A one-way rule compiled backward
    /// has no alternatives and never matches.
    pub fn compile(rule: &Rule, dir: Direction) -> Program {
        let alts = if dir == Direction::Backward && !rule.bidirectional {
            Vec::new()
        } else {
            rule.alts
                .iter()
                .map(|alt| compile_alt(rule, alt, dir))
                .collect()
        };
        Program {
            rule_id: rule.id.clone(),
            alts,
        }
    }

    /// Try the program at the root of the right-normalized term `t`. The
    /// first alternative of `t`'s level whose head matches decides: its
    /// preconditions are read from the slots, then its body is built
    /// (and composed onto the unconsumed chain tail, for a function head).
    pub fn apply(&self, t: &ITerm, props: &PropDb, it: &mut Interner) -> Applied {
        let level = Level::of(t.tag());
        for alt in &self.alts {
            if alt.level != level {
                continue;
            }
            let mut slots_inline = [t; INLINE];
            let mut slots_heap;
            let slots: &mut [&ITerm] = if alt.names.len() <= INLINE {
                &mut slots_inline
            } else {
                slots_heap = vec![t; alt.names.len()];
                &mut slots_heap
            };
            let Some(tail) = alt.run_match(t, slots) else {
                continue;
            };
            if !alt.fails && !alt.preconditions_hold(|i| Some(slots[i]), props) {
                return Applied::Refused;
            }
            return match alt.run_build(|i| slots[i].clone(), it) {
                Ok(out) => Applied::Rewrote(match tail {
                    None => out,
                    Some(tail) => icompose(it, out, tail.clone()),
                }),
                Err(e) => Applied::Failed(RewriteError::RuleFailed {
                    rule_id: self.rule_id.clone(),
                    detail: e.to_string(),
                }),
            };
        }
        Applied::NoMatch
    }

    /// The bindings of the first alternative of `t`'s level whose head
    /// matches at `t`, as `(kind, name, node)` in slot order. For tests and
    /// diagnostics; the engine reads slots in place.
    pub fn bindings(&self, t: &ITerm) -> Option<Vec<(VarKind, Sym, ITerm)>> {
        let level = Level::of(t.tag());
        self.alts
            .iter()
            .filter(|alt| alt.level == level)
            .find_map(|alt| {
                let mut slots = vec![t; alt.names.len()];
                alt.run_match(t, &mut slots)?;
                Some(
                    alt.names
                        .iter()
                        .zip(slots)
                        .map(|((k, v), t)| (*k, v.clone(), t.clone()))
                        .collect(),
                )
            })
    }
}

impl Alt {
    /// Run the match list at `t`, filling `slots`. On a match, the
    /// unconsumed chain tail (`None` when nothing is left over).
    fn run_match<'t>(&self, t: &'t ITerm, slots: &mut [&'t ITerm]) -> Option<Option<&'t ITerm>> {
        let mut stack_inline = [t; INLINE];
        let mut stack_heap;
        let stack: &mut [&ITerm] = if self.match_depth <= INLINE {
            &mut stack_inline
        } else {
            stack_heap = vec![t; self.match_depth];
            &mut stack_heap
        };
        // A chain head starts from the cursor; any other head from `t` on
        // the stack.
        let (mut sp, mut rest) = if self.chain { (0, Some(t)) } else { (1, None) };
        for op in &self.matcher {
            match op {
                MatchOp::Node(tag, _) => {
                    sp -= 1;
                    let x = stack[sp];
                    if x.tag() != *tag {
                        return None;
                    }
                    for k in x.kids().iter().rev() {
                        stack[sp] = k;
                        sp += 1;
                    }
                }
                MatchOp::Sym(tag, s) => {
                    sp -= 1;
                    let x = stack[sp];
                    if x.tag() != *tag || !matches!(x.payload(), Payload::Sym(b) if b == s) {
                        return None;
                    }
                }
                MatchOp::Bool(b) => {
                    sp -= 1;
                    let x = stack[sp];
                    if x.tag() != Tag::PConstP || !matches!(x.payload(), Payload::Bool(v) if v == b)
                    {
                        return None;
                    }
                }
                MatchOp::Lit(v) => {
                    sp -= 1;
                    let x = stack[sp];
                    if x.tag() != Tag::QLit
                        || !matches!(x.payload(), Payload::Value(w) if w.as_ref() == v)
                    {
                        return None;
                    }
                }
                MatchOp::Bind(i) => {
                    sp -= 1;
                    slots[*i] = stack[sp];
                }
                MatchOp::Same(i) => {
                    sp -= 1;
                    if !stack[sp].ptr_eq(slots[*i]) {
                        return None;
                    }
                }
                MatchOp::Seg => {
                    let cur = rest?;
                    // The chain is right-normalized: a segment is never
                    // itself a `∘`.
                    let (seg, tail) = if cur.tag() == Tag::FCompose {
                        let k = cur.kids();
                        debug_assert_ne!(k[0].tag(), Tag::FCompose, "chain not right-normalized");
                        (&k[0], Some(&k[1]))
                    } else {
                        (cur, None)
                    };
                    stack[sp] = seg;
                    sp += 1;
                    rest = tail;
                }
                MatchOp::RestBind(i) => {
                    slots[*i] = rest?;
                    rest = None;
                }
                MatchOp::RestSame(i) => {
                    if !rest?.ptr_eq(slots[*i]) {
                        return None;
                    }
                    rest = None;
                }
            }
        }
        debug_assert_eq!(sp, 0, "match list left terms unchecked");
        Some(rest)
    }

    /// Every precondition holds of the term `term` gives for its slot
    /// (`None` fails it).
    pub(crate) fn preconditions_hold<'t>(
        &self,
        term: impl Fn(usize) -> Option<&'t ITerm>,
        props: &PropDb,
    ) -> bool {
        self.pre.iter().all(|&(prop, slot)| {
            slot.and_then(&term)
                .is_some_and(|t| props.holds_interned(prop, t))
        })
    }

    /// Run the build list into `sink`, reading slot `i` as `slot(i)`.
    pub(crate) fn run_build<S: Sink>(
        &self,
        slot: impl Fn(usize) -> S::Node,
        sink: &mut S,
    ) -> Result<S::Node, UnboundVar> {
        let mut stack_inline: [Option<S::Node>; INLINE] = Default::default();
        let mut stack_heap;
        let stack: &mut [Option<S::Node>] = if self.build_depth <= INLINE {
            &mut stack_inline
        } else {
            stack_heap = vec![None; self.build_depth];
            &mut stack_heap
        };
        let mut sp = 0;
        fn pop<N>(sp: &mut usize, stack: &mut [Option<N>]) -> N {
            *sp -= 1;
            stack[*sp].take().expect("build stack underflow")
        }
        for op in &self.build {
            let node = match op {
                BuildOp::Slot(i) => slot(*i),
                BuildOp::Leaf(tag) => sink.mk(*tag, PayloadRef::None, &[]),
                BuildOp::Sym(tag, s) => sink.mk(*tag, PayloadRef::Sym(s), &[]),
                BuildOp::Bool(b) => sink.mk(Tag::PConstP, PayloadRef::Bool(*b), &[]),
                BuildOp::Lit(v) => sink.mk(Tag::QLit, PayloadRef::Value(v), &[]),
                BuildOp::Node(tag, 1) => {
                    let a = pop(&mut sp, stack);
                    sink.mk(*tag, PayloadRef::None, &[a])
                }
                BuildOp::Node(tag, 2) => {
                    let b = pop(&mut sp, stack);
                    let a = pop(&mut sp, stack);
                    sink.mk(*tag, PayloadRef::None, &[a, b])
                }
                BuildOp::Node(tag, _) => {
                    let c = pop(&mut sp, stack);
                    let b = pop(&mut sp, stack);
                    let a = pop(&mut sp, stack);
                    sink.mk(*tag, PayloadRef::None, &[a, b, c])
                }
                BuildOp::Compose => {
                    let b = pop(&mut sp, stack);
                    let a = pop(&mut sp, stack);
                    sink.compose(a, b)
                }
                BuildOp::Unbound(v) => return Err(UnboundVar(v.clone())),
            };
            stack[sp] = Some(node);
            sp += 1;
        }
        debug_assert_eq!(sp, 1, "build list must leave exactly one node");
        Ok(pop(&mut sp, stack))
    }

    /// The slots the build list reads, in build order.
    pub(crate) fn build_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.build.iter().filter_map(|op| match op {
            BuildOp::Slot(i) => Some(*i),
            _ => None,
        })
    }

    /// Where the segments of the `∘` subpattern at `matcher[pc]` start.
    pub(crate) fn compose_segs(&self, pc: usize) -> &[usize] {
        let (_, segs) = self
            .compose_segs
            .iter()
            .find(|(at, _)| *at == pc)
            .expect("a `∘` op of the match list");
        segs
    }
}

/// Where each segment of a chain head's match list starts: the op after
/// each `Seg`, then a trailing `RestBind`/`RestSame`.
fn head_segments(ops: &[MatchOp]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut pc = 0;
    while pc < ops.len() {
        if ops[pc] == MatchOp::Seg {
            out.push(pc + 1);
            pc = subtree_end(ops, pc + 1);
        } else {
            out.push(pc);
            pc += 1;
        }
    }
    out
}

/// Where each segment of the `∘` subpattern at `ops[pc]` starts, left to
/// right, nested `∘`s flattened as [`pchain_segments`] flattens them.
fn compose_segments(ops: &[MatchOp], pc: usize, out: &mut Vec<usize>) {
    if ops[pc] == MatchOp::Node(Tag::FCompose, 2) {
        compose_segments(ops, pc + 1, out);
        compose_segments(ops, subtree_end(ops, pc + 1), out);
    } else {
        out.push(pc);
    }
}

/// The index just past the subpattern whose ops start at `ops[pc]`.
pub(crate) fn subtree_end(ops: &[MatchOp], mut pc: usize) -> usize {
    let mut open = 1;
    while open > 0 {
        if let MatchOp::Node(_, n) = ops[pc] {
            open += n;
        }
        open -= 1;
        pc += 1;
    }
    pc
}

/// Compile one alternative of `rule` oriented by `dir`.
fn compile_alt(rule: &Rule, alt: &RewritePair, dir: Direction) -> Alt {
    let mut c = Compiler::default();
    let (level, chain) = match alt {
        RewritePair::F(l, r) => {
            let (head, body) = orient(l, r, dir);
            c.chain_head(head);
            c.build_func(body);
            (Level::F, true)
        }
        RewritePair::P(l, r) => {
            let (head, body) = orient(l, r, dir);
            c.match_pred(head);
            c.build_pred(body);
            (Level::P, false)
        }
        RewritePair::Q(l, r) => {
            let (head, body) = orient(l, r, dir);
            c.match_query(head);
            c.build_query(body);
            (Level::Q, false)
        }
    };
    let pre = rule
        .preconditions
        .iter()
        .map(|p| match &p.subject {
            PropTerm::FuncVar(name) => (p.prop, c.slot_of(VarKind::Func, name)),
        })
        .collect();
    let match_depth = match_depth(&c.matcher, chain);
    let build_depth = build_depth(&c.build);
    let head_segs = if chain {
        head_segments(&c.matcher)
    } else {
        Vec::new()
    };
    let compose_segs = (0..c.matcher.len())
        .filter(|&pc| c.matcher[pc] == MatchOp::Node(Tag::FCompose, 2))
        .map(|pc| {
            let mut segs = Vec::new();
            compose_segments(&c.matcher, pc, &mut segs);
            (pc, segs)
        })
        .collect();
    Alt {
        level,
        chain,
        head_segs,
        compose_segs,
        fails: c.build.iter().any(|op| matches!(op, BuildOp::Unbound(_))),
        names: c.vars,
        matcher: c.matcher,
        build: c.build,
        pre,
        match_depth,
        build_depth,
    }
}

/// `(head, body)` of a pair oriented by `dir`.
fn orient<'p, T>(l: &'p T, r: &'p T, dir: Direction) -> (&'p T, &'p T) {
    match dir {
        Direction::Forward => (l, r),
        Direction::Backward => (r, l),
    }
}

/// The deepest the match stack gets running `ops`.
fn match_depth(ops: &[MatchOp], chain: bool) -> usize {
    let mut sp = usize::from(!chain);
    let mut max = sp;
    for op in ops {
        match op {
            MatchOp::Node(_, n) => sp = sp - 1 + n,
            MatchOp::Seg => sp += 1,
            MatchOp::RestBind(_) | MatchOp::RestSame(_) => {}
            _ => sp -= 1,
        }
        max = max.max(sp);
    }
    max
}

/// The deepest the build stack gets running `ops`.
fn build_depth(ops: &[BuildOp]) -> usize {
    let mut sp: usize = 0;
    let mut max = 0;
    for op in ops {
        match op {
            BuildOp::Node(_, n) => sp = sp + 1 - n,
            BuildOp::Compose => sp -= 1,
            _ => sp += 1,
        }
        max = max.max(sp);
    }
    max
}

/// Accumulates one alternative's op lists and slot numbering.
#[derive(Default)]
struct Compiler {
    matcher: Vec<MatchOp>,
    build: Vec<BuildOp>,
    /// `(kind, name)` of each slot, in slot order.
    vars: Vec<(VarKind, Sym)>,
}

impl Compiler {
    fn slot_of(&self, kind: VarKind, name: &Sym) -> Option<usize> {
        self.vars.iter().position(|(k, v)| *k == kind && v == name)
    }

    /// The op for a variable occurrence in the head: bind on its first
    /// occurrence, check on every later one.
    fn var(&mut self, kind: VarKind, name: &Sym, rest: bool) {
        let op = match (self.slot_of(kind, name), rest) {
            (Some(i), false) => MatchOp::Same(i),
            (Some(i), true) => MatchOp::RestSame(i),
            (None, rest) => {
                self.vars.push((kind, name.clone()));
                let i = self.vars.len() - 1;
                if rest {
                    MatchOp::RestBind(i)
                } else {
                    MatchOp::Bind(i)
                }
            }
        };
        self.matcher.push(op);
    }

    /// A function head matched against a prefix of the term's chain: all
    /// but the last pattern segment match one term segment each; a
    /// trailing variable takes the whole remaining chain.
    fn chain_head(&mut self, head: &PFunc) {
        let segs = pchain_segments(head);
        let (last, init) = segs.split_last().expect("a chain has a segment");
        for seg in init {
            self.matcher.push(MatchOp::Seg);
            self.match_func(seg);
        }
        match last {
            PFunc::Var(v) => self.var(VarKind::Func, v, true),
            seg => {
                self.matcher.push(MatchOp::Seg);
                self.match_func(seg);
            }
        }
    }

    fn match_func(&mut self, p: &PFunc) {
        let Some(tag) = pfunc_tag(p) else {
            let PFunc::Var(v) = p else { unreachable!() };
            return self.var(VarKind::Func, v, false);
        };
        match p {
            PFunc::Prim(s) => self.matcher.push(MatchOp::Sym(tag, s.clone())),
            _ => {
                let at = self.matcher.len();
                self.matcher.push(MatchOp::Node(tag, 0));
                let n = func_kids(
                    self,
                    p,
                    Self::match_func,
                    Self::match_pred,
                    Self::match_query,
                );
                self.matcher[at] = MatchOp::Node(tag, n);
            }
        }
    }

    fn match_pred(&mut self, p: &PPred) {
        let Some(tag) = ppred_tag(p) else {
            let PPred::Var(v) = p else { unreachable!() };
            return self.var(VarKind::Pred, v, false);
        };
        match p {
            PPred::PrimP(s) => self.matcher.push(MatchOp::Sym(tag, s.clone())),
            PPred::ConstP(b) => self.matcher.push(MatchOp::Bool(*b)),
            _ => {
                let at = self.matcher.len();
                self.matcher.push(MatchOp::Node(tag, 0));
                let n = pred_kids(
                    self,
                    p,
                    Self::match_func,
                    Self::match_pred,
                    Self::match_query,
                );
                self.matcher[at] = MatchOp::Node(tag, n);
            }
        }
    }

    fn match_query(&mut self, p: &PQuery) {
        let Some(tag) = pquery_tag(p) else {
            let PQuery::Var(v) = p else { unreachable!() };
            return self.var(VarKind::Obj, v, false);
        };
        match p {
            PQuery::Lit(v) => self.matcher.push(MatchOp::Lit(v.clone())),
            PQuery::Extent(s) => self.matcher.push(MatchOp::Sym(tag, s.clone())),
            _ => {
                let at = self.matcher.len();
                self.matcher.push(MatchOp::Node(tag, 0));
                let n = query_kids(
                    self,
                    p,
                    Self::match_func,
                    Self::match_pred,
                    Self::match_query,
                );
                self.matcher[at] = MatchOp::Node(tag, n);
            }
        }
    }

    /// A body variable: its slot, or the malformed-rule marker.
    fn build_var(&mut self, kind: VarKind, name: &Sym) {
        let op = match self.slot_of(kind, name) {
            Some(i) => BuildOp::Slot(i),
            None => BuildOp::Unbound(name.clone()),
        };
        self.build.push(op);
    }

    fn build_func(&mut self, p: &PFunc) {
        let Some(tag) = pfunc_tag(p) else {
            let PFunc::Var(v) = p else { unreachable!() };
            return self.build_var(VarKind::Func, v);
        };
        match p {
            PFunc::Prim(s) => self.build.push(BuildOp::Sym(tag, s.clone())),
            PFunc::Compose(a, b) => {
                self.build_func(a);
                self.build_func(b);
                self.build.push(BuildOp::Compose);
            }
            _ => {
                let n = func_kids(
                    self,
                    p,
                    Self::build_func,
                    Self::build_pred,
                    Self::build_query,
                );
                self.build.push(node_op(tag, n));
            }
        }
    }

    fn build_pred(&mut self, p: &PPred) {
        let Some(tag) = ppred_tag(p) else {
            let PPred::Var(v) = p else { unreachable!() };
            return self.build_var(VarKind::Pred, v);
        };
        match p {
            PPred::PrimP(s) => self.build.push(BuildOp::Sym(tag, s.clone())),
            PPred::ConstP(b) => self.build.push(BuildOp::Bool(*b)),
            _ => {
                let n = pred_kids(
                    self,
                    p,
                    Self::build_func,
                    Self::build_pred,
                    Self::build_query,
                );
                self.build.push(node_op(tag, n));
            }
        }
    }

    fn build_query(&mut self, p: &PQuery) {
        let Some(tag) = pquery_tag(p) else {
            let PQuery::Var(v) = p else { unreachable!() };
            return self.build_var(VarKind::Obj, v);
        };
        match p {
            PQuery::Lit(v) => self.build.push(BuildOp::Lit(v.clone())),
            PQuery::Extent(s) => self.build.push(BuildOp::Sym(tag, s.clone())),
            _ => {
                let n = query_kids(
                    self,
                    p,
                    Self::build_func,
                    Self::build_pred,
                    Self::build_query,
                );
                self.build.push(node_op(tag, n));
            }
        }
    }
}

/// Visit a function pattern's children in node order, handing each to the
/// visitor of its level; their count. The one kid-order switch that the
/// compiler and the discrimination tree share.
pub(crate) fn func_kids<S>(
    s: &mut S,
    p: &PFunc,
    f: fn(&mut S, &PFunc),
    pr: fn(&mut S, &PPred),
    q: fn(&mut S, &PQuery),
) -> usize {
    match p {
        PFunc::Compose(a, b)
        | PFunc::PairWith(a, b)
        | PFunc::Times(a, b)
        | PFunc::Nest(a, b)
        | PFunc::Unnest(a, b) => {
            f(s, a);
            f(s, b);
            2
        }
        PFunc::ConstF(x) => {
            q(s, x);
            1
        }
        PFunc::CurryF(a, x) => {
            f(s, a);
            q(s, x);
            2
        }
        PFunc::Cond(c, a, b) => {
            pr(s, c);
            f(s, a);
            f(s, b);
            3
        }
        PFunc::Iterate(c, a) | PFunc::Iter(c, a) | PFunc::Join(c, a) | PFunc::BIterate(c, a) => {
            pr(s, c);
            f(s, a);
            2
        }
        _ => 0,
    }
}

/// Visit a predicate pattern's children in node order; their count.
pub(crate) fn pred_kids<S>(
    s: &mut S,
    p: &PPred,
    f: fn(&mut S, &PFunc),
    pr: fn(&mut S, &PPred),
    q: fn(&mut S, &PQuery),
) -> usize {
    match p {
        PPred::Oplus(c, a) => {
            pr(s, c);
            f(s, a);
            2
        }
        PPred::And(a, b) | PPred::Or(a, b) => {
            pr(s, a);
            pr(s, b);
            2
        }
        PPred::Not(a) | PPred::Conv(a) => {
            pr(s, a);
            1
        }
        PPred::CurryP(c, x) => {
            pr(s, c);
            q(s, x);
            2
        }
        _ => 0,
    }
}

/// Visit a query pattern's children in node order; their count.
pub(crate) fn query_kids<S>(
    s: &mut S,
    p: &PQuery,
    f: fn(&mut S, &PFunc),
    pr: fn(&mut S, &PPred),
    q: fn(&mut S, &PQuery),
) -> usize {
    match p {
        PQuery::PairQ(a, b)
        | PQuery::Union(a, b)
        | PQuery::Intersect(a, b)
        | PQuery::Diff(a, b) => {
            q(s, a);
            q(s, b);
            2
        }
        PQuery::App(a, x) => {
            f(s, a);
            q(s, x);
            2
        }
        PQuery::Test(c, x) => {
            pr(s, c);
            q(s, x);
            2
        }
        _ => 0,
    }
}

/// The build op for a node with `n` children (a leaf when `n` is 0).
fn node_op(tag: Tag, n: usize) -> BuildOp {
    if n == 0 {
        BuildOp::Leaf(tag)
    } else {
        BuildOp::Node(tag, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kola::parse::{parse_func, parse_query};

    #[test]
    fn a_chain_window_rewrites_like_the_boxed_rule() {
        let mut it = Interner::new();
        let r = Rule::func(
            "11",
            "iterate-fuse",
            "iterate(%p, $f) . iterate(%q, $g)",
            "iterate(%q & %p @ $g, $f . $g)",
        );
        let t = parse_func("iterate(Kp(T), city) . iterate(Kp(T), addr) . flat")
            .unwrap()
            .normalize();
        let boxed = r
            .try_apply_func(&t, Direction::Forward)
            .unwrap()
            .unwrap()
            .0
            .normalize();
        let prog = Program::compile(&r, Direction::Forward);
        let Applied::Rewrote(out) = prog.apply(&it.intern_func(&t), &PropDb::new(), &mut it) else {
            panic!("rule 11 must fire");
        };
        // The same node the boxed result interns to.
        assert!(out.ptr_eq(&it.intern_func(&boxed)));
    }

    #[test]
    fn query_level_application() {
        let mut it = Interner::new();
        let r = Rule::query("app", "apply", "($f . $g) ! ^x", "$f ! ($g ! ^x)");
        let q = it.intern_query(&parse_query("(a . b) ! P").unwrap().normalize());
        let prog = Program::compile(&r, Direction::Forward);
        let Applied::Rewrote(out) = prog.apply(&q, &PropDb::new(), &mut it) else {
            panic!("app must fire");
        };
        assert_eq!(out.to_query(), parse_query("a ! (b ! P)").unwrap());
        let binds = prog.bindings(&q).unwrap();
        let names: Vec<&str> = binds.iter().map(|(_, v, _)| v.as_ref()).collect();
        assert_eq!(names, ["f", "g", "x"], "slots in match order");
    }

    #[test]
    fn a_repeated_variable_compiles_to_a_same_slot_check() {
        let r = Rule::pred("x", "and-idem", "%p & %p", "%p");
        let prog = Program::compile(&r, Direction::Forward);
        let Alt { matcher, build, .. } = &prog.alts[0];
        assert_eq!(
            *matcher,
            [
                MatchOp::Node(Tag::PAnd, 2),
                MatchOp::Bind(0),
                MatchOp::Same(0)
            ]
        );
        assert_eq!(*build, [BuildOp::Slot(0)]);
        let mut it = Interner::new();
        let same = it.intern_pred(&kola::parse::parse_pred("eq & eq").unwrap());
        let differ = it.intern_pred(&kola::parse::parse_pred("eq & lt").unwrap());
        assert!(matches!(
            prog.apply(&same, &PropDb::new(), &mut it),
            Applied::Rewrote(_)
        ));
        assert!(matches!(
            prog.apply(&differ, &PropDb::new(), &mut it),
            Applied::NoMatch
        ));
    }

    #[test]
    fn one_way_refuses_backward() {
        let mut it = Interner::new();
        let r = Rule::func("x", "oneway", "id . $f", "$f").one_way();
        let t = it.intern_func(&parse_func("age").unwrap());
        let prog = Program::compile(&r, Direction::Backward);
        assert!(matches!(
            prog.apply(&t, &PropDb::new(), &mut it),
            Applied::NoMatch
        ));
    }

    #[test]
    fn an_unbound_body_variable_fails_the_rule() {
        let mut it = Interner::new();
        let r = Rule::func("bad", "unbound", "pi1 . $f", "$g");
        let t = it.intern_func(&parse_func("pi1 . age").unwrap());
        let prog = Program::compile(&r, Direction::Forward);
        match prog.apply(&t, &PropDb::new(), &mut it) {
            Applied::Failed(e) => assert_eq!(
                e.to_string(),
                r.try_apply_func(&t.to_func(), Direction::Forward)
                    .unwrap_err()
                    .to_string()
            ),
            other => panic!("expected a failure, got {other:?}"),
        }
    }

    #[test]
    fn a_rule_past_the_inline_buffers_spills_to_the_heap() {
        // Ten variables in a left-nested head (the match stack grows one
        // entry a level) and a right-nested body (every leaf is pushed
        // before the first node is built): more slots, match-stack and
        // build-stack entries than `INLINE`.
        let vars: Vec<String> = (0..10).map(|i| format!("%v{i}")).collect();
        let left = |vs: &[String]| {
            let (first, rest) = vs.split_first().unwrap();
            rest.iter()
                .fold(first.clone(), |acc, v| format!("({acc}) & {v}"))
        };
        let right = |vs: &[String]| {
            let (last, init) = vs.split_last().unwrap();
            init.iter()
                .rev()
                .fold(last.clone(), |acc, v| format!("{v} & ({acc})"))
        };
        let r = Rule::pred("wide", "wide", &left(&vars), &right(&vars));
        let alt = &Program::compile(&r, Direction::Forward).alts[0];
        assert!(alt.names.len() > INLINE && alt.match_depth > INLINE && alt.build_depth > INLINE);
        let preds = [
            "eq", "lt", "leq", "gt", "geq", "in", "Kp(T)", "Kp(F)", "~eq", "inv(lt)",
        ];
        let src = left(&preds.map(String::from));
        let t = kola::parse::parse_pred(&src).unwrap();
        let boxed = r.apply_pred(&t, Direction::Forward).unwrap().0;
        let mut it = Interner::new();
        let it_t = it.intern_pred(&t);
        let prog = Program::compile(&r, Direction::Forward);
        let Applied::Rewrote(out) = prog.apply(&it_t, &PropDb::new(), &mut it) else {
            panic!("the wide rule must fire");
        };
        assert!(out.ptr_eq(&it.intern_pred(&boxed)));
    }

    #[test]
    fn catalog_programs_fit_the_inline_buffers() {
        // A program spills to the heap only past `INLINE` slots or stack
        // entries; no orientation of any catalog rule gets there.
        let catalog = crate::catalog::Catalog::paper();
        let (mut slots, mut matched, mut built) = (0, 0, 0);
        for rule in catalog.rules() {
            for dir in [Direction::Forward, Direction::Backward] {
                for alt in Program::compile(rule, dir).alts {
                    slots = slots.max(alt.names.len());
                    matched = matched.max(alt.match_depth);
                    built = built.max(alt.build_depth);
                }
            }
        }
        assert!(
            slots <= INLINE && matched <= INLINE && built <= INLINE,
            "slots {slots}, match stack {matched}, build stack {built}"
        );
    }
}
