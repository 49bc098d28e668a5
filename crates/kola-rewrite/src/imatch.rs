//! Matching, instantiation and rule application over *interned* terms.
//!
//! Mirrors [`crate::matching`] / [`crate::subst`] / the `Rule::try_apply_*`
//! family exactly, but works on [`ITerm`] handles so that
//!
//! * metavariable binding consistency is an O(1) pointer comparison instead
//!   of a structural walk,
//! * instantiation shares every bound subterm instead of cloning it, and
//! * every term the fast engine constructs is hash-consed, so equal results
//!   are the same allocation.
//!
//! A rule attempt allocates only for nodes the arena does not hold yet.
//! [`ISubst`] keeps each variable kind's bindings in an [`IBinds`]: a few
//! `(name, term)` pairs inline, scanned linearly (a head binds a handful of
//! variables). Instantiation hands [`Interner::mk`] children on the stack.
//! A function head is matched against the chain *in place*
//! ([`imatch_func_prefix`]): a cursor walks the term's right spine while
//! the pattern's segments sit in a fixed array.
//!
//! ## Normalization invariant
//!
//! The boxed engine re-normalizes the whole term after every rule
//! application (`applied.result.normalize()`). The interned path instead
//! maintains the invariant *incrementally*: [`icompose`] is the only way a
//! `∘` node is ever built here, and it re-associates on the fly, so any term
//! assembled from right-normalized parts is right-normalized. Differential
//! parity with the boxed engine (which this module is tested against on
//! thousands of fuzzed terms) depends on this invariant.
//!
//! The in-place chain match depends on it too. In a right-normalized chain
//! `s₁ ∘ (s₂ ∘ (… ∘ sₙ))`, the node below the first `k` segments *is* the
//! chain of the remaining segments, and hash-consing makes it the very node
//! that rebuilding those segments would return. So a trailing `$f` binds to
//! that suffix node, and the unconsumed tail is that node, with nothing
//! rebuilt. (`tests/imatch_in_place.rs` holds the segment-vector matcher
//! this replaced and checks the two agree.)

use crate::budget::RewriteError;
use crate::matching::pchain_segments;
use crate::props::{PropDb, PropTerm};
use crate::rule::{Direction, Precondition, RewritePair, Rule};
use crate::subst::UnboundVar;
use kola::intern::{icompose, ITerm, Interner, Payload, PayloadRef, Tag};
use kola::pattern::{PFunc, PPred, PQuery};
use kola::value::Sym;

/// Bindings held inline per variable kind; a head that binds more of one
/// kind spills the rest to the heap.
const INLINE_BINDS: usize = 5;

/// One variable kind's bindings: `(name, term)` pairs in binding order, the
/// first [`INLINE_BINDS`] of them inline. Binding and lookup allocate
/// nothing for any head in the catalog.
#[derive(Debug, Clone, Default)]
pub struct IBinds {
    inline: [Option<(Sym, ITerm)>; INLINE_BINDS],
    spill: Vec<(Sym, ITerm)>,
}

impl IBinds {
    /// The term bound to `v`, if any.
    pub fn get(&self, v: &str) -> Option<&ITerm> {
        self.iter().find(|(k, _)| k.as_ref() == v).map(|(_, t)| t)
    }

    /// Bind `v` to `t`, replacing an earlier binding of `v`.
    pub fn insert(&mut self, v: Sym, t: ITerm) {
        let slots = self
            .inline
            .iter_mut()
            .flatten()
            .chain(self.spill.iter_mut());
        for (k, old) in slots {
            if *k == v {
                *old = t;
                return;
            }
        }
        match self.inline.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = Some((v, t)),
            None => self.spill.push((v, t)),
        }
    }

    /// Every binding, in binding order.
    pub fn iter(&self) -> impl Iterator<Item = (&Sym, &ITerm)> {
        self.inline
            .iter()
            .flatten()
            .chain(&self.spill)
            .map(|(k, t)| (k, t))
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.inline.iter().flatten().count() + self.spill.len()
    }

    /// True iff nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.inline[0].is_none()
    }

    /// Bind `v` to `t` unless it is bound already; true iff `v`'s binding
    /// is (now) `t`, by pointer.
    fn bind(&mut self, v: &Sym, t: &ITerm) -> bool {
        match self.get(v) {
            Some(existing) => existing.ptr_eq(t),
            None => {
                self.insert(v.clone(), t.clone());
                true
            }
        }
    }
}

/// Metavariable bindings over interned terms (the [`crate::subst::Subst`]
/// analogue). Consistency checks are pointer comparisons.
#[derive(Debug, Clone, Default)]
pub struct ISubst {
    /// Function variable bindings (`$f`).
    pub funcs: IBinds,
    /// Predicate variable bindings (`%p`).
    pub preds: IBinds,
    /// Object variable bindings (`^x`).
    pub objs: IBinds,
}

impl ISubst {
    /// An empty substitution.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Rebuild a right-associated chain from owned segments; empty chain is
/// `id` (the [`crate::matching::compose_chain`] analogue).
pub fn icompose_chain(it: &mut Interner, mut segs: Vec<ITerm>) -> ITerm {
    let Some(last) = segs.pop() else {
        return it.mk(Tag::FId, PayloadRef::None, &[]);
    };
    segs.into_iter()
        .rev()
        .fold(last, |acc, f| icompose(it, f, acc))
}

/// Match a function pattern against an interned function exactly (the
/// [`crate::matching::match_func`] analogue).
pub fn imatch_func(pat: &PFunc, t: &ITerm, s: &mut ISubst) -> bool {
    if let PFunc::Var(v) = pat {
        return s.funcs.bind(v, t);
    }
    let k = t.kids();
    match (pat, t.tag()) {
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
        | (PFunc::SetDiff, Tag::FSetDiff) => true,
        (PFunc::Prim(a), Tag::FPrim) => matches!(t.payload(), Payload::Sym(b) if a == b),
        (PFunc::Compose(p1, p2), Tag::FCompose)
        | (PFunc::PairWith(p1, p2), Tag::FPairWith)
        | (PFunc::Times(p1, p2), Tag::FTimes)
        | (PFunc::Nest(p1, p2), Tag::FNest)
        | (PFunc::Unnest(p1, p2), Tag::FUnnest) => {
            matches_same_pf(pat, t.tag()) && imatch_func(p1, &k[0], s) && imatch_func(p2, &k[1], s)
        }
        (PFunc::ConstF(pq), Tag::FConstF) => imatch_query(pq, &k[0], s),
        (PFunc::CurryF(pf, pq), Tag::FCurryF) => {
            imatch_func(pf, &k[0], s) && imatch_query(pq, &k[1], s)
        }
        (PFunc::Cond(pp, pf, pg), Tag::FCond) => {
            imatch_pred(pp, &k[0], s) && imatch_func(pf, &k[1], s) && imatch_func(pg, &k[2], s)
        }
        (PFunc::Iterate(pp, pf), Tag::FIterate)
        | (PFunc::Iter(pp, pf), Tag::FIter)
        | (PFunc::Join(pp, pf), Tag::FJoin)
        | (PFunc::BIterate(pp, pf), Tag::FBIterate) => {
            matches_same_pf(pat, t.tag()) && imatch_pred(pp, &k[0], s) && imatch_func(pf, &k[1], s)
        }
        _ => false,
    }
}

/// Guard for the or-pattern arms of [`imatch_func`]: pattern and term must
/// use the *same* constructor.
fn matches_same_pf(pat: &PFunc, tag: Tag) -> bool {
    matches!(
        (pat, tag),
        (PFunc::Compose(..), Tag::FCompose)
            | (PFunc::PairWith(..), Tag::FPairWith)
            | (PFunc::Times(..), Tag::FTimes)
            | (PFunc::Nest(..), Tag::FNest)
            | (PFunc::Unnest(..), Tag::FUnnest)
            | (PFunc::Iterate(..), Tag::FIterate)
            | (PFunc::Iter(..), Tag::FIter)
            | (PFunc::Join(..), Tag::FJoin)
            | (PFunc::BIterate(..), Tag::FBIterate)
    )
}

/// Match a predicate pattern against an interned predicate (the
/// [`crate::matching::match_pred`] analogue).
pub fn imatch_pred(pat: &PPred, t: &ITerm, s: &mut ISubst) -> bool {
    if let PPred::Var(v) = pat {
        return s.preds.bind(v, t);
    }
    let k = t.kids();
    match (pat, t.tag()) {
        (PPred::Eq, Tag::PEq)
        | (PPred::Lt, Tag::PLt)
        | (PPred::Leq, Tag::PLeq)
        | (PPred::Gt, Tag::PGt)
        | (PPred::Geq, Tag::PGeq)
        | (PPred::In, Tag::PIn) => true,
        (PPred::PrimP(a), Tag::PPrimP) => matches!(t.payload(), Payload::Sym(b) if a == b),
        (PPred::ConstP(a), Tag::PConstP) => matches!(t.payload(), Payload::Bool(b) if a == b),
        (PPred::Oplus(pp, pf), Tag::POplus) => {
            imatch_pred(pp, &k[0], s) && imatch_func(pf, &k[1], s)
        }
        (PPred::And(p1, p2), Tag::PAnd) | (PPred::Or(p1, p2), Tag::POr) => {
            matches!(
                (pat, t.tag()),
                (PPred::And(..), Tag::PAnd) | (PPred::Or(..), Tag::POr)
            ) && imatch_pred(p1, &k[0], s)
                && imatch_pred(p2, &k[1], s)
        }
        (PPred::Not(p), Tag::PNot) | (PPred::Conv(p), Tag::PConv) => {
            matches!(
                (pat, t.tag()),
                (PPred::Not(..), Tag::PNot) | (PPred::Conv(..), Tag::PConv)
            ) && imatch_pred(p, &k[0], s)
        }
        (PPred::CurryP(pp, pq), Tag::PCurryP) => {
            imatch_pred(pp, &k[0], s) && imatch_query(pq, &k[1], s)
        }
        _ => false,
    }
}

/// Match a query pattern against an interned query (the
/// [`crate::matching::match_query`] analogue).
pub fn imatch_query(pat: &PQuery, t: &ITerm, s: &mut ISubst) -> bool {
    if let PQuery::Var(v) = pat {
        return s.objs.bind(v, t);
    }
    let k = t.kids();
    match (pat, t.tag()) {
        (PQuery::Lit(a), Tag::QLit) => {
            matches!(t.payload(), Payload::Value(b) if b.as_ref() == a)
        }
        (PQuery::Extent(a), Tag::QExtent) => matches!(t.payload(), Payload::Sym(b) if a == b),
        (PQuery::PairQ(p1, p2), Tag::QPairQ)
        | (PQuery::Union(p1, p2), Tag::QUnion)
        | (PQuery::Intersect(p1, p2), Tag::QIntersect)
        | (PQuery::Diff(p1, p2), Tag::QDiff) => {
            matches!(
                (pat, t.tag()),
                (PQuery::PairQ(..), Tag::QPairQ)
                    | (PQuery::Union(..), Tag::QUnion)
                    | (PQuery::Intersect(..), Tag::QIntersect)
                    | (PQuery::Diff(..), Tag::QDiff)
            ) && imatch_query(p1, &k[0], s)
                && imatch_query(p2, &k[1], s)
        }
        (PQuery::App(pf, pq), Tag::QApp) => imatch_func(pf, &k[0], s) && imatch_query(pq, &k[1], s),
        (PQuery::Test(pp, pq), Tag::QTest) => {
            imatch_pred(pp, &k[0], s) && imatch_query(pq, &k[1], s)
        }
        _ => false,
    }
}

/// Pattern segments [`imatch_func_prefix`] holds without a heap buffer —
/// more than any catalog head has.
const PCHAIN_INLINE: usize = 8;

/// Write `pat`'s chain segments, left to right, into `buf` from `*n` on;
/// false if they do not fit.
fn inline_pchain<'p>(pat: &'p PFunc, buf: &mut [&'p PFunc], n: &mut usize) -> bool {
    match pat {
        PFunc::Compose(a, b) => inline_pchain(a, buf, n) && inline_pchain(b, buf, n),
        seg => match buf.get_mut(*n) {
            Some(slot) => {
                *slot = seg;
                *n += 1;
                true
            }
            None => false,
        },
    }
}

/// The first segment of a chain and what follows it (`None` at the end).
/// The chain is right-normalized: a segment is never itself a `∘`.
fn split_head(t: &ITerm) -> (&ITerm, Option<&ITerm>) {
    if t.tag() == Tag::FCompose {
        let k = t.kids();
        debug_assert_ne!(k[0].tag(), Tag::FCompose, "chain not right-normalized");
        (&k[0], Some(&k[1]))
    } else {
        (t, None)
    }
}

/// Match a function pattern against a *prefix* of the right-normalized
/// chain `t` (the [`crate::matching::match_func_prefix`] analogue), walking
/// the chain in place. On a match, returns the unconsumed tail: `None` when
/// the pattern covered the whole chain, else the suffix node after the
/// consumed segments. A trailing `$f` binds to the suffix node it covers,
/// which is the chain the segment-vector matcher would have rebuilt (see
/// the module docs).
pub fn imatch_func_prefix<'t>(
    pat: &PFunc,
    t: &'t ITerm,
    s: &mut ISubst,
) -> Option<Option<&'t ITerm>> {
    let mut buf = [pat; PCHAIN_INLINE];
    let mut n = 0;
    let heap;
    let psegs: &[&PFunc] = if inline_pchain(pat, &mut buf, &mut n) {
        &buf[..n]
    } else {
        heap = pchain_segments(pat);
        &heap
    };
    let (last, init) = psegs.split_last()?;
    let mut rest = Some(t);
    for p in init {
        let (seg, tail) = split_head(rest?);
        if !imatch_func(p, seg, s) {
            return None;
        }
        rest = tail;
    }
    let rest = rest?;
    match last {
        PFunc::Var(v) => s.funcs.bind(v, rest).then_some(None),
        _ => {
            let (seg, tail) = split_head(rest);
            imatch_func(last, seg, s).then_some(tail)
        }
    }
}

/// Instantiate a function pattern as an interned term (the
/// [`crate::subst::instantiate_func`] analogue). Every `∘` in the body goes
/// through [`icompose`], so the result is right-normalized by construction.
pub fn iinstantiate_func(pat: &PFunc, s: &ISubst, it: &mut Interner) -> Result<ITerm, UnboundVar> {
    macro_rules! leaf {
        ($tag:expr) => {
            it.mk($tag, PayloadRef::None, &[])
        };
    }
    macro_rules! node {
        ($tag:expr, $($kid:expr),+) => {{
            let kids = [$($kid?),+];
            it.mk($tag, PayloadRef::None, &kids)
        }};
    }
    Ok(match pat {
        PFunc::Var(v) => s
            .funcs
            .get(v)
            .cloned()
            .ok_or_else(|| UnboundVar(v.clone()))?,
        PFunc::Id => leaf!(Tag::FId),
        PFunc::Pi1 => leaf!(Tag::FPi1),
        PFunc::Pi2 => leaf!(Tag::FPi2),
        PFunc::Prim(n) => it.mk(Tag::FPrim, PayloadRef::Sym(n), &[]),
        PFunc::Compose(a, b) => {
            let ia = iinstantiate_func(a, s, it)?;
            let ib = iinstantiate_func(b, s, it)?;
            icompose(it, ia, ib)
        }
        PFunc::PairWith(a, b) => node!(
            Tag::FPairWith,
            iinstantiate_func(a, s, it),
            iinstantiate_func(b, s, it)
        ),
        PFunc::Times(a, b) => node!(
            Tag::FTimes,
            iinstantiate_func(a, s, it),
            iinstantiate_func(b, s, it)
        ),
        PFunc::ConstF(q) => node!(Tag::FConstF, iinstantiate_query(q, s, it)),
        PFunc::CurryF(f, q) => node!(
            Tag::FCurryF,
            iinstantiate_func(f, s, it),
            iinstantiate_query(q, s, it)
        ),
        PFunc::Cond(p, f, g) => node!(
            Tag::FCond,
            iinstantiate_pred(p, s, it),
            iinstantiate_func(f, s, it),
            iinstantiate_func(g, s, it)
        ),
        PFunc::Flat => leaf!(Tag::FFlat),
        PFunc::Iterate(p, f) => node!(
            Tag::FIterate,
            iinstantiate_pred(p, s, it),
            iinstantiate_func(f, s, it)
        ),
        PFunc::Iter(p, f) => node!(
            Tag::FIter,
            iinstantiate_pred(p, s, it),
            iinstantiate_func(f, s, it)
        ),
        PFunc::Join(p, f) => node!(
            Tag::FJoin,
            iinstantiate_pred(p, s, it),
            iinstantiate_func(f, s, it)
        ),
        PFunc::Nest(f, g) => node!(
            Tag::FNest,
            iinstantiate_func(f, s, it),
            iinstantiate_func(g, s, it)
        ),
        PFunc::Unnest(f, g) => node!(
            Tag::FUnnest,
            iinstantiate_func(f, s, it),
            iinstantiate_func(g, s, it)
        ),
        PFunc::Bagify => leaf!(Tag::FBagify),
        PFunc::Dedup => leaf!(Tag::FDedup),
        PFunc::BUnion => leaf!(Tag::FBUnion),
        PFunc::BFlat => leaf!(Tag::FBFlat),
        PFunc::BIterate(p, f) => node!(
            Tag::FBIterate,
            iinstantiate_pred(p, s, it),
            iinstantiate_func(f, s, it)
        ),
        PFunc::SetUnion => leaf!(Tag::FSetUnion),
        PFunc::SetIntersect => leaf!(Tag::FSetIntersect),
        PFunc::SetDiff => leaf!(Tag::FSetDiff),
    })
}

/// Instantiate a predicate pattern as an interned term.
pub fn iinstantiate_pred(pat: &PPred, s: &ISubst, it: &mut Interner) -> Result<ITerm, UnboundVar> {
    macro_rules! leaf {
        ($tag:expr) => {
            it.mk($tag, PayloadRef::None, &[])
        };
    }
    macro_rules! node {
        ($tag:expr, $($kid:expr),+) => {{
            let kids = [$($kid?),+];
            it.mk($tag, PayloadRef::None, &kids)
        }};
    }
    Ok(match pat {
        PPred::Var(v) => s
            .preds
            .get(v)
            .cloned()
            .ok_or_else(|| UnboundVar(v.clone()))?,
        PPred::Eq => leaf!(Tag::PEq),
        PPred::Lt => leaf!(Tag::PLt),
        PPred::Leq => leaf!(Tag::PLeq),
        PPred::Gt => leaf!(Tag::PGt),
        PPred::Geq => leaf!(Tag::PGeq),
        PPred::In => leaf!(Tag::PIn),
        PPred::PrimP(n) => it.mk(Tag::PPrimP, PayloadRef::Sym(n), &[]),
        PPred::Oplus(p, f) => node!(
            Tag::POplus,
            iinstantiate_pred(p, s, it),
            iinstantiate_func(f, s, it)
        ),
        PPred::And(a, b) => node!(
            Tag::PAnd,
            iinstantiate_pred(a, s, it),
            iinstantiate_pred(b, s, it)
        ),
        PPred::Or(a, b) => node!(
            Tag::POr,
            iinstantiate_pred(a, s, it),
            iinstantiate_pred(b, s, it)
        ),
        PPred::Not(p) => node!(Tag::PNot, iinstantiate_pred(p, s, it)),
        PPred::Conv(p) => node!(Tag::PConv, iinstantiate_pred(p, s, it)),
        PPred::ConstP(b) => it.mk(Tag::PConstP, PayloadRef::Bool(*b), &[]),
        PPred::CurryP(p, q) => node!(
            Tag::PCurryP,
            iinstantiate_pred(p, s, it),
            iinstantiate_query(q, s, it)
        ),
    })
}

/// Instantiate a query pattern as an interned term.
pub fn iinstantiate_query(
    pat: &PQuery,
    s: &ISubst,
    it: &mut Interner,
) -> Result<ITerm, UnboundVar> {
    macro_rules! node {
        ($tag:expr, $($kid:expr),+) => {{
            let kids = [$($kid?),+];
            it.mk($tag, PayloadRef::None, &kids)
        }};
    }
    Ok(match pat {
        PQuery::Var(v) => s
            .objs
            .get(v)
            .cloned()
            .ok_or_else(|| UnboundVar(v.clone()))?,
        PQuery::Lit(v) => it.mk(Tag::QLit, PayloadRef::Value(v), &[]),
        PQuery::Extent(n) => it.mk(Tag::QExtent, PayloadRef::Sym(n), &[]),
        PQuery::PairQ(a, b) => node!(
            Tag::QPairQ,
            iinstantiate_query(a, s, it),
            iinstantiate_query(b, s, it)
        ),
        PQuery::App(f, q) => node!(
            Tag::QApp,
            iinstantiate_func(f, s, it),
            iinstantiate_query(q, s, it)
        ),
        PQuery::Test(p, q) => node!(
            Tag::QTest,
            iinstantiate_pred(p, s, it),
            iinstantiate_query(q, s, it)
        ),
        PQuery::Union(a, b) => node!(
            Tag::QUnion,
            iinstantiate_query(a, s, it),
            iinstantiate_query(b, s, it)
        ),
        PQuery::Intersect(a, b) => node!(
            Tag::QIntersect,
            iinstantiate_query(a, s, it),
            iinstantiate_query(b, s, it)
        ),
        PQuery::Diff(a, b) => node!(
            Tag::QDiff,
            iinstantiate_query(a, s, it),
            iinstantiate_query(b, s, it)
        ),
    })
}

/// Check a rule's declarative preconditions against interned bindings,
/// judged on the interned terms themselves ([`PropDb::holds_interned`]).
pub fn ipreconditions_hold(pre: &[Precondition], s: &ISubst, props: &PropDb) -> bool {
    pre.iter().all(|p| match &p.subject {
        PropTerm::FuncVar(name) => s
            .funcs
            .get(name)
            .is_some_and(|f| props.holds_interned(p.prop, f)),
    })
}

fn rule_failed(rule: &Rule, e: UnboundVar) -> RewriteError {
    RewriteError::RuleFailed {
        rule_id: rule.id.clone(),
        detail: e.to_string(),
    }
}

/// Try the rule at the root of an interned, right-normalized function term
/// (the [`Rule::try_apply_func`] analogue, chain-prefix aware). The
/// unconsumed tail of the chain is reused as is.
pub fn itry_apply_func(
    rule: &Rule,
    t: &ITerm,
    dir: Direction,
    it: &mut Interner,
) -> Result<Option<(ITerm, ISubst)>, RewriteError> {
    if dir == Direction::Backward && !rule.bidirectional {
        return Ok(None);
    }
    for alt in &rule.alts {
        let RewritePair::F(l, r) = alt else { continue };
        let (head, body) = match dir {
            Direction::Forward => (l, r),
            Direction::Backward => (r, l),
        };
        let mut s = ISubst::new();
        if let Some(tail) = imatch_func_prefix(head, t, &mut s) {
            let rewritten = iinstantiate_func(body, &s, it).map_err(|e| rule_failed(rule, e))?;
            let out = match tail {
                None => rewritten,
                Some(tail) => icompose(it, rewritten, tail.clone()),
            };
            return Ok(Some((out, s)));
        }
    }
    Ok(None)
}

/// Try the rule at the root of an interned predicate term.
pub fn itry_apply_pred(
    rule: &Rule,
    t: &ITerm,
    dir: Direction,
    it: &mut Interner,
) -> Result<Option<(ITerm, ISubst)>, RewriteError> {
    if dir == Direction::Backward && !rule.bidirectional {
        return Ok(None);
    }
    for alt in &rule.alts {
        let RewritePair::P(l, r) = alt else { continue };
        let (head, body) = match dir {
            Direction::Forward => (l, r),
            Direction::Backward => (r, l),
        };
        let mut s = ISubst::new();
        if imatch_pred(head, t, &mut s) {
            let out = iinstantiate_pred(body, &s, it).map_err(|e| rule_failed(rule, e))?;
            return Ok(Some((out, s)));
        }
    }
    Ok(None)
}

/// Try the rule at the root of an interned query term.
pub fn itry_apply_query(
    rule: &Rule,
    t: &ITerm,
    dir: Direction,
    it: &mut Interner,
) -> Result<Option<(ITerm, ISubst)>, RewriteError> {
    if dir == Direction::Backward && !rule.bidirectional {
        return Ok(None);
    }
    for alt in &rule.alts {
        let RewritePair::Q(l, r) = alt else { continue };
        let (head, body) = match dir {
            Direction::Forward => (l, r),
            Direction::Backward => (r, l),
        };
        let mut s = ISubst::new();
        if imatch_query(head, t, &mut s) {
            let out = iinstantiate_query(body, &s, it).map_err(|e| rule_failed(rule, e))?;
            return Ok(Some((out, s)));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kola::parse::{parse_func, parse_query};

    #[test]
    fn interned_rule_application_matches_boxed() {
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
        let interned = itry_apply_func(&r, &it.intern_func(&t), Direction::Forward, &mut it)
            .unwrap()
            .unwrap()
            .0;
        assert_eq!(interned.to_func(), boxed);
        // And it is the same node the boxed result interns to.
        assert!(interned.ptr_eq(&it.intern_func(&boxed)));
    }

    #[test]
    fn icompose_keeps_chains_right_normalized() {
        let mut it = Interner::new();
        let left = it.intern_func(&parse_func("(a . b) . c").unwrap());
        // `left` as interned is still left-nested; icompose onto another
        // segment must flatten it.
        let d = it.intern_func(&parse_func("d").unwrap());
        let out = icompose(&mut it, left, d);
        let want = it.intern_func(&parse_func("a . b . c . d").unwrap().normalize());
        assert!(out.ptr_eq(&want));
    }

    #[test]
    fn query_level_application() {
        let mut it = Interner::new();
        let r = Rule::query("app", "apply", "($f . $g) ! ^x", "$f ! ($g ! ^x)");
        let q = parse_query("(a . b) ! P").unwrap().normalize();
        let iq = it.intern_query(&q);
        let got = itry_apply_query(&r, &iq, Direction::Forward, &mut it)
            .unwrap()
            .unwrap()
            .0;
        assert_eq!(got.to_query(), parse_query("a ! (b ! P)").unwrap());
    }

    #[test]
    fn one_way_refuses_backward() {
        let mut it = Interner::new();
        let r = Rule::func("x", "oneway", "id . $f", "$f").one_way();
        let t = it.intern_func(&parse_func("age").unwrap());
        assert!(itry_apply_func(&r, &t, Direction::Backward, &mut it)
            .unwrap()
            .is_none());
    }

    #[test]
    fn catalog_heads_bind_within_the_inline_slots() {
        // `IBinds` allocates only past `INLINE_BINDS` variables of one kind;
        // no head of either orientation in the catalog gets there.
        use kola::pattern::VarKind;
        let catalog = crate::catalog::Catalog::paper();
        for rule in catalog.rules() {
            for alt in &rule.alts {
                for side in 0..2 {
                    let mut vars = Vec::new();
                    match (alt, side) {
                        (RewritePair::F(l, _), 0) | (RewritePair::F(_, l), _) => l.vars(&mut vars),
                        (RewritePair::P(l, _), 0) | (RewritePair::P(_, l), _) => l.vars(&mut vars),
                        (RewritePair::Q(l, _), 0) | (RewritePair::Q(_, l), _) => l.vars(&mut vars),
                    }
                    vars.sort();
                    vars.dedup();
                    for kind in [VarKind::Func, VarKind::Pred, VarKind::Obj] {
                        let n = vars.iter().filter(|(k, _)| *k == kind).count();
                        assert!(
                            n <= INLINE_BINDS,
                            "rule {}: {n} {kind:?} variables",
                            rule.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ibinds_spill_past_the_inline_slots() {
        let mut it = Interner::new();
        let mut b = IBinds::default();
        let names: Vec<Sym> = (0..INLINE_BINDS + 2)
            .map(|i| Sym::from(format!("v{i}")))
            .collect();
        for (i, v) in names.iter().enumerate() {
            let t = it.intern_func(&parse_func(&format!("p{i}")).unwrap());
            assert!(b.bind(v, &t));
            assert!(b.bind(v, &t), "rebinding to the same node agrees");
        }
        assert_eq!(b.len(), INLINE_BINDS + 2);
        let other = it.intern_func(&parse_func("q").unwrap());
        assert!(
            !b.bind(&names[INLINE_BINDS + 1], &other),
            "a spilled binding conflicts"
        );
        let got: Vec<&str> = b.iter().map(|(k, _)| k.as_ref()).collect();
        let want: Vec<&str> = names.iter().map(|k| k.as_ref()).collect();
        assert_eq!(got, want, "binding order");
    }
}
