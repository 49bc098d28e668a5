//! KOLA terms: functions, predicates and queries.
//!
//! These are the *concrete* (variable-free) terms of the algebra — exactly
//! the combinators of Tables 1 and 2 of the paper. Pattern terms with
//! metavariables live in the `kola-rewrite` crate; keeping them out of the
//! core means the evaluator in [`crate::eval`] is total over this type.
//!
//! Naming follows the paper:
//!
//! | paper | here |
//! |-------|------|
//! | `id`, `π1`, `π2` | [`Func::Id`], [`Func::Pi1`], [`Func::Pi2`] |
//! | `f ∘ g` | [`Func::Compose`] |
//! | `⟨f, g⟩` ("pairing") | [`Func::PairWith`] |
//! | `f × g` | [`Func::Times`] |
//! | `Kf(x)` | [`Func::ConstF`] |
//! | `Cf(f, x)` (currying) | [`Func::CurryF`] |
//! | `con(p, f, g)` | [`Func::Cond`] |
//! | `flat`, `iterate`, `iter`, `join`, `nest`, `unnest` | likewise |
//! | `eq`, `leq`, `gt`, `in` | [`Pred::Eq`] … |
//! | `p ⊕ f` | [`Pred::Oplus`] |
//! | `p & q`, `p \| q`, `p⁻¹` | [`Pred::And`], [`Pred::Or`], [`Pred::Not`] |
//! | `Kp(b)`, `Cp(p, x)` | [`Pred::ConstP`], [`Pred::CurryP`] |

use crate::value::{Sym, Value};

// Note on constant/curry payloads: `Kf`, `Cf` and `Cp` carry a *closed
// [`Query`]* rather than a [`Value`]. The paper writes `Kf(P)` (Figure 3)
// and `Kf(B)` (Figure 7) where `P`/`B` are named extents, and rule 13 moves
// the payload of a `Kf` into a `Cp`; representing payloads as queries keeps
// those terms and rules syntactic. A payload query must not mention the
// argument — KOLA has no variables, so that is true by construction.

/// A KOLA function. Invoked with `f ! x` (see [`crate::eval::eval_func`]).
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Func {
    /// The identity function: `id ! x = x`.
    Id,
    /// First projection: `π1 ! [x, y] = x`.
    Pi1,
    /// Second projection: `π2 ! [x, y] = y`.
    Pi2,
    /// A schema primitive (attribute dereference), e.g. `age ! p = p.age`.
    Prim(Sym),
    /// Composition: `(f ∘ g) ! x = f ! (g ! x)`.
    Compose(Box<Func>, Box<Func>),
    /// Pairing: `⟨f, g⟩ ! x = [f ! x, g ! x]`.
    PairWith(Box<Func>, Box<Func>),
    /// Pairwise application: `(f × g) ! [x, y] = [f ! x, g ! y]`.
    Times(Box<Func>, Box<Func>),
    /// Constant function: `Kf(x) ! y = x`.
    ConstF(Box<Query>),
    /// Currying: `Cf(f, x) ! y = f ! [x, y]`.
    CurryF(Box<Func>, Box<Query>),
    /// Conditional: `con(p, f, g) ! x = f ! x` if `p ? x`, else `g ! x`.
    Cond(Box<Pred>, Box<Func>, Box<Func>),
    /// Set flattening: `flat ! A = { x | x ∈ B, B ∈ A }`.
    Flat,
    /// Select-and-map over a set:
    /// `iterate(p, f) ! A = { f ! x | x ∈ A, p ? x }`.
    Iterate(Box<Pred>, Box<Func>),
    /// Environment-carrying iteration over a pair `[e, B]`:
    /// `iter(p, f) ! [e, B] = { f ! [e, y] | y ∈ B, p ? [e, y] }`.
    Iter(Box<Pred>, Box<Func>),
    /// Join: `join(p, f) ! [A, B] = { f![x,y] | x ∈ A, y ∈ B, p?[x,y] }`.
    Join(Box<Pred>, Box<Func>),
    /// Nesting relative to a second set (the paper's NULL-free outer join):
    /// `nest(f, g) ! [A, B] = { [y, {g!x | x ∈ A, f!x = y}] | y ∈ B }`.
    Nest(Box<Func>, Box<Func>),
    /// Unnesting: `unnest(f, g) ! A = { [f!x, y] | x ∈ A, y ∈ g!x }`.
    Unnest(Box<Func>, Box<Func>),
    /// Bag injection (§6 extension): `bagify ! A` is the bag with one
    /// occurrence of each element of the set `A`.
    Bagify,
    /// Duplicate elimination (§6): `dedup ! B` is the support set of bag `B`.
    Dedup,
    /// Bag iteration (§6): like `iterate` but multiplicity-preserving —
    /// `biterate(p, f) ! B` maps and filters, summing multiplicities of
    /// colliding images.
    BIterate(Box<Pred>, Box<Func>),
    /// Additive bag union (§6): `bunion ! [B1, B2]` adds multiplicities.
    BUnion,
    /// Bag flattening (§6): `bflat ! BB` additively unions a bag of bags.
    BFlat,
    /// Binary set union: `union ! [A, B] = A ∪ B`. (Extension used by the
    /// precondition rules of §4.2, e.g. the `injective` intersection rule.)
    SetUnion,
    /// Binary set intersection: `intersect ! [A, B] = A ∩ B`.
    SetIntersect,
    /// Binary set difference: `diff ! [A, B] = A \ B`.
    SetDiff,
}

// A derived `Clone` spends one stack frame per node, which overflows on
// the deep ∘-chains this algebra routinely builds (a few thousand segments
// kill a 2 MiB thread). Cloning therefore walks ∘-spines with an explicit
// stack — structure-preserving for every tree shape — so chain depth costs
// heap, not stack. Non-∘ nesting still recurses, one frame per level.
impl Clone for Func {
    fn clone(&self) -> Func {
        match self {
            Func::Id => Func::Id,
            Func::Pi1 => Func::Pi1,
            Func::Pi2 => Func::Pi2,
            Func::Prim(s) => Func::Prim(s.clone()),
            Func::Compose(_, _) => {
                enum Task<'a> {
                    Visit(&'a Func),
                    Build,
                }
                let mut tasks = vec![Task::Visit(self)];
                let mut out: Vec<Func> = Vec::new();
                while let Some(t) = tasks.pop() {
                    match t {
                        Task::Visit(Func::Compose(a, b)) => {
                            tasks.push(Task::Build);
                            tasks.push(Task::Visit(b));
                            tasks.push(Task::Visit(a));
                        }
                        Task::Visit(leaf) => out.push(leaf.clone()),
                        Task::Build => {
                            let b = out.pop().expect("∘ has two children");
                            let a = out.pop().expect("∘ has two children");
                            out.push(Func::Compose(Box::new(a), Box::new(b)));
                        }
                    }
                }
                out.pop().expect("spine rebuild yields one term")
            }
            Func::PairWith(f, g) => Func::PairWith(f.clone(), g.clone()),
            Func::Times(f, g) => Func::Times(f.clone(), g.clone()),
            Func::ConstF(q) => Func::ConstF(q.clone()),
            Func::CurryF(f, q) => Func::CurryF(f.clone(), q.clone()),
            Func::Cond(p, f, g) => Func::Cond(p.clone(), f.clone(), g.clone()),
            Func::Flat => Func::Flat,
            Func::Iterate(p, f) => Func::Iterate(p.clone(), f.clone()),
            Func::Iter(p, f) => Func::Iter(p.clone(), f.clone()),
            Func::Join(p, f) => Func::Join(p.clone(), f.clone()),
            Func::Nest(f, g) => Func::Nest(f.clone(), g.clone()),
            Func::Unnest(f, g) => Func::Unnest(f.clone(), g.clone()),
            Func::Bagify => Func::Bagify,
            Func::Dedup => Func::Dedup,
            Func::BIterate(p, f) => Func::BIterate(p.clone(), f.clone()),
            Func::BUnion => Func::BUnion,
            Func::BFlat => Func::BFlat,
            Func::SetUnion => Func::SetUnion,
            Func::SetIntersect => Func::SetIntersect,
            Func::SetDiff => Func::SetDiff,
        }
    }
}

// Derived drop glue is just as recursive as a derived `Clone` — and unlike
// cloning, *every* deep term is eventually dropped, including ones an
// unwinding worker abandons mid-flight. These impls tear terms down with an
// explicit worklist: a node's children are detached (swapped for leaves)
// onto a heap stack before the node itself is freed, so teardown depth
// costs heap, not stack. The three term types nest through each other
// (`Cond` holds a `Pred`, `Oplus` holds a `Func`, `ConstF` holds a
// `Query`), so the worklist carries all three.
enum Torn {
    F(Func),
    P(Pred),
    Q(Query),
}

fn detach_func(f: &mut Func, out: &mut Vec<Torn>) {
    use std::mem::replace;
    match f {
        Func::Id
        | Func::Pi1
        | Func::Pi2
        | Func::Prim(_)
        | Func::Flat
        | Func::Bagify
        | Func::Dedup
        | Func::BUnion
        | Func::BFlat
        | Func::SetUnion
        | Func::SetIntersect
        | Func::SetDiff => {}
        Func::Compose(a, b)
        | Func::PairWith(a, b)
        | Func::Times(a, b)
        | Func::Nest(a, b)
        | Func::Unnest(a, b) => {
            out.push(Torn::F(replace(a, Func::Id)));
            out.push(Torn::F(replace(b, Func::Id)));
        }
        Func::ConstF(q) => out.push(Torn::Q(replace(q, Query::Lit(Value::Unit)))),
        Func::CurryF(g, q) => {
            out.push(Torn::F(replace(g, Func::Id)));
            out.push(Torn::Q(replace(q, Query::Lit(Value::Unit))));
        }
        Func::Cond(p, g, h) => {
            out.push(Torn::P(replace(p, Pred::Eq)));
            out.push(Torn::F(replace(g, Func::Id)));
            out.push(Torn::F(replace(h, Func::Id)));
        }
        Func::Iterate(p, g) | Func::Iter(p, g) | Func::Join(p, g) | Func::BIterate(p, g) => {
            out.push(Torn::P(replace(p, Pred::Eq)));
            out.push(Torn::F(replace(g, Func::Id)));
        }
    }
}

fn detach_pred(p: &mut Pred, out: &mut Vec<Torn>) {
    use std::mem::replace;
    match p {
        Pred::Eq
        | Pred::Lt
        | Pred::Leq
        | Pred::Gt
        | Pred::Geq
        | Pred::In
        | Pred::PrimP(_)
        | Pred::ConstP(_) => {}
        Pred::Oplus(q, f) => {
            out.push(Torn::P(replace(q, Pred::Eq)));
            out.push(Torn::F(replace(f, Func::Id)));
        }
        Pred::And(a, b) | Pred::Or(a, b) => {
            out.push(Torn::P(replace(a, Pred::Eq)));
            out.push(Torn::P(replace(b, Pred::Eq)));
        }
        Pred::Not(a) | Pred::Conv(a) => out.push(Torn::P(replace(a, Pred::Eq))),
        Pred::CurryP(a, q) => {
            out.push(Torn::P(replace(a, Pred::Eq)));
            out.push(Torn::Q(replace(q, Query::Lit(Value::Unit))));
        }
    }
}

fn detach_query(q: &mut Query, out: &mut Vec<Torn>) {
    use std::mem::replace;
    match q {
        Query::Lit(_) | Query::Extent(_) => {}
        Query::PairQ(a, b) | Query::Union(a, b) | Query::Intersect(a, b) | Query::Diff(a, b) => {
            out.push(Torn::Q(replace(a, Query::Lit(Value::Unit))));
            out.push(Torn::Q(replace(b, Query::Lit(Value::Unit))));
        }
        Query::App(f, a) => {
            out.push(Torn::F(replace(f, Func::Id)));
            out.push(Torn::Q(replace(a, Query::Lit(Value::Unit))));
        }
        Query::Test(p, a) => {
            out.push(Torn::P(replace(p, Pred::Eq)));
            out.push(Torn::Q(replace(a, Query::Lit(Value::Unit))));
        }
    }
}

// Each popped node drops at the end of its match arm; its own `Drop` runs
// again, but finds only detached-leaf children, so that nested call is O(1)
// and allocation-free (`Vec::new` does not allocate until first push).
fn teardown(mut out: Vec<Torn>) {
    while let Some(t) = out.pop() {
        match t {
            Torn::F(mut f) => detach_func(&mut f, &mut out),
            Torn::P(mut p) => detach_pred(&mut p, &mut out),
            Torn::Q(mut q) => detach_query(&mut q, &mut out),
        }
    }
}

impl Drop for Func {
    fn drop(&mut self) {
        let mut out = Vec::new();
        detach_func(self, &mut out);
        teardown(out);
    }
}

impl Drop for Pred {
    fn drop(&mut self) {
        let mut out = Vec::new();
        detach_pred(self, &mut out);
        teardown(out);
    }
}

impl Drop for Query {
    fn drop(&mut self) {
        let mut out = Vec::new();
        detach_query(self, &mut out);
        teardown(out);
    }
}

/// A KOLA predicate. Invoked with `p ? x` (see [`crate::eval::eval_pred`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pred {
    /// Equality on pairs: `eq ? [x, y]` iff `x = y`.
    Eq,
    /// Less-than on integer pairs: `lt ? [x, y]` iff `x < y`.
    Lt,
    /// Less-or-equal on integer pairs.
    Leq,
    /// Greater-than on integer pairs.
    Gt,
    /// Greater-or-equal on integer pairs.
    Geq,
    /// Set membership: `in ? [x, A]` iff `x ∈ A`.
    In,
    /// A schema primitive predicate: a boolean attribute used as a predicate.
    PrimP(Sym),
    /// Predicate/function combination: `(p ⊕ f) ? x = p ? (f ! x)`.
    Oplus(Box<Pred>, Box<Func>),
    /// Conjunction: `(p & q) ? x = p?x ∧ q?x`.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction: `(p | q) ? x = p?x ∨ q?x`.
    Or(Box<Pred>, Box<Pred>),
    /// Complement: `~p ? x = ¬(p ? x)`.
    Not(Box<Pred>),
    /// Converse (the paper's `p⁻¹`): `inv(p) ? [x, y] = p ? [y, x]`.
    ///
    /// Rule 13 (`p ⊕ ⟨f, Kf(k)⟩ ≡ Cp(p⁻¹, k) ⊕ f`) is sound only if `⁻¹`
    /// swaps arguments; rule 7 then reads `inv(gt) ≡ lt` (the figure prints
    /// the converse of `gt` as "leq"; with standard naming it is strict
    /// less-than).
    Conv(Box<Pred>),
    /// Constant predicate: `Kp(b) ? x = b`.
    ConstP(bool),
    /// Currying: `Cp(p, x) ? y = p ? [x, y]`.
    CurryP(Box<Pred>, Box<Query>),
}

/// A KOLA *query*: an object-level term. The top level of a query is usually
/// a function application `f ! q` (the paper writes e.g.
/// `iterate(Kp(T), city ∘ addr) ! P`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Query {
    /// A literal value.
    Lit(Value),
    /// A named extent bound in the [`crate::db::Db`] (e.g. `P`, `V`).
    Extent(Sym),
    /// Pair formation `[q1, q2]`.
    PairQ(Box<Query>, Box<Query>),
    /// Function application `f ! q`.
    App(Func, Box<Query>),
    /// Predicate application `p ? q` — evaluates to a boolean.
    Test(Pred, Box<Query>),
    /// Set union of two queries.
    Union(Box<Query>, Box<Query>),
    /// Set intersection of two queries.
    Intersect(Box<Query>, Box<Query>),
    /// Set difference of two queries.
    Diff(Box<Query>, Box<Query>),
}

impl Func {
    /// Number of AST nodes (counting embedded predicates/values), used for
    /// the §4.2 translation-size experiment.
    pub fn size(&self) -> usize {
        match self {
            Func::Id
            | Func::Pi1
            | Func::Pi2
            | Func::Prim(_)
            | Func::Flat
            | Func::Bagify
            | Func::Dedup
            | Func::BUnion
            | Func::BFlat
            | Func::SetUnion
            | Func::SetIntersect
            | Func::SetDiff => 1,
            Func::Compose(f, g) | Func::PairWith(f, g) | Func::Times(f, g) => {
                1 + f.size() + g.size()
            }
            Func::ConstF(q) => 1 + q.size(),
            Func::CurryF(f, q) => 1 + f.size() + q.size(),
            Func::Cond(p, f, g) => 1 + p.size() + f.size() + g.size(),
            Func::Iterate(p, f) | Func::Iter(p, f) | Func::Join(p, f) | Func::BIterate(p, f) => {
                1 + p.size() + f.size()
            }
            Func::Nest(f, g) | Func::Unnest(f, g) => 1 + f.size() + g.size(),
        }
    }

    /// Maximum nesting depth of the AST.
    pub fn depth(&self) -> usize {
        match self {
            Func::Id
            | Func::Pi1
            | Func::Pi2
            | Func::Prim(_)
            | Func::Flat
            | Func::Bagify
            | Func::Dedup
            | Func::BUnion
            | Func::BFlat
            | Func::SetUnion
            | Func::SetIntersect
            | Func::SetDiff => 1,
            Func::Compose(f, g) | Func::PairWith(f, g) | Func::Times(f, g) => {
                1 + f.depth().max(g.depth())
            }
            Func::ConstF(q) => 1 + q.depth(),
            Func::CurryF(f, q) => 1 + f.depth().max(q.depth()),
            Func::Cond(p, f, g) => 1 + p.depth().max(f.depth()).max(g.depth()),
            Func::Iterate(p, f) | Func::Iter(p, f) | Func::Join(p, f) | Func::BIterate(p, f) => {
                1 + p.depth().max(f.depth())
            }
            Func::Nest(f, g) | Func::Unnest(f, g) => 1 + f.depth().max(g.depth()),
        }
    }

    /// Right-normalize composition chains: `(f ∘ g) ∘ h ⇒ f ∘ (g ∘ h)`,
    /// recursively, everywhere in the term. Sound by associativity of `∘`
    /// (rule 1 of Figure 5). Matching in `kola-rewrite` assumes this form.
    pub fn normalize(&self) -> Func {
        match self {
            Func::Compose(..) => {
                // Flatten the whole ∘-spine with an explicit stack, normalize
                // each (non-Compose) segment, and rebuild right-associated.
                // Linear in chain length and safe on chains of any depth —
                // the naive "normalize children then re-associate" recursion
                // is quadratic and overflows the native stack on long
                // left-associated chains.
                let mut segs: Vec<&Func> = Vec::new();
                let mut work = vec![self];
                while let Some(f) = work.pop() {
                    match f {
                        Func::Compose(a, b) => {
                            work.push(b);
                            work.push(a);
                        }
                        leaf => segs.push(leaf),
                    }
                }
                let mut it = segs.into_iter().rev().map(|f| f.normalize());
                let last = it.next().expect("compose spine has segments");
                it.fold(last, |acc, f| Func::Compose(Box::new(f), Box::new(acc)))
            }
            Func::PairWith(f, g) => {
                Func::PairWith(Box::new(f.normalize()), Box::new(g.normalize()))
            }
            Func::Times(f, g) => Func::Times(Box::new(f.normalize()), Box::new(g.normalize())),
            Func::ConstF(q) => Func::ConstF(Box::new(q.normalize())),
            Func::CurryF(f, q) => Func::CurryF(Box::new(f.normalize()), Box::new(q.normalize())),
            Func::Cond(p, f, g) => Func::Cond(
                Box::new(p.normalize()),
                Box::new(f.normalize()),
                Box::new(g.normalize()),
            ),
            Func::Iterate(p, f) => Func::Iterate(Box::new(p.normalize()), Box::new(f.normalize())),
            Func::Iter(p, f) => Func::Iter(Box::new(p.normalize()), Box::new(f.normalize())),
            Func::BIterate(p, f) => {
                Func::BIterate(Box::new(p.normalize()), Box::new(f.normalize()))
            }
            Func::Join(p, f) => Func::Join(Box::new(p.normalize()), Box::new(f.normalize())),
            Func::Nest(f, g) => Func::Nest(Box::new(f.normalize()), Box::new(g.normalize())),
            Func::Unnest(f, g) => Func::Unnest(Box::new(f.normalize()), Box::new(g.normalize())),
            leaf => leaf.clone(),
        }
    }

    /// True iff [`Func::normalize`] would return the term unchanged: no `∘`
    /// anywhere has a `∘` as its left child. Allocates nothing, and walks a
    /// chain's spine in a loop, so a long chain costs no native stack.
    pub fn is_normalized(&self) -> bool {
        let mut f = self;
        loop {
            match f {
                Func::Compose(a, b) => {
                    if matches!(**a, Func::Compose(..)) || !a.is_normalized() {
                        return false;
                    }
                    f = b;
                }
                Func::PairWith(f, g)
                | Func::Times(f, g)
                | Func::Nest(f, g)
                | Func::Unnest(f, g) => return f.is_normalized() && g.is_normalized(),
                Func::ConstF(q) => return q.is_normalized(),
                Func::CurryF(f, q) => return f.is_normalized() && q.is_normalized(),
                Func::Cond(p, f, g) => {
                    return p.is_normalized() && f.is_normalized() && g.is_normalized()
                }
                Func::Iterate(p, f)
                | Func::Iter(p, f)
                | Func::BIterate(p, f)
                | Func::Join(p, f) => return p.is_normalized() && f.is_normalized(),
                _ => return true,
            }
        }
    }
}

impl Pred {
    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Pred::Eq | Pred::Lt | Pred::Leq | Pred::Gt | Pred::Geq | Pred::In | Pred::PrimP(_) => 1,
            Pred::Oplus(p, f) => 1 + p.size() + f.size(),
            Pred::And(p, q) | Pred::Or(p, q) => 1 + p.size() + q.size(),
            Pred::Not(p) | Pred::Conv(p) => 1 + p.size(),
            Pred::ConstP(_) => 1,
            Pred::CurryP(p, q) => 1 + p.size() + q.size(),
        }
    }

    /// Maximum nesting depth.
    pub fn depth(&self) -> usize {
        match self {
            Pred::Eq
            | Pred::Lt
            | Pred::Leq
            | Pred::Gt
            | Pred::Geq
            | Pred::In
            | Pred::PrimP(_)
            | Pred::ConstP(_) => 1,
            Pred::Oplus(p, f) => 1 + p.depth().max(f.depth()),
            Pred::And(p, q) | Pred::Or(p, q) => 1 + p.depth().max(q.depth()),
            Pred::Not(p) | Pred::Conv(p) => 1 + p.depth(),
            Pred::CurryP(p, q) => 1 + p.depth().max(q.depth()),
        }
    }

    /// Normalize embedded functions (see [`Func::normalize`]).
    pub fn normalize(&self) -> Pred {
        match self {
            Pred::Oplus(p, f) => Pred::Oplus(Box::new(p.normalize()), Box::new(f.normalize())),
            Pred::And(p, q) => Pred::And(Box::new(p.normalize()), Box::new(q.normalize())),
            Pred::Or(p, q) => Pred::Or(Box::new(p.normalize()), Box::new(q.normalize())),
            Pred::Not(p) => Pred::Not(Box::new(p.normalize())),
            Pred::Conv(p) => Pred::Conv(Box::new(p.normalize())),
            Pred::CurryP(p, q) => Pred::CurryP(Box::new(p.normalize()), Box::new(q.normalize())),
            leaf => leaf.clone(),
        }
    }

    /// True iff [`Pred::normalize`] would return the term unchanged (see
    /// [`Func::is_normalized`]).
    pub fn is_normalized(&self) -> bool {
        match self {
            Pred::Oplus(p, f) => p.is_normalized() && f.is_normalized(),
            Pred::And(p, q) | Pred::Or(p, q) => p.is_normalized() && q.is_normalized(),
            Pred::Not(p) | Pred::Conv(p) => p.is_normalized(),
            Pred::CurryP(p, q) => p.is_normalized() && q.is_normalized(),
            _ => true,
        }
    }
}

impl Query {
    /// Number of AST nodes (functions and predicates included).
    pub fn size(&self) -> usize {
        match self {
            Query::Lit(_) | Query::Extent(_) => 1,
            Query::PairQ(a, b)
            | Query::Union(a, b)
            | Query::Intersect(a, b)
            | Query::Diff(a, b) => 1 + a.size() + b.size(),
            Query::App(f, q) => 1 + f.size() + q.size(),
            Query::Test(p, q) => 1 + p.size() + q.size(),
        }
    }

    /// Maximum nesting depth of the AST.
    pub fn depth(&self) -> usize {
        match self {
            Query::Lit(_) | Query::Extent(_) => 1,
            Query::PairQ(a, b)
            | Query::Union(a, b)
            | Query::Intersect(a, b)
            | Query::Diff(a, b) => 1 + a.depth().max(b.depth()),
            Query::App(f, q) => 1 + f.depth().max(q.depth()),
            Query::Test(p, q) => 1 + p.depth().max(q.depth()),
        }
    }

    /// Normalize embedded functions (see [`Func::normalize`]).
    pub fn normalize(&self) -> Query {
        match self {
            Query::PairQ(a, b) => Query::PairQ(Box::new(a.normalize()), Box::new(b.normalize())),
            Query::Union(a, b) => Query::Union(Box::new(a.normalize()), Box::new(b.normalize())),
            Query::Intersect(a, b) => {
                Query::Intersect(Box::new(a.normalize()), Box::new(b.normalize()))
            }
            Query::Diff(a, b) => Query::Diff(Box::new(a.normalize()), Box::new(b.normalize())),
            Query::App(f, q) => Query::App(f.normalize(), Box::new(q.normalize())),
            Query::Test(p, q) => Query::Test(p.normalize(), Box::new(q.normalize())),
            leaf => leaf.clone(),
        }
    }

    /// True iff [`Query::normalize`] would return the term unchanged (see
    /// [`Func::is_normalized`]). Callers that only need the normal form
    /// check this first and skip the copy `normalize` makes.
    pub fn is_normalized(&self) -> bool {
        match self {
            Query::PairQ(a, b)
            | Query::Union(a, b)
            | Query::Intersect(a, b)
            | Query::Diff(a, b) => a.is_normalized() && b.is_normalized(),
            Query::App(f, q) => f.is_normalized() && q.is_normalized(),
            Query::Test(p, q) => p.is_normalized() && q.is_normalized(),
            Query::Lit(_) | Query::Extent(_) => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn normalize_right_associates() {
        // ((a ∘ b) ∘ c) ∘ d => a ∘ (b ∘ (c ∘ d))
        let a = prim("age");
        let b = prim("addr");
        let c = Func::Id;
        let d = Func::Pi1;
        let left = o(o(o(a.clone(), b.clone()), c.clone()), d.clone());
        let want = o(a, o(b, o(c, d)));
        assert_eq!(left.normalize(), want);
    }

    #[test]
    fn normalize_is_idempotent() {
        let t = o(o(prim("a"), prim("b")), o(prim("c"), prim("d")));
        let n1 = t.normalize();
        let n2 = n1.normalize();
        assert_eq!(n1, n2);
    }

    #[test]
    fn is_normalized_agrees_with_normalize() {
        let nested = iterate(kp(true), o(o(prim("a"), prim("b")), prim("c")));
        let under_pred = Pred::Oplus(
            Box::new(gt()),
            Box::new(o(o(prim("a"), prim("b")), prim("c"))),
        );
        let terms = [
            o(prim("a"), o(prim("b"), prim("c"))),
            o(o(prim("a"), prim("b")), prim("c")),
            nested.clone(),
            nested.normalize(),
            iterate(under_pred.clone(), prim("d")),
            iterate(under_pred.normalize(), prim("d")),
        ];
        for f in &terms {
            assert_eq!(f.is_normalized(), f.normalize() == *f, "{f}");
            let q = Query::App(f.clone(), Box::new(ext("P")));
            assert_eq!(q.is_normalized(), q.normalize() == q, "{q}");
            assert!(q.normalize().is_normalized(), "{q}");
        }
        // A long chain is checked without recursing along its spine.
        let mut tower = prim("age");
        for _ in 0..100_000 {
            tower = o(Func::Id, tower);
        }
        assert!(tower.is_normalized());
    }

    #[test]
    fn normalize_descends_into_formers() {
        let t = iterate(kp(true), o(o(prim("a"), prim("b")), prim("c")));
        let n = t.normalize();
        match &n {
            Func::Iterate(_, f) => {
                assert_eq!(**f, o(prim("a"), o(prim("b"), prim("c"))));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn sizes() {
        assert_eq!(Func::Id.size(), 1);
        assert_eq!(o(Func::Id, Func::Pi1).size(), 3);
        assert_eq!(kf(Value::Int(5)).size(), 2);
        assert_eq!(iterate(kp(true), Func::Id).size(), 3);
    }

    #[test]
    fn depth() {
        assert_eq!(Func::Id.depth(), 1);
        assert_eq!(o(Func::Id, o(Func::Id, Func::Id)).depth(), 3);
    }

    #[test]
    fn clone_preserves_structure() {
        let t = o(o(prim("a"), prim("b")), o(prim("c"), prim("d")));
        assert_eq!(t.clone(), t);
        let t = iterate(kp(true), o(prim("a"), o(prim("b"), prim("c"))));
        assert_eq!(t.clone(), t);
    }

    #[test]
    fn clone_survives_deep_chains_of_either_association() {
        // 50k ∘-segments, alternating association so both spine directions
        // are exercised; equality is checked with an explicit stack because
        // derived PartialEq recurses.
        let mut f = prim("age");
        for i in 0..50_000usize {
            f = if i % 2 == 0 {
                o(Func::Id, f)
            } else {
                o(f, Func::Id)
            };
        }
        let g = f.clone();
        let mut pairs = vec![(&f, &g)];
        while let Some((a, b)) = pairs.pop() {
            match (a, b) {
                (Func::Compose(a1, a2), Func::Compose(b1, b2)) => {
                    pairs.push((a1, b1));
                    pairs.push((a2, b2));
                }
                (x, y) => assert_eq!(x, y),
            }
        }
        // Dropping the deep terms exercises the worklist `Drop` impls.
        drop(f);
        drop(g);
    }

    #[test]
    fn drop_is_stack_safe_across_all_three_term_types() {
        // Deep nesting that alternates Func/Pred/Query constructors so the
        // teardown worklist crosses type boundaries, not just ∘-spines.
        let mut q = Query::Lit(Value::Unit);
        for i in 0..60_000 {
            q = match i % 3 {
                0 => Query::App(Func::ConstF(Box::new(q)), Box::new(Query::Lit(Value::Unit))),
                1 => Query::Test(
                    Pred::Not(Box::new(Pred::CurryP(Box::new(Pred::Eq), Box::new(q)))),
                    Box::new(Query::Lit(Value::Unit)),
                ),
                _ => Query::PairQ(Box::new(q), Box::new(Query::Lit(Value::Unit))),
            };
        }
        drop(q); // must not overflow
    }
}
