//! Declarative preconditions: semantic properties and their inference.
//!
//! §4.2 of the paper: "Some transformations are only valid provided certain
//! conditions hold. We permit preconditions within the KOLA rule language …
//! expressed as attributes whose values are determined not with code, but
//! with annotations and additional rules." The example given is
//! `injective(f)`, with the inference rule
//! `injective(f) ∧ injective(g) ⇒ injective(f ∘ g)`.
//!
//! [`PropDb`] holds the *annotations* (facts about schema primitives, e.g.
//! "`name` is a key"); [`PropDb::holds`] is the rule-driven inference over
//! term structure. There are no callbacks: adding knowledge means adding a
//! fact or an inference case, not writing a head routine.
//!
//! The judgement exists twice, over the same rules: [`PropDb::holds`] on a
//! boxed [`Func`] (the reference engine's bindings) and
//! [`PropDb::holds_interned`] on an interned [`ITerm`] (the fast engine's),
//! so checking a precondition never reifies a binding.

use kola::intern::{ITerm, Payload, Tag};
use kola::term::Func;
use kola::value::Sym;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A semantic property a precondition can demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PropKind {
    /// `injective(f)`: `f!x = f!y` implies `x = y` (the paper's example —
    /// keys are injective).
    Injective,
    /// `total(f)`: `f` never gets stuck on inputs of its domain type. All
    /// KOLA formers preserve totality; only schema primitives can fail (on
    /// dangling references), so this is a fact database over primitives.
    Total,
}

/// What a precondition talks about: the binding of a rule metavariable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropTerm {
    /// The function bound to `$name` by the rule head.
    FuncVar(Sym),
}

impl PropTerm {
    /// Convenience constructor.
    pub fn func(name: &str) -> PropTerm {
        PropTerm::FuncVar(Arc::from(name))
    }
}

/// The annotation database: per-primitive facts.
#[derive(Debug, Clone, Default)]
pub struct PropDb {
    injective_prims: BTreeSet<Sym>,
    partial_prims: BTreeSet<Sym>,
}

impl PropDb {
    /// An empty database (no primitive is known injective).
    pub fn new() -> Self {
        Self::default()
    }

    /// Annotate a schema primitive as injective (a key).
    pub fn declare_injective(&mut self, prim: &str) {
        self.injective_prims.insert(Arc::from(prim));
    }

    /// Annotate a schema primitive as partial (may fail at runtime).
    pub fn declare_partial(&mut self, prim: &str) {
        self.partial_prims.insert(Arc::from(prim));
    }

    /// Decide whether `prop` is *provable* of `f` from the annotations and
    /// the structural inference rules. Sound but incomplete (like the
    /// paper's: a property that cannot be derived is treated as absent).
    pub fn holds(&self, prop: PropKind, f: &Func) -> bool {
        match prop {
            PropKind::Injective => self.injective(f),
            PropKind::Total => self.total(f),
        }
    }

    /// [`PropDb::holds`] over an interned function: the same inference
    /// rules, read off tags and children. A chain's spine is walked in a
    /// loop, so a long binding costs no native stack.
    pub fn holds_interned(&self, prop: PropKind, f: &ITerm) -> bool {
        match prop {
            PropKind::Injective => self.injective_interned(f),
            PropKind::Total => self.total_interned(f),
        }
    }

    fn prim_in(set: &BTreeSet<Sym>, f: &ITerm) -> bool {
        matches!(f.payload(), Payload::Sym(name) if set.contains(name))
    }

    /// [`PropDb::injective`]'s rules over an interned term.
    fn injective_interned(&self, mut f: &ITerm) -> bool {
        loop {
            let k = f.kids();
            match f.tag() {
                Tag::FId => return true,
                Tag::FPrim => return Self::prim_in(&self.injective_prims, f),
                Tag::FCompose | Tag::FTimes => {
                    if !self.injective_interned(&k[0]) {
                        return false;
                    }
                    f = &k[1];
                }
                Tag::FPairWith => {
                    if self.injective_interned(&k[0]) {
                        return true;
                    }
                    f = &k[1];
                }
                _ => return false,
            }
        }
    }

    /// [`PropDb::total`]'s rules over an interned term.
    fn total_interned(&self, mut f: &ITerm) -> bool {
        loop {
            let k = f.kids();
            match f.tag() {
                Tag::FPrim => return !Self::prim_in(&self.partial_prims, f),
                Tag::FCompose | Tag::FPairWith | Tag::FTimes | Tag::FNest | Tag::FUnnest => {
                    if !self.total_interned(&k[0]) {
                        return false;
                    }
                    f = &k[1];
                }
                Tag::FCurryF => f = &k[0],
                Tag::FCond => {
                    if !self.total_interned(&k[1]) {
                        return false;
                    }
                    f = &k[2];
                }
                Tag::FIterate | Tag::FIter | Tag::FJoin => f = &k[1],
                _ => return true,
            }
        }
    }

    /// `injective(f)`: structural inference.
    ///
    /// - `injective(id)`
    /// - `injective(prim)` iff annotated
    /// - `injective(f) ∧ injective(g) ⇒ injective(f ∘ g)` (the paper's rule)
    /// - `injective(f) ∨ injective(g) ⇒ injective(⟨f, g⟩)`
    /// - `injective(f) ∧ injective(g) ⇒ injective(f × g)`
    fn injective(&self, f: &Func) -> bool {
        match f {
            Func::Id => true,
            Func::Prim(name) => self.injective_prims.contains(name),
            Func::Compose(f, g) => self.injective(f) && self.injective(g),
            Func::PairWith(f, g) => self.injective(f) || self.injective(g),
            Func::Times(f, g) => self.injective(f) && self.injective(g),
            _ => false,
        }
    }

    /// `total(f)`: every former preserves totality; only annotated-partial
    /// primitives break it.
    fn total(&self, f: &Func) -> bool {
        match f {
            Func::Prim(name) => !self.partial_prims.contains(name),
            Func::Compose(f, g)
            | Func::PairWith(f, g)
            | Func::Times(f, g)
            | Func::Nest(f, g)
            | Func::Unnest(f, g) => self.total(f) && self.total(g),
            Func::CurryF(f, _) => self.total(f),
            Func::Cond(_, f, g) => self.total(f) && self.total(g),
            Func::Iterate(_, f) | Func::Iter(_, f) | Func::Join(_, f) => self.total(f),
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kola::builder::*;

    fn db() -> PropDb {
        let mut db = PropDb::new();
        db.declare_injective("name");
        db
    }

    #[test]
    fn annotated_prim_is_injective() {
        assert!(db().holds(PropKind::Injective, &prim("name")));
        assert!(!db().holds(PropKind::Injective, &prim("age")));
    }

    #[test]
    fn composition_inference() {
        // injective(f) ∧ injective(g) ⇒ injective(f ∘ g) — the paper's rule.
        assert!(db().holds(PropKind::Injective, &o(id(), prim("name"))));
        assert!(!db().holds(PropKind::Injective, &o(prim("age"), prim("name"))));
    }

    #[test]
    fn pairing_needs_one_side() {
        assert!(db().holds(PropKind::Injective, &pairf(prim("age"), prim("name"))));
        assert!(!db().holds(PropKind::Injective, &pairf(prim("age"), prim("age"))));
    }

    #[test]
    fn times_needs_both_sides() {
        assert!(db().holds(PropKind::Injective, &times(id(), prim("name"))));
        assert!(!db().holds(PropKind::Injective, &times(id(), prim("age"))));
    }

    #[test]
    fn id_is_injective_constants_are_not() {
        assert!(db().holds(PropKind::Injective, &id()));
        assert!(!db().holds(PropKind::Injective, &kf(1)));
        assert!(!db().holds(PropKind::Injective, &pi1()));
    }

    #[test]
    fn totality() {
        let mut db = PropDb::new();
        db.declare_partial("addr");
        assert!(!db.holds(PropKind::Total, &o(prim("city"), prim("addr"))));
        assert!(db.holds(PropKind::Total, &prim("city")));
        assert!(db.holds(PropKind::Total, &iterate(kp(true), prim("city"))));
    }
}
