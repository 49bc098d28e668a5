#![warn(missing_docs)]
//! # kola-verify — randomized, type-directed rule verification
//!
//! The paper proved its rules with the Larch theorem prover (LP); this
//! crate substitutes mechanized *testing*: rule metavariables are
//! instantiated with random well-typed terms and both sides are evaluated
//! on generated databases. A single disagreement is a counterexample. See
//! DESIGN.md §4 for the substitution rationale.
//!
//! Verdicts are recomputed on every run, never remembered: a verdict
//! depends on the rule, the trial budget and seed, and also on the
//! evaluator, the type checker, the term generator and the database, so
//! any remembered pass could outlive a change to one of those.
pub mod check;
pub mod containment;
pub mod gen;

pub use check::{
    check_normalization_semantics, check_plan_semantics, check_rule, rule_seed, verify_catalog,
    PlanAgreement, RuleReport,
};
pub use containment::{check_containment, run_invariants, verify_containment, ContainmentReport};
pub use gen::{palette, Gen};
