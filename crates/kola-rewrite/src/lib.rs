#![warn(missing_docs)]
//! # kola-rewrite — the KOLA rule language and rewrite engine
//!
//! Everything a rule-based optimizer needs over the KOLA algebra, with the
//! paper's central property made structural: **rules are data** (pattern
//! pairs plus declarative preconditions), never code.
//!
//! - [`subst`], [`matching`] — the only machinery rules need: bind
//!   metavariables by structural matching, splice them into the body.
//! - [`rule`] — declarative rules with direction, alternatives, provenance.
//! - [`engine`] — the boxed reference engine: leftmost-outermost
//!   congruence rewriting with derivation traces (reproduces Figures 4 and
//!   6 literally), which the parity tests, trace replay and the
//!   containment suite run.
//! - [`catalog`] — Figures 5 & 8 plus an extended verified pool.
//! - [`props`] — declarative preconditions (`injective`, …) and their
//!   inference rules.
//! - [`strategy`] — firing strategies (the substrate for COKO rule blocks).
//! - [`hidden_join`] — the five-step untangling pipeline of §4.1.
//! - [`monolithic`] — the instrumented monolithic-rule baseline of §4.2.
//! - [`budget`] — resource governance: explicit step/depth/size/deadline
//!   budgets, structured errors, and per-run reports.
//! - [`fault`] — deterministic fault injection for robustness testing.
//! - [`program`] — rules compiled once into flat match/build programs over
//!   numbered slots, which the interned engine runs.
//! - [`dtree`] — the discrimination-tree rule index: flat per-step match
//!   cost as the catalog grows past the paper's 500-rule pool.
//! - [`fast`] — the interned + tree-indexed + memoized engine behind
//!   [`EngineConfig`], differentially tested against the boxed engine; it
//!   runs every strategy primitive (one step, one bottom-up sweep, a
//!   fixpoint) and every served request.
//! - [`egraph`], [`saturate`], [`extract`] — the equality-saturation
//!   engine: e-classes with union-find and congruence closure over the
//!   hash-consed arena, non-destructive rule application to saturation,
//!   and cost-based extraction under a pluggable [`CostModel`].
pub mod budget;
pub mod catalog;
pub mod dtree;
pub mod egraph;
pub mod engine;
pub mod extract;
pub mod fast;
pub mod fault;
mod fxhash;
pub mod hidden_join;
pub mod matching;
pub mod monolithic;
pub mod program;
pub mod props;
#[cfg(test)]
mod rebuild_oracle;
pub mod rule;
pub mod saturate;
pub mod strategy;
pub mod subst;

pub use budget::{
    Budget, CycleDetector, QuarantineEntry, QuarantineReport, RewriteError, RewriteReport,
    RuleStats, StopReason,
};
pub use catalog::Catalog;
pub use dtree::{IndexStats, RuleIndex};
pub use egraph::{ClassId, EClass, EGraph, ENode, PayloadId, NO_PAYLOAD};
pub use engine::{
    rewrite_fix, rewrite_fix_governed, rewrite_fix_with, rewrite_once_query, try_rewrite_fix_with,
    Oriented, Rewritten, Step, Trace,
};
pub use extract::{CostModel, Extractor, OpWeight, TermSize};
pub use fast::{Engine, EngineConfig, EngineStats};
pub use fault::{CaughtPanic, FaultKind, FaultPlan, FaultSpec, StepSelector};
pub use props::{PropDb, PropKind, PropTerm};
pub use rule::{Direction, Rule, RuleSource};
pub use strategy::{Runner, Strategy};
pub use subst::Subst;
