//! A *monolithic* hidden-join rule, for comparison (experiment E13).
//!
//! §4.2 discusses expressing the hidden-join optimization "in terms of a
//! single complex monolithic rule" (the approach of Cluet & Moerkotte [12])
//! and identifies two problems:
//!
//! 1. **Complex rules need complex head routines** — because the reference
//!    to the inner set `B` "can be arbitrarily deeply nested", unification
//!    cannot decide applicability; "a head routine is necessary to perform
//!    the 'dive' into the query tree".
//! 2. **Complex rules do not simplify queries** — a failed monolithic match
//!    leaves the query untouched, whereas the gradual strategy's early
//!    steps still simplify it.
//!
//! This module *is* that head routine, instrumented: [`recognize`] dives to
//! unbounded depth counting the nodes it inspects. Contrast with the
//! gradual pipeline in [`crate::hidden_join`], whose every step is a
//! finite-pattern match.

use crate::budget::{Budget, RewriteError, RewriteReport};
use crate::catalog::Catalog;
use crate::hidden_join;
use crate::props::PropDb;
use kola::term::{Func, Pred, Query};

/// One recognized nesting layer of a Figure 7 hidden join.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Whether the layer's result is flattened (`hᵢ = flat`).
    pub flattened: bool,
    /// The layer's `iter` predicate.
    pub pred: Pred,
    /// The layer's `iter` body function.
    pub func: Func,
}

/// What the head routine found.
#[derive(Debug, Clone)]
pub struct Recognized {
    /// The outer pairing function `j`.
    pub j: Func,
    /// The nesting layers, outermost first.
    pub layers: Vec<Layer>,
    /// The inner constant set `B`.
    pub inner: Query,
    /// The outer argument `A`.
    pub outer: Query,
}

/// Instrumentation: how much work the head routine did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeadStats {
    /// AST nodes inspected during the dive.
    pub nodes_visited: usize,
    /// Nesting depth reached before deciding.
    pub dive_depth: usize,
}

/// The monolithic head routine: decide whether `q` is a hidden join of the
/// Figure 7 shape, diving to arbitrary depth.
pub fn recognize(q: &Query) -> (Option<Recognized>, HeadStats) {
    let mut stats = HeadStats::default();
    let out = recognize_inner(q, usize::MAX, &mut stats).unwrap_or(None);
    (out, stats)
}

/// [`recognize`] with the dive capped at `budget.max_depth`.
///
/// The unbounded dive is exactly the §4.2 pathology this crate's governance
/// layer exists to contain: an adversarial (or just very deep) query can
/// make the head routine do unbounded work *before the rule even fires*.
/// With a budget, the dive gives up at the depth limit and reports
/// [`RewriteError::DepthExceeded`] instead of deciding.
pub fn recognize_with_budget(
    q: &Query,
    budget: &Budget,
) -> (Result<Option<Recognized>, RewriteError>, HeadStats) {
    let mut stats = HeadStats::default();
    let out = recognize_inner(q, budget.max_depth, &mut stats);
    (out, stats)
}

fn recognize_inner(
    q: &Query,
    max_depth: usize,
    stats: &mut HeadStats,
) -> Result<Option<Recognized>, RewriteError> {
    stats.nodes_visited += 1;
    // iterate(Kp(T), (j, body)) ! A
    let Query::App(f, outer) = q else {
        return Ok(None);
    };
    stats.nodes_visited += 1;
    let Func::Iterate(p, pair) = f else {
        return Ok(None);
    };
    stats.nodes_visited += 2;
    if **p != Pred::ConstP(true) {
        return Ok(None);
    }
    let Func::PairWith(j, body) = &**pair else {
        return Ok(None);
    };
    let mut layers = Vec::new();
    let mut cur: &Func = body;
    loop {
        if stats.dive_depth >= max_depth {
            return Err(RewriteError::DepthExceeded { limit: max_depth });
        }
        stats.dive_depth += 1;
        stats.nodes_visited += 1;
        // Kf(B): done.
        if let Func::ConstF(b) = cur {
            if layers.is_empty() {
                return Ok(None); // no iter layer at all: not a hidden join
            }
            return Ok(Some(Recognized {
                j: (**j).clone(),
                layers,
                inner: (**b).clone(),
                outer: (**outer).clone(),
            }));
        }
        // [flat ∘] iter(p, f) ∘ (id, rest)
        let segs = crate::matching::chain_segments(cur);
        stats.nodes_visited += segs.len();
        let (flattened, rest_segs) = match segs.split_first() {
            Some((Func::Flat, rest)) => (true, rest),
            _ => (false, &segs[..]),
        };
        let Some((Func::Iter(p, f), tail)) = rest_segs.split_first() else {
            return Ok(None);
        };
        let Some((Func::PairWith(idf, next), tail_rest)) = tail.split_first() else {
            return Ok(None);
        };
        if !tail_rest.is_empty() || **idf != Func::Id {
            return Ok(None);
        }
        layers.push(Layer {
            flattened,
            pred: (**p).clone(),
            func: (**f).clone(),
        });
        cur = next;
    }
}

/// The monolithic rule: head routine + body routine.
///
/// The body routine here delegates to the same rewrite pipeline the gradual
/// strategy uses — the paper's criticism targets the *head* (unbounded
/// dive, all-or-nothing applicability), which this faithfully reproduces:
/// when [`recognize`] fails, the query is returned **unchanged**, with the
/// stats showing how much analysis was wasted.
pub fn try_monolithic(catalog: &Catalog, props: &PropDb, q: &Query) -> (Option<Query>, HeadStats) {
    let (hit, stats) = recognize(q);
    match hit {
        Some(_) => {
            let out = hidden_join::untangle(catalog, props, q);
            (Some(out.query), stats)
        }
        None => (None, stats),
    }
}

/// [`try_monolithic`] under an explicit [`Budget`]: the head routine's dive
/// is depth-capped and the body routine's rewriting is step-capped, with
/// the accounting returned alongside. A dive that hits the depth cap is an
/// all-or-nothing *failure* — the query comes back unchanged, exactly as a
/// monolithic rule behaves on any input it cannot fully analyze.
pub fn try_monolithic_governed(
    catalog: &Catalog,
    props: &PropDb,
    q: &Query,
    budget: &Budget,
) -> (Option<Query>, HeadStats, RewriteReport) {
    let (hit, stats) = recognize_with_budget(q, budget);
    match hit {
        Ok(Some(_)) => {
            let out = hidden_join::untangle_with_budget(catalog, props, q, budget);
            (Some(out.query), stats, out.report)
        }
        Ok(None) => (None, stats, RewriteReport::new()),
        Err(e) => {
            let mut report = RewriteReport::new();
            report.failures.push(e.to_string());
            (None, stats, report)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hidden_join::{garage_query_kg1, synthetic_hidden_join};

    #[test]
    fn recognizes_garage_query() {
        let (hit, stats) = recognize(&garage_query_kg1());
        let r = hit.expect("KG1 is a hidden join");
        assert_eq!(r.layers.len(), 2);
        assert!(r.layers[0].flattened);
        assert!(!r.layers[1].flattened);
        assert_eq!(r.inner.to_string(), "P");
        assert_eq!(r.outer.to_string(), "V");
        assert!(stats.dive_depth >= 3);
    }

    #[test]
    fn recognizes_synthetic_depths() {
        for n in 1..=6 {
            let (hit, stats) = recognize(&synthetic_hidden_join(n));
            let r = hit.unwrap_or_else(|| panic!("depth {n} should be recognized"));
            assert_eq!(r.layers.len(), n);
            assert_eq!(stats.dive_depth, n + 1);
        }
    }

    #[test]
    fn dive_cost_grows_with_depth() {
        let (_, shallow) = recognize(&synthetic_hidden_join(1));
        let (_, deep) = recognize(&synthetic_hidden_join(8));
        assert!(deep.nodes_visited > shallow.nodes_visited);
    }

    #[test]
    fn rejects_non_hidden_joins_after_diving() {
        // Almost a hidden join, but the innermost constant is missing —
        // the head routine dives the whole way before discovering this.
        let q = kola::parse::parse_query(
            "iterate(Kp(T), (id, flat . iter(Kp(T), child . pi2) . (id, child))) ! A",
        )
        .unwrap();
        let (hit, stats) = recognize(&q);
        assert!(hit.is_none());
        assert!(stats.dive_depth >= 2, "must dive before rejecting");
    }

    #[test]
    fn governed_dive_gives_up_at_depth_cap() {
        let q = synthetic_hidden_join(8);
        let budget = Budget::default().depth(3);
        let (hit, stats) = recognize_with_budget(&q, &budget);
        assert!(matches!(hit, Err(RewriteError::DepthExceeded { limit: 3 })));
        assert!(stats.dive_depth <= 3, "dive stopped at the cap");
        // The monolithic rule's all-or-nothing failure mode: unchanged
        // query, with the giving-up recorded in the report.
        let (c, p) = (Catalog::paper(), PropDb::new());
        let (out, _, report) = try_monolithic_governed(&c, &p, &q, &budget);
        assert!(out.is_none());
        assert_eq!(report.failures.len(), 1);
        // A generous budget recognizes and rewrites the same query.
        let (out, _, _) = try_monolithic_governed(&c, &p, &q, &Budget::default());
        assert!(out.is_some());
    }

    #[test]
    fn monolithic_failure_leaves_query_unchanged() {
        let (c, p) = (Catalog::paper(), PropDb::new());
        let q = kola::parse::parse_query("iterate(Kp(T), id . age) ! P").unwrap();
        let (out, _) = try_monolithic(&c, &p, &q);
        // The paper's point: the monolithic rule does nothing here, while
        // the gradual pipeline would at least simplify id ∘ age.
        assert!(out.is_none());
    }
}
