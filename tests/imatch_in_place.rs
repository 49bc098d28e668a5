//! Differential test of the in-place chain matcher.
//!
//! `kola_rewrite::imatch` matches a function head against a chain by
//! walking the right-normalized term with a cursor, binds a trailing `$f`
//! to the existing suffix node and reuses the unconsumed suffix node as the
//! tail. The matcher it replaced flattened the term into a segment vector
//! and rebuilt both from segments. That matcher lives on here as the
//! oracle: for every orientation of every catalog rule, at every function
//! subterm of two corpora, the two must agree on match or no match, build
//! the same node (`ptr_eq`) and bind the same variables to the same nodes.
//!
//! Corpora (both right-normalized, as the engine interns them):
//! * the `tests/index_parity.rs` fuzz corpus (same generator, same seeds);
//! * 1000 seeds of the type-directed `kola_verify::Gen`.

use kola::intern::{ichain_segments, icompose, ITerm, Interner, Tag};
use kola::pattern::PFunc;
use kola::term::{Func, Pred, Query};
use kola::types::Type;
use kola_exec::datagen::{generate, DataSpec};
use kola_exec::rng::Rng;
use kola_rewrite::budget::RewriteError;
use kola_rewrite::imatch::{
    icompose_chain, iinstantiate_func, imatch_func, itry_apply_func, IBinds, ISubst,
};
use kola_rewrite::matching::pchain_segments;
use kola_rewrite::rule::RewritePair;
use kola_rewrite::{Catalog, Direction, Rule};
use kola_verify::{palette, Gen};
use std::collections::HashSet;
use std::sync::Arc;

// ---- the oracle: the segment-vector matcher -------------------------------

fn oracle_bind(binds: &mut IBinds, v: &kola::value::Sym, t: &ITerm) -> bool {
    match binds.get(v) {
        Some(existing) => existing.ptr_eq(t),
        None => {
            binds.insert(v.clone(), t.clone());
            true
        }
    }
}

/// Match `pat` against a prefix of the segments `tsegs`; the number of
/// segments consumed.
fn oracle_prefix(pat: &PFunc, tsegs: &[ITerm], s: &mut ISubst, it: &mut Interner) -> Option<usize> {
    let psegs = pchain_segments(pat);
    let m = psegs.len();
    let n = tsegs.len();
    if m == 0 || n == 0 || m - 1 > n {
        return None;
    }
    for (p, t) in psegs[..m - 1].iter().zip(tsegs) {
        if !imatch_func(p, t, s) {
            return None;
        }
    }
    if n < m {
        return None;
    }
    match psegs[m - 1] {
        PFunc::Var(v) => {
            let rest = icompose_chain(it, tsegs[m - 1..].to_vec());
            oracle_bind(&mut s.funcs, v, &rest).then_some(n)
        }
        last => imatch_func(last, &tsegs[m - 1], s).then_some(m),
    }
}

fn oracle_apply(
    rule: &Rule,
    t: &ITerm,
    dir: Direction,
    it: &mut Interner,
) -> Result<Option<(ITerm, ISubst)>, RewriteError> {
    if dir == Direction::Backward && !rule.bidirectional {
        return Ok(None);
    }
    let tsegs = ichain_segments(t);
    let n = tsegs.len();
    for alt in &rule.alts {
        let RewritePair::F(l, r) = alt else { continue };
        let (head, body) = match dir {
            Direction::Forward => (l, r),
            Direction::Backward => (r, l),
        };
        let mut s = ISubst::new();
        if let Some(consumed) = oracle_prefix(head, &tsegs, &mut s, it) {
            let rewritten =
                iinstantiate_func(body, &s, it).map_err(|e| RewriteError::RuleFailed {
                    rule_id: rule.id.clone(),
                    detail: e.to_string(),
                })?;
            if consumed == n {
                return Ok(Some((rewritten, s)));
            }
            let tail = icompose_chain(it, tsegs[consumed..].to_vec());
            return Ok(Some((icompose(it, rewritten, tail), s)));
        }
    }
    Ok(None)
}

// ---- the corpora ----------------------------------------------------------

/// The `tests/index_parity.rs` fuzz generator, copied verbatim.
fn arb_func(rng: &mut Rng, depth: usize) -> Func {
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0..13u32) {
            0 => Func::Id,
            1 => Func::Pi1,
            2 => Func::Pi2,
            3 => Func::Flat,
            4 => Func::Bagify,
            5 => Func::Dedup,
            6 => Func::BUnion,
            7 => Func::BFlat,
            8 => Func::SetUnion,
            9 => Func::SetIntersect,
            10 => Func::SetDiff,
            11 => {
                let names = ["age", "addr", "city", "name", "child", "zz"];
                Func::Prim(Arc::from(names[rng.gen_range(0..names.len())]))
            }
            _ => Func::ConstF(Box::new(Query::Lit(kola::Value::Int(rng.gen::<i64>())))),
        };
    }
    match rng.gen_range(0..9u32) {
        0 => Func::Compose(
            Box::new(arb_func(rng, depth - 1)),
            Box::new(arb_func(rng, depth - 1)),
        ),
        1 => Func::PairWith(
            Box::new(arb_func(rng, depth - 1)),
            Box::new(arb_func(rng, depth - 1)),
        ),
        2 => Func::Times(
            Box::new(arb_func(rng, depth - 1)),
            Box::new(arb_func(rng, depth - 1)),
        ),
        3 => Func::Iterate(
            Box::new(arb_pred_leaf(rng)),
            Box::new(arb_func(rng, depth - 1)),
        ),
        4 => Func::Iter(
            Box::new(arb_pred_leaf(rng)),
            Box::new(arb_func(rng, depth - 1)),
        ),
        5 => Func::Join(
            Box::new(arb_pred_leaf(rng)),
            Box::new(arb_func(rng, depth - 1)),
        ),
        6 => Func::BIterate(
            Box::new(arb_pred_leaf(rng)),
            Box::new(arb_func(rng, depth - 1)),
        ),
        7 => Func::Nest(
            Box::new(arb_func(rng, depth - 1)),
            Box::new(arb_func(rng, depth - 1)),
        ),
        _ => Func::Unnest(
            Box::new(arb_func(rng, depth - 1)),
            Box::new(arb_func(rng, depth - 1)),
        ),
    }
}

fn arb_pred_leaf(rng: &mut Rng) -> Pred {
    match rng.gen_range(0..5u32) {
        0 => Pred::Eq,
        1 => Pred::Lt,
        2 => Pred::Gt,
        3 => Pred::In,
        _ => Pred::ConstP(rng.gen::<bool>()),
    }
}

fn arb_query(rng: &mut Rng, depth: usize) -> Query {
    let f = arb_func(rng, depth);
    let base = Query::App(f, Box::new(Query::Extent(Arc::from("P"))));
    if rng.gen_bool(0.3) {
        let g = arb_func(rng, depth.saturating_sub(2));
        Query::PairQ(
            Box::new(base),
            Box::new(Query::App(g, Box::new(Query::Extent(Arc::from("Q"))))),
        )
    } else {
        base
    }
}

/// Every distinct function-level node under `root`.
fn func_subterms(root: &ITerm, seen: &mut HashSet<usize>, out: &mut Vec<ITerm>) {
    let mut work = vec![root.clone()];
    while let Some(t) = work.pop() {
        if !seen.insert(t.id()) {
            continue;
        }
        if t.tag() <= Tag::FSetDiff {
            out.push(t.clone());
        }
        work.extend(t.kids().iter().cloned());
    }
}

// ---- the check ------------------------------------------------------------

fn same_binds(a: &IBinds, b: &IBinds) -> bool {
    a.len() == b.len() && a.iter().all(|(k, t)| b.get(k).is_some_and(|u| u.ptr_eq(t)))
}

/// Every orientation of every catalog rule at every term: the in-place
/// matcher and the oracle agree. Returns how many attempts matched.
fn check_corpus(label: &str, terms: &[ITerm], it: &mut Interner) -> usize {
    let catalog = Catalog::paper();
    let func_rules: Vec<&Rule> = catalog
        .rules()
        .iter()
        .filter(|r| r.alts.iter().any(|a| matches!(a, RewritePair::F(..))))
        .collect();
    assert!(
        catalog.len() >= 639,
        "the full catalog: {} rules",
        catalog.len()
    );
    let mut matched = 0;
    for t in terms {
        for rule in &func_rules {
            for dir in [Direction::Forward, Direction::Backward] {
                let got = itry_apply_func(rule, t, dir, it);
                let want = oracle_apply(rule, t, dir, it);
                let ctx = || format!("[{label}] rule {} {dir:?} at {}", rule.id, t.to_func());
                match (got, want) {
                    (Ok(None), Ok(None)) => {}
                    (Ok(Some((g, gs))), Ok(Some((w, ws)))) => {
                        matched += 1;
                        assert!(
                            g.ptr_eq(&w),
                            "{}: result {} vs {}",
                            ctx(),
                            g.to_func(),
                            w.to_func()
                        );
                        assert!(same_binds(&gs.funcs, &ws.funcs), "{}: $-bindings", ctx());
                        assert!(same_binds(&gs.preds, &ws.preds), "{}: %-bindings", ctx());
                        assert!(same_binds(&gs.objs, &ws.objs), "{}: ^-bindings", ctx());
                    }
                    (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "{}", ctx()),
                    (g, w) => panic!(
                        "{}: in place {:?} vs oracle {:?}",
                        ctx(),
                        g.map(|o| o.map(|(t, _)| t.to_func())),
                        w.map(|o| o.map(|(t, _)| t.to_func()))
                    ),
                }
            }
        }
    }
    matched
}

#[test]
fn in_place_matcher_agrees_with_segment_vectors_on_the_fuzz_corpus() {
    let mut it = Interner::new();
    let (mut seen, mut terms) = (HashSet::new(), Vec::new());
    for seed in 0..1_000u64 {
        let mut rng = Rng::seed_from_u64(0xC0FFEE ^ seed);
        let q = arb_query(&mut rng, 5).normalize();
        func_subterms(&it.intern_query(&q), &mut seen, &mut terms);
    }
    let matched = check_corpus("fuzz", &terms, &mut it);
    eprintln!("fuzz: {} terms, {matched} matches", terms.len());
    assert!(
        matched > 1_000,
        "only {matched} matching attempts over {} terms",
        terms.len()
    );
}

#[test]
fn in_place_matcher_agrees_with_segment_vectors_on_the_gen_corpus() {
    let db = generate(&DataSpec::small(17));
    let person = Type::Obj(db.schema().class_id("Person").expect("paper schema"));
    let types = palette();
    let mut it = Interner::new();
    let (mut seen, mut terms) = (HashSet::new(), Vec::new());
    for seed in 0..1_000u64 {
        let mut g = Gen::new(&db, Rng::seed_from_u64(seed));
        let out = types[(seed % types.len() as u64) as usize].clone();
        let input = if seed % 2 == 0 {
            person.clone()
        } else {
            types[((seed / 7) % types.len() as u64) as usize].clone()
        };
        let f = g.func(&input, &out, 3).normalize();
        func_subterms(&it.intern_func(&f), &mut seen, &mut terms);
    }
    let matched = check_corpus("gen", &terms, &mut it);
    eprintln!("gen: {} terms, {matched} matches", terms.len());
    assert!(
        matched > 1_000,
        "only {matched} matching attempts over {} terms",
        terms.len()
    );
}
