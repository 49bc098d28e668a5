//! Differential test of the in-place chain match in the rule programs.
//!
//! A compiled function program (`kola_rewrite::program`) matches its head
//! against a chain by walking the right-normalized term with a cursor,
//! binds a trailing `$f` to the existing suffix node and reuses the
//! unconsumed suffix node as the tail. The matcher this replaced flattened
//! the term into a segment vector and rebuilt both from segments. That
//! matcher lives on here as the oracle, matching each segment with the
//! boxed structural matcher: for every orientation of every catalog rule,
//! at every function subterm of two corpora, the two must agree on match
//! or no match, build the same node (`ptr_eq`) and bind the same variables
//! to the same nodes.
//!
//! Corpora: see `common/match_corpus.rs`.

#[path = "common/match_corpus.rs"]
mod match_corpus;

use kola::intern::{ichain_segments, icompose, ITerm, Interner, Tag};
use kola::pattern::{PFunc, VarKind};
use kola::term::Func;
use kola::value::Sym;
use kola_rewrite::budget::RewriteError;
use kola_rewrite::matching::{compose_chain, match_func, pchain_segments};
use kola_rewrite::program::{Applied, Program};
use kola_rewrite::rule::RewritePair;
use kola_rewrite::subst::{instantiate_func, Subst};
use kola_rewrite::{Catalog, Direction, PropDb, Rule};
use match_corpus::{fuzz_roots, gen_roots, subterms};

// ---- the oracle: the segment-vector matcher -------------------------------

/// Match `pat` against a prefix of the segments `tsegs`, one boxed segment
/// at a time; the number of segments consumed.
fn oracle_prefix(pat: &PFunc, tsegs: &[Func], s: &mut Subst) -> Option<usize> {
    let psegs = pchain_segments(pat);
    let m = psegs.len();
    let n = tsegs.len();
    if m == 0 || n == 0 || m - 1 > n {
        return None;
    }
    for (p, t) in psegs[..m - 1].iter().zip(tsegs) {
        if !match_func(p, t, s) {
            return None;
        }
    }
    if n < m {
        return None;
    }
    match psegs[m - 1] {
        PFunc::Var(v) => s
            .bind_func(v, &compose_chain(tsegs[m - 1..].to_vec()))
            .then_some(n),
        last => match_func(last, &tsegs[m - 1], s).then_some(m),
    }
}

/// Rebuild a right-associated interned chain from segments.
fn ichain(it: &mut Interner, segs: &[ITerm]) -> ITerm {
    let (last, init) = segs.split_last().expect("a non-empty chain");
    init.iter()
        .rev()
        .fold(last.clone(), |acc, f| icompose(it, f.clone(), acc))
}

/// The oracle's outcome: the rewritten node and the head's bindings.
type OracleHit = (ITerm, Subst);

fn oracle_apply(
    rule: &Rule,
    t: &ITerm,
    dir: Direction,
    it: &mut Interner,
) -> Result<Option<OracleHit>, RewriteError> {
    if dir == Direction::Backward && !rule.bidirectional {
        return Ok(None);
    }
    let isegs = ichain_segments(t);
    let tsegs: Vec<Func> = isegs.iter().map(ITerm::to_func).collect();
    for alt in &rule.alts {
        let RewritePair::F(l, r) = alt else { continue };
        let (head, body) = match dir {
            Direction::Forward => (l, r),
            Direction::Backward => (r, l),
        };
        let mut s = Subst::new();
        if let Some(consumed) = oracle_prefix(head, &tsegs, &mut s) {
            let rewritten = instantiate_func(body, &s).map_err(|e| RewriteError::RuleFailed {
                rule_id: rule.id.clone(),
                detail: e.to_string(),
            })?;
            let rewritten = it.intern_func(&rewritten.normalize());
            if consumed == isegs.len() {
                return Ok(Some((rewritten, s)));
            }
            let tail = ichain(it, &isegs[consumed..]);
            return Ok(Some((icompose(it, rewritten, tail), s)));
        }
    }
    Ok(None)
}

// ---- the check ------------------------------------------------------------

/// The program's bindings and the oracle's name the same variables, bound
/// to the same nodes.
fn same_binds(got: &[(VarKind, Sym, ITerm)], want: &Subst, it: &mut Interner) -> bool {
    let n = want.funcs.len() + want.preds.len() + want.objs.len();
    got.len() == n
        && got.iter().all(|(kind, v, t)| {
            let node = match kind {
                VarKind::Func => want.funcs.get(v).map(|f| it.intern_func(f)),
                VarKind::Pred => want.preds.get(v).map(|p| it.intern_pred(p)),
                VarKind::Obj => want.objs.get(v).map(|q| it.intern_query(q)),
            };
            node.is_some_and(|w| w.ptr_eq(t))
        })
}

/// Every orientation of every catalog rule at every term: the in-place
/// program and the oracle agree. Returns how many attempts matched.
fn check_corpus(label: &str, terms: &[ITerm], it: &mut Interner) -> usize {
    let catalog = Catalog::paper();
    assert!(
        catalog.len() >= 639,
        "the full catalog: {} rules",
        catalog.len()
    );
    let props = PropDb::new();
    let mut programs = Vec::new();
    for rule in catalog.rules().iter().filter(|r| r.is_func_level()) {
        for dir in [Direction::Forward, Direction::Backward] {
            programs.push((rule, dir, Program::compile(rule, dir)));
        }
    }
    let mut matched = 0;
    for t in terms.iter().filter(|t| t.tag() <= Tag::FSetDiff) {
        for (rule, dir, prog) in &programs {
            let got = prog.apply(t, &props, it);
            let want = oracle_apply(rule, t, *dir, it);
            let ctx = || format!("[{label}] rule {} {dir:?} at {}", rule.id, t.to_func());
            match (got, want) {
                (Applied::NoMatch, Ok(None)) => {}
                (Applied::Rewrote(g), Ok(Some((w, ws)))) => {
                    matched += 1;
                    assert!(
                        g.ptr_eq(&w),
                        "{}: result {} vs {}",
                        ctx(),
                        g.to_func(),
                        w.to_func()
                    );
                    let gs = prog.bindings(t).expect("a matching head binds");
                    assert!(same_binds(&gs, &ws, it), "{}: bindings", ctx());
                }
                // No precondition holds under an empty property database;
                // the head still matched, and bound what the oracle bound.
                (Applied::Refused, Ok(Some((_, ws)))) => {
                    matched += 1;
                    let gs = prog.bindings(t).expect("a matching head binds");
                    assert!(same_binds(&gs, &ws, it), "{}: bindings", ctx());
                }
                (Applied::Failed(g), Err(w)) => {
                    assert_eq!(g.to_string(), w.to_string(), "{}", ctx())
                }
                (g, w) => panic!(
                    "{}: in place {g:?} vs oracle {:?}",
                    ctx(),
                    w.map(|o| o.map(|(t, _)| t.to_func()))
                ),
            }
        }
    }
    matched
}

#[test]
fn in_place_matcher_agrees_with_segment_vectors_on_the_fuzz_corpus() {
    let mut it = Interner::new();
    let roots = fuzz_roots(&mut it);
    let terms = subterms(&roots);
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
    let mut it = Interner::new();
    let roots = gen_roots(&mut it);
    let terms = subterms(&roots);
    let matched = check_corpus("gen", &terms, &mut it);
    eprintln!("gen: {} terms, {matched} matches", terms.len());
    assert!(
        matched > 1_000,
        "only {matched} matching attempts over {} terms",
        terms.len()
    );
}
