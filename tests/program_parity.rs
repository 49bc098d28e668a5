//! Differential test of the compiled rule programs against the boxed
//! matcher (`Rule::try_apply_*`), at all three term levels.
//!
//! For every catalog rule, forward and (for bidirectional rules) backward,
//! at every distinct subterm of two corpora (see `common/match_corpus.rs`),
//! the program and the boxed rule must agree on match or no match, give the
//! same precondition verdict, and build the same node: the program's result
//! is `ptr_eq` to the boxed result, normalized and interned. A malformed
//! alternative must fail with the same message.

#[path = "common/match_corpus.rs"]
mod match_corpus;

use kola::intern::{ITerm, Interner};
use kola::term::{Func, Pred, Query};
use kola_rewrite::program::{Applied, Level, Program};
use kola_rewrite::props::PropTerm;
use kola_rewrite::subst::Subst;
use kola_rewrite::{Catalog, Direction, PropDb, Rule};
use match_corpus::{fuzz_roots, gen_roots, subterms};

/// The boxed matcher's outcome at a node, in the program's terms.
enum Want {
    NoMatch,
    Refused,
    Rewrote(ITerm),
    Failed(String),
}

fn preconditions_hold(rule: &Rule, s: &Subst, props: &PropDb) -> bool {
    rule.preconditions.iter().all(|p| match &p.subject {
        PropTerm::FuncVar(name) => s.funcs.get(name).is_some_and(|f| props.holds(p.prop, f)),
    })
}

/// A corpus node reified once as a boxed term.
enum Boxed {
    F(Func),
    P(Pred),
    Q(Query),
}

impl Boxed {
    fn of(t: &ITerm) -> Boxed {
        match Level::of(t.tag()) {
            Level::F => Boxed::F(t.to_func()),
            Level::P => Boxed::P(t.to_pred()),
            Level::Q => Boxed::Q(t.to_query()),
        }
    }
}

fn boxed(rule: &Rule, dir: Direction, t: &Boxed, props: &PropDb, it: &mut Interner) -> Want {
    let applied = match t {
        Boxed::F(t) => rule
            .try_apply_func(t, dir)
            .map(|o| o.map(|(f, s)| (it.intern_func(&f.normalize()), s))),
        Boxed::P(t) => rule
            .try_apply_pred(t, dir)
            .map(|o| o.map(|(p, s)| (it.intern_pred(&p.normalize()), s))),
        Boxed::Q(t) => rule
            .try_apply_query(t, dir)
            .map(|o| o.map(|(q, s)| (it.intern_query(&q.normalize()), s))),
    };
    match applied {
        Ok(None) => Want::NoMatch,
        Ok(Some((out, s))) if preconditions_hold(rule, &s, props) => Want::Rewrote(out),
        Ok(Some(_)) => Want::Refused,
        Err(e) => Want::Failed(e.to_string()),
    }
}

/// Tallies of one corpus run: outcomes seen, by kind.
#[derive(Default, Debug)]
struct Tally {
    attempts: usize,
    rewrote: [usize; 3],
    refused: usize,
}

fn check_corpus(label: &str, terms: &[ITerm], it: &mut Interner) -> Tally {
    let catalog = Catalog::paper();
    assert!(
        catalog.len() >= 639,
        "the full catalog: {} rules",
        catalog.len()
    );
    // Two key attributes, so the injectivity preconditions both hold and
    // fail across the corpus.
    let mut props = PropDb::new();
    props.declare_injective("name");
    props.declare_injective("age");
    let mut programs = Vec::new();
    for rule in catalog.rules() {
        programs.push((
            rule,
            Direction::Forward,
            Program::compile(rule, Direction::Forward),
        ));
        if rule.bidirectional {
            programs.push((
                rule,
                Direction::Backward,
                Program::compile(rule, Direction::Backward),
            ));
        }
    }
    let mut tally = Tally::default();
    for t in terms {
        let level = Level::of(t.tag());
        let bt = Boxed::of(t);
        for (rule, dir, prog) in &programs {
            let at_level = match level {
                Level::F => rule.is_func_level(),
                Level::P => rule.is_pred_level(),
                Level::Q => rule.is_query_level(),
            };
            if !at_level {
                assert!(matches!(prog.apply(t, &props, it), Applied::NoMatch));
                continue;
            }
            tally.attempts += 1;
            let got = prog.apply(t, &props, it);
            let want = boxed(rule, *dir, &bt, &props, it);
            let ctx = || format!("[{label}] rule {} {dir:?} at {t:?}", rule.id);
            match (got, want) {
                (Applied::NoMatch, Want::NoMatch) => {}
                (Applied::Refused, Want::Refused) => tally.refused += 1,
                (Applied::Rewrote(g), Want::Rewrote(w)) => {
                    assert!(g.ptr_eq(&w), "{}: built a different node", ctx());
                    tally.rewrote[level as usize] += 1;
                }
                (Applied::Failed(g), Want::Failed(w)) => {
                    assert_eq!(g.to_string(), w, "{}", ctx())
                }
                (g, _) => panic!("{}: program gave {g:?}, the boxed rule did not", ctx()),
            }
        }
    }
    tally
}

fn assert_covers(label: &str, tally: &Tally) {
    eprintln!("{label}: {tally:?}");
    let [f, p, q] = tally.rewrote;
    assert!(
        f > 1_000 && p > 0 && q > 0,
        "{label}: too few rewrites per level (func {f}, pred {p}, query {q})"
    );
}

#[test]
fn programs_agree_with_the_boxed_matcher_on_the_fuzz_corpus() {
    let mut it = Interner::new();
    let roots = fuzz_roots(&mut it);
    let tally = check_corpus("fuzz", &subterms(&roots), &mut it);
    assert_covers("fuzz", &tally);
}

#[test]
fn programs_agree_with_the_boxed_matcher_on_the_gen_corpus() {
    let mut it = Interner::new();
    let roots = gen_roots(&mut it);
    let tally = check_corpus("gen", &subterms(&roots), &mut it);
    assert_covers("gen", &tally);
}

#[test]
fn programs_agree_with_the_boxed_matcher_on_preconditions() {
    // Neither corpus holds the shapes the injectivity rules (e100, e101)
    // match, so probe them by hand: a key attribute (the precondition
    // holds) and a non-key one (it refuses), in both orientations.
    let mut it = Interner::new();
    let mut roots = Vec::new();
    for f in ["name", "city", "age . pi1", "city . addr"] {
        for op in ["intersect", "diff"] {
            let fwd = format!("(iterate(Kp(T), {f}) ! P) {op} (iterate(Kp(T), {f}) ! Q)");
            let bwd = format!("iterate(Kp(T), {f}) ! (P {op} Q)");
            for src in [fwd, bwd] {
                let q = kola::parse::parse_query(&src).unwrap().normalize();
                roots.push(it.intern_query(&q));
            }
        }
    }
    let tally = check_corpus("preconditions", &subterms(&roots), &mut it);
    eprintln!("preconditions: {tally:?}");
    assert!(tally.refused >= 8, "refused only {}", tally.refused);
    assert!(tally.rewrote[2] >= 8, "rewrote only {:?}", tally.rewrote);
}
