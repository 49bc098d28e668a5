//! Interning contracts over the type-directed generator's corpus (1000
//! seeds), beyond the fixed terms of `kola::intern`'s unit tests:
//!
//! * the arena-free [`query_fp`] agrees with the interned fingerprint, so
//!   the plan cache's key and the engine's arena never diverge;
//! * interning a term the arena already holds returns the identical node
//!   and constructs nothing, so a cache-miss request whose subterms are
//!   resident costs lookups, not allocations.

use kola::intern::{query_fp, Interner};
use kola::term::Query;
use kola_exec::datagen::{generate, DataSpec};
use kola_exec::rng::Rng;
use kola_verify::{palette, Gen};

const SEEDS: u64 = 1000;

/// One generated query per seed, mixing every level: a function applied to
/// a literal, a predicate tested on one, and pairs of the two.
fn corpus() -> Vec<Query> {
    let db = generate(&DataSpec::small(17));
    let types = palette();
    (0..SEEDS)
        .map(|seed| {
            let mut g = Gen::new(&db, Rng::seed_from_u64(seed));
            let a = types[(seed % types.len() as u64) as usize].clone();
            let b = types[((seed / 7) % types.len() as u64) as usize].clone();
            let f = g.func(&a, &b, 3);
            let app = Query::App(f, Box::new(Query::Lit(g.value(&a))));
            match seed % 3 {
                0 => app,
                1 => Query::Test(g.pred(&a, 2), Box::new(Query::Lit(g.value(&a)))),
                _ => Query::PairQ(Box::new(app), Box::new(Query::Extent("P".into()))),
            }
        })
        .collect()
}

#[test]
fn query_fp_matches_interned_fingerprint_on_generated_corpus() {
    let mut it = Interner::new();
    for (seed, q) in corpus().iter().enumerate() {
        let t = it.intern_query(q);
        assert_eq!(query_fp(q), t.fp(), "seed {seed}: {q}");
        assert_eq!(&t.to_query(), q, "seed {seed}: round trip");
    }
}

#[test]
fn reinterning_returns_the_identical_node_and_constructs_nothing() {
    let corpus = corpus();
    let mut it = Interner::new();
    let first: Vec<_> = corpus.iter().map(|q| it.intern_query(q)).collect();
    let constructed = it.constructed();
    let live = it.len();
    for (seed, (q, t)) in corpus.iter().zip(&first).enumerate() {
        let again = it.intern_query(q);
        assert!(
            again.ptr_eq(t),
            "seed {seed}: re-interning built a new node"
        );
        // Re-interning the reified term lands on the same node too.
        assert!(it.intern_query(&t.to_query()).ptr_eq(t), "seed {seed}");
    }
    assert_eq!(it.constructed(), constructed, "a hit must not construct");
    assert_eq!(it.len(), live);
}
