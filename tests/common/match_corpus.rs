//! Term corpora shared by the rule-program differential tests
//! (`imatch_in_place.rs`, `program_parity.rs`), both right-normalized as
//! the engine interns them:
//! * the `tests/index_parity.rs` fuzz corpus (same generator, same seeds);
//! * 1000 seeds of the type-directed `kola_verify::Gen`.
#![allow(dead_code)] // each test binary uses its own subset

use kola::intern::{ITerm, Interner};
use kola::term::{Func, Pred, Query};
use kola::types::Type;
use kola_exec::datagen::{generate, DataSpec};
use kola_exec::rng::Rng;
use kola_verify::{palette, Gen};
use std::collections::HashSet;
use std::sync::Arc;

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

/// One fuzz query: a generated function applied to `P`, sometimes paired
/// with a second one applied to `Q`.
pub fn arb_query(rng: &mut Rng, depth: usize) -> Query {
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

/// The fuzz corpus's 1000 query roots.
pub fn fuzz_roots(it: &mut Interner) -> Vec<ITerm> {
    (0..1_000u64)
        .map(|seed| {
            let mut rng = Rng::seed_from_u64(0xC0FFEE ^ seed);
            it.intern_query(&arb_query(&mut rng, 5).normalize())
        })
        .collect()
}

/// The `Gen` corpus's 1000 function roots.
pub fn gen_roots(it: &mut Interner) -> Vec<ITerm> {
    let db = generate(&DataSpec::small(17));
    let person = Type::Obj(db.schema().class_id("Person").expect("paper schema"));
    let types = palette();
    (0..1_000u64)
        .map(|seed| {
            let mut g = Gen::new(&db, Rng::seed_from_u64(seed));
            let out = types[(seed % types.len() as u64) as usize].clone();
            let input = if seed % 2 == 0 {
                person.clone()
            } else {
                types[((seed / 7) % types.len() as u64) as usize].clone()
            };
            it.intern_func(&g.func(&input, &out, 3).normalize())
        })
        .collect()
}

/// Every distinct node under `roots`, in discovery order.
pub fn subterms(roots: &[ITerm]) -> Vec<ITerm> {
    let (mut seen, mut out) = (HashSet::new(), Vec::new());
    let mut work: Vec<ITerm> = roots.to_vec();
    while let Some(t) = work.pop() {
        if !seen.insert(t.id()) {
            continue;
        }
        work.extend(t.kids().iter().cloned());
        out.push(t);
    }
    out
}
