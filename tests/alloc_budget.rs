//! Allocation budget of the fixpoint engine's rewrite steps.
//!
//! A rule over KOLA is plain pattern matching, so a rewrite step should
//! cost tag and pointer compares plus the nodes it adds to the arena, not
//! heap traffic of its own. This binary counts every heap allocation (a
//! counting global allocator, per thread) while a warm
//! `EngineConfig::fast()` engine over the full forward catalog, trace off,
//! normalizes three workloads, and bounds allocations per fired step:
//!
//! * a 60-high `id . … . id . age ! P` tower, which peels one `id` per
//!   two steps (`app`, then `e121`), building one new node per step:
//!   ≤ 2 per step;
//! * the Figure 4 T1/T2 inputs and 200 typed `kola_verify::Gen` queries:
//!   ≤ 25 per step on average.
//!
//! The counts include the whole `normalize` call: interning the input,
//! every step, and reifying the result. A second test bounds parsing text
//! straight into a warm arena: one allocation a text, its token buffer.

use kola::intern::Interner;
use kola::parse::{parse_query, parse_query_into};
use kola::term::Query;
use kola::types::Type;
use kola_exec::datagen::{generate, DataSpec};
use kola_exec::rng::Rng;
use kola_rewrite::hidden_join::{garage_query_kg1, synthetic_hidden_join};
use kola_rewrite::{Budget, Catalog, Engine, EngineConfig, Oriented, PropDb};
use kola_verify::{palette, Gen};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations (and reallocations) made by the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly `System`'s requirements. The counter
// is a const-initialized thread-local `Cell` with no destructor: bumping
// it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations and fired steps over normalizing `qs` on `engine`.
fn measure(engine: &mut Engine, qs: &[Query], budget: &Budget) -> (u64, usize) {
    let (mut spent, mut steps) = (0, 0);
    for q in qs {
        let before = allocs();
        let out = engine.normalize(q, budget);
        spent += allocs() - before;
        steps += out.report.steps;
        drop(out);
    }
    (spent, steps)
}

fn tower(height: usize) -> Query {
    let text = format!("{}age ! P", "id . ".repeat(height));
    parse_query(&text).unwrap()
}

/// Figure 4's T1/T2 inputs and 200 typed generated queries: a filtered
/// map over the person extent or a function applied to a literal.
fn corpus() -> Vec<Query> {
    let mut qs: Vec<Query> = [
        "iterate(Kp(T), city) . iterate(Kp(T), addr) ! P",
        "iterate(Kp(T), age) . iterate(gt @ (age, Kf(25)), id) ! P",
    ]
    .iter()
    .map(|t| parse_query(t).unwrap())
    .collect();
    let db = generate(&DataSpec::small(17));
    let person = Type::Obj(db.schema().class_id("Person").expect("paper schema"));
    let types = palette();
    let mut g = Gen::new(&db, Rng::seed_from_u64(0xA110C));
    for i in 0..200 {
        let out = types[i % types.len()].clone();
        qs.push(if i % 2 == 0 {
            let p = g.pred(&person, 2);
            let f = g.func(&person, &out, 3);
            Query::App(
                kola::builder::iterate(p, f),
                Box::new(Query::Extent("P".into())),
            )
        } else {
            let input = types[(i / 2) % types.len()].clone();
            let f = g.func(&input, &out, 3);
            let lit = g.value(&input);
            Query::App(f, Box::new(Query::Lit(lit)))
        });
    }
    qs
}

#[test]
fn rewrite_steps_allocate_only_for_new_nodes() {
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules: Vec<Oriented> = catalog.rules().iter().map(Oriented::fwd).collect();
    let mut engine = Engine::new(rules, &props, EngineConfig::fast());
    engine.set_trace(false);
    let budget = Budget::default().steps(128);

    // Warm: the rule index is built and the search buffers have grown.
    let warm = [
        tower(8),
        parse_query("iterate(Kp(T), age) . flat ! P").unwrap(),
    ];
    measure(&mut engine, &warm, &budget);

    let (spent, steps) = measure(&mut engine, &[tower(60)], &budget);
    assert_eq!(steps, 120, "app + e121 per id");
    let per_step = spent as f64 / steps as f64;
    eprintln!("tower: {spent} allocations over {steps} steps ({per_step:.2} per step)");
    assert!(
        per_step <= 2.0,
        "tower: {per_step:.2} allocations per step (budget 2)"
    );

    let (spent, steps) = measure(&mut engine, &corpus(), &budget);
    assert!(steps >= 200, "the corpus fires rules: {steps} steps");
    let per_step = spent as f64 / steps as f64;
    eprintln!("corpus: {spent} allocations over {steps} steps ({per_step:.2} per step)");
    assert!(
        per_step <= 25.0,
        "corpus: {per_step:.2} allocations per step (budget 25)"
    );
}

/// Parsing KOLA text into an arena that already holds its nodes allocates
/// its token buffer and nothing else — no identifier `String`, no bracket
/// stack, no tree, no node.
#[test]
fn parsing_text_into_a_warm_arena_allocates_only_the_token_buffer() {
    let mut texts: Vec<String> = (1..=60)
        .map(|h| format!("{}age ! P", "id . ".repeat(h)))
        .collect();
    texts.extend((1..=6).map(|n| synthetic_hidden_join(n).to_string()));
    texts.push(garage_query_kg1().to_string());
    texts.push("iterate(Kp(T), age) . iterate(gt @ (age, Kf(25)), id) ! P".into());
    let mut it = Interner::new();
    for t in &texts {
        let first = parse_query_into(&mut it, t).unwrap();
        let (before, constructed) = (allocs(), it.constructed());
        let again = parse_query_into(&mut it, t).unwrap();
        let spent = allocs() - before;
        assert!(again.ptr_eq(&first), "{t}");
        assert_eq!(it.constructed(), constructed, "{t}");
        assert_eq!(spent, 1, "allocations parsing {t}");
    }
}
