//! Experiment E14 — §4.2's declarative preconditions: `injective(f)` is an
//! annotation plus inference rules, not a head routine, and it gates the
//! paper's intersection-pushing rule end to end.

use kola::parse::parse_query;
use kola_exec::datagen::{generate, DataSpec};
use kola_rewrite::engine::{rewrite_once_query, Oriented};
use kola_rewrite::{Catalog, PropDb, PropKind};

#[test]
fn injective_inference_follows_the_papers_rule() {
    // injective(f) ∧ injective(g) ⇒ injective(f ∘ g)
    let mut props = PropDb::new();
    props.declare_injective("name");
    let f = kola::parse::parse_func("id . name").unwrap();
    assert!(props.holds(PropKind::Injective, &f));
    let g = kola::parse::parse_func("age . addr").unwrap();
    assert!(!props.holds(PropKind::Injective, &g));
}

#[test]
fn intersection_rule_gated_by_annotation() {
    let catalog = Catalog::paper();
    let rule = catalog.get("e100").unwrap();
    let q = parse_query("(iterate(Kp(T), name) ! A) intersect (iterate(Kp(T), name) ! B)").unwrap();
    let rules = [Oriented::fwd(rule)];

    // No annotation: the rule must not fire.
    let bare = PropDb::new();
    assert!(rewrite_once_query(&rules, &q, &bare).is_none());

    // With `name` declared a key: it fires and produces the pushed form.
    let mut props = PropDb::new();
    props.declare_injective("name");
    let applied = rewrite_once_query(&rules, &q, &props).expect("fires");
    assert_eq!(
        applied.result,
        parse_query("iterate(Kp(T), name) ! (A intersect B)").unwrap()
    );
}

#[test]
fn gating_is_semantically_justified() {
    // `name` is unique per person in our generator? It is ("person{i}"),
    // so pushing intersection through it is sound; `age` is NOT unique, and
    // pushing through it can change results. Demonstrate both on data.
    let mut db = generate(&DataSpec {
        persons: 30,
        ..DataSpec::small(8)
    });
    let people: Vec<kola::Value> = db
        .extent("P")
        .unwrap()
        .as_set()
        .unwrap()
        .iter()
        .cloned()
        .collect();
    let half_a: kola::Value = kola::Value::set(people[..20].to_vec());
    let half_b: kola::Value = kola::Value::set(people[10..].to_vec());
    db.bind_extent("A", half_a);
    db.bind_extent("B", half_b);

    let pushed = |f: &str| parse_query(&format!("iterate(Kp(T), {f}) ! (A intersect B)")).unwrap();
    let unpushed = |f: &str| {
        parse_query(&format!(
            "(iterate(Kp(T), {f}) ! A) intersect (iterate(Kp(T), {f}) ! B)"
        ))
        .unwrap()
    };

    // Injective attribute: both forms agree.
    assert_eq!(
        kola::eval_query(&db, &pushed("name")).unwrap(),
        kola::eval_query(&db, &unpushed("name")).unwrap()
    );
    // Non-injective attribute: forms can disagree (ages collide across the
    // two halves). With 30 people of ages 1..=90, a collision across the
    // disjoint parts is near-certain for this seed; assert inequality.
    let p = kola::eval_query(&db, &pushed("age")).unwrap();
    let u = kola::eval_query(&db, &unpushed("age")).unwrap();
    assert_ne!(p, u, "seed picked pathological ages; adjust seed");
}

#[test]
fn totality_property_also_inferable() {
    let mut props = PropDb::new();
    props.declare_partial("addr");
    let f = kola::parse::parse_func("iterate(Kp(T), city . addr)").unwrap();
    assert!(!props.holds(PropKind::Total, &f));
    let g = kola::parse::parse_func("iterate(Kp(T), age)").unwrap();
    assert!(props.holds(PropKind::Total, &g));
}

#[test]
fn interned_judgement_agrees_with_boxed_on_generated_functions() {
    // The fast engine judges preconditions on interned bindings
    // (`PropDb::holds_interned`); the boxed engine on reified ones. Over
    // every property a catalog rule demands (and `total`, which no catalog
    // rule demands yet) and 1000 generated functions — plain, composed,
    // paired and crossed, so every inference case is reached — the two
    // verdicts must agree.
    use kola::intern::Interner;
    use kola::term::Func;
    use kola::types::Type;
    use kola_exec::rng::Rng;
    use kola_verify::{palette, Gen};

    let catalog = Catalog::paper();
    let mut props: Vec<PropKind> = catalog
        .rules()
        .iter()
        .flat_map(|r| r.preconditions.iter().map(|p| p.prop))
        .collect();
    assert!(!props.is_empty(), "the catalog has preconditioned rules");
    props.push(PropKind::Total);
    props.sort();
    props.dedup();

    let mut db_props = PropDb::new();
    db_props.declare_injective("name");
    db_props.declare_partial("addr");
    let db = generate(&DataSpec::small(17));
    let person = Type::Obj(db.schema().class_id("Person").expect("paper schema"));
    let types = palette();
    let mut it = Interner::new();
    let mut prev = Func::Id;
    let (mut yes, mut no) = (0, 0);
    for seed in 0..1000u64 {
        let mut g = Gen::new(&db, Rng::seed_from_u64(seed));
        let out = types[(seed % types.len() as u64) as usize].clone();
        let input = if seed % 2 == 0 {
            person.clone()
        } else {
            out.clone()
        };
        let f = g.func(&input, &out, 3);
        let b = |f: &Func| Box::new(f.clone());
        let shapes = [
            f.clone(),
            Func::Compose(b(&f), b(&prev)),
            Func::PairWith(b(&prev), b(&f)),
            Func::Times(b(&f), b(&prev)),
        ];
        for shape in &shapes {
            let t = it.intern_func(&shape.normalize());
            for &prop in &props {
                let want = db_props.holds(prop, &t.to_func());
                assert_eq!(
                    db_props.holds_interned(prop, &t),
                    want,
                    "seed {seed}: {prop:?}({shape})"
                );
                if want {
                    yes += 1;
                } else {
                    no += 1;
                }
            }
        }
        prev = f;
    }
    // Both verdicts occur, so neither side passes vacuously.
    assert!(yes > 100 && no > 100, "verdicts: {yes} true, {no} false");
}
