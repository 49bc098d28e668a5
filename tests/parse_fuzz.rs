//! Parser robustness: `kola::parse` and the OQL frontend must never
//! panic, on anything.
//!
//! Two attacks, run against both frontends: (1) ~1000 seeded byte-level
//! mutations of valid concrete syntax — insertions, deletions,
//! replacements, swaps, truncations, and non-ASCII garbage — must parse
//! or fail, never panic (for OQL that covers the whole
//! parse → lower-to-KOLA pipeline); (2) round trips on the valid corpora
//! must be stable: parse → display → parse is the identity for KOLA
//! text, and OQL lowering is deterministic with a printable result that
//! reparses to the same term.

#[path = "common/parse_corpus.rs"]
mod parse_corpus;

use parse_corpus::{mutate, mutation, CORPUS};

#[test]
fn thousand_seeded_mutations_never_panic_the_parser() {
    for seed in 0..1000u64 {
        let mutated = mutation(seed);
        // Err is fine; a panic aborts the whole test.
        let _ = kola::parse::parse_query(&mutated);
        let _ = kola::parse::parse_func(&mutated);
    }
}

const OQL_CORPUS: &[&str] = &[
    "select p from p in P",
    "select p.age from p in P",
    "select p.addr.city from p in P",
    "select p.age from p in P where p.age > 25",
    "select p from p in P where p.age = 30",
    "select p from p in P where p.age > 18 and not p.age > 65",
    "select p from p in P where p.age > 18 or p.age = 0",
    "select p.name from p in People where not p.retired = 1",
];

#[test]
fn thousand_seeded_mutations_never_panic_the_oql_frontend() {
    for seed in 0..1000u64 {
        let mut rng = kola_exec::rng::Rng::seed_from_u64(0x00F1_u64.wrapping_add(seed));
        let base = OQL_CORPUS[rng.gen_range(0..OQL_CORPUS.len())];
        let mutated = mutate(base, &mut rng);
        // The full pipeline: OQL parse, then lowering to KOLA. Err is
        // fine; a panic aborts the whole test.
        let _ = kola_frontend::oql::parse_oql(&mutated);
        if let Ok(q) = kola_frontend::oql::oql_to_kola(&mutated) {
            // Whatever survived mutation AND lowered must still print and
            // reparse: the service hands exactly these terms onward.
            let printed = q.to_string();
            let _ = kola::parse::parse_query(&printed);
        }
    }
}

#[test]
fn oql_lowering_is_stable_and_its_output_round_trips() {
    for src in OQL_CORPUS {
        let q1 = kola_frontend::oql::oql_to_kola(src)
            .unwrap_or_else(|e| panic!("corpus entry must lower: {src}: {e}"));
        // Deterministic: lowering the same text twice yields one term.
        let q2 = kola_frontend::oql::oql_to_kola(src).unwrap();
        assert_eq!(q1, q2, "lowering is not deterministic for {src}");
        // The lowered term prints to valid KOLA concrete syntax that
        // reparses to the same term (display/parse agreement extends to
        // frontend output, which is what reaches the service as an AST).
        let printed = q1.to_string();
        let reparsed = kola::parse::parse_query(&printed)
            .unwrap_or_else(|e| panic!("lowered form must reparse: {printed}: {e}"));
        assert_eq!(
            q1, reparsed,
            "round trip changed the lowered term for {src}"
        );
        assert_eq!(
            printed,
            reparsed.to_string(),
            "display is not a fixpoint for lowered {src}"
        );
    }
}

#[test]
fn parse_display_parse_is_the_identity_on_the_corpus() {
    for src in CORPUS {
        let q1 = kola::parse::parse_query(src)
            .unwrap_or_else(|e| panic!("corpus entry must parse: {src}: {e}"));
        let printed = q1.to_string();
        let q2 = kola::parse::parse_query(&printed)
            .unwrap_or_else(|e| panic!("printed form must reparse: {printed}: {e}"));
        assert_eq!(q1, q2, "round trip changed the term for {src}");
        assert_eq!(
            printed,
            q2.to_string(),
            "display is not a fixpoint for {src}"
        );
    }
}
