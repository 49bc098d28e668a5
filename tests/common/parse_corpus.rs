//! Parser inputs shared by `parse_fuzz.rs` and `parse_equivalence.rs`:
//! the valid KOLA corpus, its seeded byte-level mutations, and the full
//! input list of the golden parse file (`tests/data/parse_golden.tsv`).
#![allow(dead_code)] // each test binary uses its own subset

use kola::term::Query;
use kola_exec::datagen::{generate, DataSpec};
use kola_exec::rng::Rng;
use kola_rewrite::rule::RewritePair;
use kola_rewrite::Catalog;
use kola_verify::gen::{palette, Gen};

pub const CORPUS: &[&str] = &[
    "P",
    "()",
    "{1, 2, 3}",
    "[V, P]",
    "P union Q",
    "A union B intersect C",
    "gt ? [3, 2]",
    "id . age ! P",
    "age . id ! P",
    "sunion ! [P, Q]",
    "iterate(Kp(T), age) ! P",
    "iterate(Kp(T), city) . iterate(Kp(T), addr) ! P",
    "iterate(Kp(T), city . addr) ! P",
    "iterate(gt @ (age, Kf(25)), age) ! P",
    "id . id . id . id . age ! P",
];

pub fn mutate(src: &str, rng: &mut Rng) -> String {
    let mut bytes: Vec<u8> = src.as_bytes().to_vec();
    let edits = 1 + rng.gen_range(0..4usize);
    for _ in 0..edits {
        let kind = rng.gen_range(0..6usize);
        let pos = if bytes.is_empty() {
            0
        } else {
            rng.gen_range(0..bytes.len())
        };
        match kind {
            // Insert a printable or arbitrary byte.
            0 => {
                let b = if rng.gen_bool(0.7) {
                    b' ' + (rng.gen_range(0..95usize) as u8)
                } else {
                    rng.gen_range(0..256usize) as u8
                };
                bytes.insert(pos, b);
            }
            // Delete.
            1 => {
                if !bytes.is_empty() {
                    bytes.remove(pos);
                }
            }
            // Replace.
            2 => {
                if !bytes.is_empty() {
                    bytes[pos] = rng.gen_range(0..256usize) as u8;
                }
            }
            // Swap two positions.
            3 => {
                if !bytes.is_empty() {
                    let other = rng.gen_range(0..bytes.len());
                    bytes.swap(pos, other);
                }
            }
            // Truncate.
            4 => bytes.truncate(pos),
            // Duplicate a slice (grows nesting-ish shapes).
            _ => {
                if !bytes.is_empty() {
                    let end = pos + rng.gen_range(0..(bytes.len() - pos).min(8) + 1);
                    let slice: Vec<u8> = bytes[pos..end].to_vec();
                    for (i, b) in slice.into_iter().enumerate() {
                        bytes.insert(end + i, b);
                    }
                }
            }
        }
    }
    // Parsing operates on &str; lossily re-encode the mutated bytes.
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The `seed`-th mutation of the corpus (the fuzz test's stream).
pub fn mutation(seed: u64) -> String {
    let mut rng = Rng::seed_from_u64(seed);
    let base = CORPUS[rng.gen_range(0..CORPUS.len())];
    mutate(base, &mut rng)
}

/// Every input of the golden parse file, in file order: the corpus, its
/// 1,000 seeded mutations, 1,000 printed `Gen` queries, ∘-towers 1–60
/// high (right- and left-nested), synthetic hidden joins of depth 1–6,
/// and both sides of every alternative of every paper-catalog rule.
pub fn golden_inputs() -> Vec<String> {
    let mut out: Vec<String> = CORPUS.iter().map(|s| s.to_string()).collect();
    out.extend((0..1000u64).map(mutation));
    let db = generate(&DataSpec::small(17));
    let types = palette();
    for seed in 0..1000u64 {
        let mut g = Gen::new(&db, Rng::seed_from_u64(seed));
        let a = types[(seed % types.len() as u64) as usize].clone();
        let b = types[((seed / 7) % types.len() as u64) as usize].clone();
        let f = g.func(&a, &b, 3);
        let q = match seed % 3 {
            0 => Query::App(f, Box::new(Query::Lit(g.value(&a)))),
            1 => Query::Test(g.pred(&a, 2), Box::new(Query::Lit(g.value(&a)))),
            _ => Query::PairQ(
                Box::new(Query::App(f, Box::new(Query::Lit(g.value(&a))))),
                Box::new(Query::Extent("P".into())),
            ),
        };
        out.push(q.to_string());
    }
    for h in 1..=60 {
        out.push(format!("{}age ! P", "id . ".repeat(h)));
        let left = (1..h).fold("id".to_string(), |s, _| format!("({s} . id)"));
        out.push(format!("{left} . age ! P"));
    }
    for n in 1..=6 {
        out.push(kola_rewrite::hidden_join::synthetic_hidden_join(n).to_string());
    }
    for rule in Catalog::paper().rules() {
        for alt in &rule.alts {
            let (l, r) = match alt {
                RewritePair::F(l, r) => (l.to_string(), r.to_string()),
                RewritePair::P(l, r) => (l.to_string(), r.to_string()),
                RewritePair::Q(l, r) => (l.to_string(), r.to_string()),
            };
            out.push(l);
            out.push(r);
        }
    }
    out
}

/// Escape a field for the tab-separated golden file.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`].
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// 64-bit FNV-1a, a stable digest of a term's `Debug` form (which, unlike
/// `Display`, tells a literal pair from a pair of literals).
pub fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One golden column: `ERR`, or the parsed term's `Display` with the
/// digest of its `Debug` form.
pub fn column<T: std::fmt::Display + std::fmt::Debug, E>(r: Result<T, E>) -> String {
    match r {
        Ok(t) => format!("{:016x} {}", fnv(&format!("{t:?}")), escape(&t.to_string())),
        Err(_) => "ERR".to_string(),
    }
}

/// The golden line of `src`: the input, then the function, predicate and
/// query pattern parses.
pub fn golden_line(src: &str) -> String {
    format!(
        "{}\t{}\t{}\t{}",
        escape(src),
        column(kola::parse::parse_pfunc(src)),
        column(kola::parse::parse_ppred(src)),
        column(kola::parse::parse_pquery(src)),
    )
}
