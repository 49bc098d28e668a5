//! The KOLA grammar accepts the same language and builds the same terms
//! as the backtracking parser it replaced, through both of its builders.
//!
//! `tests/data/parse_golden.tsv` was written by the backtracking parser:
//! one line per input of [`parse_corpus::golden_inputs`], holding the
//! input and, for each of `parse_pfunc`, `parse_ppred` and `parse_pquery`,
//! either `ERR` or the parsed term's `Display` behind a digest of its
//! `Debug` form. The tree builder must reproduce every line. The arena
//! builder must build, for every text `parse_query` accepts, the very
//! node interning the normalized tree gives — and reject the rest with
//! the same error — and the engine's text entry must run exactly what its
//! query entry (and, outside saturation, the boxed reference engine) runs
//! on the parsed text.

#[path = "common/parse_corpus.rs"]
mod parse_corpus;

use kola::intern::Interner;
use kola::parse::{parse_query, parse_query_into};
use kola_rewrite::{
    rewrite_fix_with, Budget, Catalog, Engine, EngineConfig, FaultPlan, Oriented, PropDb,
};
use parse_corpus::{golden_inputs, golden_line, unescape};

const GOLDEN: &str = include_str!("data/parse_golden.tsv");

#[test]
fn golden_file_covers_exactly_the_generated_inputs() {
    let inputs = golden_inputs();
    let lines: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(lines.len(), inputs.len(), "golden line count");
    for (i, (line, input)) in lines.iter().zip(&inputs).enumerate() {
        let field = line.split('\t').next().unwrap_or_default();
        assert_eq!(&unescape(field), input, "golden line {} input", i + 1);
    }
}

#[test]
fn tree_builder_matches_the_golden_file() {
    let mut accepted = [0usize; 3];
    for (i, line) in GOLDEN.lines().enumerate() {
        let input = unescape(line.split('\t').next().unwrap_or_default());
        assert_eq!(golden_line(&input), line, "golden line {}", i + 1);
        for (n, col) in line.split('\t').skip(1).enumerate() {
            accepted[n] += usize::from(col != "ERR");
        }
    }
    // The file exercises every entry point on both sides of the boundary.
    assert!(accepted.iter().all(|&n| n > 100), "accepted {accepted:?}");
}

#[test]
fn arena_builder_interns_exactly_the_normalized_tree() {
    let mut it = Interner::new();
    let (mut accepted, mut rejected) = (0, 0);
    for input in golden_inputs() {
        let built = parse_query_into(&mut it, &input);
        match parse_query(&input) {
            Ok(q) => {
                let built = built.unwrap_or_else(|e| panic!("{input:?}: arena rejected: {e}"));
                let want = it.intern_query(&q.normalize());
                assert!(
                    built.ptr_eq(&want),
                    "{input:?}: arena built a different node"
                );
                // Rebuilding finds every node in the arena.
                let before = it.constructed();
                let again = parse_query_into(&mut it, &input).unwrap();
                assert!(again.ptr_eq(&built), "{input:?}: second build differs");
                assert_eq!(
                    it.constructed(),
                    before,
                    "{input:?}: second build constructed"
                );
                accepted += 1;
            }
            Err(e) => {
                assert_eq!(built.err(), Some(e), "{input:?}: arena error");
                rejected += 1;
            }
        }
    }
    assert!(accepted > 1000 && rejected > 100, "{accepted} / {rejected}");
}

#[test]
fn engine_text_entry_runs_what_the_query_entry_runs() {
    // Every engine configuration, one long-lived engine per entry point:
    // the text entry must return the plan, report and trace the query
    // entry returns for the parsed text, and the parse error otherwise.
    // The boxed reference engine has no text entry; it is run directly.
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let budget = Budget::with_steps(64);
    let faults = FaultPlan::default();
    let inputs: Vec<String> = golden_inputs().into_iter().step_by(7).collect();
    let rules: Vec<Oriented> = catalog.rules().iter().map(Oriented::fwd).collect();
    for config in [
        EngineConfig::interned_only(),
        EngineConfig::indexed(),
        EngineConfig::fast(),
        EngineConfig::saturating(),
    ] {
        let mut by_text = Engine::new(rules.clone(), &props, config.clone());
        let mut by_query = Engine::new(rules.clone(), &props, config.clone());
        for input in &inputs {
            let got = by_text.normalize_text_with(input, &budget, &faults);
            match parse_query(input) {
                Ok(q) => {
                    let got = got.unwrap_or_else(|e| panic!("{input:?}: {e}"));
                    let want = by_query.normalize_with(&q, &budget, &faults);
                    assert_eq!(
                        format!("{:?}", (&got.query, &got.report, &got.trace)),
                        format!("{:?}", (&want.query, &want.report, &want.trace)),
                        "{config:?}: {input:?}"
                    );
                    // The destructive configurations are drop-ins for the
                    // boxed reference engine, so text served through them
                    // also gets the boxed engine's plan and report.
                    if !config.saturate {
                        let boxed = rewrite_fix_with(&rules, &q, &props, &budget, &faults);
                        assert_eq!(
                            format!("{:?}", (&got.query, &got.report)),
                            format!("{:?}", (&boxed.query, &boxed.report)),
                            "{config:?} vs boxed: {input:?}"
                        );
                    }
                }
                Err(e) => assert_eq!(got.err(), Some(e), "{config:?}: {input:?}"),
            }
        }
    }
}
