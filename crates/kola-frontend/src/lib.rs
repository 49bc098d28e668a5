#![warn(missing_docs)]
//! # kola-frontend — OQL surface language and translators into KOLA
//!
//! The paper's [11]: translators from OQL and AQUA into the combinator
//! algebra. [`oql`] parses a `select/from/where` subset and lowers it to
//! AQUA; [`to_kola`] compiles AQUA's λ-terms into variable-free KOLA via
//! explicit environments; [`size`] measures the §4.2 O(mn) translation-size
//! claim.
pub mod oql;
pub mod size;
pub mod to_kola;

pub use oql::{oql_to_kola, parse_oql, OqlError};
pub use size::{measure, sweep_query, SizeReport};
pub use to_kola::{translate_query, TranslateError};

/// Parse a request in either surface syntax: OQL (`select … from …`,
/// detected by its leading keyword, see [`is_oql`]) is lowered through
/// AQUA to KOLA; anything else is parsed as a KOLA query directly. This is
/// the optimization service's front door — requests arrive as text in
/// whichever notation the client speaks.
pub fn parse_any_query(src: &str) -> Result<kola::term::Query, String> {
    if is_oql(src) {
        oql_to_kola(src).map_err(|e| format!("oql: {e}"))
    } else {
        kola::parse::parse_query(src).map_err(kola_parse_error)
    }
}

/// True iff [`parse_any_query`] reads `src` as OQL: its first word is
/// `select`, in any case.
pub fn is_oql(src: &str) -> bool {
    let first = src.trim_start().get(..6).unwrap_or("");
    first.eq_ignore_ascii_case("select")
}

/// A KOLA parse error as [`parse_any_query`] words it, for callers that
/// parse KOLA text another way (the service parses it into its engine's
/// arena) and must answer alike.
pub fn kola_parse_error(e: kola::parse::ParseError) -> String {
    format!("kola: {e}")
}
