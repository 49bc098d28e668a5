//! Verify every rule in the paper catalog and print a summary.
//!
//! ```sh
//! cargo run -p kola-verify --bin verify-catalog --release
//! ```

use kola::typecheck::TypeEnv;
use kola_exec::datagen::{generate, DataSpec};
use kola_rewrite::{Catalog, PropDb};
use kola_verify::{verify_catalog, verify_containment};

fn main() {
    let env = TypeEnv::paper_env();
    let db = generate(&DataSpec::small(123));
    let catalog = Catalog::paper();
    let reports = verify_catalog(&env, &db, &catalog, 30, 42);
    let mut bad = 0;
    for r in reports.iter().filter(|r| !r.verified()) {
        bad += 1;
        println!("{r}");
    }
    println!("{} rules, {} not verified", reports.len(), bad);

    // Operational soundness: the engine must contain injected rule faults.
    let props = PropDb::new();
    let mut violated = 0;
    for r in verify_containment(&catalog, &props) {
        println!("{r}");
        if !r.ok() {
            violated += 1;
        }
    }
    println!("{violated} containment suites violated");
}
