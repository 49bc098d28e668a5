//! Randomized rule verification — the repository's stand-in for the paper's
//! Larch/LP machine-checked proofs (see DESIGN.md §4, substitution 1).
//!
//! For each rule alternative:
//!
//! 1. Run type inference over head and body *in one shared context*, and
//!    unify their types — a rule whose two sides cannot be given a common
//!    type is rejected outright.
//! 2. Ground leftover type variables with a random palette type (varied per
//!    trial, so polymorphic rules are exercised at many types).
//! 3. Instantiate every metavariable with a random well-typed term
//!    ([`crate::gen`]); rules with an `injective(f)` precondition get `id`
//!    for `f` (injective by rule).
//! 4. Evaluate both sides — on a random input value for function/predicate
//!    rules, directly for query rules — and compare results.
//!
//! Any disagreement is a counterexample and fails the rule.

use crate::gen::{palette, Gen};
use kola::db::Db;
use kola::pattern::VarKind;
use kola::typecheck::{infer_pfunc, infer_ppred, infer_pquery, Inference, TypeEnv};
use kola::types::Type;
use kola::value::Sym;
use kola_exec::rng::Rng;
use kola_rewrite::rule::{RewritePair, Rule};
use kola_rewrite::subst::{instantiate_func, instantiate_pred, instantiate_query, Subst};
use kola_rewrite::PropKind;
use std::fmt;

/// Outcome of verifying one rule.
#[derive(Debug, Clone)]
pub struct RuleReport {
    /// The rule's id.
    pub rule_id: String,
    /// Trials attempted.
    pub trials: usize,
    /// Trials that evaluated both sides successfully and agreed.
    pub passed: usize,
    /// Trials skipped (evaluation error on both sides, or unsatisfiable
    /// precondition at the drawn types).
    pub skipped: usize,
    /// Counterexamples found (empty = verified).
    pub failures: Vec<String>,
}

impl RuleReport {
    /// Verified = no counterexample and at least one meaningful trial.
    pub fn verified(&self) -> bool {
        self.failures.is_empty() && self.passed > 0
    }
}

impl fmt::Display for RuleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rule {:>5}: {:>4}/{} passed, {} skipped{}",
            self.rule_id,
            self.passed,
            self.trials,
            self.skipped,
            if self.failures.is_empty() {
                String::new()
            } else {
                format!(", FAILED: {}", self.failures[0])
            }
        )
    }
}

/// Verify one rule with `trials` random instantiations.
pub fn check_rule(env: &TypeEnv, db: &Db, rule: &Rule, trials: usize, seed: u64) -> RuleReport {
    let mut report = RuleReport {
        rule_id: rule.id.clone(),
        trials: 0,
        passed: 0,
        skipped: 0,
        failures: Vec::new(),
    };
    let mut rng = Rng::seed_from_u64(seed);
    for alt in &rule.alts {
        for _ in 0..trials {
            report.trials += 1;
            let trial_seed = rng.gen();
            match run_trial(env, db, rule, alt, trial_seed) {
                TrialOutcome::Pass => report.passed += 1,
                TrialOutcome::Skip => report.skipped += 1,
                TrialOutcome::Fail(msg) => {
                    if report.failures.len() < 3 {
                        report.failures.push(msg);
                    }
                }
            }
        }
    }
    report
}

enum TrialOutcome {
    Pass,
    Skip,
    Fail(String),
}

/// Infer the (shared) types of an alternative's two sides; returns the
/// inference state plus the input type (None for query rules).
fn infer_alt(
    env: &TypeEnv,
    inf: &mut Inference,
    alt: &RewritePair,
) -> Result<Option<Type>, kola::types::TypeError> {
    match alt {
        RewritePair::F(l, r) => {
            let (li, lo) = infer_pfunc(env, inf, l)?;
            let (ri, ro) = infer_pfunc(env, inf, r)?;
            inf.unifier.unify(&li, &ri)?;
            inf.unifier.unify(&lo, &ro)?;
            Ok(Some(li))
        }
        RewritePair::P(l, r) => {
            let li = infer_ppred(env, inf, l)?;
            let ri = infer_ppred(env, inf, r)?;
            inf.unifier.unify(&li, &ri)?;
            Ok(Some(li))
        }
        RewritePair::Q(l, r) => {
            let lt = infer_pquery(env, inf, l)?;
            let rt = infer_pquery(env, inf, r)?;
            inf.unifier.unify(&lt, &rt)?;
            Ok(None)
        }
    }
}

fn collect_vars(alt: &RewritePair) -> Vec<(VarKind, Sym)> {
    let mut vars = Vec::new();
    match alt {
        RewritePair::F(l, r) => {
            l.vars(&mut vars);
            r.vars(&mut vars);
        }
        RewritePair::P(l, r) => {
            l.vars(&mut vars);
            r.vars(&mut vars);
        }
        RewritePair::Q(l, r) => {
            l.vars(&mut vars);
            r.vars(&mut vars);
        }
    }
    vars.sort();
    vars.dedup();
    vars
}

fn run_trial(env: &TypeEnv, db: &Db, rule: &Rule, alt: &RewritePair, seed: u64) -> TrialOutcome {
    let mut rng = Rng::seed_from_u64(seed);
    let mut inf = Inference::new();
    let input_ty = match infer_alt(env, &mut inf, alt) {
        Ok(t) => t,
        Err(e) => return TrialOutcome::Fail(format!("type inference failed: {e}")),
    };

    // Preconditioned function variables are pinned to `id` (sound for the
    // only property we use, injectivity); that forces input == output.
    let mut pinned_id: Vec<Sym> = Vec::new();
    for pre in &rule.preconditions {
        if pre.prop == PropKind::Injective {
            let kola_rewrite::PropTerm::FuncVar(name) = &pre.subject;
            if let Some((fi, fo)) = inf.fvars.get(name).cloned() {
                if inf.unifier.unify(&fi, &fo).is_err() {
                    return TrialOutcome::Skip;
                }
                pinned_id.push(name.clone());
            }
        }
    }

    // Ground everything with a random palette default.
    let defaults = palette();
    let default = defaults[rng.gen_range(0..defaults.len())].clone();
    let ground = |inf: &Inference, t: &Type| inf.unifier.ground(t, &default);

    let mut gen = Gen::new(db, Rng::seed_from_u64(rng.gen()));
    let mut subst = Subst::new();
    for (kind, name) in collect_vars(alt) {
        match kind {
            VarKind::Func => {
                let (fi, fo) = inf
                    .fvars
                    .get(&name)
                    .cloned()
                    .expect("inference visited every var");
                let (fi, fo) = (ground(&inf, &fi), ground(&inf, &fo));
                let f = if pinned_id.contains(&name) {
                    kola::term::Func::Id
                } else {
                    gen.func(&fi, &fo, 2)
                };
                subst.bind_func(&name, &f);
            }
            VarKind::Pred => {
                let pi = inf.pvars.get(&name).cloned().expect("inference");
                let pi = ground(&inf, &pi);
                let p = gen.pred(&pi, 2);
                subst.bind_pred(&name, &p);
            }
            VarKind::Obj => {
                let ot = inf.ovars.get(&name).cloned().expect("inference");
                let ot = ground(&inf, &ot);
                let v = gen.value(&ot);
                subst.bind_obj(&name, &kola::term::Query::Lit(v));
            }
        }
    }

    match alt {
        RewritePair::F(l, r) => {
            let (Ok(lf), Ok(rf)) = (instantiate_func(l, &subst), instantiate_func(r, &subst))
            else {
                return TrialOutcome::Fail("unbound var in rule body".into());
            };
            let in_ty = ground(&inf, &input_ty.expect("func rules have inputs"));
            let x = gen.value(&in_ty);
            compare(
                kola::eval::eval_func(db, &lf, &x),
                kola::eval::eval_func(db, &rf, &x),
                || format!("{lf}  vs  {rf}  on {x}"),
            )
        }
        RewritePair::P(l, r) => {
            let (Ok(lp), Ok(rp)) = (instantiate_pred(l, &subst), instantiate_pred(r, &subst))
            else {
                return TrialOutcome::Fail("unbound var in rule body".into());
            };
            let in_ty = ground(&inf, &input_ty.expect("pred rules have inputs"));
            let x = gen.value(&in_ty);
            compare(
                kola::eval::eval_pred(db, &lp, &x),
                kola::eval::eval_pred(db, &rp, &x),
                || format!("{lp}  vs  {rp}  on {x}"),
            )
        }
        RewritePair::Q(l, r) => {
            let (Ok(lq), Ok(rq)) = (instantiate_query(l, &subst), instantiate_query(r, &subst))
            else {
                return TrialOutcome::Fail("unbound var in rule body".into());
            };
            compare(
                kola::eval::eval_query(db, &lq),
                kola::eval::eval_query(db, &rq),
                || format!("{lq}  vs  {rq}"),
            )
        }
    }
}

fn compare<T: PartialEq + fmt::Debug>(
    l: Result<T, kola::eval::EvalError>,
    r: Result<T, kola::eval::EvalError>,
    ctx: impl FnOnce() -> String,
) -> TrialOutcome {
    match (l, r) {
        (Ok(a), Ok(b)) => {
            if a == b {
                TrialOutcome::Pass
            } else {
                TrialOutcome::Fail(format!("{}: {a:?} != {b:?}", ctx()))
            }
        }
        // Both stuck: the instantiation was degenerate; don't count it.
        (Err(_), Err(_)) => TrialOutcome::Skip,
        (Ok(a), Err(e)) => TrialOutcome::Fail(format!("{}: lhs {a:?}, rhs stuck {e}", ctx())),
        (Err(e), Ok(b)) => TrialOutcome::Fail(format!("{}: lhs stuck {e}, rhs {b:?}", ctx())),
    }
}

/// Verify that normalizing a query preserves its semantics: evaluate the
/// query on `db` before and after running it to a fixpoint of `rule_ids`
/// on the fast engine with layer configuration `config` (`None`: the boxed
/// reference engine), and compare the results.
///
/// This complements the structural parity suite (fast engine vs boxed
/// engine) with a *semantic* gate: even a derivation both engines agree on
/// is wrong if it changes what the query computes. Trials where both sides
/// are stuck (evaluation error) are treated as vacuously preserved, mirroring
/// [`check_rule`]'s skip convention.
pub fn check_normalization_semantics(
    db: &Db,
    catalog: &kola_rewrite::Catalog,
    props: &kola_rewrite::PropDb,
    rule_ids: &[&str],
    q: &kola::term::Query,
    config: Option<kola_rewrite::EngineConfig>,
) -> Result<(), String> {
    let mut runner = kola_rewrite::Runner::new(catalog, props);
    if let Some(config) = config {
        runner = runner.with_engine(config);
    }
    let mut trace = kola_rewrite::Trace::new();
    let (normalized, _) = runner.run(
        &kola_rewrite::strategy::fix(rule_ids),
        q.clone(),
        &mut trace,
    );
    match (
        kola::eval::eval_query(db, q),
        kola::eval::eval_query(db, &normalized),
    ) {
        (Ok(a), Ok(b)) if a == b => Ok(()),
        (Ok(a), Ok(b)) => Err(format!(
            "normalization changed semantics: {a:?} != {b:?}\n  in : {q}\n  out: {normalized}\n  via: {:?}",
            trace.justifications()
        )),
        (Err(_), Err(_)) => Ok(()),
        (Ok(a), Err(e)) => Err(format!(
            "normalized query is stuck ({e}) but input evaluates to {a:?}\n  in : {q}\n  out: {normalized}"
        )),
        (Err(e), Ok(b)) => Err(format!(
            "input is stuck ({e}) but normalized query evaluates to {b:?}\n  in : {q}\n  out: {normalized}"
        )),
    }
}

/// How an input and its plan agreed, when they did (see
/// [`check_plan_semantics`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanAgreement {
    /// Both evaluate, to equal values: a real comparison.
    Equal,
    /// Neither evaluates on the database: nothing was compared.
    BothStuck,
}

/// The semantic check for an already-produced plan: evaluate `input` and
/// `plan` on `db` and require agreement. This is
/// [`check_normalization_semantics`] with the normalization factored out —
/// the service's chaos soak audits every optimized reply with it, after
/// its serving window, without rerunning the engine. A three-way verdict:
/// equal values, both sides stuck (vacuously preserved, mirroring
/// [`check_rule`]'s skip convention, and reported apart so a caller can
/// tell how many pairs it really compared), or an `Err` naming how they
/// differ.
pub fn check_plan_semantics(
    db: &Db,
    input: &kola::term::Query,
    plan: &kola::term::Query,
) -> Result<PlanAgreement, String> {
    match (
        kola::eval::eval_query(db, input),
        kola::eval::eval_query(db, plan),
    ) {
        (Ok(a), Ok(b)) if a == b => Ok(PlanAgreement::Equal),
        (Ok(a), Ok(b)) => Err(format!(
            "plan changed semantics: {a:?} != {b:?}\n  in  : {input}\n  plan: {plan}"
        )),
        (Err(_), Err(_)) => Ok(PlanAgreement::BothStuck),
        (Ok(a), Err(e)) => Err(format!(
            "plan is stuck ({e}) but input evaluates to {a:?}\n  in  : {input}\n  plan: {plan}"
        )),
        (Err(e), Ok(b)) => Err(format!(
            "input is stuck ({e}) but plan evaluates to {b:?}\n  in  : {input}\n  plan: {plan}"
        )),
    }
}

/// The per-rule seed used by [`verify_catalog`]: a pure function of the
/// catalog seed and the rule's *position*, so results are deterministic no
/// matter which worker thread picks the rule up.
pub fn rule_seed(seed: u64, position: usize) -> u64 {
    seed ^ (position as u64) << 8
}

/// Verify every rule in a catalog. Returns one report per rule, in catalog
/// order.
///
/// Rules are checked across `available_parallelism` worker threads pulling
/// from a shared atomic cursor. Each rule's trial stream is seeded by
/// [`rule_seed`] from its catalog position alone, so the reports are
/// bit-identical to a sequential run regardless of scheduling.
pub fn verify_catalog(
    env: &TypeEnv,
    db: &Db,
    catalog: &kola_rewrite::Catalog,
    trials: usize,
    seed: u64,
) -> Vec<RuleReport> {
    check_rules_parallel(env, db, catalog.rules(), trials, seed)
}

/// The parallel half of [`verify_catalog`]: check `rules` on worker threads
/// and return reports in input order. Each rule's position feeds
/// [`rule_seed`], so the reports equal a sequential run's.
fn check_rules_parallel(
    env: &TypeEnv,
    db: &Db,
    rules: &[Rule],
    trials: usize,
    seed: u64,
) -> Vec<RuleReport> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = rules.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n.max(1));
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<RuleReport>>> = Mutex::new(vec![None; n]);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let at = cursor.fetch_add(1, Ordering::Relaxed);
                if at >= n {
                    break;
                }
                let report = check_rule(env, db, &rules[at], trials, rule_seed(seed, at));
                slots.lock().unwrap()[at] = Some(report);
            });
        }
    });
    slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kola_exec::datagen::{generate, DataSpec};

    fn setup() -> (TypeEnv, Db) {
        (TypeEnv::paper_env(), generate(&DataSpec::small(99)))
    }

    #[test]
    fn sound_rules_verify() {
        let (env, db) = setup();
        for (id, lhs, rhs) in [
            ("t1", "pi1 . ($f, $g)", "$f"),
            ("t2", "id . $f", "$f"),
            (
                "t3",
                "iterate(%p, $f) . iterate(%q, $g)",
                "iterate(%q & %p @ $g, $f . $g)",
            ),
        ] {
            let rule = Rule::func(id, id, lhs, rhs);
            let report = check_rule(&env, &db, &rule, 40, 7);
            assert!(report.verified(), "{report}");
        }
    }

    #[test]
    fn unsound_rules_caught() {
        let (env, db) = setup();
        // pi1 swapped for pi2: wrong.
        let bad = Rule::func("bad1", "bad", "pi1 . ($f, $g)", "$g");
        let report = check_rule(&env, &db, &bad, 60, 11);
        assert!(!report.verified(), "{report}");
        // Dropping a conjunct: wrong.
        let bad = Rule::pred("bad2", "bad", "%p & %q", "%p");
        let report = check_rule(&env, &db, &bad, 60, 13);
        assert!(!report.verified(), "{report}");
        // gt is not its own converse.
        let bad = Rule::pred("bad3", "bad", "inv(gt)", "gt");
        let report = check_rule(&env, &db, &bad, 60, 17);
        assert!(!report.verified(), "{report}");
    }

    #[test]
    fn paper_leq_reading_is_unsound() {
        // The literal Figure 5 rule 7 (`inv(gt) == leq`) fails — evidence
        // for the converse-vs-complement correction in the catalog docs.
        let (env, db) = setup();
        let as_printed = Rule::pred("7-lit", "paper-7", "inv(gt)", "leq");
        let report = check_rule(&env, &db, &as_printed, 80, 19);
        assert!(!report.verified(), "{report}");
        // Our corrected reading passes.
        let corrected = Rule::pred("7", "ours", "inv(gt)", "lt");
        let report = check_rule(&env, &db, &corrected, 80, 19);
        assert!(report.verified(), "{report}");
    }

    #[test]
    fn fast_normalization_preserves_semantics() {
        let (_, db) = setup();
        let catalog = kola_rewrite::Catalog::paper();
        let props = kola_rewrite::PropDb::new();
        let rules = ["1", "2", "3", "4"];
        for src in [
            "iterate(Kp(T), id . age) ! P",
            "iterate(Kp(T), (id . age, id)) ! P",
            "iterate(Kp(T) & Kp(T), age . id . id) ! V",
        ] {
            let q = kola::parse::parse_query(src).unwrap();
            for config in [None, Some(kola_rewrite::EngineConfig::fast())] {
                check_normalization_semantics(&db, &catalog, &props, &rules, &q, config)
                    .unwrap_or_else(|e| panic!("{src}: {e}"));
            }
        }
    }

    #[test]
    fn query_rule_verifies() {
        let (env, db) = setup();
        let rule = Rule::query(
            "19t",
            "bottom-out",
            "iterate(Kp(T), (id, Kf(^B))) ! ^A",
            "nest(pi1, pi2) . (join(Kp(T), id), pi1) ! [^A, ^B]",
        );
        let report = check_rule(&env, &db, &rule, 40, 23);
        assert!(report.verified(), "{report}");
    }

    #[test]
    fn precondition_rule_verifies_with_id() {
        let (env, db) = setup();
        let rule = Rule::query(
            "e100t",
            "inj",
            "(iterate(Kp(T), $f) ! ^A) intersect (iterate(Kp(T), $f) ! ^B)",
            "iterate(Kp(T), $f) ! (^A intersect ^B)",
        )
        .with_precondition(PropKind::Injective, kola_rewrite::PropTerm::func("f"));
        let report = check_rule(&env, &db, &rule, 40, 29);
        assert!(report.verified(), "{report}");
    }

    #[test]
    fn parallel_reports_match_sequential_seeds() {
        let (env, db) = setup();
        let catalog = kola_rewrite::Catalog::paper();
        let slice = &catalog.rules()[..12];
        let par = check_rules_parallel(&env, &db, slice, 10, 0xBEEF);
        for (i, report) in par.iter().enumerate() {
            let seq = check_rule(&env, &db, &slice[i], 10, rule_seed(0xBEEF, i));
            assert_eq!(report.passed, seq.passed, "rule {}", report.rule_id);
            assert_eq!(report.skipped, seq.skipped, "rule {}", report.rule_id);
            assert_eq!(report.failures, seq.failures, "rule {}", report.rule_id);
        }
    }
}
