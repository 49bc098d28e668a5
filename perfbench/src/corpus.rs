//! Seeded request streams for the three workloads.
//!
//! Every stream is a pure function of the workload seed: the same seed
//! yields the same request texts in the same order. Requests are sent as
//! text, so the service's frontend parse runs on every cache miss.

use kola::db::Db;
use kola::term::Query;
use kola::types::Type;
use kola_exec::datagen::{generate, DataSpec};
use kola_exec::rng::Rng;
use kola_rewrite::hidden_join::{garage_query_kg1, synthetic_hidden_join};
use kola_rewrite::{Budget, Catalog, Engine, EngineConfig, Oriented, PropDb, StopReason};
use kola_verify::{palette, Gen};
use std::collections::HashSet;

/// Step budget of every serve request. Generated typed queries include a
/// few that cycle without being caught (the fixpoint engine exhausts any
/// budget on them); at the default 10,000 steps each costs ~3 s, at 128
/// about 2 ms. Towers stay low enough to normalize within it, so the
/// budget stops only those runaway derivations.
pub const SERVE_MAX_STEPS: usize = 128;

/// Step budget of every `plan_saturate` request: past the saturation cliff
/// of `synthetic_hidden_join(1)` (~4 s from step 238 on) and short of the
/// cliff of KG1 and the deeper joins (from ~352 steps on).
pub const SATURATE_MAX_STEPS: usize = 256;

/// Budget-exhausting typed queries per serve request stream of 1000.
/// Drawn as a fixed share so the cost of runaway derivations is the same
/// on every seed rather than a lottery of 0–3 per thousand.
const EXHAUSTING_PER_1000: usize = 1;

/// Seed of the generated database. Fixed, so that only the queries vary
/// with the workload seed: a database drawn per seed changes every
/// fan-out and hence every plan's execution cost.
const DATA_SEED: u64 = 0x5eed_da7a;

/// Database used for plan execution and for the reference evaluator: the
/// paper schema at `DataSpec::scaled(scale)`, with extents `A` and `B`
/// (used by the synthetic hidden joins) bound to the person extent.
pub fn database(scale: usize) -> Db {
    let mut db = generate(&DataSpec::scaled(scale, DATA_SEED));
    let persons = db.extent("P").expect("datagen binds P");
    db.bind_extent("A", persons.clone());
    db.bind_extent("B", persons);
    db
}

/// A request stream: `warm` is sent before timing (cache warm-up), then
/// `round` is sent, in order, once per timed round.
pub struct Stream {
    pub warm: Vec<String>,
    pub round: Vec<String>,
}

/// Shuffle in place (Fisher–Yates) with the seeded generator.
fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// Draws distinct texts from `make` until `n` are collected (or the
/// generator runs dry after many repeats).
fn distinct(
    n: usize,
    seen: &mut HashSet<String>,
    rng: &mut Rng,
    mut make: impl FnMut(&mut Rng) -> String,
) -> Vec<String> {
    let mut out = Vec::with_capacity(n);
    let mut misses = 0;
    while out.len() < n && misses < 100 * n + 1000 {
        let s = make(rng);
        if seen.insert(s.clone()) {
            out.push(s);
        } else {
            misses += 1;
        }
    }
    out
}

/// `id . … . id . <tail> ! P` with `height` identities. Every tail maps
/// over the person set, so the tower is well-typed and evaluates.
fn tower(height: usize, tail: &str) -> String {
    let mut s = String::with_capacity(height * 5 + 40);
    for _ in 0..height {
        s.push_str("id . ");
    }
    s.push_str(tail);
    s.push_str(" ! P");
    s
}

const TOWER_TAILS: [&str; 16] = [
    "iterate(Kp(T), age)",
    "iterate(Kp(T), name)",
    "iterate(Kp(T), addr)",
    "iterate(Kp(T), city . addr)",
    "iterate(Kp(T), zip . addr)",
    "iterate(Kp(T), child)",
    "iterate(Kp(T), (name, age))",
    "iterate(Kp(T), (age, zip . addr))",
    "iterate(Kp(T), (id, age))",
    "iterate(Kp(T), (city . addr, name))",
    "iterate(Kp(T), cars)",
    "iterate(Kp(T), grgs)",
    "flat . iterate(Kp(T), cars)",
    "flat . iterate(Kp(T), grgs)",
    "flat . iterate(Kp(T), child)",
    "iterate(Kp(T), city) . iterate(Kp(T), addr)",
];

/// Towers of height 1–60: the fast engine takes two steps per identity,
/// so every tower normalizes within the serve budget.
fn towers(n: usize, seen: &mut HashSet<String>, rng: &mut Rng) -> Vec<String> {
    let mut all: Vec<String> = (1..=SERVE_MAX_STEPS / 2 - 4)
        .flat_map(|h| TOWER_TAILS.iter().map(move |t| tower(h, t)))
        .filter(|s| !seen.contains(s))
        .collect();
    shuffle(rng, &mut all);
    all.truncate(n);
    seen.extend(all.iter().cloned());
    all
}

fn oql(rng: &mut Rng) -> String {
    let c = rng.gen_range(0..90i64);
    let d = rng.gen_range(0..90i64);
    match rng.gen_range(0..7usize) {
        0 => format!("select p.age from p in P where p.age > {c}"),
        1 => format!("select p.name from p in P where p.age > {c} and not p.age > {d}"),
        2 => format!("select p from p in P where p.age < {c}"),
        3 => format!("select [p.name, p.age] from p in P where p.age >= {c}"),
        4 => format!("select p.addr.city from p in P where p.age <= {c}"),
        5 => format!("select v.make from v in V where v.year > {}", 1950 + c),
        _ => format!("select p.age from p in P where p.age = {c} or p.age < {d}"),
    }
}

/// A hidden join of nesting depth 1–3 in the shape of
/// `synthetic_hidden_join`, with seeded selections on both inputs.
fn hidden_join(rng: &mut Rng) -> String {
    let depth = rng.gen_range(1..=3usize);
    let c = rng.gen_range(0..90i64);
    let d = rng.gen_range(0..90i64);
    let mut body = format!("Kf(iterate(gt @ (age, Kf({c})), id) ! B)");
    for _ in 0..depth {
        body = format!("flat . iter(Kp(T), child . pi2) . (id, {body})");
    }
    format!("iterate(Kp(T), (id, {body})) ! iterate(lt @ (age, Kf({d})), id) ! A")
}

/// One well-typed query from `kola_verify::Gen`: alternately a filtered
/// map over the person extent and a function applied to a literal.
fn typed(g: &mut Gen, person: Type, i: usize) -> Query {
    let tys = palette();
    let out = tys[i % tys.len()].clone();
    if i.is_multiple_of(2) {
        let p = g.pred(&person, 2);
        let f = g.func(&person, &out, 3);
        Query::App(
            kola::builder::iterate(p, f),
            Box::new(Query::Extent("P".into())),
        )
    } else {
        let input = tys[(i / 2) % tys.len()].clone();
        let f = g.func(&input, &out, 3);
        let x = g.value(&input);
        Query::App(f, Box::new(Query::Lit(x)))
    }
}

/// `n` distinct typed queries of which exactly `exhausting` (when the
/// generator yields that many within its draw limit) exhaust the serve
/// step budget on the fast engine. The split is decided by the engine's
/// stop reason, which is deterministic.
fn typed_stratified(
    n: usize,
    exhausting: usize,
    seen: &mut HashSet<String>,
    db: &Db,
    rng: &mut Rng,
) -> Vec<String> {
    let person = Type::Obj(db.schema().class_id("Person").expect("paper schema"));
    let catalog = Catalog::paper();
    let props = PropDb::new();
    let rules: Vec<Oriented<'_>> = catalog.rules().iter().map(Oriented::fwd).collect();
    // No memo and a small arena cap: the inputs are distinct, and screening
    // thousands of them must not raise the process's peak memory, which
    // `peak_rss_mb` charges to the service.
    let config = EngineConfig {
        memoized: false,
        memo_capacity: 0,
        arena_capacity: 1 << 12,
        ..EngineConfig::fast()
    };
    let mut engine = Engine::new(rules, &props, config);
    engine.set_trace(false);
    let budget = Budget::default().steps(SERVE_MAX_STEPS);
    let mut g = Gen::new(db, Rng::seed_from_u64(rng.gen::<u64>()));
    let (mut normal, mut runaway) = (Vec::new(), Vec::new());
    let mut i = 0;
    while (normal.len() < n - exhausting || runaway.len() < exhausting) && i < 50 * n + 20_000 {
        let text = typed(&mut g, person.clone(), i).to_string();
        i += 1;
        if seen.contains(&text) {
            continue;
        }
        let q = kola_frontend::parse_any_query(&text).expect("generated text parses");
        let stop = engine.normalize(&q, &budget).report.stop;
        let (bucket, want) = if stop == StopReason::BudgetExhausted {
            (&mut runaway, exhausting)
        } else {
            (&mut normal, n - exhausting)
        };
        if bucket.len() < want {
            seen.insert(text.clone());
            bucket.push(text);
        }
    }
    normal.extend(runaway);
    normal
}

/// The serve request mix: 40 % typed, 20 % towers, 20 % OQL selections,
/// 20 % hidden joins, all distinct, shuffled.
fn serve_mix(n: usize, seed: u64, db: &Db) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut seen = HashSet::new();
    let share = n / 5;
    let typed_n = n - 3 * share;
    let exhausting = (n * EXHAUSTING_PER_1000).div_ceil(1000);
    let mut all = typed_stratified(typed_n, exhausting, &mut seen, db, &mut rng);
    all.extend(towers(share, &mut seen, &mut rng));
    all.extend(distinct(share, &mut seen, &mut rng, oql));
    all.extend(distinct(share, &mut seen, &mut rng, hidden_join));
    shuffle(&mut rng, &mut all);
    all
}

/// `serve_unique`: 2000 distinct texts per round, so every request misses.
pub fn serve_unique(seed: u64, db: &Db) -> Stream {
    Stream {
        warm: Vec::new(),
        round: serve_mix(2000, seed, db),
    }
}

/// Pool size of `serve_repeat` (larger than the default cache capacity of
/// 2048, so the Zipf tail keeps evicting).
pub const REPEAT_POOL: usize = 3072;
/// Requests per `serve_repeat` round.
pub const REPEAT_ROUND: usize = 20_000;
/// Zipf–Mandelbrot exponent and offset of the `serve_repeat` draws: rank
/// `k` (from 1) is drawn with weight `1 / (k + ZIPF_Q)^ZIPF_S`. The offset
/// flattens the head, so the hit latency is an average over a few hundred
/// popular texts rather than set by the handful a seed ranks first.
pub const ZIPF_S: f64 = 1.0;
pub const ZIPF_Q: f64 = 32.0;

/// `serve_repeat`: Zipf–Mandelbrot draws over a shuffled pool of 3072
/// texts; the 2048 most popular are sent once, in rank order, to warm the
/// cache.
pub fn serve_repeat(seed: u64, db: &Db) -> Stream {
    let pool = serve_mix(REPEAT_POOL, seed, db);
    let mut rng = Rng::seed_from_u64(seed ^ 0x21bf);
    let mut cdf = Vec::with_capacity(pool.len());
    let mut acc = 0.0;
    for rank in 1..=pool.len() {
        acc += 1.0 / (rank as f64 + ZIPF_Q).powf(ZIPF_S);
        cdf.push(acc);
    }
    let round = (0..REPEAT_ROUND)
        .map(|_| {
            let u = rng.gen::<f64>() * acc;
            let rank = cdf.partition_point(|&c| c < u).min(pool.len() - 1);
            pool[rank].clone()
        })
        .collect();
    Stream {
        warm: pool[..2048].to_vec(),
        round,
    }
}

/// The fixed saturation corpus: Fig. 3 KG1, `synthetic_hidden_join` at
/// depths 1–6, the `oql_pipeline` example query, and the Fig. 4 T1/T2
/// inputs.
pub fn saturation_corpus() -> Vec<(&'static str, String)> {
    let mut v = vec![("kg1", garage_query_kg1().to_string())];
    let names = ["shj1", "shj2", "shj3", "shj4", "shj5", "shj6"];
    for (n, name) in names.iter().enumerate() {
        v.push((name, synthetic_hidden_join(n + 1).to_string()));
    }
    v.push((
        "oql_pipeline",
        "select [v, flatten(select p.grgs from p in P where v in p.cars)] from v in V".into(),
    ));
    v.push((
        "t1",
        "iterate(Kp(T), city) . iterate(Kp(T), addr) ! P".into(),
    ));
    v.push((
        "t2",
        "iterate(Kp(T), age) . iterate(gt @ (age, Kf(25)), id) ! P".into(),
    ));
    v
}

/// A seeded typed selection shaped like the fused Fig. 4 input: a
/// comparison filter on `age` with a seeded constant and the map fused
/// into the filter's `iterate`. The map is an attribute or, when `gen_map`,
/// a depth-1 `Gen` function. Such a selection saturates in ~0.5–1 ms. The
/// two-stage shape (`iterate(Kp(T), f) . iterate(cmp @ …, id) ! P`)
/// exhausts the budget in ~10–15 ms at a cost that varies with the seed's
/// maps; it is left to the fixed T2 input, so the population p99 falls in
/// is the same on every seed.
fn saturation_typed(rng: &mut Rng, g: &mut Gen, person: &Type, gen_map: bool) -> String {
    let c = rng.gen_range(0..60i64);
    let cmp = ["gt", "lt", "geq", "leq", "eq"][rng.gen_range(0..5usize)];
    let map = if gen_map {
        g.func(person, &Type::Int, 1).to_string()
    } else {
        ["age", "name", "addr"][rng.gen_range(0..3usize)].to_string()
    };
    format!("iterate({cmp} @ (age, Kf({c})), {map}) ! P")
}

/// Requests per `plan_saturate` round.
pub const SATURATE_ROUND: usize = 1000;
/// Copies of `synthetic_hidden_join(1)` per round: the s-scale population
/// (0.1 %), the round's slowest request, above p99.9's rank. One copy,
/// because each costs seconds and a shorter round is sampled more often.
pub const SATURATE_SLOW: usize = 1;
/// Copies of every other fixed corpus query per round.
const SATURATE_FIXED: usize = 10;
/// Share of typed selections whose map is a `Gen` function, in percent.
const SATURATE_GEN_MAP_PCT: usize = 70;

/// `plan_saturate`: the fixed corpus (one copy of the depth-1 hidden
/// join, ten of every other query) plus distinct seeded typed selections
/// (70 % with a `Gen` map, 30 % with an attribute) up to 1000 requests,
/// shuffled.
pub fn plan_saturate(seed: u64, db: &Db) -> Stream {
    let mut rng = Rng::seed_from_u64(seed);
    let person = Type::Obj(db.schema().class_id("Person").expect("paper schema"));
    let mut g = Gen::new(db, Rng::seed_from_u64(rng.gen::<u64>()));
    let mut round = Vec::with_capacity(SATURATE_ROUND);
    let mut slow = Vec::new();
    let mut seen = HashSet::new();
    for (name, text) in saturation_corpus() {
        if name == "shj1" {
            slow.extend(std::iter::repeat_n(text.clone(), SATURATE_SLOW));
        } else {
            round.extend(std::iter::repeat_n(text.clone(), SATURATE_FIXED));
        }
        seen.insert(text);
    }
    // Fixed shares of the two maps: the `Gen`-map selections hold more
    // than half of the round, so the median request sits inside them on
    // every seed, whichever kind is cheaper, rather than on the gap
    // between the kinds. p99 (rank 990) sits among the ~80 ms-scale
    // fixed-corpus requests, which are the same on every seed.
    let typed_n = SATURATE_ROUND - round.len() - slow.len();
    let gen_n = typed_n * SATURATE_GEN_MAP_PCT / 100;
    for (n, gen_map) in [(gen_n, true), (typed_n - gen_n, false)] {
        round.extend(distinct(n, &mut seen, &mut rng, |r| {
            saturation_typed(r, &mut g, &person, gen_map)
        }));
    }
    shuffle(&mut rng, &mut round);
    // The cliff request opens the round. Its e-graph sets the round's
    // peak memory on top of whatever the process still holds from the
    // requests before it, which depends on their shuffled order: at a
    // seeded position, VmHWM read 18.9–22.6 MB across five seeds, and
    // 18.1–18.8 MB when first.
    slow.append(&mut round);
    let round = slow;
    Stream {
        warm: Vec::new(),
        round,
    }
}
