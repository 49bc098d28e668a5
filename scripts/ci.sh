#!/usr/bin/env bash
# Offline CI gate: formatting, lints, release build, full test suite.
# No network access is assumed anywhere (--offline); the workspace has no
# external crate dependencies.
#
#   --bench-smoke   additionally run the engine-mode benchmark with short
#                   iteration counts, regenerating BENCH_rewrite.json and
#                   failing if the indexed engine is slower than the naive
#                   engine on the fig4 workload, or if the catalog-size
#                   sweep shows per-step match cost under the
#                   discrimination-tree index growing more than 20% from
#                   the 154-rule seed catalog to the full 500+-rule closed
#                   catalog; then run the service soak benchmark with its
#                   scaling gate (see below).
#   --egraph-smoke  additionally run the equality-saturation differential
#                   gate at full depth: the 1000-seed parity corpus in
#                   release mode (extracted cost <= fixpoint cost and the
#                   semantic gate on every seed). The
#                   default path always runs a 50-seed release smoke of the
#                   same gate plus the Figure 3 rediscovery test.
#   --chaos-smoke   additionally run a 5-seed matrix of 100-request chaos
#                   soaks (kola-bench's chaos-soak binary) against the
#                   optimization service, failing on any
#                   escaped panic, unclassified request, or semantic-gate
#                   violation under any seed.
#   --tenant-smoke  additionally run a two-tenant noisy-neighbor soak: a
#                   clean victim tenant against an aggressor pouring
#                   poison-rule panics and admission floods into the same
#                   workers, failing if the victim's outcome taxonomy
#                   changes, a breaker charge or cache invalidation crosses
#                   the tenant wall, or the per-tenant books don't balance.
#   --cache-smoke   additionally run the plan-cache smoke gate: a short
#                   repeated-traffic soak at a 90% target hit rate (fails
#                   below 85% achieved, or on any conservation violation)
#                   plus a cache-on vs cache-off parity stream with a
#                   breaker trip and reset mid-stream (fails on any
#                   response divergence).
#   --obs-smoke     additionally run a traced 600-request chaos soak,
#                   validate the metrics-conservation verdict, the
#                   trace-replay tally, the plan audit's compared count and
#                   the <5% trace-ring loss bound in its smoke copy of
#                   BENCH_obs.json (target/bench-smoke/), and re-run the service scaling gates
#                   (clean stream with tracing disabled, to confirm the
#                   observability layer costs nothing when off).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_SMOKE_RUN=0
CHAOS_SMOKE_RUN=0
OBS_SMOKE_RUN=0
CACHE_SMOKE_RUN=0
TENANT_SMOKE_RUN=0
EGRAPH_SMOKE_RUN=0
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) BENCH_SMOKE_RUN=1 ;;
    --chaos-smoke) CHAOS_SMOKE_RUN=1 ;;
    --obs-smoke) OBS_SMOKE_RUN=1 ;;
    --cache-smoke) CACHE_SMOKE_RUN=1 ;;
    --tenant-smoke) TENANT_SMOKE_RUN=1 ;;
    --egraph-smoke) EGRAPH_SMOKE_RUN=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release"
cargo build --workspace --release --offline

# The serving library links no differential oracle: the plan-audit
# verifier (kola-verify) and the executor (kola-exec) belong to the soak
# harness in kola-bench and to tests, never to kola-service's own build.
echo "== kola-service dependency guard"
SERVICE_DEPS=$(cargo tree -p kola-service -e normal --offline --prefix none)
if grep -Eq '^kola-(verify|exec) ' <<<"$SERVICE_DEPS"; then
  echo "kola-service links kola-verify or kola-exec:" >&2
  echo "$SERVICE_DEPS" >&2
  exit 1
fi

# Equality saturation interprets the compiled rule programs: it e-matches
# through their match lists and builds through their build lists, and
# never walks a boxed rule pattern of its own.
echo "== saturation pattern guard"
if grep -Eqw 'PFunc|PPred|PQuery|RewritePair' crates/kola-rewrite/src/saturate.rs; then
  echo "crates/kola-rewrite/src/saturate.rs names a boxed rule pattern:" >&2
  grep -Enw 'PFunc|PPred|PQuery|RewritePair' crates/kola-rewrite/src/saturate.rs >&2
  exit 1
fi

# Strategies run one engine: every primitive builds a fast::Engine, and the
# boxed drivers (fixpoint, one-step search, bottom-up sweep) stay the
# reference for tests, trace replay and the containment suite, never a
# second path in the strategy layer.
echo "== strategy engine guard"
STRATEGY_SRC=(crates/kola-rewrite/src/{strategy,hidden_join,monolithic}.rs)
BOXED_DRIVERS='rewrite_fix_with|rewrite_once_[a-z_]*|rewrite_bottom_up[a-z_]*|ro_query'
if grep -Eqw "$BOXED_DRIVERS" "${STRATEGY_SRC[@]}"; then
  echo "the strategy layer names a boxed engine driver:" >&2
  grep -Enw "$BOXED_DRIVERS" "${STRATEGY_SRC[@]}" >&2
  exit 1
fi

echo "== cargo test"
cargo test --workspace --offline -q

# The benchmark (perfbench/) is its own cargo package outside the
# workspace; type-check it here so an API change that breaks it fails CI
# instead of surfacing only when the benchmark runs.
echo "== cargo check (perfbench)"
CARGO_TARGET_DIR=.bench_build cargo check --offline --manifest-path perfbench/Cargo.toml

# The equality-saturation gates ride the default path: a 50-seed release
# run of the differential parity corpus (extracted cost <= fixpoint cost,
# the semantic gate on every seed), the Figure 3 rediscovery test (plain
# saturation finds the hidden-join plan the scripted pipeline derives) and
# the saturation pin (hashed plans, steps, stop reasons and fire counts),
# and the e-graph invariants, whose deadline test bounds a saturation run's
# overrun past its deadline only in a release build.
echo "== egraph smoke (50-seed parity gate + Figure 3 rediscovery + saturation pin + invariants)"
EGRAPH_SEEDS=50 cargo test --release --offline -q \
  --test egraph_parity --test egraph_fig3 --test saturation_pin --test egraph_invariants

if [ "$EGRAPH_SMOKE_RUN" = 1 ]; then
  echo "== egraph full (1000-seed parity corpus, release)"
  EGRAPH_SEEDS=1000 cargo test --release --offline -q --test egraph_parity
fi

if [ "$BENCH_SMOKE_RUN" = 1 ]; then
  echo "== bench smoke (engine_modes, enforced)"
  BENCH_SMOKE=1 BENCH_ENFORCE=1 \
    cargo bench -p kola-bench --bench engine_modes --offline

  # Scaling gates: clean-stream (no-fault) throughput at 4 workers must be
  # >= 1.5x the 1-worker run, and the chaos stream — poison rules, floods,
  # breaker trips, tracing on — must scale too (4w >= 1.5x in smoke mode;
  # the full bench enforces 8w >= 2x). Every request carries a 2 ms
  # lock-free stall that N workers overlap, which is the only axis that can
  # scale on this repo's single-core runners — so the floors are generous,
  # but they still fail on a serialized path: a global queue lock or
  # per-request engine rebuild flattens the clean gate, and a global
  # breaker mutex, shared trace-ring lock, or per-request rule-set rebuild
  # flattens the chaos gate.
  echo "== bench smoke (service_soak, scaling gates enforced)"
  BENCH_SMOKE=1 BENCH_ENFORCE=1 \
    cargo bench -p kola-bench --bench service_soak --offline
fi

if [ "$CHAOS_SMOKE_RUN" = 1 ]; then
  # Seed matrix: the soak's invariants are scheduling-independent, but each
  # seed shapes a different stream (which rules poison, which requests
  # flood, which deadlines bite) — five seeds cover more of that space than
  # one longer run at the same cost.
  # 12648430 is the soak's default seed (0xC0FFEE) in the decimal form the
  # binary's env parser accepts.
  for seed in 12648430 1 2 3 4; do
    echo "== chaos smoke (100-request service soak, seed ${seed})"
    BENCH_SMOKE=1 CHAOS_REQUESTS=100 CHAOS_SEED="${seed}" \
      cargo run -p kola-bench --bin chaos-soak --release --offline
  done
fi

if [ "$TENANT_SMOKE_RUN" = 1 ]; then
  echo "== tenant smoke (two-tenant noisy-neighbor soak)"
  TENANT_REQUESTS=1000 \
    cargo run -p kola-bench --bin tenant-smoke --release --offline
fi

if [ "$CACHE_SMOKE_RUN" = 1 ]; then
  echo "== cache smoke (repeated soak + parity with trips/resets)"
  CACHE_SMOKE_REQUESTS=1200 \
    cargo run -p kola-bench --bin cache-smoke --release --offline
fi

if [ "$OBS_SMOKE_RUN" = 1 ]; then
  # Traced soak: the binary records every successful optimization, replays
  # each trace on the boxed reference engine, checks the conservation
  # invariants on the quiescent metric snapshot, and exits nonzero on any
  # violation. A smoke run writes its artifact under target/bench-smoke/
  # (the committed BENCH_obs.json is left alone); the greps re-check that
  # copy, so a silently stale or unwritten artifact also fails the gate.
  echo "== obs smoke (600-request traced soak + conservation check)"
  OBS_JSON=target/bench-smoke/BENCH_obs.json
  rm -f "$OBS_JSON"
  BENCH_SMOKE=1 CHAOS_REQUESTS=600 CHAOS_TRACE=1 \
    cargo run -p kola-bench --bin chaos-soak --release --offline
  grep -q '"ok": true' "$OBS_JSON" \
    || { echo "$OBS_JSON missing balanced-books verdict" >&2; exit 1; }
  grep -q '"divergent": 0' "$OBS_JSON" \
    || { echo "$OBS_JSON reports divergent trace replays" >&2; exit 1; }
  grep -q '"plan_audit": {"compared": [1-9]' "$OBS_JSON" \
    || { echo "$OBS_JSON: the plan audit compared no pair" >&2; exit 1; }
  # Ring-loss bound: with per-worker trace shards the fleet must retain
  # provenance under load — more than 5% of recorded traces evicted before
  # the audit means the rings are undersized for the workload (or a shard
  # regression re-funneled every worker into one ring).
  awk -F'"dropped_pct": ' '/"dropped_pct"/ {
      split($2, a, ","); pct = a[1] + 0
      if (pct >= 5) { printf "trace ring loss %.2f%% >= 5%%\n", pct; exit 1 }
      found = 1
    }
    END { if (!found) { print "BENCH_obs.json missing dropped_pct"; exit 1 } }' \
    "$OBS_JSON" \
    || { echo "$OBS_JSON trace-loss bound violated" >&2; exit 1; }

  # Zero-cost-when-disabled: the clean stream runs with tracing off (the
  # default config); its 4-worker >= 1.5x 1-worker scaling gate fails if
  # the disabled observability layer leaks work onto the hot path.
  echo "== obs smoke (scaling gate with tracing disabled)"
  BENCH_SMOKE=1 BENCH_ENFORCE=1 \
    cargo bench -p kola-bench --bench service_soak --offline
  # The bench's smoke run replaces the smoke copy with its traced chaos
  # row's books, never the committed file.
  grep -q '"harness": "service_soak"' "$OBS_JSON" \
    && grep -q '"ok": true' "$OBS_JSON" \
    || { echo "$OBS_JSON: service_soak smoke books missing" >&2; exit 1; }
fi

echo "CI gate passed."
