#!/usr/bin/env python3
"""Build and run the optimizer benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload serve_unique --seed 1 --seconds 35 --trace 0

builds `perfbench` (a cargo package of its own, against the repository's
crates by path) into $CARGO_TARGET_DIR (default `.bench_build`), runs one
workload and passes its output through; the last line is one JSON object.
Workloads: serve_unique, serve_repeat, plan_saturate. `--trace 1` runs the
traced pass and prints per-layer metrics; spans go to
`$CARGO_TARGET_DIR/perfbench-spans/<workload>-<seed>.jsonl`.

    python3 perfbench/run.py --repeat-check --workload plan_saturate --seed 7 --seed2 8

runs the workload twice on each given seed and fails unless every count
(the `counts` line: outcomes, cache hits and misses, rewrite steps, plan
fingerprints, executor ops) is identical between the two runs of a seed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def build(target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S,
                              stdout=sys.stderr, stderr=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed with code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def run(binary, args, seed, trace, spans):
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--spans-dir", spans]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout


def counts_line(out):
    lines = [l for l in out.splitlines() if l.startswith("counts ")]
    return lines[-1] if lines else None


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seed2", type=int, default=None,
                   help="second seed for --repeat-check")
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat-check", action="store_true")
    args = p.parse_args()

    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    binary = build(target)
    spans = os.path.join(target, "perfbench-spans")

    if not args.repeat_check:
        code, out = run(binary, args, args.seed, args.trace, spans)
        sys.stdout.write(out)
        sys.exit(code)

    seeds = [args.seed] + ([args.seed2] if args.seed2 is not None else [])
    ok = True
    for seed in seeds:
        lines = []
        for attempt in (1, 2):
            code, out = run(binary, args, seed, 0, spans)
            if code != 0:
                sys.exit(f"perfbench: run {attempt} of seed {seed} exited {code}")
            lines.append(counts_line(out))
        same = lines[0] is not None and lines[0] == lines[1]
        ok &= same
        print(f"seed {seed}: counts {'identical' if same else 'DIFFER'} across two runs")
        if not same:
            print(f"  run 1 {lines[0]}\n  run 2 {lines[1]}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
