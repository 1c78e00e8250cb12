#!/usr/bin/env python3
"""Builds the sal benchmark runner from source and runs it.

One workload, as BENCHMARK.json's command runs it:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

prints the runner's report; its last line is one JSON object with the
keys correct, attempted, failed and metrics.

Every workload, untraced and traced, with a summary table:

    python3 perfbench/run.py --workload all --seed <n> [--seconds <s>]

Build outputs go to $CARGO_TARGET_DIR (default: .bench_build at the
root of the checkout). Exits non-zero, printing no result, if the
runner cannot be built.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
WORKLOADS = ["lattice_sweep", "gate_stream", "mesh_load", "mesh_chaos"]
# A run measures about --seconds; anything near this is a hung runner.
RUN_TIMEOUT_S = 170


def build():
    """Builds the runner; returns its path, or None if the build failed."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(ROOT, target, "release", "sal-perfbench")


def run(binary, args):
    """Runs the runner; returns (exit code, stdout)."""
    try:
        p = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"runner exceeded {RUN_TIMEOUT_S} s: {' '.join(args)}", file=sys.stderr)
        return 1, ""
    return p.returncode, p.stdout


def summary(binary, seed, seconds):
    """Runs every workload untraced and traced; prints one table."""
    ok = True
    rows = []
    for w in WORKLOADS:
        results = {}
        for trace in ("0", "1"):
            args = ["--workload", w, "--seed", seed, "--seconds", seconds, "--trace", trace]
            code, out = run(binary, args)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                print(f"{w} --trace {trace} failed (exit {code})", file=sys.stderr)
                return 1
            # The runner's own report, then its result line.
            print("\n".join(lines[:-1]))
            results[trace] = json.loads(lines[-1])
        plain, traced = results["0"], results["1"]
        ok = ok and plain["correct"] and traced["correct"]
        e2e = plain["metrics"]
        overhead = 1 - traced["metrics"]["trace.work_per_s"]["value"] / e2e["work_per_s"]["value"]
        rows.append((w, plain["attempted"], plain["failed"], e2e, overhead))
    print()
    print(f"{'workload':14} {'attempted':>9} {'failed':>6}  end-to-end metrics  (tracing cost)")
    for w, attempted, failed, e2e, overhead in rows:
        metrics = ", ".join(f"{k} = {v['value']:.6g} {v['unit']}" for k, v in e2e.items())
        print(f"{w:14} {attempted:>9} {failed:>6}  {metrics}  ({100 * overhead:+.1f}%)")
    return 0 if ok else 1


def main(argv):
    opts = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or "--workload" not in opts or "--seed" not in opts:
        print(__doc__, file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        return 1
    if opts["--workload"] == "all":
        return summary(binary, opts["--seed"], opts.get("--seconds", "20"))
    code, out = run(binary, argv)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
