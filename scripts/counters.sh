#!/usr/bin/env bash
# Compares the deterministic work counters of two perfbench runners.
#
# Usage: scripts/counters.sh RUNNER_A RUNNER_B
#
# Each RUNNER is a built `sal-perfbench` binary, e.g. one per tree from
# `CARGO_TARGET_DIR=... cargo build --release --manifest-path
# perfbench/Cargo.toml`. Both run the `gate_stream`, `lattice_sweep`,
# `mesh_load` and `mesh_chaos` workloads with `--seed 901 --seconds 5
# --trace 1`; a traced run has a fixed round count, so the whole
# comparison takes about 15 s on a 2-vCPU VM.
# From each run's result line (its last line of output, one JSON
# object) the script compares `correct`, `attempted`, `failed` and
# every metric whose unit is `count` or `ratio`, except the `trace.*`
# ones, names each value that differs and exits non-zero if any does.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 RUNNER_A RUNNER_B" >&2
    exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

workloads="gate_stream lattice_sweep mesh_load mesh_chaos"
for workload in $workloads; do
    for side in A B; do
        if [ "$side" = A ]; then runner=$1; else runner=$2; fi
        "$runner" --workload "$workload" --seed 901 --seconds 5 --trace 1 >"$tmp/out"
        tail -n 1 "$tmp/out" >"$tmp/$workload.$side.json"
    done
done

python3 - "$tmp" $workloads <<'EOF'
import json
import sys

tmp, workloads = sys.argv[1], sys.argv[2:]


def counters(path):
    run = json.load(open(path))
    values = {key: run[key] for key in ("correct", "attempted", "failed")}
    for name, metric in run["metrics"].items():
        if metric["unit"] in ("count", "ratio") and not name.startswith("trace."):
            values[name] = metric["value"]
    return values


differ = 0
for workload in workloads:
    a = counters(f"{tmp}/{workload}.A.json")
    b = counters(f"{tmp}/{workload}.B.json")
    for name in sorted(a.keys() | b.keys()):
        if a.get(name) != b.get(name):
            print(f"{workload} {name}: A {a.get(name)} B {b.get(name)}")
            differ += 1
    n = len(a.keys() | b.keys())
    print(f"{workload}: correct, attempted, failed and {n - 3} metrics compared")
if differ:
    print(f"{differ} values differ")
    sys.exit(1)
print("every value equal")
EOF
