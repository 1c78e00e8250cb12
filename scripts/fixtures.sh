#!/usr/bin/env bash
# Regenerates the eight committed BENCH_*.json fixtures and the stdout
# of every binary that has a `<binary>.stdout` file there (the paper
# binaries `experiments`, `ablations` and `noc_curves`, and `sal-lint`,
# `margins`, `compile`, `observability` and `recovery`, which also
# write fixtures), and compares each, byte for byte, against
# crates/bench/fixtures/.
#
# Runs the binaries of an existing release build (build it first:
# `cargo build --release --workspace`) from a temporary directory, so
# the checkout is left untouched; `pareto` and `reroute` run their
# `--quick` grids, as the committed fixtures do. The build is looked
# up under $CARGO_TARGET_DIR (default: target/ at the root of the
# checkout). Exits non-zero naming every file that differs or was not
# written. Run from anywhere: `scripts/fixtures.sh`.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
bin=$(cd "$root" && cd "${CARGO_TARGET_DIR:-target}" && pwd)/release
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cd "$tmp"
for cmd in sal-lint observability recovery flows "reroute --quick" compile \
    "pareto --quick" margins; do
    # shellcheck disable=SC2086 # the quick flag splits on purpose
    set -- $cmd
    "$bin/$1" "${@:2}" > /dev/null
done
for want in "$root"/crates/bench/fixtures/*.stdout; do
    name=$(basename "$want" .stdout)
    "$bin/$name" > "$tmp/$name.stdout"
done

status=0
for want in "$root"/crates/bench/fixtures/BENCH_*.json \
    "$root"/crates/bench/fixtures/*.stdout; do
    got=$tmp/$(basename "$want")
    if ! cmp -s "$want" "$got"; then
        echo "differs: $(basename "$want")"
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    json=$(ls "$root"/crates/bench/fixtures/BENCH_*.json | wc -l)
    stdouts=$(ls "$root"/crates/bench/fixtures/*.stdout | wc -l)
    echo "all $json fixtures and $stdouts stdouts match"
fi
exit "$status"
