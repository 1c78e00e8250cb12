#!/usr/bin/env bash
# Non-test Rust lines per crate and in total.
#
# A file's non-test lines are the lines before its first
# `#[cfg(test)]`, indented or not (all of its lines when it has none).
# Counted over every `.rs` file under crates/*/src, vendor/*/src and
# src/; `crates/bench/src/bin` counts toward its crate. Run from
# anywhere: `scripts/loc.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -type f -print0 | sort -z |
        xargs -0 awk '
            FNR == 1 { done = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { done = 1 }
            !done { n++ }
            END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src vendor/*/src src; do
    [ -d "$dir" ] || continue
    name=${dir%/src}
    [ "$dir" = src ] && name=.
    n=$(count "$dir")
    printf '%-20s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-20s %6d\n' total "$total"
