#!/usr/bin/env bash
# Checks that the working tree reproduces a parent revision's output.
#
#   scripts/repro_diff.sh <parent-rev>
#
# Builds `repro` at <parent-rev> (exported with `git archive` under
# target/repro_diff/) and at the working tree, each with a target
# directory of its own there, then runs `repro all --open-loop --trace
# <file>` on both and diffs their stdout (every experiment table, the
# open-loop sweep, and the traced query's span tree, EXPLAIN ANALYZE
# and Prometheus export) and their span-tree trace JSON. The stdout
# line naming the trace file is left out: its path differs by side.
# Both outputs are deterministic — two runs of one build are
# byte-identical — so any difference is a change in behaviour. Exits
# 0 when both are identical, else nonzero with the diffs printed.
# `--json` is not used: its `wall_ms` are wall-clock times.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    sed -n '2,15p' "$0" >&2
    exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
out=target/repro_diff
rm -rf "$out/parent"
mkdir -p "$out/parent"
git archive "$rev" | tar -x -C "$out/parent"

run() { # <side> <source dir>
    CARGO_TARGET_DIR="$PWD/$out/target-$1" cargo build --release --quiet \
        --manifest-path "$2/Cargo.toml" -p pspp-bench --bin repro
    echo "running repro at $1" >&2
    "$out/target-$1/release/repro" all --open-loop --trace "$out/$1.trace.json" |
        grep -v '^wrote span-tree trace to ' >"$out/$1.stdout"
}
run parent "$out/parent"
run change .

status=0
diff "$out/parent.stdout" "$out/change.stdout" || status=$?
diff "$out/parent.trace.json" "$out/change.trace.json" || status=$?
[ "$status" = 0 ] && echo "repro stdout and trace identical to $rev" >&2
exit "$status"
