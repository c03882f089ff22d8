#!/usr/bin/env bash
# Measures the working tree against a parent revision on polybench.
#
#   scripts/ab.sh <parent-rev> [workload] [pairs] [seed]
#
# Builds polybench at <parent-rev> in a git worktree under target/ab/
# and at the working tree (each with a target directory of its own
# there), then runs `pairs` alternated full-length pairs of `workload`
# at `seed` — odd pairs run the parent first, even pairs the change —
# and ends with `polybench compare parent change`, whose exit code is
# the script's. Defaults: olap_sharded, 10 pairs, seed 2019; the
# workload `all` runs all five. Run nothing else meanwhile: on a
# two-core machine ten olap_sharded pairs take about a minute after the
# builds, ten pairs of all five about seven.
#
# polybench/ is read, never edited: a build rewrites
# polybench/Cargo.lock, so the committed one is put back on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
    sed -n '2,17p' "$0" >&2
    exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
workload=${2:-olap_sharded}
pairs=${3:-10}
seed=${4:-2019}
ab=target/ab
mkdir -p "$ab/bin"

cp polybench/Cargo.lock "$ab/Cargo.lock.committed"
cleanup() {
    cp "$ab/Cargo.lock.committed" polybench/Cargo.lock
    git worktree remove --force "$ab/parent" 2>/dev/null || true
}
trap cleanup EXIT

git worktree remove --force "$ab/parent" 2>/dev/null || true
rm -rf "$ab/parent"
git worktree prune
git worktree add --detach "$ab/parent" "$rev" >/dev/null

build() { # <side> <source dir>
    CARGO_TARGET_DIR="$PWD/$ab/target-$1" cargo build --release --quiet \
        --manifest-path "$2/polybench/Cargo.toml"
    cp "$ab/target-$1/release/polybench" "$ab/bin/$1"
}
build parent "$ab/parent"
build change .

select=(--workload "$workload")
[ "$workload" = all ] && select=()
rm -rf "$ab/out-parent" "$ab/out-change"
for i in $(seq "$pairs"); do
    order="parent change"
    [ $((i % 2)) = 0 ] && order="change parent"
    for side in $order; do
        echo "pair $i/$pairs: $side" >&2
        "$ab/bin/$side" run "${select[@]}" --seed "$seed" --out "$ab/out-$side" >/dev/null
    done
done
"$ab/bin/change" compare "$ab/out-parent" "$ab/out-change"
