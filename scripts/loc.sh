#!/usr/bin/env bash
# Counts the workspace's non-test Rust lines, per crate and in total.
#
#   scripts/loc.sh            # every crate
#   scripts/loc.sh runtime    # crates whose name contains "runtime"
#   scripts/loc.sh --files    # one row per file as well
#
# Two numbers per row: `lines`, every physical line, and `code`, the
# lines that are neither blank nor a `//` comment (doc comments
# included). A file counts up to its first `#[cfg(test)]` module, inline
# or declared; a `#[cfg(test)]` helper above it still counts. Skipped
# whole: `tests/`, `benches/`, `examples/`, `polybench/` (not a workspace
# member), `crates/stubs/`, and every module file declared under
# `#[cfg(test)]` (a test-only `mod oracle;` and whatever lies below it).
# Crates are the directories under `crates/`, plus the root package's
# `src/` as `polystorepp`.
set -euo pipefail
cd "$(dirname "$0")/.."

files=0
filter=""
for arg in "$@"; do
    case "$arg" in
        --files) files=1 ;;
        *) filter="$arg" ;;
    esac
done

sources() {
    find src crates -name '*.rs' -path '*/src/*' -not -path 'crates/stubs/*' \
        -not -path '*/tests/*' -not -path '*/benches/*' | sort
}

# Path prefixes of the module files declared under `#[cfg(test)]`.
test_modules() {
    sources | while read -r f; do
        awk -v f="$f" '
            /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { armed = 1; next }
            armed && /^[[:space:]]*$/ { next }
            armed && match($0, /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+;/) {
                name = $0
                sub(/^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+/, "", name)
                sub(/;.*/, "", name)
                dir = f; sub(/[^\/]+$/, "", dir)
                stem = f; sub(/^.*\//, "", stem); sub(/\.rs$/, "", stem)
                if (stem != "lib" && stem != "main" && stem != "mod") dir = dir stem "/"
                print dir name ".rs"
                print dir name "/"
            }
            { armed = 0 }
        ' "$f"
    done
}

skip=$(test_modules)

crate_of() {
    case "$1" in
        src/*) echo polystorepp ;;
        *) echo "$1" | cut -d/ -f2 ;;
    esac
}

rows=$(sources | while read -r f; do
    for prefix in $skip; do
        case "$f" in "$prefix"*) continue 2 ;; esac
    done
    crate=$(crate_of "$f")
    case "$crate" in *"$filter"*) ;; *) continue ;; esac
    awk -v crate="$crate" -v f="$f" '
        function tally(line) {
            lines++
            if (line !~ /^[[:space:]]*$/ && line !~ /^[[:space:]]*\/\//) code++
        }
        held != "" && /^[[:space:]]*$/ { held = held "\n"; next }
        held != "" && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/ { exit }
        held != "" {
            n = split(held, parts, "\n")
            for (i = 1; i <= n; i++) tally(parts[i])
            held = ""
        }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = $0; next }
        { tally($0) }
        END { printf "%s %s %d %d\n", crate, f, lines, code }
    ' "$f"
done)

if [ "$files" = 1 ]; then
    printf '%-14s %-52s %7s %7s\n' crate file lines code
    echo "$rows" | awk '{ printf "%-14s %-52s %7d %7d\n", $1, $2, $3, $4 }'
    echo
fi
printf '%-14s %7s %7s\n' crate lines code
echo "$rows" | awk '
    { lines[$1] += $3; code[$1] += $4; total_lines += $3; total_code += $4 }
    END {
        for (c in lines) printf "%-14s %7d %7d\n", c, lines[c], code[c] | "sort"
        close("sort")
        printf "%-14s %7d %7d\n", "total", total_lines, total_code
    }
'
