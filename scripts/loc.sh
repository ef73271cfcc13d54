#!/usr/bin/env bash
# Non-test Rust lines per crate, and the change against a git ref:
#
#   scripts/loc.sh [<ref>]
#
# Counts every `.rs` file under `crates/` and `shims/` in the working
# tree (tracked or not yet added, ignored files excluded), stopping at
# the file's first `#[cfg(test)]` — the unit tests sit at the bottom of
# a file in this repo — and skipping any `tests/` or `benches/`
# directory. The root `tests/` and `benchmark/` are not product code and
# are not counted. With a ref, the same count is taken of that commit
# and the difference printed beside each crate. This is the roadmap's
# "net-negative LOC" figure; it prints and gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

# Reads file paths relative to the directory $1 on stdin; prints
# "<crate> <lines>" per crate, where a crate is `crates/x` or `shims/x`.
count() {
    local root="$1" path
    while read -r path; do
        case "$path" in */tests/* | */benches/*) continue ;; esac
        [ -f "$root/$path" ] || continue # deleted in the working tree
        awk -v crate="$(cut -d/ -f1-2 <<<"$path")" \
            '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print crate, n + 0 }' \
            "$root/$path"
    done | awk '{ sum[$1] += $2 } END { for (c in sum) print c, sum[c] }' | sort
}

now="$(git ls-files -co --exclude-standard -- 'crates/*.rs' 'shims/*.rs' | count .)"
members() { awk '{ n++ } END { print n + 0 }' <<<"$1"; }

if [ $# -eq 0 ]; then
    awk '{ printf "%-20s %7d\n", $1, $2; total += $2 }
         END { printf "%-20s %7d\n", "crates/ + shims/", total }' <<<"$now"
    echo "workspace members: $(members "$now")"
    exit 0
fi

ref="$1"
old_tree="$(mktemp -d)"
trap 'rm -rf "$old_tree"' EXIT
git archive "$ref" crates shims | tar -x -C "$old_tree"
old="$(cd "$old_tree" && find crates shims -name '*.rs' | count .)"

# Every crate of either side; one missing from a side counts as zero.
join -a1 -a2 -e0 -o 0,1.2,2.2 <(echo "$old") <(echo "$now") |
    awk -v ref="$ref" '
        BEGIN { printf "%-20s %7s %7s %7s\n", "crate", ref, "now", "delta" }
        { printf "%-20s %7d %7d %+7d\n", $1, $2, $3, $3 - $2; a += $2; b += $3 }
        END { printf "%-20s %7d %7d %+7d\n", "crates/ + shims/", a, b, b - a }'
echo "workspace members: $(members "$old") -> $(members "$now")"
