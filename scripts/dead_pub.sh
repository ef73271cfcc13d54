#!/usr/bin/env bash
# Public items nothing names:
#
#   scripts/dead_pub.sh
#
# Takes every `pub fn|struct|enum|trait|type|const|static|mod` declared
# in the non-test part of a file under `crates/*/src` (a file's unit
# tests sit below its first `#[cfg(test)]` in this repo) and word-matches
# its name against every `.rs` file of `crates/`, `shims/`, `tests/`,
# `examples/` and `benchmark/src` in the working tree.
#
#   A  named in no other file: printed for review. Public surface only
#      its own file reaches; most of it wants `pub(crate)` or no `pub`
#      unless a pub signature or a doctest hands it out. More than
#      A_MAX entries fail the run, so a new one has to displace an old one.
#   B  of those, named nowhere in its own file's non-test part either
#      (a doctest names it, comment prose does not): code that only its
#      own unit tests run, or nothing does. Any B entry fails the run —
#      delete it, or move it into `mod tests` if the tests use it as a
#      reference implementation.
#
# The match is by bare name, so a method called `len` is never listed;
# the lists can only under-report.
set -euo pipefail
cd "$(dirname "$0")/.."
A_MAX=12

lists="$(git ls-files -co --exclude-standard -- \
    'crates/*.rs' 'shims/*.rs' 'tests/*.rs' 'examples/*.rs' 'benchmark/src/*.rs' |
    while read -r f; do [ -f "$f" ] && echo "$f"; done |
    xargs awk '
    FNR == 1 { in_tests = 0; fenced = 0; declares = FILENAME ~ /^crates\/[^\/]+\/src\// }
    /^[ \t]*#\[cfg\(test\)\]/ { in_tests = 1 }
    {
        if (declares && !in_tests &&
            match($0, /^[ \t]*pub[ \t]+((const|unsafe|async)[ \t]+)*(fn|struct|enum|trait|type|const|static|mod)[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr($0, RSTART, RLENGTH)
            sub(/.*[ \t]/, "", name)
            decl[++decls] = name SUBSEP FILENAME SUBSEP FNR
        }
        line = $0
        # Prose in a comment names nothing; a doctest (fenced doc lines) does.
        if (line ~ /^[ \t]*\/\/[\/!][ \t]*```/) { fenced = !fenced; next }
        comment = line ~ /^[ \t]*\/\// && !(fenced && line ~ /^[ \t]*\/\/[\/!]/)
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            word = substr(line, RSTART, RLENGTH)
            line = substr(line, RSTART + RLENGTH)
            if (!((word, FILENAME) in seen)) { seen[word, FILENAME] = 1; files[word]++ }
            if (!in_tests && !comment) live[word, FILENAME]++
        }
    }
    END {
        for (i = 1; i <= decls; i++) {
            split(decl[i], d, SUBSEP)
            if (files[d[1]] > 1) continue
            printf "A %s:%d %s\n", d[2], d[3], d[1]
            # The declaration is one live naming; anything past it is a use.
            if (live[d[1], d[2]] == 1) printf "B %s:%d %s\n", d[2], d[3], d[1]
        }
    }' | sort -k1,1 -k2,2V)"

a="$(grep -c '^A ' <<<"$lists" || true)"
b="$(grep -c '^B ' <<<"$lists" || true)"
echo "A: $a pub items named in no other file (review: pub(crate) or private unless a pub signature or doctest reaches them)"
sed -n 's/^A /  /p' <<<"$lists"
echo "B: $b pub items named nowhere outside their own #[cfg(test)] module"
sed -n 's/^B /  /p' <<<"$lists"
if [ "$a" -gt "$A_MAX" ]; then
    echo "list A holds $a pub items, more than $A_MAX:" >&2
    sed -n 's/^A /  /p' <<<"$lists" >&2
    exit 1
fi
[ "$b" -eq 0 ]
