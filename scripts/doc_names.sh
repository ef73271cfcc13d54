#!/usr/bin/env bash
# The docs name only what exists:
#
#   scripts/doc_names.sh
#
# 1. A backticked code name in docs/*.md, README.md, DESIGN.md,
#    EXPERIMENTS.md or shims/README.md must name something in the tree.
#    A code name is a whole backticked span of one of these forms:
#    a `path::item` (its first segment may be a `file.rs`; it may end in
#    `()`), a `name()`, a snake_case word with a `_`, or a CamelCase word
#    of two or more humps. It resolves when its last segment is an
#    identifier in the code (comments stripped) or a `.rs` file stem
#    under crates/, shims/, tests/, examples/ or benchmark/src; a
#    `std::` or `core::` path and the bare std names below pass.
#    Fenced code blocks are skipped: they are examples, not names.
# 2. A `docs/<NAME>.md` path named in crates/, shims/, tests/, scripts/,
#    the docs above or docs/, and a relative `[..](<NAME>.md)` link
#    inside docs/, must be a file.
#
# Prints every offender as `file:line: name` and exits 1 if there is any.
# Needs no build; under two seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

# Names of the standard library the docs may use bare, though the code
# names none of them.
STD_NAMES="MaybeUninit ManuallyDrop"

docs=(docs/*.md README.md DESIGN.md EXPERIMENTS.md shims/README.md)
code_dirs=(crates shims tests examples benchmark/src)

known="$(mktemp)"
trap 'rm -f "$known"' EXIT
{
    find "${code_dirs[@]}" -name '*.rs' -not -path '*/target/*' -print0 |
        xargs -0 sed 's://.*$::' | grep -oE '[A-Za-z_][A-Za-z0-9_]*'
    find "${code_dirs[@]}" -name '*.rs' -not -path '*/target/*' | sed 's:.*/::; s:\.rs$::'
    tr ' ' '\n' <<<"$STD_NAMES"
} | sort -u >"$known"

# Every whole backticked span of a code-name form, as "file:line<TAB>span";
# a span may run across a line break, and is reported at its first line.
spans() {
    awk '
        FNR == 1 { fenced = 0; inside = 0 }
        /^[[:space:]]*```/ { fenced = !fenced; next }
        fenced { next }
        {
            n = split($0, part, "`")
            for (i = 1; i <= n; i++) {
                if (i > 1) {
                    if (inside) { report(span, where); inside = 0 }
                    else { inside = 1; span = ""; where = FILENAME ":" FNR }
                }
                if (inside) span = span part[i]
            }
            if (inside) span = span " "
        }
        function report(s, at) {
            if (s ~ /^[A-Za-z_][A-Za-z0-9_]*(\.rs)?(::[A-Za-z_][A-Za-z0-9_]*)+(\(\))?$/ ||
                s ~ /^[A-Za-z_][A-Za-z0-9_]*\(\)$/ ||
                s ~ /^[A-Za-z][A-Za-z0-9]*(_[A-Za-z0-9]+)+$/ ||
                s ~ /^[A-Z][A-Za-z0-9]*[a-z0-9][A-Z][A-Za-z0-9]*$/)
                print at "\t" s
        }
    ' "$@"
}

bad=0
while IFS=$'\t' read -r at name; do
    case "$name" in std::* | core::*) continue ;; esac
    last="${name%()}"
    last="${last##*::}"
    if ! grep -qxF -- "$last" "$known"; then
        echo "$at: \`$name\` names nothing in the tree" >&2
        bad=1
    fi
done < <(spans "${docs[@]}")

while IFS=: read -r file line path; do
    if [ ! -f "$path" ]; then
        echo "$file:$line: $path does not exist" >&2
        bad=1
    fi
done < <(grep -rnoE 'docs/[A-Za-z_]+\.md' "${docs[@]}" crates shims tests scripts \
    --include='*.rs' --include='*.md' --include='*.sh' --include='*.toml' || true)

while IFS=: read -r file line link; do
    path="docs/${link#](}"
    if [ ! -f "$path" ]; then
        echo "$file:$line: link $path does not exist" >&2
        bad=1
    fi
done < <(grep -noE '\]\([A-Z_]+\.md' docs/*.md || true)

exit "$bad"
