#!/usr/bin/env bash
# Fails when a document names code that no longer exists.
#
# Takes every backticked snake_case identifier in the documents — a span
# that is one name, optionally path-qualified (`a::b::some_fn`) or called
# (`some_fn()`); the last segment is checked — and fails when it occurs as
# a whole word in no .rs, .sh, .yml or .toml file of the source trees
# below (this script excluded). Names without an underscore are not
# checked: too many are plain words.
#   scripts/doc_names.sh [doc...]   (default: DESIGN.md README.md and the
#                                    verify skill)
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -gt 0 ]; then
    docs=("$@")
else
    docs=(DESIGN.md README.md .claude/skills/verify/SKILL.md)
fi
trees=(crates src tests examples perf scripts vendor .github)

names=$(grep -oh '`[^`]*`' "${docs[@]}" | tr -d '`' |
    grep -E '^([A-Za-z_][A-Za-z0-9_]*::)*[a-z][a-z0-9]*(_[a-z0-9]+)+(\(\))?$' |
    sed -E 's/\(\)$//; s/.*:://' | sort -u || true)
words=$(find "${trees[@]}" -type f \( -name '*.rs' -o -name '*.sh' -o -name '*.yml' -o -name '*.toml' \) \
    ! -path scripts/doc_names.sh -print0 | xargs -0 grep -ohE '[A-Za-z0-9_]+' | sort -u)

missing=$(comm -23 <(printf '%s\n' "$names") <(printf '%s\n' "$words") | sed '/^$/d')
if [ -n "$missing" ]; then
    echo "named in ${docs[*]} but found in no source file:" >&2
    printf '  %s\n' $missing >&2
    exit 1
fi
echo "every backticked snake_case name in ${docs[*]} exists"
