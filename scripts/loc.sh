#!/usr/bin/env bash
# Non-test lines per crate: the lines of crates/<c>/src/**/*.rs above each
# file's first `#[cfg(test)]` in column 0 (its test module; an indented
# one gates a single item and ends nothing). The one definition ROADMAP,
# ISSUE and CHANGES figures use.
#   scripts/loc.sh [checkout]     (default: the checkout this script is in)
set -euo pipefail
root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
cd "$root"

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    lines=$(find "$dir/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n + 0 }')
    printf '%-10s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' workspace "$total"
