#!/usr/bin/env bash
# Fails when a `cargo test` command of the CI workflow selects no test.
#
# A CI step that names a test (or a filter) keeps passing after the test
# is renamed or deleted: cargo runs zero tests and exits 0. This script
# takes every `cargo test` command in the workflow, joins its
# `\`-continued lines, reruns it with `--list` (after the command's own
# `--`, if it has one) and fails when the listing names no test. Env
# assignments and `timeout N` wrappers before `cargo test` are dropped, and
# so is a `+toolchain` (`cargo +nightly test` lists on the default one).
#   scripts/ci_filters.sh [workflow]   (default: .github/workflows/ci.yml)
set -euo pipefail
cd "$(dirname "$0")/.."
workflow=${1:-.github/workflows/ci.yml}

# One command per line: continuations joined, everything before `cargo
# test` (the `run:` key, env assignments, `timeout N`) and a `+toolchain`
# dropped, duplicates (seed loops) listed once. Comments and step names
# never match.
commands=$(awk '
    { line = pending $0; pending = "" }
    line ~ /\\[[:space:]]*$/ { sub(/\\[[:space:]]*$/, " ", line); pending = line; next }
    { sub(/^[[:space:]]+/, "", line); sub(/^run:[[:space:]]*/, "", line) }
    line ~ /^([A-Za-z_][A-Za-z0-9_]*=[^[:space:]]*[[:space:]]+)*(timeout[[:space:]]+[0-9]+[[:space:]]+)?cargo (\+[^[:space:]]+ )?test/ {
        sub(/^.*cargo (\+[^[:space:]]+ )?test/, "cargo test", line)
        gsub(/[[:space:]]+/, " ", line)
        sub(/ $/, "", line)
        if (!seen[line]++) print line
    }
' "$workflow")

[ -n "$commands" ] || { echo "no cargo test command found in $workflow" >&2; exit 1; }

err=$(mktemp)
trap 'rm -f "$err"' EXIT
failed=0
while IFS= read -r cmd; do
    read -ra words <<<"$cmd"
    case " $cmd " in
        *" -- "*) words+=(--list) ;;
        *) words+=(-- --list) ;;
    esac
    if ! listing=$("${words[@]}" 2>"$err"); then
        echo "FAIL (does not build or list): $cmd" >&2
        tail -n 20 "$err" >&2
        failed=1
        continue
    fi
    n=$(grep -c ': test$' <<<"$listing" || true)
    if [ "$n" -eq 0 ]; then
        echo "FAIL (selects no test): $cmd" >&2
        failed=1
    else
        printf '%5d  %s\n' "$n" "$cmd"
    fi
done <<<"$commands"
exit "$failed"
