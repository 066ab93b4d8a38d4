#!/usr/bin/env bash
# Shows that the benchmark agrees with itself: runs the whole untraced
# benchmark twice on this commit and fails if any end-to-end metric of any
# workload differs between the two sets by more than its declared bound,
# or if any pair operation failed. Then runs one workload on a second seed,
# so the harness is seen not to be tuned to the default one.
#   perf/check.sh [--seconds N]
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

out=perf/out/check
rm -rf "$out"
for set in first second; do
    echo "== $set set ==" >&2
    perf/run.sh --out "$out/$set" "$@"
done
echo "== second seed ==" >&2
perf/run.sh --out "$out/seed2" --workload tweet-threads --seed 20240229 "$@"

exec perf/run.sh --compare "$out/first" "$out/second" --also "$out/seed2"
