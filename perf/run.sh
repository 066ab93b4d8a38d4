#!/usr/bin/env bash
# Builds the benchmark and the shipped ssj-node, then runs the benchmark.
#   perf/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
#   perf/run.sh --list      every workload and metric, from BENCHMARK.json
#   perf/run.sh --test      the benchmark's own unit tests
# Without --workload every workload runs, each in its own process.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

# One target directory for both builds, inside the checkout. A relative
# CARGO_TARGET_DIR is taken relative to this directory.
target=${CARGO_TARGET_DIR:-perf/target}
case $target in /*) ;; *) target=$root/$target ;; esac
export CARGO_TARGET_DIR=$target

# Compilation happens here, before any clock of the benchmark starts.
cargo build --release --offline --quiet --manifest-path Cargo.toml -p ssj-cli --bin ssj-node >&2
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml >&2

export PERF_RUSTC=$(rustc --version)
export PERF_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)

if [ "${1:-}" = "--test" ]; then
    PERF_NODE_BIN=$target/release/ssj-node \
        exec cargo test --release --offline --manifest-path perf/Cargo.toml
fi
exec "$target/release/perf" --node-bin "$target/release/ssj-node" "$@"
