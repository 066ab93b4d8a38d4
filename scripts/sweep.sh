#!/usr/bin/env bash
# The full crash-point sweep: one crash Fault after every message of every
# task, run on the in-process cluster and the simulated topology, crossed
# with self-join / bi-stream, dispatch_batch None / 8 / 32 and checkpointing
# off / on; each run is compared with the O(n^2) oracle, and the cluster
# must respawn exactly when the topology restarts
# (crates/testkit/tests/sweep.rs). Tier-1 runs every 7th point; this runs
# them all.
#   scripts/sweep.sh [cargo test args...]
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo test --release --locked -p testkit --test sweep "$@" -- --ignored --nocapture
