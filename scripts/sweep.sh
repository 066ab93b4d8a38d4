#!/usr/bin/env bash
# The full kill-point sweeps: the in-process cluster killed after every ack
# count of every task, and the simulated topology's joiners crashed after
# every tuple count, crossed with self-join / bi-stream, dispatch_batch
# None / 8 / 32 and checkpointing off / on, each run compared with the O(n^2)
# oracle (crates/testkit/tests/sweep.rs). Tier-1 runs every 7th point;
# this runs them all.
#   scripts/sweep.sh [cargo test args...]
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo test --release --locked -p testkit --test sweep "$@" -- --ignored --nocapture
