#!/usr/bin/env bash
# One command: build the benchmark (release, offline, its own target dir,
# the repo's profile settings), then run every workload, each in its own
# process: the untraced pass for the end-to-end numbers, the traced pass
# for the per-layer ones. Prints every metric by name with its unit,
# checks outputs, writes benchmark/out/result.json.
#
#   benchmark/run.sh [--seed N] [--runs K] [--quick]
#   benchmark/run.sh --self-check     # interleaved untraced runs for two result files, compared
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$(nproc)" -lt 2 ]; then
    echo "benchmark/run.sh: needs at least 2 cores (nproc is $(nproc)): the serving" \
         "workloads keep two threads runnable" >&2
    exit 1
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/bench" all "$@"
