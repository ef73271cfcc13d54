#!/usr/bin/env bash
# The repo benchmark, one command:
#
#   benchmark/run.sh [--seed N] [--workload W] [--smoke]
#
# builds the benchmark package, then runs each workload in its own
# process, first end to end (telemetry off) and then traced, checks the
# outputs and prints every metric by name with its unit. Result files
# (host-stamped) land in benchmark/results/.
#
# With --trace the script is the BENCHMARK.json command instead: one run
# of `--workload W --seed N --seconds S --trace 0|1`, whose last line of
# output is the result object.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Built from the repo root so .cargo/config.toml (target-cpu=native)
# applies, exactly as for the workspace's own release build.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/qgear-benchmark"
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"

seed=1
workloads="serve_small serve_mixed dense_large sharded_ckpt"
smoke=()
for arg in "$@"; do
    if [ "$arg" = "--trace" ]; then
        exec "$bin" "$@" --commit "$commit"
    fi
done
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --workload) workloads="$2"; shift 2 ;;
        --smoke) smoke=(--smoke); shift ;;
        *) echo "usage: $0 [--seed N] [--workload W] [--smoke]" >&2; exit 2 ;;
    esac
done
for w in $workloads; do
    for trace in 0 1; do
        "$bin" --workload "$w" --seed "$seed" --trace "$trace" --commit "$commit" "${smoke[@]}"
    done
done
