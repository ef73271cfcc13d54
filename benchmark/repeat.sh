#!/usr/bin/env bash
# benchmark/repeat.sh N [--seed S] [--baseline]
#
# Runs N full sets of the benchmark on this commit, alternating the
# order of the workloads from set to set, keeps every result file under
# benchmark/results/runs/, and prints per metric the median, quartiles
# and spread against its bound, the two interleaved half-sets compared,
# and whether the exact counts repeated. --baseline also rewrites
# benchmark/results/baseline.json from these runs.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
n="${1:?usage: benchmark/repeat.sh N [--seed S] [--baseline]}"
shift
seed=1
baseline=()
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --baseline) baseline=(--baseline benchmark/results/baseline.json); shift ;;
        *) echo "unknown argument $1" >&2; exit 2 ;;
    esac
done
order=(serve_small serve_mixed dense_large sharded_ckpt)
runs=benchmark/results/runs
rm -rf "$runs"
mkdir -p "$runs"
for i in $(seq 1 "$n"); do
    if [ $((i % 2)) -eq 0 ]; then
        set_order=(sharded_ckpt dense_large serve_mixed serve_small)
    else
        set_order=("${order[@]}")
    fi
    for w in "${set_order[@]}"; do
        benchmark/run.sh --seed "$seed" --workload "$w" >/dev/null
        for kind in e2e trace; do
            cp "benchmark/results/$kind-$w.json" "$(printf '%s/%03d-%s-%s.json' "$runs" "$i" "$kind" "$w")"
        done
    done
    echo "set $i of $n done" >&2
done
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/qgear-benchmark"
"$bin" summarize "${baseline[@]}" "$runs"/*.json
