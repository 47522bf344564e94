#!/usr/bin/env bash
# Every workload, timed and then traced, at one seed:
#   bash perfbench/run_all.sh [seed] [seconds]
set -euo pipefail
seed=${1:-1}
seconds=${2:-45}
for workload in synth_desk bench_kde; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace"
    done
done
