#!/usr/bin/env bash
# Repeatability check: run every workload untraced once per seed
# (1..N, default 10), twice over, then judge the two sets of runs with
# `compare --repeat` — each end-to-end metric's spread, and the shift of
# its median between the sets, must stay within its BENCHMARK.json bound.
#
#   bash benchmark/repeat.sh [N]
set -euo pipefail
cd "$(dirname "$0")/.."
n=${1:-10}
out=benchmark/out
mkdir -p "$out"
rm -f "$out/repeat-a.jsonl" "$out/repeat-b.jsonl"
for set in a b; do
  for seed in $(seq 1 "$n"); do
    for w in sweep-16 bound-512 whatif-mix serve-mix; do
      bash benchmark/run.sh --workload "$w" --seed "$seed" --trace 0 \
        --ledger "$out/repeat-$set.jsonl" > /dev/null
    done
  done
done
./_build/default/benchmark/main.exe compare --repeat "$out/repeat-a.jsonl" "$out/repeat-b.jsonl"
