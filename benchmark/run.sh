#!/usr/bin/env bash
# Build the benchmark and the powerlim daemon from source, then run
# benchmark/main.exe with the given arguments from the checkout root.
#
#   bash benchmark/run.sh --workload sweep-16 --seed 42 --seconds 20 --trace 0
#
# Every POWERLIM_* variable is cleared so the defaults are what gets
# measured, except POWERLIM_JOBS = nproc (at most 4).  The dune cache
# is off so the build reads and writes only inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/main.exe ./bin/powerlim.exe >&2

for v in $(compgen -e); do
  case "$v" in POWERLIM_*) unset "$v" ;; esac
done
jobs=$(nproc)
export POWERLIM_JOBS=$(( jobs > 4 ? 4 : jobs ))

exec ./_build/default/benchmark/main.exe "$@"
