#!/usr/bin/env bash
# Gate: the simulation did not change. Builds perfbench (perfbench/run.py)
# from the committed files of <base-ref> and of HEAD, each into its own
# CARGO_TARGET_DIR (perfbench_sides.sh), runs every workload once at seed 1
# and once at the held-out seed 90210, and fails when any workload's
# sim_digest line differs at either seed or a run prints none. A digest
# covers every simulated metric (cycles, ops per simulated second, counters),
# so a host-side optimisation must leave all of them byte-identical.
#
#   scripts/sim_digest_diff.sh <base-ref>
#
# Both checkouts and build trees go to a temporary directory that is removed
# on exit. Exit status: 0 identical, 1 a digest differs or a run failed,
# 2 usage.
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi
base_ref=$1
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
seeds="1 90210"
workloads="ycsb_a kv_open mesh"

. "$(dirname "${BASH_SOURCE[0]}")/perfbench_sides.sh"
checkout_side base "$base_ref"
checkout_side head HEAD

for side in base head; do
  for seed in $seeds; do
    for w in $workloads; do
      run_side "$side" "$w" "$seed" 1
      echo "$digest" > "$work/$side/$w.$seed.digest"
      echo "$w seed $seed $side: $digest"
    done
  done
done

status=0
for seed in $seeds; do
  for w in $workloads; do
    if ! cmp -s "$work/base/$w.$seed.digest" "$work/head/$w.$seed.digest"; then
      echo "FAILED: sim_digest of $w at seed $seed differs from $base_ref"
      status=1
    fi
  done
done
if [ "$status" -eq 0 ]; then
  echo "sim_digest identical to $base_ref on: $workloads at seeds: $seeds"
fi
exit $status
