#!/usr/bin/env bash
# Gate: the simulation did not change. Builds perfbench (perfbench/run.py)
# from the committed files of <base-ref> and of HEAD, each into its own
# CARGO_TARGET_DIR, runs every workload once at seed 1 and once at the
# held-out seed 90210, and fails when any workload's sim_digest line differs
# at either seed. A digest covers every simulated metric (cycles, ops per
# simulated second, counters), so a host-side optimisation must leave all of
# them byte-identical.
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

for side in base head; do
  ref=$base_ref
  if [ "$side" = head ]; then
    ref=HEAD
  fi
  mkdir -p "$work/$side/tree"
  git -C "$repo" archive "$ref" | tar -x -C "$work/$side/tree"
  if [ ! -f "$work/$side/tree/perfbench/run.py" ]; then
    echo "$ref has no perfbench/run.py" >&2
    exit 2
  fi
  for seed in $seeds; do
    for w in $workloads; do
      if ! out=$(cd "$work/$side/tree" &&
                 CARGO_TARGET_DIR="$work/$side/build" \
                 python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds 1); then
        echo "FAILED: $w seed $seed at $ref did not run cleanly" >&2
        exit 1
      fi
      digest=$(printf '%s\n' "$out" | sed -n 's/^sim_digest: //p' | head -n 1)
      if [ -z "$digest" ]; then
        echo "FAILED: $w seed $seed at $ref printed no sim_digest" >&2
        exit 1
      fi
      echo "$digest" > "$work/$side/$w.$seed.digest"
      echo "$w seed $seed $side ($ref): $digest"
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
