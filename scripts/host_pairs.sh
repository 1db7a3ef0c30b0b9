#!/usr/bin/env bash
# Host-cost comparison for a change that must not move a simulated number.
# Builds perfbench (perfbench/run.py) from the committed files of <base-ref>
# and of HEAD, each into its own CARGO_TARGET_DIR (perfbench_sides.sh), then
# runs <pairs> alternating pairs (default 10) of --seconds 10 runs per
# workload at <seed> (default 1); odd pairs run the base first, even pairs
# HEAD first, so drift of the machine falls on both sides. For
# host_ops_per_s, setup_s and peak_rss_mb it prints each side's median and
# quartiles, the median change and the number of pairs HEAD wins. A claimed
# gain needs at least 9 wins in 10 pairs and a median change larger than the
# base's interquartile range. Host numbers are too noisy for CI; run this by
# hand on an otherwise idle machine.
#
#   scripts/host_pairs.sh <base-ref> [pairs] [seed] [workload...]
#
# Exit status: 0 ran cleanly, 1 a run failed, printed no sim_digest or has a
# sim_digest that differs between the sides, 2 usage.
set -euo pipefail

if [ "$#" -lt 1 ]; then
  echo "usage: $0 <base-ref> [pairs] [seed] [workload...]" >&2
  exit 2
fi
base_ref=$1
pairs=${2:-10}
seed=${3:-1}
shift $(($# < 3 ? $# : 3))
workloads=${*:-ycsb_a kv_open mesh}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

. "$(dirname "${BASH_SOURCE[0]}")/perfbench_sides.sh"
checkout_side base "$base_ref"
checkout_side head HEAD

# run <side> <workload> <pair>: one run; its result line goes to results.tsv.
run() {
  local side=$1 w=$2 pair=$3 result
  run_side "$side" "$w" "$seed" 10
  result=$(printf '%s\n' "$out" | tail -n 1)
  printf '%s\t%s\t%s\t%s\t%s\n' "$w" "$pair" "$side" "$digest" "$result" >> "$work/results.tsv"
  echo "$w pair $pair $side: sim_digest $digest $result"
}

for pair in $(seq 1 "$pairs"); do
  for w in $workloads; do
    if [ $((pair % 2)) -eq 1 ]; then
      run base "$w" "$pair"
      run head "$w" "$pair"
    else
      run head "$w" "$pair"
      run base "$w" "$pair"
    fi
  done
done

python3 - "$work/results.tsv" "$base_ref" "$seed" <<'EOF'
import json
import statistics
import sys

path, base_ref, seed = sys.argv[1:]
METRICS = (("host_ops_per_s", "higher"), ("setup_s", "lower"), ("peak_rss_mb", "lower"))
runs = {}
for line in open(path):
    workload, pair, side, digest, result = line.rstrip("\n").split("\t", 4)
    runs.setdefault(workload, {}).setdefault(int(pair), {})[side] = (
        digest, json.loads(result)["metrics"])


def value(metric):
    return metric["value"] if isinstance(metric, dict) else metric


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


status = 0
print(f"seed {seed}: base {base_ref} vs HEAD")
for workload, by_pair in runs.items():
    pairs = sorted(by_pair)
    for pair in pairs:
        if by_pair[pair]["base"][0] != by_pair[pair]["head"][0]:
            print(f"FAILED: sim_digest of {workload} differs in pair {pair}")
            status = 1
    for name, better in METRICS:
        base = [value(by_pair[p]["base"][1][name]) for p in pairs]
        head = [value(by_pair[p]["head"][1][name]) for p in pairs]
        wins = sum((h > b) if better == "higher" else (h < b) for b, h in zip(base, head))
        b1, b2, b3 = quartiles(base)
        h1, h2, h3 = quartiles(head)
        change = (h2 - b2) / b2 * 100 if b2 else 0.0
        print(f"{workload:8} {name:15} base {b2:10.4g} [{b1:.4g}, {b3:.4g}]  "
              f"head {h2:10.4g} [{h1:.4g}, {h3:.4g}]  median {change:+6.1f}%  "
              f"gap {abs(h2 - b2):.4g} vs base IQR {b3 - b1:.4g}  "
              f"HEAD better in {wins}/{len(pairs)}")
sys.exit(status)
EOF
