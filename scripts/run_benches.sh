#!/usr/bin/env bash
# Runs every bench binary with --json: the one list of benches and of their
# per-bench arguments, used by scripts/run_all.sh and by CI.
#
#   scripts/run_benches.sh <build-dir> <json-dir>
#
# Each bench prints its report to stdout and writes <json-dir>/<bench>.json.
# The simulated benches self-check their bounds and exit non-zero on a
# violation; every bench still runs, and the script then exits 1 naming the
# benches that failed. Merge the JSON with scripts/merge_bench_json.py and
# gate it with scripts/diff_bench.py --exact.
set -uo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <build-dir> <json-dir>" >&2
  exit 2
fi
build=$1
out=$2
mkdir -p "$out"

benches="
  bench_ablation_ept_pages
  bench_ablation_long_ipc
  bench_ablation_security_tax
  bench_batch_depth
  bench_coldstart
  bench_ext_monolithic
  bench_fig2_kv_ipc_cost
  bench_fig7_ipc_breakdown
  bench_fig8_kv_skybridge
  bench_fig9_11_ycsb
  bench_gbench_micro
  bench_openloop
  bench_scaling_mesh
  bench_scaling_smp
  bench_table1_pollution
  bench_table2_primitives
  bench_table3_rewrites
  bench_table4_sqlite_ops
  bench_table5_virt_overhead
  bench_table6_vmfunc_scan
"

failed=""
for name in $benches; do
  b="$build/bench/$name"
  json="$out/$name.json"
  echo "===== $b ====="
  case "$name" in
    bench_gbench_micro)
      # Host-time microbenchmarks, kept short. google-benchmark >= 1.8 wants
      # the "0.01s" suffix form, older releases reject it.
      "$b" --benchmark_min_time=0.01s --json "$json" ||
        "$b" --benchmark_min_time=0.01 --json "$json"
      ;;
    bench_openloop | bench_scaling_mesh)
      # Both stamp their JSON with the generator seed and event count; pin
      # them so BENCH_results.json is reproducible (the mesh's 11 world
      # builds also stay under a minute).
      "$b" --seed 42 --events 4096 --json "$json"
      ;;
    *)
      "$b" --json "$json"
      ;;
  esac
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAILED: $name exited $status"
    failed="$failed $name"
  fi
done

if [ -n "$failed" ]; then
  echo "run_benches: failed:$failed" >&2
  exit 1
fi
echo "run_benches: every bench exited 0"
