#!/usr/bin/env bash
# Builds everything, runs the full test suite and regenerates every paper
# table/figure into test_output.txt and bench_output.txt at the repo root.
# scripts/run_benches.sh runs the benches; each also writes a
# machine-readable snapshot (via its `--json` flag) into bench_json/, and
# the per-bench files are merged into BENCH_results.json at the repo root.
# A bench that fails its self-check fails the script before the merge.
set -eo pipefail
cd "$(dirname "$0")/.."
# Reuse an existing build tree's generator; prefer Ninja on fresh configures.
if [ -f build/CMakeCache.txt ]; then
  cmake -B build
elif command -v ninja >/dev/null 2>&1; then
  cmake -B build -G Ninja
else
  cmake -B build
fi
cmake --build build -j "$(nproc 2>/dev/null || echo 4)"
ctest --test-dir build 2>&1 | tee test_output.txt

rm -rf bench_json
scripts/run_benches.sh build bench_json 2>&1 | tee bench_output.txt

python3 scripts/merge_bench_json.py bench_json BENCH_results.json
echo "wrote BENCH_results.json"
