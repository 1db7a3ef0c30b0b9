#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload ycsb_a|kv_open|mesh --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --seed N --check-determinism

Run from the repository root. The benchmark is compiled from source into
$CARGO_TARGET_DIR (default .bench_build). The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"} with the
end-to-end metrics of BENCHMARK.json, or with --trace 1 its per-layer
metrics. Exit status: 0 ok, 1 correctness or determinism failure, 2 build or
usage error, 3 output that does not match BENCHMARK.json.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("ycsb_a", "kv_open", "mesh")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"simulator sources not found under {ROOT / 'src'}")
        return None
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step {step[:2]} failed: {err}")
            return None
        if done.returncode != 0:
            log(f"build step {' '.join(step[:3])} exited {done.returncode}")
            return None
    return out / "perfbench"


def run_binary(binary, args, timeout):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {timeout:.0f} s and was stopped")
        return None, []
    return done.returncode, done.stdout.splitlines()


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Returns a list of mismatches between the result and BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    expected = expected_metrics(trace)
    if expected is None:
        return problems
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    for name in sorted(set(expected) - set(got)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(got) - set(expected)):
        problems.append(f"metric {name} is not in BENCHMARK.json")
    for name in sorted(set(got) & set(expected)):
        if got[name] != expected[name]:
            problems.append(f"metric {name} unit {got[name]} != {expected[name]}")
    return problems


def digest_of(lines):
    for line in lines:
        if line.startswith("sim_digest: "):
            return line.split(": ", 1)[1]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-determinism", action="store_true",
                        help="run twice at the seed and compare every simulated metric")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    if args.check_determinism:
        digests = []
        for _ in range(2):
            code, lines = run_binary(binary, common + ["--seconds", "1", "--trace", "0"],
                                     RUN_TIMEOUT_S)
            if code != 0:
                log(f"determinism run exited {code}")
                return 1
            digests.append(digest_of(lines))
        same = digests[0] is not None and digests[0] == digests[1]
        print(f"determinism {args.workload} seed {args.seed}: "
              f"{'identical' if same else 'DIFFERENT'} sim_digest {digests}")
        return 0 if same else 1

    run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = build_dir() / f"spans-{args.workload}-seed{args.seed}.tsv"
        run_args += ["--spans", str(spans)]
    code, lines = run_binary(binary, run_args, RUN_TIMEOUT_S)
    if code is None:
        return 1
    if code not in (0, 1) or not lines:
        log(f"benchmark exited {code} without a result")
        return 2
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line of the benchmark is not JSON")
        return 2
    problems = check_result(result, args.trace)
    if problems:
        for problem in problems:
            log(problem)
        return 3
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
