#!/usr/bin/env python3
"""Diffs two merged BENCH_results.json files (see merge_bench_json.py).

Usage: diff_bench.py <baseline.json> <current.json> [--threshold PCT]
       diff_bench.py --exact <baseline.json> <current.json>

Default (trend report): prints every cycles/op-style metric whose relative
change exceeds the threshold (default 2%), plus metrics that appear or
disappear. Exit code is always 0: this is for humans reading the CI log.

--exact (gate): every `metrics` value and every run-header field (seed,
event count, offered loads, mesh shape: all top-level keys but `metrics`
and `registry`) of every bench must equal the baseline's — a changed, added
or missing key exits 1, and so does a baseline bench with no entry in the
current file. EXACT_SKIP is left out. A PR that changes a simulated number
on purpose regenerates the baseline.
"""

import argparse
import json
import sys

# Series worth trending: anything measured in cycles or ops. Schema keys,
# counts and booleans are skipped.
SUFFIXES = ("cycles_per_op", "cycles_per_get", "cycles_per_call", "cycles",
            "ops_per_sec", "speedup_16", "speedup_8c", "overhead",
            "slot_fault_rate", "cycles_per_spawn", "snapshot_speedup_100",
            "fork_hit_rate_100")

# Tail-latency series from the open-loop sweep: flagged separately when p99
# or p99.9 regresses by more than 10% (still non-gating — queueing tails are
# noisier than closed-loop means, so this is a "look here" marker).
TAIL_SUFFIXES = (".p99", ".p999")
TAIL_THRESHOLD = 10.0

# Benches the exact gate leaves out: bench_gbench_micro reports host time.
EXACT_SKIP = ("bench_gbench_micro",)


def series(merged, suffixes=SUFFIXES):
    out = {}
    for bench, obj in merged.items():
        for key, value in obj.get("metrics", {}).items():
            if isinstance(value, (int, float)) and key.endswith(suffixes):
                out[f"{bench}:{key}"] = float(value)
    return out


def exact(base_merged, cur_merged) -> int:
    problems = []
    checked = 0
    for bench in sorted(base_merged.keys() - cur_merged.keys()):
        if bench not in EXACT_SKIP:
            problems.append(f"  [missing] {bench}: no entry in the current file")
    for bench in sorted(cur_merged):
        if bench in EXACT_SKIP:
            continue
        checked += 1
        base_obj = base_merged.get(bench, {})
        cur_obj = cur_merged[bench]
        for key in sorted((base_obj.keys() | cur_obj.keys()) - {"metrics", "registry"}):
            if base_obj.get(key) != cur_obj.get(key):
                problems.append(f"  [header]  {bench}:{key}: {base_obj.get(key)!r} -> "
                                f"{cur_obj.get(key)!r}")
        base = base_obj.get("metrics", {})
        cur = cur_obj.get("metrics", {})
        for key in sorted(base.keys() | cur.keys()):
            if key not in base:
                problems.append(f"  [added]   {bench}:{key} = {cur[key]!r}")
            elif key not in cur:
                problems.append(f"  [missing] {bench}:{key} (was {base[key]!r})")
            elif base[key] != cur[key]:
                problems.append(f"  [changed] {bench}:{key}: {base[key]!r} -> {cur[key]!r}")
    if problems:
        print("\n".join(problems))
        print(f"diff_bench --exact: {len(problems)} differences from the baseline "
              f"across {checked} benches; regenerate and commit BENCH_results.json "
              f"if the change is intended")
        return 1
    print(f"diff_bench --exact: {checked} benches match the baseline exactly")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="report changes beyond this percentage")
    parser.add_argument("--exact", action="store_true",
                        help="exit 1 on any changed, added or missing metric")
    args = parser.parse_args()

    if args.exact:
        with open(args.baseline) as f:
            base_merged = json.load(f)
        with open(args.current) as f:
            return exact(base_merged, json.load(f))

    try:
        with open(args.baseline) as f:
            base_merged = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"diff_bench: no usable baseline ({e}); nothing to diff")
        return 0
    with open(args.current) as f:
        cur_merged = json.load(f)
    base = series(base_merged)
    cur = series(cur_merged)

    # Tail-latency regressions first: a grown p99/p99.9 is the open-loop
    # sweep's whole reason to exist.
    base_tail = series(base_merged, TAIL_SUFFIXES)
    cur_tail = series(cur_merged, TAIL_SUFFIXES)
    regressed = []
    for key in sorted(base_tail.keys() & cur_tail.keys()):
        b, c = base_tail[key], cur_tail[key]
        if b == 0:
            continue
        pct = 100.0 * (c - b) / b
        if pct >= TAIL_THRESHOLD:
            regressed.append((pct, key, b, c))
    if regressed:
        print(f"P99 REGRESSION ({len(regressed)} tail series grew >= "
              f"{TAIL_THRESHOLD:g}%; non-gating):")
        for pct, key, b, c in sorted(regressed, key=lambda m: -m[0]):
            print(f"  {pct:+7.1f}%  {key}: {b:g} -> {c:g}")

    moved = []
    for key in sorted(base.keys() & cur.keys()):
        b, c = base[key], cur[key]
        if b == 0:
            continue
        pct = 100.0 * (c - b) / b
        if abs(pct) >= args.threshold:
            moved.append((pct, key, b, c))

    added = sorted(cur.keys() - base.keys())
    removed = sorted(base.keys() - cur.keys())

    if not moved and not added and not removed:
        print(f"diff_bench: {len(cur)} series, all within "
              f"{args.threshold:g}% of baseline")
        return 0

    for pct, key, b, c in sorted(moved, key=lambda m: -abs(m[0])):
        print(f"  {pct:+7.1f}%  {key}: {b:g} -> {c:g}")
    for key in added:
        print(f"  [new]     {key}: {cur[key]:g}")
    for key in removed:
        print(f"  [gone]    {key}: was {base[key]:g}")
    print(f"diff_bench: {len(moved)} moved, {len(added)} new, "
          f"{len(removed)} gone (of {len(cur)} series; threshold "
          f"{args.threshold:g}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
