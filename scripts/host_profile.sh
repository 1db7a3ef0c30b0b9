#!/usr/bin/env bash
# Sampling profile of one perfbench workload: where the simulator spends host
# CPU time. Builds perfbench from the working tree (uncommitted edits too)
# into build-profile/ with CMAKE_CXX_FLAGS="-g -fno-omit-frame-pointer", runs
# it once with scripts/sigprof_sampler.c preloaded, symbolizes the sampled
# stacks with addr2line and prints the top functions by self and by
# inclusive samples. With a function name as the fourth argument it also
# prints the top caller chains (innermost three frames) of the samples whose
# innermost frame contains that name. Samples taken inside ProbeNs (perfbench's host-speed
# calibration probe) are left out. Inlined functions count as themselves, so
# self time lands on the innermost inlined function. Unlike gprof's mcount,
# sampling adds no cost per call, so small hot functions are not inflated.
#
#   scripts/host_profile.sh <workload> [seed] [seconds] [function]
#
# workload is ycsb_a, kv_open or mesh; seed defaults to 1 and seconds to 15.
# The sampler asks for a sample per millisecond of CPU time; a kernel tick of
# 250 Hz gives about 4,000 samples in 15 seconds. Run it on an idle machine.
# Exit status: 0 ran cleanly, 1 the build or the run failed, 2 usage.
set -euo pipefail

if [ "$#" -lt 1 ] || [ "$#" -gt 4 ]; then
  echo "usage: $0 <workload> [seed] [seconds] [function]" >&2
  exit 2
fi
workload=$1
seed=${2:-1}
seconds=${3:-15}
function=${4:-}
repo=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
build="$repo/build-profile"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$repo/perfbench" -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-g -fno-omit-frame-pointer" > /dev/null || exit 1
fi
cmake --build "$build" --target perfbench -j 4 > /dev/null || exit 1
cc -O2 -shared -fPIC -o "$work/sigprof_sampler.so" "$repo/scripts/sigprof_sampler.c" || exit 1

if ! (cd "$work" && LD_PRELOAD="$work/sigprof_sampler.so" "$build/perfbench" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 > run.out); then
  echo "FAILED: $workload seed $seed did not run cleanly" >&2
  exit 1
fi

python3 - "$work/sigprof.out" "$build/perfbench" "$workload" "$seed" "$function" <<'EOF'
import collections
import os
import subprocess
import sys

path, exe, workload, seed, function = sys.argv[1:]
stacks, maps, in_maps = [], [], False
for line in open(path):
    if line == "maps\n":
        in_maps = True
    elif in_maps:
        parts = line.split()
        if len(parts) >= 6:
            start, end = (int(x, 16) for x in parts[0].split("-"))
            maps.append((start, end, int(parts[2], 16), parts[5]))
    else:
        stacks.append([int(x, 16) for x in line.split()])

exe = os.path.realpath(exe)
with open(exe, "rb") as f:
    pie = f.read(18)[16] == 3  # ET_DYN: addresses are relative to the load base.
load_base = min((s - off for s, _, off, p in maps if p == exe), default=0) if pie else 0

def module(addr):
    for start, end, _, p in maps:
        if start <= addr < end:
            return p
    return "?"

# Callers' frames are return addresses: look up the call instruction before.
lookups = set()
for stack in stacks:
    for depth, addr in enumerate(stack):
        if module(addr) == exe:
            lookups.add(addr - load_base - (depth > 0))
ordered = sorted(lookups)
names = {}
if ordered:
    out = subprocess.run(["addr2line", "-f", "-C", "-i", "-a", "-e", exe],
                         input="\n".join(hex(a) for a in ordered), capture_output=True,
                         text=True, check=True).stdout.splitlines()
    # Per address: its line, then a function line and a location line for
    # the innermost inlined function and for each caller it is inlined into.
    key, pos = None, 0
    for line in out:
        if line.startswith("0x"):
            key, pos = int(line, 16), 0
            names[key] = []
        else:
            if pos % 2 == 0:
                names[key].append(line)
            pos += 1

def frames(stack):
    """Function names of one sample, innermost (inlined) first."""
    result = []
    for depth, addr in enumerate(stack):
        mod = module(addr)
        if mod != exe:
            result.append(f"[{os.path.basename(mod)}]")
        else:
            result.extend(names.get(addr - load_base - (depth > 0)) or ["??"])
    return result

self_counts, incl_counts = collections.Counter(), collections.Counter()
chains = collections.Counter()
kept = probe = 0
for stack in stacks:
    fs = frames(stack)
    if any("ProbeNs" in f for f in fs):
        probe += 1
        continue
    kept += 1
    self_counts[fs[0]] += 1
    incl_counts.update(set(fs))
    if function and function in fs[0]:
        chains[" <- ".join(fs[:3])] += 1

print(f"{workload} seed {seed}: {len(stacks)} samples, {probe} inside ProbeNs left out, "
      f"{kept} kept")
for title, counts in (("self", self_counts), ("inclusive", incl_counts)):
    print(f"\ntop {title}:")
    for name, n in counts.most_common(25):
        name = name if len(name) <= 110 else name[:107] + "..."
        print(f"  {100.0 * n / max(kept, 1):5.1f}%  {n:6d}  {name}")
if function:
    total = sum(chains.values())
    print(f"\ncallers of {function} ({total} samples, innermost first):")
    for chain, n in chains.most_common(10):
        print(f"  {100.0 * n / max(total, 1):5.1f}%  {n:6d}  {chain}")
EOF
