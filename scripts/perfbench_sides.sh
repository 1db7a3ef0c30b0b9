# Sourced by sim_digest_diff.sh and host_pairs.sh: checks out the committed
# files of a ref and runs perfbench (perfbench/run.py) in that checkout. Set
# `repo` (the repository root) and `work` (an empty scratch directory) before
# sourcing; side <side> lives in $work/<side>/tree and builds into
# $work/<side>/build on its first run.

# checkout_side <side> <ref>: extracts the committed files of <ref>; exits 2
# when <ref> has no perfbench/run.py.
checkout_side() {
  local side=$1 ref=$2
  mkdir -p "$work/$side/tree"
  git -C "$repo" archive "$ref" | tar -x -C "$work/$side/tree"
  if [ ! -f "$work/$side/tree/perfbench/run.py" ]; then
    echo "$ref has no perfbench/run.py" >&2
    exit 2
  fi
}

# run_side <side> <workload> <seed> <seconds>: one run. Sets `out` to its
# standard output and `digest` to its sim_digest line; exits 1 when the run
# fails or prints no sim_digest.
run_side() {
  local side=$1 w=$2 seed=$3 seconds=$4
  if ! out=$(cd "$work/$side/tree" &&
             CARGO_TARGET_DIR="$work/$side/build" \
             python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds "$seconds"); then
    echo "FAILED: $w seed $seed on the $side side did not run cleanly" >&2
    exit 1
  fi
  digest=$(printf '%s\n' "$out" | sed -n 's/^sim_digest: //p' | head -n 1)
  if [ -z "$digest" ]; then
    echo "FAILED: $w seed $seed on the $side side printed no sim_digest" >&2
    exit 1
  fi
}
