#!/usr/bin/env bash
# Same-host A/B performance gate: the working tree against the merge-base
# of HEAD and BASE_REF (default origin/main; when HEAD is already on
# BASE_REF, its parent commit).
#
# Both sides run the `cell` workload of perfbench (mcf under LIN(4), one
# thread) in alternating pairs, and which side runs first swaps every
# pair, so drift in the host's load falls on both alike. The gate fails
#   - if any run exits non-zero (a build failure or a failed output check),
#   - if the change's median `wall_s` exceeds the base's by more than the
#     `wall_s` bound in BENCHMARK.json.
#
# The base is checked out in a temporary `git worktree` and built into its
# own CARGO_TARGET_DIR; the change builds into $CARGO_TARGET_DIR (default
# target/).
#
# Run from the repository root: scripts/perf_ab.sh [BASE_REF]

set -euo pipefail

PAIRS=5
SECONDS_PER_RUN=10
SEED=42
BASE_REF=${1:-origin/main}

WORK=$(mktemp -d)
BASE_DIR="$WORK/base"

cleanup() {
    git worktree remove --force "$BASE_DIR" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

base=$(git merge-base HEAD "$BASE_REF")
if [ "$base" = "$(git rev-parse HEAD)" ]; then
    base=$(git rev-parse HEAD^)
fi
git worktree add --quiet --detach "$BASE_DIR" "$base"
if [ ! -f "$BASE_DIR/perfbench/run.py" ]; then
    echo "perf_ab: base $base has no perfbench/; nothing to compare against" >&2
    exit 2
fi

bound=$(python3 -c 'import json, sys
spec = json.load(open("BENCHMARK.json"))
print(next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s"))')

CHANGE_TARGET=$(realpath -m "${CARGO_TARGET_DIR:-target}")
BASE_TARGET="$WORK/target"

# One perfbench run; appends its wall_s to $WORK/<side>.walls.
run_side() { # args: side (base|change)
    local side=$1 dir=. target=$CHANGE_TARGET
    if [ "$side" = base ]; then
        dir=$BASE_DIR
        target=$BASE_TARGET
    fi
    local out="$WORK/$side.out"
    if ! (cd "$dir" && CARGO_TARGET_DIR=$target python3 perfbench/run.py \
        --workload cell --seed "$SEED" --seconds "$SECONDS_PER_RUN") >"$out"; then
        echo "perf_ab: $side run failed" >&2
        tail -n 20 "$out" >&2
        exit 1
    fi
    local wall
    wall=$(tail -n 1 "$out" | python3 -c 'import json, sys
print(json.load(sys.stdin)["metrics"]["wall_s"]["value"])')
    echo "$wall" >>"$WORK/$side.walls"
    echo "  $side wall_s $wall"
}

echo "perf_ab: base $base vs working tree, $PAIRS pairs of cell --seconds $SECONDS_PER_RUN"
for i in $(seq 1 "$PAIRS"); do
    echo "pair $i"
    if [ $((i % 2)) -eq 1 ]; then
        run_side base
        run_side change
    else
        run_side change
        run_side base
    fi
done

python3 - "$WORK/base.walls" "$WORK/change.walls" "$bound" <<'EOF'
import statistics, sys

base = statistics.median(float(x) for x in open(sys.argv[1]))
change = statistics.median(float(x) for x in open(sys.argv[2]))
bound = float(sys.argv[3])
ratio = change / base
print(f"median wall_s: base {base:.4f} s, change {change:.4f} s, "
      f"change/base {ratio:.3f} (allowed <= {1 + bound:.3f})")
if ratio > 1 + bound:
    sys.exit(f"perf_ab: FAIL: the change is slower than the base by more than {bound:.0%}")
print("perf_ab: PASS")
EOF
