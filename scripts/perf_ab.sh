#!/usr/bin/env bash
# Same-host A/B performance gate: the working tree against the merge-base
# of HEAD and BASE_REF (default origin/main; when HEAD is already on
# BASE_REF, its parent commit).
#
# Both sides run two perfbench workloads in alternating pairs: `cell`
# (mcf under LIN(4), one thread: the engine) and `serve` (mlpsim-serve on
# localhost under closed-loop clients: the service). Which side runs first
# swaps every pair, so drift in the host's load falls on both alike. The
# gate fails
#   - if any run exits non-zero (a build failure or a failed output check),
#   - if a `cell` run does not report that its digests match the ones
#     recorded in perfbench/reference.json for SEED (so SEED must be a
#     recorded one),
#   - if a `serve` run's result line does not report `"failed": 0` (serve
#     has no recorded digests; the run itself checks every result and
#     estimate body it receives),
#   - if, on either workload, the change's median `wall_s` exceeds the
#     base's by more than the `wall_s` bound in BENCHMARK.json.
#
# The base is checked out in a temporary `git worktree` and built into its
# own CARGO_TARGET_DIR; the change builds into $CARGO_TARGET_DIR (default
# target/).
#
# Run from the repository root: scripts/perf_ab.sh [BASE_REF]

set -euo pipefail

PAIRS=5
SECONDS_PER_RUN=10
# A seed with recorded `cell` digests in perfbench/reference.json.
SEED=9001
WORKLOADS="cell serve"
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

# One perfbench run; appends its wall_s to $WORK/<side>.<workload>.walls.
run_side() { # args: side (base|change), workload (cell|serve)
    local side=$1 workload=$2 dir=. target=$CHANGE_TARGET
    if [ "$side" = base ]; then
        dir=$BASE_DIR
        target=$BASE_TARGET
    fi
    local out="$WORK/$side.$workload.out"
    if ! (cd "$dir" && CARGO_TARGET_DIR=$target python3 perfbench/run.py \
        --workload "$workload" --seed "$SEED" --seconds "$SECONDS_PER_RUN") >"$out"; then
        echo "perf_ab: $side $workload run failed" >&2
        tail -n 20 "$out" >&2
        exit 1
    fi
    if [ "$workload" = cell ] &&
        ! grep -q '^reference: [0-9]* digests match the recorded' "$out"; then
        echo "perf_ab: $side run did not match recorded reference digests" >&2
        grep '^reference:' "$out" >&2 || echo "  (no reference line)" >&2
        exit 1
    fi
    local wall
    if ! wall=$(tail -n 1 "$out" | python3 -c 'import json, sys
result = json.load(sys.stdin)
if result.get("failed") != 0:
    sys.exit("failed operations: %s" % result.get("failed"))
print(result["metrics"]["wall_s"]["value"])'); then
        echo "perf_ab: $side $workload run did not report \"failed\": 0" >&2
        exit 1
    fi
    echo "$wall" >>"$WORK/$side.$workload.walls"
    echo "  $side $workload wall_s $wall"
}

echo "perf_ab: base $base vs working tree, $PAIRS pairs of ($WORKLOADS) --seconds $SECONDS_PER_RUN"
for i in $(seq 1 "$PAIRS"); do
    echo "pair $i"
    for workload in $WORKLOADS; do
        if [ $((i % 2)) -eq 1 ]; then
            run_side base "$workload"
            run_side change "$workload"
        else
            run_side change "$workload"
            run_side base "$workload"
        fi
    done
done

status=0
for workload in $WORKLOADS; do
    python3 - "$workload" "$WORK/base.$workload.walls" "$WORK/change.$workload.walls" \
        "$bound" <<'EOF' || status=1
import statistics, sys

workload = sys.argv[1]
base = statistics.median(float(x) for x in open(sys.argv[2]))
change = statistics.median(float(x) for x in open(sys.argv[3]))
bound = float(sys.argv[4])
ratio = change / base
print(f"{workload}: median wall_s: base {base:.4f} s, change {change:.4f} s, "
      f"change/base {ratio:.3f} (allowed <= {1 + bound:.3f})")
if ratio > 1 + bound:
    sys.exit(f"perf_ab: FAIL: on {workload} the change is slower than the base "
             f"by more than {bound:.0%}")
EOF
done
if [ "$status" -ne 0 ]; then
    exit 1
fi
echo "perf_ab: PASS"
