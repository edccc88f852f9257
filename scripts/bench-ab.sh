#!/usr/bin/env bash
# Interleaved A/B of the repo benchmark: a parent revision against HEAD.
#
#   scripts/bench-ab.sh <parent-rev> <workload> [pairs=10] [seconds=15] [first-seed=1]
#
# Exports both revisions with `git archive` into a temp dir and builds
# each tree's `wms` and `perfbench` with its own CARGO_TARGET_DIR. Pair k
# runs seed first-seed+k on both sides, alternating which side runs
# first: host speed drifts within minutes, so only interleaved pairs
# mean anything. Prints, for every end-to-end metric in BENCHMARK.json,
# each side's median and quartiles, the pairs HEAD won (by the metric's
# `better` direction) and the pairs that tied. Exits 1 if any run is not
# `correct: true` with `failed: 0`. Not part of tier-1 or CI.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,13p' "$0" >&2
    exit 2
fi
PARENT="$1"
WORKLOAD="$2"
PAIRS="${3:-10}"
SECS="${4:-15}"
FIRST_SEED="${5:-1}"
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for side in parent head; do
    rev="$PARENT"
    [ "$side" = head ] && rev=HEAD
    mkdir -p "$work/$side/src" "$work/$side/runs"
    git archive "$rev" | tar -x -C "$work/$side/src"
    echo "building $side ($(git rev-parse --short "$rev"))" >&2
    (
        cd "$work/$side/src"
        export CARGO_TARGET_DIR="$work/$side/target"
        cargo build --release --offline --quiet -p wms-cli --bin wms
        cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
    ) >&2
done

# One benchmark run; its stdout (the result is the last line) goes to
# runs/<pair>.out. A crashed run leaves no result line and counts as
# incorrect in the summary.
run() {
    local side="$1" pair="$2" seed="$3"
    (
        cd "$work/$side/src"
        "$work/$side/target/release/perfbench" --wms "$work/$side/target/release/wms" \
            --workload "$WORKLOAD" --seed "$seed" --seconds "$SECS" --trace 0
    ) >"$work/$side/runs/$pair.out" || echo "$side pair $pair: perfbench exited $?" >&2
}

for ((k = 0; k < PAIRS; k++)); do
    seed=$((FIRST_SEED + k))
    if ((k % 2 == 0)); then
        run parent "$k" "$seed"
        run head "$k" "$seed"
    else
        run head "$k" "$seed"
        run parent "$k" "$seed"
    fi
    echo "pair $((k + 1))/$PAIRS (seed $seed) done" >&2
done

python3 - "$work" "$PAIRS" BENCHMARK.json "$WORKLOAD" <<'EOF'
import json, statistics, sys

work, pairs, bench, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
metrics = json.load(open(bench))["end_to_end"]

def result(side, k):
    try:
        lines = open(f"{work}/{side}/runs/{k}.out").read().strip().splitlines()
        return json.loads(lines[-1])
    except (OSError, IndexError, ValueError):
        return None

runs = {side: [result(side, k) for k in range(pairs)] for side in ("parent", "head")}
bad = [
    f"{side} pair {k + 1}"
    for side, rs in runs.items()
    for k, r in enumerate(rs)
    if r is None or r.get("correct") is not True or r.get("failed") != 0
]

def summary(xs):
    if len(xs) == 1:
        return f"{xs[0]:.4g} [{xs[0]:.4g}-{xs[0]:.4g}]"
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return f"{med:.4g} [{q1:.4g}-{q3:.4g}]"

print(f"{workload}: {pairs} interleaved pairs, median [quartiles]; wins = pairs HEAD did better")
print(f"{'metric':<16} {'parent':>28} {'head':>28} {'change':>8} {'wins':>6} {'ties':>6}")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    both = [
        (p["metrics"][name]["value"], h["metrics"][name]["value"])
        for p, h in zip(runs["parent"], runs["head"])
        if p and h and name in p.get("metrics", {}) and name in h.get("metrics", {})
    ]
    if not both:
        continue
    ps, hs = [b[0] for b in both], [b[1] for b in both]
    wins = sum((h < p) if lower else (h > p) for p, h in both)
    ties = sum(h == p for p, h in both)
    pm = statistics.median(ps)
    change = f"{statistics.median(hs) / pm - 1:+.1%}" if pm else "n/a"
    n = len(both)
    print(f"{name:<16} {summary(ps):>28} {summary(hs):>28} {change:>8} {wins:>3}/{n} {ties:>3}/{n}")
if bad:
    print("not correct with failed 0: " + ", ".join(bad))
    sys.exit(1)
print(f"all {2 * pairs} runs correct, failed 0")
EOF
