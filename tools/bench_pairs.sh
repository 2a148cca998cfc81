#!/usr/bin/env bash
# Alternated benchmark pairs against a base commit: unpack the sources of
# BASE with git archive next to copies of this tree's perfbench/ and
# BENCHMARK.json, copy the working tree's sources the same way, and run
# `perfbench/run.py --trace 0` N times on each side per workload, at the
# run length BENCHMARK.json declares.  Pair i (1..N) runs both sides on
# seed FIRST + i - 1, BASE first in odd pairs and the working tree first
# in even ones.
#
#   tools/bench_pairs.sh HEAD        # A/A on an unchanged tree: the noise floor
#   tools/bench_pairs.sh origin/main 10
#   tools/bench_pairs.sh origin/main 10 21   # on seeds 21-30
#
# Prints per workload and end-to-end metric the median of each side, the
# quartiles of BASE's runs and the pairs each side won, and whether
# mean_crps matched bit for bit in every pair (if not, by how much).  N
# defaults to 5 and FIRST to 1.  Exits 0 when every run succeeded, 2 when
# BASE cannot be unpacked or a run fails.
set -uo pipefail

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: $0 BASE [N [FIRST]]" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
pairs=${2:-5}
first=${3:-1}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for side in base change; do
    mkdir -p "$tmp/$side" "$tmp/runs/$side"
    cp -r "$root/perfbench" "$root/BENCHMARK.json" "$tmp/$side/" || exit 2
done
git -C "$root" archive "$1" src | tar -x -C "$tmp/base" || exit 2
cp -r "$root/src" "$tmp/change/" || exit 2

# The run length, then the workload names
read -r seconds workloads < <(python3 -c 'import json, sys
spec = json.load(open(sys.argv[1]))
print(spec["run_seconds"], *(w["name"] for w in spec["workloads"]))' "$root/BENCHMARK.json")

for workload in $workloads; do
    for i in $(seq 1 "$pairs"); do
        order="base change"
        [ $((i % 2)) -eq 0 ] && order="change base"
        for side in $order; do
            echo "# $workload pair $i: $side" >&2
            (cd "$tmp/$side" && python3 perfbench/run.py --workload "$workload" \
                --seed $((first + i - 1)) \
                --seconds "$seconds" --trace 0) > "$tmp/out" || exit 2
            tail -n 1 "$tmp/out" > "$tmp/runs/$side/$workload.$i.json"
        done
    done
done

python3 - "$root/BENCHMARK.json" "$tmp/runs" "$pairs" $workloads <<'EOF'
import json
import statistics
import sys

spec, runs, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
metrics = json.load(open(spec))["end_to_end"]


def load(side, workload):
    return [json.load(open(f"{runs}/{side}/{workload}.{i}.json")) for i in range(1, pairs + 1)]


print("workload metric: base median -> change median [base quartiles] (pairs won base/change)")
for workload in workloads:
    base, change = load("base", workload), load("change", workload)
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        q1, _, q3 = statistics.quantiles(b, n=4) if pairs > 1 else (b[0], b[0], b[0])
        won_b = sum(sign * (x - y) > 0 for x, y in zip(b, c))
        won_c = sum(sign * (y - x) > 0 for x, y in zip(b, c))
        print(
            f"{workload} {name}: {statistics.median(b):.6g} -> {statistics.median(c):.6g} "
            f"[{q1:.6g}, {q3:.6g}] ({won_b}/{won_c}) {m['unit']}"
        )
    crps = [[r["metrics"]["mean_crps"]["value"] for r in pair] for pair in zip(base, change)]
    moved = [abs(y - x) / abs(x) for x, y in crps if x != y]
    same = "bit-identical in every pair" if not moved else (
        f"differs in {len(moved)} of {pairs} pairs, by at most {max(moved):.2g} relative"
    )
    failed = sum(r["failed"] for r in base + change)
    print(f"{workload}: mean_crps {same}; {failed} failed operations")
EOF
