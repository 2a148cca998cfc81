#!/usr/bin/env bash
# The fit matrix against a base commit: unpack the sources of BASE with
# git archive, run the same calibrations on them and on the working tree,
# and print per run mean_crps, n_fits_nonconverged and n_optimizer_evals
# of each side and their change, then per row the sums and the mean
# relative change of mean_crps, and that mean over the degenerate rows.
#
#   tools/fit_matrix.sh HEAD         # the working tree against its last commit
#   tools/fit_matrix.sh origin/main
#
# The data is simulated once per seed (0-9) by the working tree, so both
# sides fit the same cases.  The rows:
#   regular-gev-20:   switching, 60 days x 8 stations, groups 1,7; gev, 20-day windows
# and the degenerate ones, whose high-wind windows are small:
#   small-tn-gev-8:   switching, 30 days x 3 stations; tn-gev --theta 6, 8-day windows
#   small-gev-8:      the same data; gev, 8-day windows
#   mixed-tn-gev-20:  the data of the first row; tn-gev --theta 6, 20-day windows
# Exits 0 when every run succeeded (a difference is printed, not
# failed), and 2 when BASE cannot be unpacked or a run fails.
set -uo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base" "$tmp/runs"
git -C "$root" archive "$1" src | tar -x -C "$tmp/base" || exit 2
export PYTHONWARNINGS=ignore OPENBLAS_NUM_THREADS=1

windemos() {
    PYTHONPATH="$1" python3 -m windemos "${@:2}" > /dev/null
}

# ROW DATA ARGS...: one calibration of DATA on both sides
calibrate() {
    local row=$1 data=$2 side src
    shift 2
    for side in base change; do
        src="$root/src"
        [ "$side" = base ] && src="$tmp/base/src"
        windemos "$src" calibrate "$data" "$@" --output-dir "$tmp/runs/$side/$row/$seed" || {
            echo "$row seed $seed: calibrate failed on $side" >&2
            exit 2
        }
    done
}

for seed in $(seq 0 9); do
    echo "# seed $seed" >&2
    big="$tmp/big-$seed.csv" small="$tmp/small-$seed.csv"
    windemos "$root/src" simulate "$big" --scenario switching --days 60 --stations 8 \
        --groups-sizes 1,7 --seed "$seed" || exit 2
    windemos "$root/src" simulate "$small" --scenario switching --days 30 --stations 3 \
        --seed "$seed" || exit 2
    calibrate regular-gev-20 "$big" --model gev --train-days 20
    calibrate small-tn-gev-8 "$small" --model tn-gev --theta 6 --train-days 8
    calibrate small-gev-8 "$small" --model gev --train-days 8
    calibrate mixed-tn-gev-20 "$big" --model tn-gev --theta 6 --train-days 20
done

python3 - "$tmp/runs" <<'EOF'
import json
import pathlib
import sys

runs = pathlib.Path(sys.argv[1])
rows = ["regular-gev-20", "small-tn-gev-8", "small-gev-8", "mixed-tn-gev-20"]
keys = ["n_fits_nonconverged", "n_optimizer_evals"]


def read(side, row, seed):
    report = json.loads((runs / side / row / str(seed) / "report.json").read_text())
    return report["report"]["scores"]["mean_crps"], report["calibration"]


degenerate = []
print("row seed: mean_crps base -> change (relative change); " + "; ".join(keys) + " base -> change")
for row in rows:
    rel, sums = [], {key: [0, 0] for key in keys}
    for seed in range(10):
        (crps_b, cal_b), (crps_c, cal_c) = read("base", row, seed), read("change", row, seed)
        rel.append((crps_c - crps_b) / crps_b)
        counts = []
        for key in keys:
            sums[key][0] += cal_b[key]
            sums[key][1] += cal_c[key]
            counts.append(f"{cal_b[key]} -> {cal_c[key]}")
        print(f"{row} {seed}: {crps_b:.10g} -> {crps_c:.10g} ({rel[-1]:+.3g}); " + "; ".join(counts))
    if row != "regular-gev-20":
        degenerate += rel
    total = "; ".join(f"{key} {b} -> {c}" for key, (b, c) in sums.items())
    print(
        f"{row} total: {total}; mean_crps relative change mean {sum(rel) / len(rel):+.3g}, "
        f"largest rise {max(rel):+.3g}"
    )
print(
    f"degenerate rows: mean_crps relative change mean {sum(degenerate) / len(degenerate):+.3g} "
    f"over {len(degenerate)} runs, largest rise {max(degenerate):+.3g}"
)
EOF
