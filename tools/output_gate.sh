#!/usr/bin/env bash
# Output gate: run a fixed set of CLI commands against one source tree and
# keep every file they write, plus the stderr and exit code of six error
# paths, so two trees can be compared byte for byte.  The gate fails when
# a command fails or an error path succeeds, and when a report.json holds
# a NaN or an infinity, which strict JSON parsers reject; two commands
# pass a threshold of -inf to check that case.
#
#   tools/output_gate.sh path/to/parent/src out_parent
#   tools/output_gate.sh src out_change
#   diff -r out_parent out_change
#
# The data is simulated (switching scenario, 60 days x 4 stations, seed 3)
# with one group of 8 members and with groups 1,7, in a temporary
# directory.  Warnings are ignored because their lines name the checkout.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

export PYTHONPATH="$src" PYTHONWARNINGS=ignore OPENBLAS_NUM_THREADS=1

windemos() {
    python3 -m windemos "$@"
}

# run NAME ARGS...: a command that must succeed, its files under OUT/NAME
run() {
    local name=$1
    shift
    windemos "$@" --output-dir "$out/$name" > /dev/null
}

# fail NAME ARGS...: a command that must fail, its stderr and exit code
fail() {
    local name=$1 code=0
    shift
    windemos "$@" --output-dir "$tmp/unused" 2> "$out/errors/$name.stderr" || code=$?
    echo "$code" > "$out/errors/$name.code"
    if [ "$code" -eq 0 ]; then
        echo "$name: expected a failure" >&2
        exit 1
    fi
}

for sizes in 8 1,7; do
    data="$tmp/data-$sizes.csv"
    windemos simulate "$data" --scenario switching --days 60 --stations 4 --seed 3 \
        --groups-sizes "$sizes" > /dev/null
    dir="groups-$sizes"
    for model in tn ln gev; do
        run "$dir/cal-$model" calibrate "$data" --model "$model" --train-days 20
    done
    for model in tn-ln tn-gev; do
        run "$dir/cal-$model" calibrate "$data" --model "$model" --theta 6
        run "$dir/cal-$model-shared" calibrate "$data" --model "$model" --theta 6 \
            --strategy shared --train-days 15
    done
    for model in raw climatology; do
        run "$dir/verify-$model" verify "$data" --model "$model"
    done
    run "$dir/grid-tn-ln" grid-search "$data" --model tn-ln --theta 5..7:1 \
        --train-days 15..25:10
    run "$dir/grid-tn-gev-shared" grid-search "$data" --model tn-gev --theta 5..7:1 \
        --train-days 15..25:10 --strategy shared
    run "$dir/grid-tn-all" grid-search "$data" --model tn --train-days 15..25:10 \
        --selection all
done

# One station misses one day: climatologies of two sample sizes
gappy="$tmp/gappy.csv"
sed 20d "$tmp/data-8.csv" > "$gappy"
cp "$tmp/data-8.csv.groups" "$gappy.groups"
for model in raw climatology; do
    run "gappy/verify-$model" verify "$gappy" --model "$model" --train-days 10
done

data="$tmp/data-8.csv"
# A threshold of -inf (the plain CRPS) next to a finite one
run "thresholds/cal-tn" calibrate "$data" --train-days 20 --thresholds=-inf,8
run "thresholds/verify-raw" verify "$data" --thresholds=-inf,8

mkdir -p "$out/errors"
fail no-theta calibrate "$data" --model tn-ln
fail no-theta-grid grid-search "$data" --model tn-ln
fail theta-for-tn calibrate "$data" --model tn --theta 5
fail calibrate-too-long calibrate "$data" --train-days 500
fail grid-too-long grid-search "$data" --train-days 59..60:1
fail verify-too-long verify "$data" --train-days 500

# Every report.json is strict JSON: json.loads calls parse_constant for
# NaN, Infinity and -Infinity, which no strict parser accepts
python3 - "$out" <<'PY'
import json
import pathlib
import sys


def reject(constant):
    raise ValueError(f"non-finite number {constant}")


bad = []
for path in sorted(pathlib.Path(sys.argv[1]).rglob("report.json")):
    try:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    except ValueError as exc:
        bad.append(f"{path}: {exc}")
if bad:
    sys.exit("not strict JSON:\n" + "\n".join(bad))
PY
