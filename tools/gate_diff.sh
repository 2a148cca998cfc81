#!/usr/bin/env bash
# The output gate against a base commit: unpack the sources of BASE with
# git archive, run tools/output_gate.sh on them and on the working tree,
# and print `diff -r` of the two outputs.  Both runs use this tree's gate
# script, so both trees run the same commands.
#
#   tools/gate_diff.sh HEAD          # the working tree against its last commit
#   tools/gate_diff.sh origin/main
#
# Exits 0 when every output is byte-identical, 1 when outputs differ,
# and 2 when BASE cannot be unpacked or a gate run fails.
set -uo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/tree"
git -C "$root" archive "$1" src | tar -x -C "$tmp/tree" || exit 2
"$root/tools/output_gate.sh" "$tmp/tree/src" "$tmp/base" || exit 2
"$root/tools/output_gate.sh" "$root/src" "$tmp/change" || exit 2
cd "$tmp" && diff -r base change
