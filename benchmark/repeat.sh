#!/usr/bin/env bash
# A/A tooling: N full sets of the same build.
#
#   benchmark/repeat.sh N [--seed S] [--seconds T]
#
# Runs every workload N times through run.sh (workload order reversed on
# every other set, so no workload always follows the same neighbour), then
# prints per metric x workload the median, quartiles and the largest
# deviation between sets, and exits non-zero if two sets disagree by more
# than the metric's bound or any run was not correct. A later PR reuses it
# for its alternating parent/change pairs: run it from each checkout.
set -euo pipefail

n="${1:?usage: repeat.sh N [--seed S] [--seconds T]}"
shift
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
sets="$here/out/repeat"
rm -rf "$sets"
mkdir -p "$sets"

forward=(paper-grid feed-storm serve-hit serve-mixed)
backward=(serve-mixed serve-hit feed-storm paper-grid)
for k in $(seq 1 "$n"); do
    if [ $((k % 2)) -eq 1 ]; then order=("${forward[@]}"); else order=("${backward[@]}"); fi
    for w in "${order[@]}"; do
        echo "repeat.sh: set $k/$n $w" >&2
        # A failed run still leaves its result line for the summary to flag.
        "$here/run.sh" --workload "$w" "$@" | tail -n 1 > "$sets/set$k.$w.json" || true
    done
done
"$target/release/wcc-benchmark" summarise "$sets"/set*.json
