#!/usr/bin/env bash
# The repo benchmark's front door.
#
#   benchmark/run.sh [--workload NAME] [--seed S] [--seconds T] [--trace 0|1 | --ledger]
#
# Builds the benchmark package offline, then runs each requested workload in
# a fresh process. Every metric is printed as `name value unit`; the last
# line of a single-workload run is the JSON result the driver reads. Results
# also land in benchmark/out/ (latest.json, <workload>.spans.jsonl).
# Exits non-zero when the build, a workload or its output oracle fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# The driver points CARGO_TARGET_DIR at a directory inside its checkout;
# otherwise share the workspace's target directory.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

# Build output goes to stderr so stdout carries only results.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/wcc-benchmark"

workload=""
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --ledger) args+=(--trace 1); shift ;;
        --seed|--seconds|--trace) args+=("$1" "$2"); shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# Keep freed memory inside the process: otherwise glibc hands the traces'
# and deployments' large blocks back to the kernel after every repetition
# and each set-up and pass re-faults them, and in a VM a page fault's cost
# follows the host's load, not the program (set-up IQR 12-15 % -> 9 %).
export MALLOC_TRIM_THRESHOLD_=4000000000 MALLOC_MMAP_THRESHOLD_=4000000000 MALLOC_TOP_PAD_=67108864

run_one() {
    "$bin" run --workload "$1" --root "$root" --out "$here/out" "${args[@]}"
}

if [ -n "$workload" ]; then
    run_one "$workload"
else
    status=0
    for w in paper-grid feed-storm serve-hit serve-mixed; do
        run_one "$w" || status=$?
    done
    exit "$status"
fi
