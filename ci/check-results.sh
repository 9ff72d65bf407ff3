#!/usr/bin/env sh
# Are the committed tables still what the code prints?
#
# Runs `wcc bench <name>` for every results/<name>.txt (default arguments:
# full scale, seed 1997) into a temporary directory and compares byte for
# byte; `wcc bench list` and results/ must name the same set. A table that
# moved on purpose is regenerated with
#   ./target/release/wcc bench <name> > results/<name>.txt
# and the diff is committed with the change that moved it. The scenario
# fuzzer's summary is pinned the same way, in ci/fuzz-seed1.txt (regenerate
# with `./target/release/wcc fuzz --iters 200 --seed 1 > ci/fuzz-seed1.txt`):
# its request and audit-event totals move with any change to what the
# simulator's nodes and the cores do or record. The simulator's span order
# is pinned by digest in ci/trace-epa.sha256: the `--trace-out` dump of one
# batched EPA replay (regenerate with the `replay` command below, then
# `sha256sum trace-epa.jsonl > ci/trace-epa.sha256` in the dump's directory).
set -eu

cd "$(dirname "$0")/.."
cargo build --release --quiet --bin wcc
wcc="${CARGO_TARGET_DIR:-target}/release/wcc"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

status=0
# `wcc bench list` (<) and results/ (>) name the same tables.
ls results/*.txt | sed 's|results/\(.*\)\.txt|\1|' | sort > "$out/.names"
"$wcc" bench list | cut -d' ' -f1 | sort | diff - "$out/.names" || status=1
for want in results/*.txt; do
    name="$(basename "$want" .txt)"
    if "$wcc" bench "$name" > "$out/$name.txt" && cmp -s "$want" "$out/$name.txt"; then
        echo "check-results: $name ok"
    else
        echo "check-results: $name DIFFERS from $want"
        diff "$want" "$out/$name.txt" | head -n 20
        status=1
    fi
done
if "$wcc" fuzz --iters 200 --seed 1 > "$out/fuzz.txt" && cmp -s ci/fuzz-seed1.txt "$out/fuzz.txt"; then
    echo "check-results: fuzz-seed1 ok"
else
    echo "check-results: fuzz-seed1 DIFFERS from ci/fuzz-seed1.txt"
    diff ci/fuzz-seed1.txt "$out/fuzz.txt" | head -n 20
    status=1
fi
"$wcc" replay --trace epa --scale 5 --lifetime-days 1 --inval-batch 4 \
    --trace-out "$out/trace-epa.jsonl" > /dev/null
got="$(sha256sum < "$out/trace-epa.jsonl" | cut -d' ' -f1)"
if [ "$got" = "$(cut -d' ' -f1 ci/trace-epa.sha256)" ]; then
    echo "check-results: trace-epa ok"
else
    echo "check-results: trace-epa DIFFERS from ci/trace-epa.sha256 (sha256 $got)"
    status=1
fi
exit "$status"
