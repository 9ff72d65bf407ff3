#!/usr/bin/env sh
# Are the committed tables still what the code prints?
#
# Runs the binary behind every results/<name>.txt (target/release/<name>,
# default arguments: full scale, seed 1997) into a temporary directory and
# compares byte for byte. A table that moved on purpose is regenerated with
#   ./target/release/<name> > results/<name>.txt
# and the diff is committed with the change that moved it.
set -eu

cd "$(dirname "$0")/.."
cargo build --release --quiet -p wcc-bench
bin="${CARGO_TARGET_DIR:-target}/release"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

status=0
for want in results/*.txt; do
    name="$(basename "$want" .txt)"
    "$bin/$name" > "$out/$name.txt"
    if cmp -s "$want" "$out/$name.txt"; then
        echo "check-results: $name ok"
    else
        echo "check-results: $name DIFFERS from $want"
        diff "$want" "$out/$name.txt" | head -n 20
        status=1
    fi
done
exit "$status"
