#!/usr/bin/env bash
# Alternating pairs: does this checkout run the benchmark faster or slower
# than PARENT_REV?
#
#   ci/pairs.sh [--keep DIR] PARENT_REV [WORKLOAD] [N]
#
# Snapshots PARENT_REV and the checkout as it stands (its tracked files,
# staged and unstaged edits included; `git add` a new file first) into two
# temporary directories with `git archive`, and builds the benchmark
# package in each, offline (every dependency is a path under vendor/), with
# its own target directory. Then runs `benchmark/run.sh --workload W` N
# times a side (default 10), one pair at a time: odd pairs run the parent
# first, even pairs the change. WORKLOAD is one of BENCHMARK.json's
# workloads, or `all` (the default) for each in turn.
#
# Prints, per workload and end-to-end metric of BENCHMARK.json, each side's
# median [quartiles], the change of the medians, and in how many pairs the
# change read better: the table EXPERIMENTS.md uses. Quartiles are the 25th
# and 75th percentiles, interpolated. Under it, one line per pair and
# metric: each side's reading and which side ran first. The run count whose
# JSON reported `failed` > 0 or `correct` false is printed per workload too.
# Nothing is written into the checkout (benchmark/Cargo.lock included: each
# snapshot's build rewrites its own); the snapshots are deleted on exit,
# after `--keep DIR` has copied each run's JSON report
# (`WORKLOAD.SIDE.PAIR.json`) into DIR. Exits 1 if a build or a run fails.
set -euo pipefail

usage() {
    echo "usage: ci/pairs.sh [--keep DIR] PARENT_REV [WORKLOAD] [N]" >&2
    exit 2
}
keep=""
if [ "${1:-}" = --keep ]; then
    [ $# -ge 2 ] || usage
    keep="$2"
    shift 2
fi
if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    usage
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent_rev="$(git -C "$root" rev-parse --verify "$1^{commit}")"
workload="${2:-all}"
pairs="${3:-10}"
case "$pairs" in '' | *[!0-9]* | 0) echo "pairs.sh: N must be a positive count" >&2; exit 2 ;; esac
if [ "$workload" = all ]; then
    workloads="$(jq -r '.workloads[].name' "$root/BENCHMARK.json")"
elif jq -e --arg w "$workload" 'any(.workloads[]; .name == $w)' "$root/BENCHMARK.json" >/dev/null; then
    workloads="$workload"
else
    echo "pairs.sh: unknown workload $workload" >&2
    exit 2
fi
# The checkout as a commit object; nothing in the checkout or its refs moves.
change_rev="$(git -C "$root" stash create)"
change_rev="${change_rev:-$(git -C "$root" rev-parse HEAD)}"

work="$(mktemp -d)"
cleanup() {
    if [ -n "$keep" ] && [ -d "$work/runs" ]; then
        mkdir -p "$keep" && cp "$work/runs"/*.json "$keep"/ 2>/dev/null || true
    fi
    rm -rf "$work"
}
trap cleanup EXIT
for side in parent change; do
    rev="${side}_rev"
    mkdir "$work/$side"
    git -C "$root" archive "${!rev}" | tar -x -C "$work/$side"
    echo "pairs: building $side (${!rev:0:12})" >&2
    CARGO_TARGET_DIR="$work/$side/target" cargo build --release --offline --quiet \
        --manifest-path "$work/$side/benchmark/Cargo.toml" >&2
done

mkdir "$work/runs"
run() { # side workload pair
    CARGO_TARGET_DIR="$work/$1/target" bash "$work/$1/benchmark/run.sh" \
        --workload "$2" | tail -n 1 > "$work/runs/$2.$1.$3.json"
}
for w in $workloads; do
    for i in $(seq 1 "$pairs"); do
        echo "pairs: $w pair $i/$pairs" >&2
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$w" "$i"; run change "$w" "$i"
        else
            run change "$w" "$i"; run parent "$w" "$i"
        fi
    done
done

python3 - "$root/BENCHMARK.json" "$work/runs" "$pairs" "$parent_rev" $workloads <<'EOF'
import json, statistics, sys

bench, runs, pairs, parent, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5:]
metrics = json.load(open(bench))["end_to_end"]

def load(w, side):
    return [json.load(open(f"{runs}/{w}.{side}.{i}.json")) for i in range(1, pairs + 1)]

def fmt(v):
    return f"{v / 1e3:.1f} k" if abs(v) >= 1e4 else f"{v:.4g}"

def summary(vs):
    q1, med, q3 = statistics.quantiles(vs, n=4, method="inclusive") if len(vs) > 1 else vs * 3
    return med, f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]"

print(f"Alternating pairs, parent {parent[:7]} and this checkout, {pairs} a workload.")
print("Median [quartiles], pairs where the change read better:\n")
print("| workload | metric | parent | change | Δ | better in |")
print("|---|---|---|---|---|---|")
bad = {}
for w in workloads:
    sides = {side: load(w, side) for side in ("parent", "change")}
    bad[w] = sum(r["failed"] > 0 or not r["correct"] for rs in sides.values() for r in rs)
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in sides["parent"]]
        c = [r["metrics"][name]["value"] for r in sides["change"]]
        (pm, ps), (cm, cs) = summary(p), summary(c)
        delta = (cm - pm) / pm * 100 if pm else 0.0
        better = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        sign = "+" if delta >= 0 else "−"
        print(f"| {w} | {name} | {ps} | {cs} | {sign}{abs(delta):.1f} % | {better}/{pairs} |")
print("\nEvery pair, parent then change, and which side ran first:\n")
for w in workloads:
    sides = {side: load(w, side) for side in ("parent", "change")}
    for m in metrics:
        name = m["name"]
        for i, (a, b) in enumerate(zip(sides["parent"], sides["change"]), 1):
            first = "parent" if i % 2 == 1 else "change"
            pv, cv = a["metrics"][name]["value"], b["metrics"][name]["value"]
            print(f"{w} {name} pair {i}: {pv:.6g} {cv:.6g} ({first} first)")
print()
for w in workloads:
    print(f"{w}: {bad[w]} of {2 * pairs} runs failed an operation or the output oracle")
EOF
