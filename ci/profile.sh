#!/usr/bin/env bash
# Where does a benchmark workload spend its CPU? A frame-pointer sampler.
#
#   ci/profile.sh WORKLOAD [SECONDS] [ROOT_FRAME]
#
# Snapshots the checkout (tracked files, edits included) with `git archive`
# into a temporary directory, builds the benchmark package there with
# `-C force-frame-pointers=yes` into its own target directory, and runs
# WORKLOAD for SECONDS (default 20) under an LD_PRELOAD sampler: a
# `setitimer(ITIMER_PROF)` handler that walks the frame-pointer chain of
# whatever thread the CPU tick lands on (x86-64 Linux only). It asks for a
# tick per 1 ms of CPU; the kernel checks CPU timers at its own tick, so a
# 250 Hz kernel samples every 4 ms. Only that process is sampled; nothing
# is written into the checkout.
#
# Prints the share of samples that stop outside the benchmark binary and of
# those with no frame in it at all (glibc keeps no `rbp`, so a tick inside
# libc often loses its callers), then, over the
# samples whose stack holds a symbol containing ROOT_FRAME (default: all),
# the top symbols by self % and by inclusive %, and the hottest
# instructions as `symbol+offset`.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: ci/profile.sh WORKLOAD [SECONDS] [ROOT_FRAME]" >&2
    exit 2
fi
[ "$(uname -m)" = x86_64 ] || { echo "profile.sh: x86-64 only" >&2; exit 2; }
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workload="$1" seconds="${2:-20}" root_frame="${3:-}"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
rev="$(git -C "$root" stash create)"
git -C "$root" archive "${rev:-HEAD}" | tar -x -C "$work"
echo "profile: building the benchmark with frame pointers" >&2
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$work/target" \
    cargo build --release --offline --quiet --manifest-path "$work/benchmark/Cargo.toml" >&2

cat > "$work/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>
enum { CAP = 1 << 21, DEPTH = 64 };
static uint64_t buf[CAP];
static uint64_t used;
static int peek(uint64_t at, uint64_t *out) { /* a read that cannot fault */
    struct iovec local = {out, 8}, remote = {(void *)at, 8};
    return process_vm_readv(getpid(), &local, 1, &remote, 1, 0) == 8;
}
static void on_tick(int sig, siginfo_t *si, void *ctx) {
    (void)sig; (void)si;
    mcontext_t *m = &((ucontext_t *)ctx)->uc_mcontext;
    uint64_t frames[DEPTH], n = 0, fp = m->gregs[REG_RBP], sp = m->gregs[REG_RSP];
    frames[n++] = m->gregs[REG_RIP];
    while (n < DEPTH && fp >= sp && fp % 8 == 0) {
        uint64_t next, ret;
        if (!peek(fp, &next) || !peek(fp + 8, &ret) || ret == 0) break;
        frames[n++] = ret - 1; /* inside the call instruction */
        if (next <= fp) break;
        sp = fp, fp = next;
    }
    uint64_t at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > CAP) return;
    buf[at] = n;
    for (uint64_t i = 0; i < n; i++) buf[at + 1 + i] = frames[i];
}
__attribute__((constructor)) static void start(void) {
    unsetenv("LD_PRELOAD"); /* children are not sampled */
    struct sigaction sa = {0};
    sa.sa_sigaction = on_tick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, 0);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, 0);
}
__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, 0);
    char path[4096];
    snprintf(path, sizeof path, "%s/samples", getenv("PROFILE_DIR"));
    FILE *f = fopen(path, "wb");
    uint64_t n = used < CAP ? used : CAP;
    for (uint64_t at = 0; at < n && at + buf[at] < n; at += buf[at] + 1)
        fwrite(&buf[at], 8, buf[at] + 1, f);
    fclose(f);
    snprintf(path, sizeof path, "cp /proc/%d/maps %s/maps", getpid(), getenv("PROFILE_DIR"));
    if (system(path) != 0) perror("profile: maps");
}
EOF
cc -O2 -shared -fPIC -o "$work/sampler.so" "$work/sampler.c"

bin="$work/target/release/wcc-benchmark"
echo "profile: running $workload for $seconds s" >&2
PROFILE_DIR="$work" LD_PRELOAD="$work/sampler.so" \
    MALLOC_TRIM_THRESHOLD_=4000000000 MALLOC_MMAP_THRESHOLD_=4000000000 MALLOC_TOP_PAD_=67108864 \
    "$bin" run --workload "$workload" --seconds "$seconds" --root "$work" --out "$work/out" >/dev/null
nm -C -n --defined-only "$bin" > "$work/symbols"

python3 - "$work" "$bin" "$root_frame" <<'EOF'
import bisect, collections, struct, sys
work, binary, root_frame = sys.argv[1:]
syms = []
for line in open(f"{work}/symbols"):
    addr, kind, name = line.rstrip("\n").split(" ", 2)
    if kind in "tTwW":
        syms.append((int(addr, 16), name))
starts = [a for a, _ in syms]
maps = [l.split() for l in open(f"{work}/maps")]
spans = [[int(x, 16) for x in m[0].split("-")] for m in maps if m[-1] == binary]
base = min(int(m[0].split("-")[0], 16) for m in maps if m[-1] == binary and int(m[2], 16) == 0)
def where(addr):  # (symbol, offset) in the binary, or None outside it
    i = bisect.bisect_right(starts, addr - base) - 1
    inside = any(lo <= addr < hi for lo, hi in spans)
    return (syms[i][1], addr - base - syms[i][0]) if inside and i >= 0 else None
raw = open(f"{work}/samples", "rb").read()
words = struct.unpack(f"<{len(raw) // 8}Q", raw)
stacks, at = [], 0
while at < len(words):
    n = words[at]
    stacks.append([where(a) for a in words[at + 1:at + 1 + n]])
    at += n + 1
share = lambda k: f"{100 * k / max(len(stacks), 1):.1f} %"
rustless, outside = sum(not any(s) for s in stacks), sum(s[0] is None for s in stacks)
print(f"{len(stacks)} samples; {share(outside)} stop outside the benchmark binary, "
      f"{share(rustless)} with no frame in it")
chosen = [s for s in stacks if not root_frame or any(f and root_frame in f[0] for f in s)]
print(f"{len(chosen)} samples under {root_frame or 'any frame'!r}\n")
own, incl, insn = collections.Counter(), collections.Counter(), collections.Counter()
for s in chosen:
    if s[0]:
        own[s[0][0]] += 1
        insn[f"{s[0][0]}+{s[0][1]:#x}"] += 1
    for name in {f[0] for f in s if f}:
        incl[name] += 1
total = max(len(chosen), 1)
for title, counts in (("self", own), ("inclusive", incl), ("instruction", insn)):
    print(f"top {title} %")
    for name, k in counts.most_common(15 if title != "instruction" else 8):
        print(f"  {100 * k / total:6.2f}  {name[:110]}")
    print()
EOF
