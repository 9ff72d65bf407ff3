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
# Each sample carries its thread id. When the tick lands outside the binary
# (glibc keeps no `rbp`, so a tick inside libc would lose its callers), the
# handler scans up to 256 stack words from `rsp` for the first return
# address into the binary's text (a word just after a `call`) and records it
# as the leaf's caller.
#
# Prints the share of samples that stop outside the benchmark binary and of
# those with no frame in it at all; then, over the samples whose stack
# holds a symbol containing ROOT_FRAME (default: all), the top symbols by
# self % and by inclusive % and the hottest instructions as
# `symbol+offset`; then the same self and inclusive tables once per thread
# role, chosen by the frames a thread's samples hold: proxy reactor,
# origin reactor, load generator, and the rest. A leaf outside the binary
# shows as `[libc] <- caller`, and the caller counts as a frame of its
# stack. Exits 1, with no tables, when ROOT_FRAME matches no frame of any
# sampled stack (an inlined function leaves no frame: `grid_inputs` is one).
#
# Trace synthesis (the simulator workloads' set-up) is about 2 % of a
# 20 s run's samples, and a fixed count of them: the benchmark
# materialises its inputs 15 times before the timed phase whatever
# SECONDS is, so a longer run adds none. Read that layer with
# `materialise` (paper-grid) or `family::generate` (feed-storm) as
# ROOT_FRAME, and add up several runs for a share finer than a few
# percent: the timer asks for a sample per 1 ms of CPU, but the kernel
# fires it at its scheduler tick (4 ms on the 2-vCPU VM the figures in
# EXPERIMENTS.md come from), so a run's set-up gets 30-130 samples.
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
#include <limits.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>
enum { CAP = 1 << 21, DEPTH = 64, SCAN = 256, TEXTS = 8 };
static uint64_t buf[CAP];
static uint64_t used;
static uint64_t text_lo[TEXTS], text_hi[TEXTS];
static int texts;
static int peek(uint64_t at, uint64_t *out, uint64_t words) { /* reads that cannot fault */
    struct iovec local = {out, 8 * words}, remote = {(void *)at, 8 * words};
    ssize_t got = process_vm_readv(getpid(), &local, 1, &remote, 1, 0);
    return got < 0 ? 0 : (int)(got / 8);
}
/* The binary's text range holding `a`, or -1. */
static int text_of(uint64_t a) {
    for (int i = 0; i < texts; i++)
        if (a >= text_lo[i] && a < text_hi[i]) return i;
    return -1;
}
/* A return address into the binary: just after a `call rel32` or a
   `call *disp32(%rip)`. */
static int is_return(uint64_t a) {
    int i = text_of(a);
    if (i < 0 || a < text_lo[i] + 6) return 0;
    const uint8_t *p = (const uint8_t *)a;
    return p[-5] == 0xE8 || (p[-6] == 0xFF && p[-5] == 0x15);
}
static void on_tick(int sig, siginfo_t *si, void *ctx) {
    (void)sig; (void)si;
    mcontext_t *m = &((ucontext_t *)ctx)->uc_mcontext;
    uint64_t frames[DEPTH], n = 0, fp = m->gregs[REG_RBP], sp = m->gregs[REG_RSP], caller = 0;
    frames[n++] = m->gregs[REG_RIP];
    if (text_of(m->gregs[REG_RIP]) < 0) {
        uint64_t words[SCAN];
        int got = peek(sp, words, SCAN);
        for (int i = 0; i < got && !caller; i++)
            if (is_return(words[i])) caller = words[i] - 1;
    }
    while (n < DEPTH && fp >= sp && fp % 8 == 0) {
        uint64_t link[2];
        if (peek(fp, link, 2) != 2 || link[1] == 0) break;
        frames[n++] = link[1] - 1; /* inside the call instruction */
        if (link[0] <= fp) break;
        sp = fp, fp = link[0];
    }
    uint64_t at = __atomic_fetch_add(&used, n + 3, __ATOMIC_RELAXED);
    if (at + n + 3 > CAP) return;
    buf[at] = n;
    buf[at + 1] = (uint64_t)syscall(SYS_gettid);
    buf[at + 2] = caller;
    for (uint64_t i = 0; i < n; i++) buf[at + 3 + i] = frames[i];
}
/* The executable's own text mappings, read once before the first tick. */
static void find_text(void) {
    char exe[PATH_MAX], line[PATH_MAX + 128];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (len < 0) return;
    exe[len] = 0;
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!maps) return;
    while (texts < TEXTS && fgets(line, sizeof line, maps)) {
        unsigned long lo, hi;
        char perms[8], path[PATH_MAX];
        if (sscanf(line, "%lx-%lx %7s %*s %*s %*s %4095s", &lo, &hi, perms, path) == 4
            && perms[2] == 'x' && strcmp(path, exe) == 0)
            text_lo[texts] = lo, text_hi[texts++] = hi;
    }
    fclose(maps);
}
__attribute__((constructor)) static void start(void) {
    unsetenv("LD_PRELOAD"); /* children are not sampled */
    find_text();
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
    for (uint64_t at = 0; at < n && at + buf[at] + 3 <= n; at += buf[at] + 3)
        fwrite(&buf[at], 8, buf[at] + 3, f);
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
stacks, tids, at = [], [], 0  # a stack's frames are (symbol, offset) or None
while at < len(words):
    n, tid, caller = words[at:at + 3]
    frames = [where(a) for a in words[at + 3:at + 3 + n]]
    if frames and frames[0] is None:  # a leaf outside the binary, and who called it
        called_from = where(caller) if caller else None
        frames[0] = ("[libc] <- " + (called_from[0] if called_from else "?"), 0, False)
        if called_from:
            frames.insert(1, called_from)
    stacks.append(frames)
    tids.append(tid)
    at += n + 3
share = lambda k, of: f"{100 * k / max(of, 1):.1f} %"
rustless = sum(not any(f and len(f) == 2 for f in s) for s in stacks)
outside = sum(bool(s) and len(s[0]) == 3 for s in stacks)
print(f"{len(stacks)} samples; {share(outside, len(stacks))} stop outside the benchmark binary, "
      f"{share(rustless, len(stacks))} with no frame in it")

def tables(chosen, rows, instructions):
    own, incl, insn = collections.Counter(), collections.Counter(), collections.Counter()
    for s in chosen:
        if s and s[0]:
            own[s[0][0]] += 1
            insn[f"{s[0][0]}+{s[0][1]:#x}"] += 1
        for name in {f[0] for f in s if f and len(f) == 2}:
            incl[name] += 1
    total = max(len(chosen), 1)
    shown = (("self", own), ("inclusive", incl)) + ((("instruction", insn),) if instructions else ())
    for title, counts in shown:
        print(f"top {title} %")
        for name, k in counts.most_common(rows if title != "instruction" else 8):
            print(f"  {100 * k / total:6.2f}  {name[:110]}")
        print()

chosen = [s for s in stacks if not root_frame or any(f and root_frame in f[0] for f in s)]
if not chosen:
    sys.exit(f"profile.sh: no sampled stack holds a frame matching {root_frame!r}")
print(f"{len(chosen)} samples under {root_frame or 'any frame'!r}\n")
tables(chosen, 15, True)

# A thread's role is the marker most of its samples hold.
roles = {"proxy reactor": ("ProxyRole",), "origin reactor": ("OriginRole",),
         "load generator": ("serve::Reader", "serve::writer_loop")}
by_tid = collections.defaultdict(list)
for tid, s in zip(tids, stacks):
    by_tid[tid].append(s)
role_of = {}
for tid, ss in by_tid.items():
    hits = {r: sum(any(f and any(m in f[0] for m in ms) for f in s) for s in ss) for r, ms in roles.items()}
    best = max(hits, key=hits.get)
    role_of[tid] = best if hits[best] else "the rest"
for role in (*roles, "the rest"):
    ss = [s for tid, s in zip(tids, stacks) if role_of[tid] == role]
    threads = sum(r == role for r in role_of.values())
    print(f"== {role}: {len(ss)} samples ({share(len(ss), len(stacks))} of all), {threads} thread(s)\n")
    if ss:
        tables(ss, 20, False)
EOF
