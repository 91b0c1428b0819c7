#!/usr/bin/env bash
# Sampled CPU profile of one benchmark workload, on a machine without
# `perf`: a SIGPROF sampler preloaded into `benchmark child` walks the
# frame-pointer stack every millisecond of CPU time, and `addr2line`
# names the frames.
#
#   scripts/profile.sh WORKLOAD [RUNS=3] [SEED=0x11]
#
# Builds `benchmark/` with `-C force-frame-pointers=yes` and line tables
# into `target/profile-bench` (never into `benchmark/target`, so a later
# benchmark build is not perturbed), compiles the sampler with `gcc` into
# a fresh directory under $TMPDIR, runs `benchmark child --workload
# WORKLOAD --trace 0` RUNS times under it, and prints three tables: self
# share by function (the innermost inlined function at the sampled pc;
# an inlined function shows under its short DWARF name),
# inclusive share by function (every function on the stack, inlined ones
# included, counted once per sample), and self share by source line.
# Frames outside the benchmark binary (libc, the allocator) count as
# `[outside the binary]`; their callers are not walked, so their time is
# missing from the inclusive table. Only the main thread's stack is
# walked: a sample on another thread keeps its pc alone.
#
# Needs `gcc` and binutils' `addr2line`; downloads nothing and writes
# nothing outside `target/` and the $TMPDIR directory.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: scripts/profile.sh WORKLOAD [RUNS=3] [SEED=0x11]" >&2
    exit 2
fi
workload=$1
runs=${2:-3}
seed=${3:-0x11}
top=${TOP:-25}
root=$(cd "$(dirname "$0")/.." && pwd)
target="$root/target/profile-bench"
bin="$target/release/benchmark"
out="${TMPDIR:-/tmp}/profile.$$"
mkdir -p "$out"

echo "== build $bin (frame pointers, line tables) ==" >&2
CARGO_TARGET_DIR="$target" RUSTFLAGS="-C force-frame-pointers=yes" \
    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"

cat >"$out/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>
#define WORDS (1 << 22)
#define DEPTH 128
static unsigned long buf[WORDS], used, stack_lo, stack_hi, exe_lo, exe_hi;
static char busy;
static void on_prof(int sig, siginfo_t *si, void *arg) {
    greg_t *r = ((ucontext_t *)arg)->uc_mcontext.gregs;
    if (__atomic_test_and_set(&busy, __ATOMIC_ACQUIRE)) return;
    unsigned long sp = r[REG_RSP], fp = r[REG_RBP], n = used, start = n;
    if (n + DEPTH + 2 < WORDS) {
        buf[++n] = r[REG_RIP];
        int walk = sp >= stack_lo && sp < stack_hi;
        while (walk && n - start < DEPTH && fp >= sp && fp + 16 <= stack_hi && !(fp & 7)) {
            unsigned long *frame = (unsigned long *)fp;
            buf[++n] = frame[1];
            if (frame[0] <= fp) break;
            fp = frame[0];
        }
        buf[start] = n - start;
        used = n + 1;
    }
    __atomic_clear(&busy, __ATOMIC_RELEASE);
}
__attribute__((constructor)) static void start(void) {
    char exe[4096] = "", line[8192], path[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[len > 0 ? len : 0] = 0;
    FILE *maps = fopen("/proc/self/maps", "r");
    unsigned long lo, hi, off;
    while (maps && fgets(line, sizeof line, maps)) {
        path[0] = 0;
        if (sscanf(line, "%lx-%lx %*s %lx %*s %*s %4095s", &lo, &hi, &off, path) < 3) continue;
        if (!strcmp(path, "[stack]")) stack_lo = lo, stack_hi = hi;
        if (!strcmp(path, exe) && off == 0 && !exe_lo) exe_lo = lo;
        if (!strcmp(path, exe)) exe_hi = hi;
    }
    if (maps) fclose(maps);
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}
__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *f = fopen(getenv("PROF_OUT"), "w");
    for (unsigned long i = 0; f && i < used; i += buf[i] + 1) {
        for (unsigned long k = 1; k <= buf[i]; k++) {
            unsigned long a = buf[i + k] - (k > 1); /* a return address points past its call */
            if (a >= exe_lo && a < exe_hi) fprintf(f, "%s%lx", k > 1 ? " " : "", a - exe_lo);
            else fprintf(f, "%sx", k > 1 ? " " : "");
        }
        fputc('\n', f);
    }
    if (f) fclose(f);
}
EOF
gcc -shared -fPIC -O2 -o "$out/sampler.so" "$out/sampler.c"

for i in $(seq 1 "$runs"); do
    echo "== run $i/$runs: $workload, seed $seed ==" >&2
    PROF_OUT="$out/samples.$i" LD_PRELOAD="$out/sampler.so" \
        "$bin" child --workload "$workload" --seed "$seed" --trace 0 --out "$out/child" >/dev/null
done

cat "$out"/samples.* | tr ' ' '\n' | grep -v '^x$' | grep . | sort -u | sed 's/^/0x/' |
    addr2line -e "$bin" -f -C -i -a >"$out/symbols"

# table TITLE FILE: "count<TAB>name" rows, largest first, as shares.
table() {
    echo
    echo "$1"
    sort -t"$(printf '\t')" -k1,1nr "$2" |
        awk -F'\t' -v total="$samples" -v top="$top" \
            'NR <= top { printf "%7.2f%%  %s\n", 100 * $1 / total, $2 }'
}

samples=$(cat "$out"/samples.* | wc -l)
awk -v dir="$out" -v root="$root/" '
    function key(a) { sub(/^0x0*/, "", a); return a }
    function clean(name) { sub(/::h[0-9a-f]+$/, "", name); return name }
    FNR == NR {
        if ($0 ~ /^0x/) { addr = key($0); levels[addr] = 0; pending = 1; next }
        if (pending) { fn[addr, ++levels[addr]] = clean($0); pending = 0 }
        else {
            loc[addr, levels[addr]] = index($0, root) == 1 ? substr($0, length(root) + 1) : $0
            pending = 1
        }
        next
    }
    {
        n++
        if ($1 == "x") { self["[outside the binary]"]++; line["[outside the binary]"]++ }
        else { self[fn[$1, 1]]++; line[loc[$1, 1]]++ }
        for (f = 1; f <= NF; f++) {
            if ($f == "x") continue
            for (k = 1; k <= levels[$f]; k++) {
                name = fn[$f, k]
                if (seen[name] != n) { seen[name] = n; incl[name]++ }
            }
        }
    }
    END {
        for (name in self) printf "%d\t%s\n", self[name], name > (dir "/self")
        for (name in incl) printf "%d\t%s\n", incl[name], name > (dir "/incl")
        for (l in line) printf "%d\t%s\n", line[l], l > (dir "/lines")
    }' "$out/symbols" "$out"/samples.*

echo "$workload, seed $seed: $samples samples over $runs run(s) (1 ms of CPU time each)"
table "self share by function" "$out/self"
table "inclusive share by function" "$out/incl"
table "self share by source line" "$out/lines"
echo
echo "raw samples and symbols: $out" >&2
