#!/usr/bin/env bash
# Paired parent-vs-change runs of one benchmark workload (the protocol of
# the choosing-metrics guide, section 8): build `benchmark/` offline in
# both checkouts, run PAIRS pairs with seeds 0x11+i and `--trace 0`,
# alternating which side goes first, and print the four end-to-end
# metrics of each side per pair and as median [q1, q3], plus how many
# pairs the change won on each metric (ties count for neither side).
# Last, one `--trace 1` run per side at seed 0x11 and `benchmark diff`
# between them: which simulated times and counters moved, by name.
#
#   scripts/ab_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS=10] [SECONDS=12] [SEED]
#
# PARENT_DIR is a `git clone` of the parent commit; CHANGE_DIR is usually
# `.`. A SEED (e.g. 0x16) runs every pair and the traced diff at that one
# seed instead: on a workload whose seed picks its fault schedule
# (`chaos-scale`), seeds 0x11+i mix schedule variation into the spread.
# Nothing is written outside each checkout's (ignored)
# `benchmark/target` and a fresh directory under $TMPDIR.
set -euo pipefail

if [ $# -lt 3 ]; then
    echo "usage: scripts/ab_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS=10] [SECONDS=12] [SEED]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seconds=${5:-12}
fixed_seed=${6:-}
metrics="wall_s work_per_s peak_rss_mb setup_s"
out="${TMPDIR:-/tmp}/ab_pairs.$$"
mkdir -p "$out"
: >"$out/parent.txt" >"$out/change.txt"

for dir in "$parent" "$change"; do
    echo "== build $dir/benchmark ==" >&2
    CARGO_TARGET_DIR="$dir/benchmark/target" \
        cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml"
done

# run SIDE DIR SEED: one driver-style run. The result object is the last
# line of stdout; its four values go to $row and to $out/SIDE.txt.
run() {
    local side=$1 dir=$2 seed=$3
    row=$("$dir/benchmark/target/release/benchmark" run --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 --out "$out/$side.out" |
        awk -v keys="$metrics" '
            { last = $0 }
            END {
                if (last !~ /"correct":true/ || last !~ /"failed":0,/) exit 1
                n = split(keys, k, " ")
                for (i = 1; i <= n; i++) {
                    tag = "\"" k[i] "\":{\"value\":"
                    v = substr(last, index(last, tag) + length(tag))
                    sub(/[,}].*/, "", v)
                    printf "%.6g%s", v, (i < n ? " " : "\n")
                }
            }') || { echo "$side, seed $seed: incorrect run or failed operations" >&2; exit 1; }
    echo "$row" >>"$out/$side.txt"
}

printf '%-4s %-6s %-7s | %-44s | %s\n' pair seed first "parent: $metrics" "change: $metrics"
for ((i = 0; i < pairs; i++)); do
    seed=${fixed_seed:-$(printf '0x%x' $((0x11 + i)))}
    if ((i % 2 == 0)); then
        first=parent
        run parent "$parent" "$seed" && prow=$row
        run change "$change" "$seed" && crow=$row
    else
        first=change
        run change "$change" "$seed" && crow=$row
        run parent "$parent" "$seed" && prow=$row
    fi
    printf '%-4s %-6s %-7s | %-44s | %s\n' "$i" "$seed" "$first" "$prow" "$crow"
done

# Median and quartiles by linear interpolation over the sorted column.
quartiles() {
    awk -v c="$2" '{ print $c }' "$1" | sort -g | awk '
        { v[NR] = $1 }
        function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
        END { printf "%.4g [%.4g, %.4g]", q(0.5), q(0.25), q(0.75) }'
}

echo
echo "$workload, $pairs pairs, --seconds $seconds${fixed_seed:+, seed $fixed_seed}: median [q1, q3]"
col=0
for m in $metrics; do
    col=$((col + 1))
    wins=$(awk -v c=$col -v m="$m" '
        NR == FNR { p[FNR] = $c; next }
        { if (m == "work_per_s" ? $c > p[FNR] : $c < p[FNR]) w++ }
        END { print w + 0 }' "$out/parent.txt" "$out/change.txt")
    printf '%-12s parent %-28s change %-28s change better in %s of %s\n' "$m" \
        "$(quartiles "$out/parent.txt" $col)" "$(quartiles "$out/change.txt" $col)" "$wins" "$pairs"
done
echo "raw rows: $out/parent.txt $out/change.txt"

# Counter movement, listed mechanically: one traced run per side at seed
# 0x11 (or SEED), then `benchmark diff`'s verdict on every simulated time and
# counter — its `exact` summary line and one `differs` line per metric
# that moved. (`diff` exits 1 when anything differs; that is the report.)
echo
traced_seed=${fixed_seed:-0x11}
echo "$workload, --trace 1, seed $traced_seed: simulated times and counters, parent -> change"
for side in parent change; do
    "${!side}/benchmark/target/release/benchmark" run --workload "$workload" \
        --seed "$traced_seed" --seconds "$seconds" --trace 1 --out "$out/$side.traced" >/dev/null
done
report=$("$change/benchmark/target/release/benchmark" diff \
    "$out/parent.traced/result.json" "$out/change.traced/result.json") || true
# A counter reported under both `exact` and `layers` is listed by `diff`
# once per section; print it once.
grep -E ' (exact|differs) ' <<<"$report" | awk '!seen[$0]++'
