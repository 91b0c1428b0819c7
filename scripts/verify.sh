#!/usr/bin/env bash
# Tier-1 verification: the workspace must build, test green, and stay
# hermetic (zero non-path dependencies, so it works with no network and
# no registry). Run from the repo root:
#
#   scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== guard: crates/*/Cargo.toml must declare only path dependencies =="
# Any dependency line with a version requirement or registry source is a
# violation; `workspace = true` entries resolve to the path-only
# [workspace.dependencies] table in the root manifest.
bad=0
for manifest in crates/*/Cargo.toml; do
    # Strip comments, then look for dependency-table lines that name a
    # version/git/registry source.
    if sed 's/#.*//' "$manifest" | grep -nE '^[a-zA-Z0-9_-]+[[:space:]]*=[[:space:]]*("[^"]+"|\{[^}]*(version|git|registry)[[:space:]]*=)' \
        | grep -vE '^[0-9]+:(name|version|edition|license|rust-version|description|path|workspace|harness|test|bench)[[:space:]]*='; then
        echo "non-path dependency in $manifest (lines above)"
        bad=1
    fi
done
if ! grep -q 'path = "crates/' Cargo.toml; then
    echo "root Cargo.toml lost its path-only [workspace.dependencies]"
    bad=1
fi
# Within [workspace.dependencies], every entry must be a path dependency.
if awk '/^\[workspace.dependencies\]/{t=1; next} /^\[/{t=0} t' Cargo.toml \
    | sed 's/#.*//' \
    | grep -nE '=[[:space:]]*("|\{[^}]*(version|git|registry)[[:space:]]*=)' \
    | grep -v 'path[[:space:]]*='; then
    echo "root [workspace.dependencies] declares a non-path dependency (lines above)"
    bad=1
fi
[ "$bad" -eq 0 ] || { echo "hermetic-build guard FAILED"; exit 1; }
echo "hermetic-build guard OK"

echo "== cargo build --release =="
cargo build --release --offline

echo "== cargo test -q =="
cargo test -q --offline

echo "== event-queue and corruption properties (release, 5000 cases each) =="
# The calendar queue against the binary heap, pop for pop, over the
# adversarial generator shapes (decreasing runs, same-bucket years, stale
# pushes, a 65 536-event burst, resize cycles), and the corruption
# properties, at a hundred times the default case count.
IL_TESTKIT_CASES=5000 cargo test --release --offline -q -p il-machine \
    --test queue_props --test corrupt_props

echo "== differential fuzz smoke (release, 200 seeded programs) =="
cargo run --release --offline -q -p il-apps --bin ilaunch -- fuzz --cases 200 --seed 42

echo "== differential fuzz self-test (--inject must catch every case) =="
cargo run --release --offline -q -p il-apps --bin ilaunch -- fuzz --cases 8 --seed 42 --inject

echo "== chaos smoke (200 seeded programs, each re-run under a fault schedule) =="
# Every case re-executes under the survivable fault schedule derived
# from the --faults seed and its case seed: same task set, makespan no
# better than fault-free, byte-identical replay.
cargo run --release --offline -q -p il-apps --bin ilaunch -- fuzz --cases 200 --seed 42 --faults 0xFA17

echo "== corruption smoke (200 seeded programs, replicate-2 digest-vote defense) =="
# Every case re-executes under a seeded bit-flip schedule (task outputs
# + message payloads) with the replicate-2 defense armed: zero escapes,
# final store byte-equal to the fault-free run, byte-identical replay.
cargo run --release --offline -q -p il-apps --bin ilaunch -- fuzz --cases 200 --seed 42 --corrupt 0x5DC0

echo "== replay-equivalence tier (trace capture & replay) =="
# Trace replay is host-side memoization: these tiers assert replay-on
# vs replay-off runs are byte-identical (reports, stage attribution,
# final stores) over the oracle corpus, the golden apps, and randomized
# iterative programs with mid-run mutations, and that repeated launch
# sequences actually replay. The fuzz legs above also check on/off
# report equality per case, so the 200-case corpus carries it too.
cargo test --release --offline -q --test trace_replay
cargo test --release --offline -q -p il-runtime --test trace_props

echo "== chaos smoke (validated app runs under faults, one scale-mode retry storm) =="
# A faulted validate-mode run must still match the sequential reference
# (the binary asserts it) while the recovery protocol re-shards the
# crashed node's work: stencil and circuit here, soleil re-sharding 21
# groups at 4 nodes (AMR and pagerank run faulted in their own legs
# below). The 256-node circuit run retries ~61k tasks over 8k, driving
# the retry log and per-edge paid bits at scale.
cargo run --release --offline -q -p il-apps --bin ilaunch -- stencil --nodes 4 --validate --faults 7
cargo run --release --offline -q -p il-apps --bin ilaunch -- circuit --validate --faults 7
cargo run --release --offline -q -p il-apps --bin ilaunch -- soleil --validate --faults 7
cargo run --release --offline -q -p il-apps --bin ilaunch -- circuit --nodes 256 --faults 7

echo "== validated apps (release, each against its sequential reference) =="
# Task bodies over real instances end to end: row-run copies of ranks
# 1-3, the per-point fallback for sparse windows (circuit's and
# pagerank's ghost sets) and folds (circuit's charge reduction). Each
# binary asserts its result against the app's sequential reference.
for app in circuit soleil amr pagerank; do
    cargo run --release --offline -q -p il-apps --bin ilaunch -- "$app" --validate
done

echo "== figure CSV pin guard (regenerate, byte-compare against results/) =="
# The figure sweeps are deterministic DES output: regenerating them must
# reproduce the pinned CSVs byte-for-byte at any pool width. Tables 2–3
# are wall-clock and excluded. --no-bench skips the trajectory here.
csvtmp="$(mktemp -d)"
trap 'rm -rf "$csvtmp"' EXIT
cargo run --release --offline -q -p il-bench --bin figures -- \
    fig4 fig5 fig6 fig7 fig8 fig9 fig10 --out-dir "$csvtmp" --no-bench > /dev/null
for f in fig4 fig5 fig6 fig7 fig8 fig9 fig10; do
    cmp "results/$f.csv" "$csvtmp/$f.csv" \
        || { echo "pinned results/$f.csv drifted from regenerated output"; exit 1; }
done
echo "pinned figure CSVs reproduce byte-identically"

echo "== benchmark leg (benchmark/ builds against this library; rules.json at smoke size) =="
# benchmark/ is a workspace of its own that the driver of BENCHMARK.json
# builds from source, so a library change that breaks its build or
# trips a rules.json row must fail here, not in the pipeline. Smoke
# size: every workload at ~1/16, well under 30 s; the build lands in
# benchmark/target (ignored), results only under $TMPDIR.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- run --smoke \
    > "$csvtmp/benchmark-smoke.txt" 2>&1 \
    || { cat "$csvtmp/benchmark-smoke.txt"; echo "benchmark smoke failed"; exit 1; }
tail -n 1 "$csvtmp/benchmark-smoke.txt"

echo "== bench smoke (BENCH_PR4.json wall-clock trajectory) =="
# Re-measures the analysis kernels and the PR's before/after pairs
# (reference vs word-parallel checks at 10^6, cache off/on, repeats 5
# vs 1 on the fig4 smoke sweep) and rewrites BENCH_PR4.json.
cargo run --release --offline -q -p il-bench --bin figures -- \
    fig4 --max-nodes 4 --out-dir "$csvtmp" > /dev/null
test -s BENCH_PR4.json || { echo "BENCH_PR4.json was not written"; exit 1; }
echo "BENCH_PR4.json written"

echo "== bench smoke (BENCH_PR6.json replay trajectory) =="
# The same `figures -- bench` invocation measures per-iteration
# analysis overhead (ExpandProfile: verdicts + oracle scans + dist
# planning + recorder validation) on the iterative apps with replay on
# vs off and writes BENCH_PR6.json alongside BENCH_PR4.json.
test -s BENCH_PR6.json || { echo "BENCH_PR6.json was not written"; exit 1; }
echo "BENCH_PR6.json written"

echo "== machine-scale smoke (65k-node weak-scaling sweep, BENCH_PR7.json) =="
# The raw-DES weak-scaling sweep: calendar queue + O(1) fault tables +
# O(active) clock arena vs. the legacy heap/scan baseline, at the CI
# smoke size. Writes the BENCH_PR7.json trajectory; the full 1M-node
# sweep is `figures -- scale` with no cap.
cargo run --release --offline -q -p il-bench --bin figures -- \
    scale --scale-max-nodes 65536 --no-bench
test -s BENCH_PR7.json || { echo "BENCH_PR7.json was not written"; exit 1; }
echo "BENCH_PR7.json written"

echo "== service-mode smoke (3 policies x seeded 8-tenant mix) =="
# The multi-tenant service scheduler: the standard balanced mix and the
# skewed tail-latency mix under fifo, fair-share, and aged-priority on
# the shared simulated machine. Prints per-policy throughput and
# latency percentiles; conservation (finished + rejected == submitted)
# is asserted by the binary and the service_mode/sched_props test tiers
# in `cargo test` above.
cargo run --release --offline -q -p il-apps --bin ilaunch -- serve --policy all
cargo run --release --offline -q -p il-apps --bin ilaunch -- serve --policy all --skewed --mean-gap-us 900

echo "== service-mode bench (BENCH_PR8.json policy sweep) =="
# Per-policy throughput and p50/p95/p99 latency over the balanced and
# skewed mixes. The headline property — fair share's p99 measurably
# below FIFO's under the skewed mix — is recorded as a boolean the
# smoke greps for.
cargo run --release --offline -q -p il-bench --bin figures -- serve --no-bench
test -s BENCH_PR8.json || { echo "BENCH_PR8.json was not written"; exit 1; }
grep -q '"schema": "il-bench-trajectory-v1"' BENCH_PR8.json \
    || { echo "BENCH_PR8.json has the wrong schema"; exit 1; }
grep -q '"pr": "PR8"' BENCH_PR8.json \
    || { echo "BENCH_PR8.json is not the PR8 trajectory"; exit 1; }
grep -q '"fair_beats_fifo_p99": true' BENCH_PR8.json \
    || { echo "fair share did not beat FIFO p99 on the skewed mix"; exit 1; }
echo "BENCH_PR8.json written (fair-share p99 < FIFO p99 on the skewed mix)"

echo "== sdc bench (BENCH_PR9.json replication-overhead sweep) =="
# Golden apps under a corrupting schedule at replication factors
# k in {1,2,3}: makespan overhead vs the undefended run, verify-stage
# busy time, detection/rerun counters. The sweep re-asserts zero
# escapes and store convergence at every defended point.
cargo run --release --offline -q -p il-bench --bin figures -- sdc --no-bench
test -s BENCH_PR9.json || { echo "BENCH_PR9.json was not written"; exit 1; }
grep -q '"schema": "il-bench-trajectory-v1"' BENCH_PR9.json \
    || { echo "BENCH_PR9.json has the wrong schema"; exit 1; }
grep -q '"pr": "PR9"' BENCH_PR9.json \
    || { echo "BENCH_PR9.json is not the PR9 trajectory"; exit 1; }
echo "BENCH_PR9.json written"

echo "== AMR regrid invalidation smoke (release) =="
# The adaptive-mesh app refines/coarsens its block partition every
# epoch, forcing analysis-cache misses and trace invalidation +
# re-capture; the fault-free validated run (in the validated-apps leg
# above) must match the sequential reference, and this leg re-checks the
# same result under recovery. The run prints the trace-replay counters;
# regrids showing `invalidated >= 1` is locked by the il-bench
# cadence-sweep test.
cargo run --release --offline -q -p il-apps --bin ilaunch -- amr --validate --faults 7

echo "== sparse-graph oracle leg (release) =="
# PageRank's data-dependent opaque projection (σ over ghost sets of a
# seeded power-law graph) drives the dynamic bitmask-check path; the
# validated run cross-checks final ranks against the sequential
# reference under the survivable fault schedule (fault-free: the
# validated-apps leg above).
cargo run --release --offline -q -p il-apps --bin ilaunch -- pagerank --validate --faults 7

echo "== apps bench (BENCH_PR10.json regrid-cadence + dynamic-check sweep) =="
# AMR trace/cache hit rates + invalidation counts across regrid
# cadences, and pagerank's dynamic-check throughput at 1e5+ pieces.
# The 1e5-piece floor keeps the oracle's privilege-aware registration,
# the dynamized BVH, and the BVH-pruned disjointness check honest: any
# of the three regressing to quadratic turns this leg from seconds
# into minutes.
cargo run --release --offline -q -p il-bench --bin figures -- apps --no-bench --apps-pieces 100000
test -s BENCH_PR10.json || { echo "BENCH_PR10.json was not written"; exit 1; }
grep -q '"schema": "il-bench-trajectory-v1"' BENCH_PR10.json \
    || { echo "BENCH_PR10.json has the wrong schema"; exit 1; }
grep -q '"pr": "PR10"' BENCH_PR10.json \
    || { echo "BENCH_PR10.json is not the PR10 trajectory"; exit 1; }
grep -q '"amr_cadence"' BENCH_PR10.json \
    || { echo "BENCH_PR10.json is missing the AMR cadence sweep"; exit 1; }
grep -q '"pagerank_dynamic"' BENCH_PR10.json \
    || { echo "BENCH_PR10.json is missing the pagerank dynamic-check sweep"; exit 1; }
echo "BENCH_PR10.json written"

echo "== chaos leg at 65k simulated nodes (release) =="
# The full runtime stack — expansion, distribution, recovery — on a
# 65,536-node machine, fault-free and faulted. Release-only: the test
# is #[cfg(not(debug_assertions))]-gated.
cargo test --release --offline -q --test fault_injection chaos_leg_at_65k

echo "verify.sh: all green"
