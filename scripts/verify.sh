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

echo "== warnings gate (compiler warnings are errors, every target) =="
# Tests, examples and binaries included, so an unused binding in a test
# fails here instead of scrolling past in every build.
RUSTFLAGS="-D warnings" cargo check --workspace --all-targets --offline

echo "== clippy gate (lint warnings are errors, every target) =="
# Clippy's default lints on top of rustc's: a redundant clone, an indexing
# loop or a needless borrow fails here.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== docs gate (rustdoc warnings are errors) =="
# A broken or private intra-doc link fails here, so a doc comment that
# names a deleted item cannot outlive it.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== event-queue and corruption properties (release, 5000 cases each) =="
# At a hundred times the default case count: the calendar queue against
# the binary heap, pop for pop, over the adversarial generator shapes
# (decreasing runs, same-bucket years, stale pushes, a 65 536-event
# burst, resize cycles); the simulator on each queue kind dispatching in
# strict (time, seq) order while it batches same-timestamp runs (storms,
# a 1 000-event burst, mid-run injections, faults); and the corruption
# properties. ~17 s on a 2-core VM.
IL_TESTKIT_CASES=5000 cargo test --release --offline -q -p il-machine \
    --test queue_props --test corrupt_props

echo "== dynamic-check properties (release, 5000 cases each) =="
# self_check / cross_check against the Listing-3 reference, byte for
# byte, over random and adversarial functors (wrong-rank colors, empty
# domains, overflowing coefficients), and dense vs sparse launch domains
# with the same points. The default case count misses a wrong-rank color
# that 5000 cases reach. Well under a second on a 2-core VM.
IL_TESTKIT_CASES=5000 cargo test --release --offline -q -p il-analysis \
    --test bitmask_props --test functor_edges

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
# below). The 256-node circuit run retries 25 048 tasks over 8 192 (a
# probe re-sends a task only on news), driving the retry log and
# per-edge paid bits at scale.
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
# are wall-clock and excluded.
csvtmp="$(mktemp -d)"
trap 'rm -rf "$csvtmp"' EXIT
cargo run --release --offline -q -p il-bench --bin figures -- \
    fig4 fig5 fig6 fig7 fig8 fig9 fig10 --out-dir "$csvtmp" > /dev/null
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

echo "== service-mode smoke (3 policies x seeded 8-tenant mix) =="
# The multi-tenant service scheduler: the standard balanced mix and the
# skewed tail-latency mix under fifo, fair-share, and aged-priority on
# the shared simulated machine. Prints per-policy throughput and
# latency percentiles; conservation (finished + rejected == submitted)
# is asserted by the binary and the service_mode/sched_props test tiers
# in `cargo test` above, which also hold fair share's skewed-mix p99
# below FIFO's (service_mode::fair_share_beats_fifo_tail_on_skewed_mix).
cargo run --release --offline -q -p il-apps --bin ilaunch -- serve --policy all
cargo run --release --offline -q -p il-apps --bin ilaunch -- serve --policy all --skewed --mean-gap-us 900

echo "== AMR regrid invalidation smoke (release) =="
# The adaptive-mesh app refines/coarsens its block partition every
# epoch, forcing analysis-cache misses and trace invalidation +
# re-capture; the fault-free validated run (in the validated-apps leg
# above) must match the sequential reference, and this leg re-checks the
# same result under recovery. The run prints the trace-replay counters;
# regrids showing `invalidated >= 1` at every cadence is locked by
# trace_replay::amr_cadence_counts_are_deterministic_and_monotone.
cargo run --release --offline -q -p il-apps --bin ilaunch -- amr --validate --faults 7

echo "== sparse-graph oracle leg (release) =="
# PageRank's data-dependent opaque projection (σ over ghost sets of a
# seeded power-law graph) drives the dynamic bitmask-check path; the
# validated run cross-checks final ranks against the sequential
# reference under the survivable fault schedule (fault-free: the
# validated-apps leg above).
cargo run --release --offline -q -p il-apps --bin ilaunch -- pagerank --validate --faults 7

echo "== pagerank at 1e5 pieces (release) =="
# Every update launch of a 1e5-piece pagerank takes the dynamic check.
# This keeps the oracle's privilege-aware registration, the dynamized
# BVH, and the BVH-pruned disjointness check honest: any of the three
# regressing to quadratic turns this leg from seconds into minutes.
# Release-only: the test is #[cfg(not(debug_assertions))]-gated.
cargo test --release --offline -q --test safety_matrix pagerank_at_1e5_pieces_rides_the_dynamic_check

echo "== stencil output bits at validate-sdc's size (release) =="
# The stencil kernel runs on rows of its blocks; at 768² cells (the
# benchmark's validate-sdc grid) its output must keep the bits of the
# per-point kernel. Release-only: the test is
# #[cfg(not(debug_assertions))]-gated.
cargo test --release --offline -q --test validation_pins stencil_768_fout_bits_are_pinned

echo "== chaos leg at 65k simulated nodes (release) =="
# The full runtime stack — expansion, distribution, recovery — on a
# 65,536-node machine, fault-free and faulted. Release-only: the test
# is #[cfg(not(debug_assertions))]-gated.
cargo test --release --offline -q --test fault_injection chaos_leg_at_65k

echo "verify.sh: all green"
