#!/usr/bin/env bash
# Non-test line counts per crate and per file: the lines of each
# `crates/<crate>/src/**/*.rs` above its first `#[cfg(test)]` (the whole
# file when it has none). Integration tests under `crates/*/tests` and the
# workspace `tests/` are not counted. Run from anywhere:
#
#   scripts/loc.sh              # every crate
#   scripts/loc.sh runtime      # only crates/runtime
#
# Prints one `<lines>  <file>` row per file, then `<lines>  <crate> (total)`.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- $(ls crates)
fi
grand=0
for crate in "$@"; do
    dir="crates/$crate/src"
    [ -d "$dir" ] || { echo "no such crate: $crate" >&2; exit 2; }
    total=0
    while IFS= read -r f; do
        n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
        printf '%6d  %s\n' "$n" "$f"
        total=$((total + n))
    done < <(find "$dir" -name '*.rs' | sort)
    printf '%6d  %s (total)\n' "$total" "$crate"
    grand=$((grand + total))
done
if [ "$#" -gt 1 ]; then
    printf '%6d  all crates\n' "$grand"
fi
