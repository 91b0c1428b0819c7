#!/usr/bin/env bash
# Non-test line counts per crate and per file: the lines of each
# `crates/<crate>/src/**/*.rs` above its first `#[cfg(test)]` (the whole
# file when it has none). Integration tests under `crates/*/tests` and the
# workspace `tests/` are not counted. Run from anywhere:
#
#   scripts/loc.sh              # every crate
#   scripts/loc.sh runtime      # only crates/runtime
#
# Prints one `<lines>  <file>` row per file, then
# `<lines>  <crate> (total, <names> re-exports)`: <names> counts what the
# crate's `src/lib.rs` re-exports with `pub use` — each name of a braced
# list once, a single path (renamed with `as` or not) once.
set -euo pipefail
cd "$(dirname "$0")/.."

reexports() {
    awk '
        /^[[:space:]]*pub use / { stmt = ""; on = 1 }
        on { stmt = stmt " " $0 }
        on && /;/ {
            on = 0
            if (stmt !~ /\{/) { n++; next }
            sub(/^[^{]*\{/, "", stmt)
            sub(/\}.*$/, "", stmt)
            k = split(stmt, names, ",")
            for (i = 1; i <= k; i++) if (names[i] ~ /[^[:space:]]/) n++
        }
        END { print n + 0 }
    ' "$1"
}

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
    printf '%6d  %s (total, %d re-exports)\n' "$total" "$crate" "$(reexports "crates/$crate/src/lib.rs")"
    grand=$((grand + total))
done
if [ "$#" -gt 1 ]; then
    printf '%6d  all crates\n' "$grand"
fi
