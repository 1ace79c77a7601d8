#!/bin/sh
# Prints code lines (non-blank, non-comment, before the first #[cfg(test)])
# for the two crates the ROADMAP's size aim tracks. Print only; no gate.
set -eu
cd "$(dirname "$0")/.."
for dir in crates/core/src crates/serve/src; do
    total=0
    for f in "$dir"/*.rs; do
        n=$(awk '/^#\[cfg\(test\)\]/{exit} !/^[[:space:]]*(\/\/|$)/{n++} END{print n+0}' "$f")
        total=$((total + n))
    done
    echo "$dir $total"
done
