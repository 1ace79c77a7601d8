#!/bin/sh
# Prints code lines (non-blank, non-comment, before the first #[cfg(test)])
# for the crates the ROADMAP's size aims track. Print only; no gate.
set -eu
cd "$(dirname "$0")/.."
for dir in crates/core/src crates/serve/src crates/baselines/src crates/shard/src; do
    total=0
    for f in "$dir"/*.rs; do
        n=$(awk '/^#\[cfg\(test\)\]/{exit} !/^[[:space:]]*(\/\/|$)/{n++} END{print n+0}' "$f")
        total=$((total + n))
    done
    echo "$dir $total"
done
