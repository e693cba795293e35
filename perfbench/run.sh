#!/usr/bin/env bash
# Builds the release CLI and the benchmark from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload campaign-mix --seed 1 --seconds 12 --trace 0
#   bash perfbench/run.sh run --seeds 1..11 --out base.jsonl
#   bash perfbench/run.sh compare base.jsonl changed.jsonl
#
# Both builds share one target directory ($CARGO_TARGET_DIR, default
# `target`), so the benchmark finds the CLI beside itself.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin revisionist-simulations >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/rsim-perfbench" "$@"
