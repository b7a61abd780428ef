#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload sale --seed 1 --seconds 15 --trace 0
# Build output goes to stderr, so standard output ends with the result line.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/zkdet-perfbench" "$@"
