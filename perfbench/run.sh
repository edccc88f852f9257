#!/usr/bin/env bash
# Builds the `wms` binary under test and the benchmark harness from
# source, then runs one benchmark run. Run from the repository root:
#
#   bash perfbench/run.sh --workload csv-embed-64 --seed 1 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build) and to
# stderr; the run's result is the last line of stdout.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

if [ ! -f Cargo.toml ] || [ ! -d crates/cli ]; then
    echo "perfbench: run from the repository root (no wms sources here)" >&2
    exit 2
fi

cargo build --release --offline --quiet -p wms-cli --bin wms >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/perfbench" --wms "$CARGO_TARGET_DIR/release/wms" "$@"
