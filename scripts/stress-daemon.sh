#!/usr/bin/env bash
# Race check for the daemon: runs each daemon test binary N times on its
# own (default 20) and prints `name: k/N passed` per binary. Exits
# non-zero if any run failed, after printing the tail of its output.
#
#   scripts/stress-daemon.sh [N]
#
# The binaries are built once, in the same (debug) profile `cargo test`
# uses, and each run is one binary alone from its package directory, as
# `cargo test` would start it. Timing races that a full `cargo test`
# hides behind other binaries show up here. Not part of tier-1.
set -euo pipefail

N="${1:-20}"
cd "$(dirname "$0")/.."

# Test binary name and the package directory it runs from.
TESTS=(
    "daemon crates/daemon"
    "daemon_faults crates/bench"
    "daemon_stats crates/bench"
    "daemon_smoke crates/cli"
)

log=$(mktemp)
trap 'rm -f "$log"' EXIT

cargo test --offline --no-run -p wms-daemon -p wms-bench -p wms-cli \
    --test daemon --test daemon_faults --test daemon_stats --test daemon_smoke \
    >"$log" 2>&1 || { cat "$log" >&2; exit 2; }
build=$(cat "$log")

status=0
for spec in "${TESTS[@]}"; do
    read -r name dir <<<"$spec"
    exe=$(sed -nE "s|^ *Executable tests/${name}\.rs \((.*)\)$|\1|p" <<<"$build")
    if [ -z "$exe" ]; then
        echo "$name: test binary not found in the cargo output" >&2
        exit 2
    fi
    case "$exe" in /*) ;; *) exe="$PWD/$exe" ;; esac
    pass=0
    for ((i = 1; i <= N; i++)); do
        if (cd "$dir" && "$exe" -q) >"$log" 2>&1; then
            pass=$((pass + 1))
        else
            echo "--- $name run $i of $N failed:" >&2
            tail -n 30 "$log" >&2
        fi
    done
    echo "$name: $pass/$N passed"
    [ "$pass" -eq "$N" ] || status=1
done
exit "$status"
