#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the root of a checkout:
#   bash e2ebench/run.sh --workload cold --seed 1 --seconds 15 --trace 0
# Build outputs, the Go build cache, the go command's own configuration
# and telemetry, store files and trace files all stay under .bench_build in
# the checkout.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off XDG_CONFIG_HOME="$out/config"
(cd "$bench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --workdir .bench_build "$@"
