#!/usr/bin/env bash
# Builds the benchmark (once; later calls hit Go's build cache) and runs it
# with the arguments given. Everything written stays under bench/out/.
#
#   bash bench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh                 # every workload, each in a fresh process
#   bash bench/run.sh --aa 5          # the A/A acceptance table
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$here/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/bench" .) >&2
exec "$out/bench" --outdir "$out" "$@"
