#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash cmd/perfbench/run.sh --workload frames-mem --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes (binary, Go build
# cache, Go's own config/telemetry files) stays under .bench_build/ in the
# checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/cmd/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and cmd/perfbench/go.mod are required)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOTELEMETRY=off

(cd "$root/cmd/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
