#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload warm_replay --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own config and
# telemetry files) stays under .bench_build/ in the repository root, and
# the toolchain is never asked to download anything.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= CGO_ENABLED=0

(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" -root "$root" "$@"
