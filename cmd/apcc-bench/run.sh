#!/usr/bin/env bash
# Builds apcc-bench from the checkout it is run in and runs it with the
# given flags. Run it from the root of the checkout:
#
#   bash cmd/apcc-bench/run.sh --workload hot-block --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ in the checkout; the build is offline and uses only the
# local toolchain.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

go build -C cmd/apcc-bench -o "$out/apcc-bench" .
exec "$out/apcc-bench" "$@"
