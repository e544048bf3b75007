#!/usr/bin/env bash
# Builds ufpserve and the benchmark from the checkout in the current
# directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload solve-mix --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binaries, Go build cache) stays under
# .bench_build in the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off CGO_ENABLED=0
go build -o "$out/ufpserve" ./cmd/ufpserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --server "$out/ufpserve" "$@"
