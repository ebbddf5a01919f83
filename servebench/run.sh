#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the
# repository root:
#
#   bash servebench/run.sh --workload infer-closed --seed 1 --seconds 30 --trace 0
#
# Every build artifact (Go build cache, temporary files, the binary and the
# per-run reports) stays under .bench_build/ in the current directory.
set -euo pipefail

if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="$PATH:/usr/local/go/bin" # the standard install location
fi
root=$(pwd)
build="$root/.bench_build/servebench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOFLAGS= GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/servebench" && go build -o "$build/servebench" .)
exec "$build/servebench" -reports "$build/reports" "$@"
