#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload disk-probe --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, scratch
# files and the cached exact references all live under .bench_build/ in that
# root, so nothing is read or written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOSUMDB=off GOFLAGS=
(cd perfbench && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
