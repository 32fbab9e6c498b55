#!/usr/bin/env bash
# Builds bagcd and the perfbench load generator from the checkout it is
# run in, then runs the generator with the given arguments:
#
#   bash perfbench/run.sh --workload hot-repeat --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the runs
# write (Go build cache, binaries, daemon data directories, span dumps)
# stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/bagcd" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/bagcd here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTELEMETRY=off GOFLAGS= GOWORK=off GOENV=off GOPROXY=off

go build -o "$out/bin/bagcd" ./cmd/bagcd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -daemon "$out/bin/bagcd" "$@"
