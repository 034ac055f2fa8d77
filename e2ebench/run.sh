#!/usr/bin/env bash
# Builds pepscale's end-to-end benchmark from source and runs it from the
# root of the checkout that holds this script. All flags pass through:
#
#   bash e2ebench/run.sh --workload search-a-fragidx --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, generated inputs, cached references
# and span logs all stay under .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
if [[ ! -f go.mod || ! -d internal/core ]]; then
	echo "e2ebench: $root is not a pepscale checkout (no go.mod or internal/core)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
go -C "$here" build -buildvcs=false -o "$out/bin/e2ebench" .
exec "$out/bin/e2ebench" "$@"
