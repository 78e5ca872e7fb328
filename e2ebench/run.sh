#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and runs
# it with the given arguments, for example
#
#   bash e2ebench/run.sh --workload fanout --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, module cache, Go's
# own configuration) stays under .bench_build/ at the root of the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$here/../.bench_build"
mkdir -p "$out/home"
(
	cd "$here"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off \
		GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod \
		go build -o "$out/e2ebench" .
)
exec "$out/e2ebench" "$@"
