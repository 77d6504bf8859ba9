#!/usr/bin/env bash
# Builds tracerbench from source and runs it with the given arguments, e.g.
#
#   bash cmd/tracerbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Everything the Go toolchain and the
# benchmark write (build cache, binary, warm-store scratch) stays under
# .bench_build in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
(cd "$here" && go build -o "$build/tracerbench" .)
exec "$build/tracerbench" "$@"
