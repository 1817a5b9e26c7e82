#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it, forwarding every
# argument. Everything the build writes (Go build cache included) stays
# under .bench_build/ at the root of the checkout; nothing outside the
# checkout is read or written.
#
#   bash benchmark/run.sh --workload olsr_flood --seed 1 --seconds 12 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
# The benchmark is its own module whose go.mod points at the repository
# root (replace manetkit => ../); without that root the build fails and the
# script exits non-zero before printing anything.
(cd "$here" && go build -o "$build/manetbench" .)
cd "$root"
exec "$build/manetbench" "$@"
