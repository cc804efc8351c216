#!/usr/bin/env bash
# Builds rrmladder and the rrmd daemon it drives from the checkout this is
# run in, then runs rrmladder with the given arguments. Run it from the
# repository root:
#
#   bash cmd/rrmladder/run.sh -workload all -seed 1
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, temp dirs, and result files.
set -euo pipefail

out=.bench_build/rrmladder
mkdir -p "$out/tmp"
root=$(pwd)
export GOCACHE="$root/$out/gocache" GOPATH="$root/$out/gopath" TMPDIR="$root/$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd cmd/rrmladder && go build -o "$root/$out/rrmladder" .)
go build -o "$out/rrmd" ./cmd/rrmd
exec "$out/rrmladder" -rrmd "$out/rrmd" "$@"
