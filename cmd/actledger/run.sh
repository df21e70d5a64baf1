#!/bin/sh
# Builds actledger from this checkout and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   sh cmd/actledger/run.sh --workload join-taxi --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every other file the go command writes
# stay under .bench_build in the current directory.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd cmd/actledger && go build -o "$out/actledger" .)
exec "$out/actledger" "$@"
