#!/usr/bin/env bash
# Builds lpvs-loadgen from source and runs it with the given arguments.
# This is the command BENCHMARK.json names. Everything the build and the
# run write (Go build cache, the binary, audit logs, span files) stays
# under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
go build -o "$out/lpvs-loadgen" ./bench/lpvs-loadgen

if [ "${1:-}" = compare ]; then
	exec "$out/lpvs-loadgen" "$@"
fi
exec "$out/lpvs-loadgen" -workdir "$out/run" "$@"
