#!/usr/bin/env bash
# Builds mdserve and the benchmark program from this checkout into
# .bench_build/ and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload adhoc-grouped --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache and the build's
# temporary files live under .bench_build/ too, so a run writes nothing
# outside the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$root" -o "$out/mdserve" ./cmd/mdserve
go build -C "$root/benchmark" -o "$out/mdbenchmark" .
exec "$out/mdbenchmark" -mdserve "$out/mdserve" -work "$out" "$@"
