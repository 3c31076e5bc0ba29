#!/usr/bin/env bash
# Builds the benchmark and gbserve from source inside the checkout (build
# cache included, so nothing outside the checkout is written) and runs one
# benchmark invocation. Arguments are passed through; see README.md.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-modcacherw
go -C benchmark build -o "$out/gbbench-e2e" .
go -C benchmark build -o "$out/gbserve" repro/cmd/gbserve
exec "$out/gbbench-e2e" -gbserve "$out/gbserve" -outdir benchmark/out "$@"
