#!/usr/bin/env bash
# Builds the benchmark and the server it drives from source, inside the
# checkout, then runs the benchmark with the caller's arguments from the
# checkout root. BENCHMARK.json names this script as its command.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
go build -C "$here" -o "$build/itabench" .
go build -C "$here" -o "$build/itaserver" ita/cmd/itaserver
cd "$root"
exec "$build/itabench" -server "$build/itaserver" "$@"
