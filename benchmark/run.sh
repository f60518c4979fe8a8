#!/usr/bin/env bash
# Builds the benchmark from source into benchmark/out/build and runs it from
# this directory, so every file it reads or writes stays in the checkout.
set -euo pipefail
cd "$(dirname "$0")"
build="$PWD/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/skipper-benchmark" .
exec "$build/skipper-benchmark" "$@"
