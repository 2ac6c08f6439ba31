#!/usr/bin/env bash
# Builds leopard-bench from the sources of the checkout it sits in and runs
# it from the checkout's root. Everything the build and the run write stays
# under .bench_build in that checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/leopard-bench" .)
cd "$root"
exec "$build/leopard-bench" -tmp "$build/run" "$@"
