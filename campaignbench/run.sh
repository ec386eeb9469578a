#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout's source and runs it:
#
#   bash campaignbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The binary, the Go build cache and the benchmark's working files all stay
# under .bench_build/ at the root of the checkout. The build needs the
# fairflow module one directory up; without it the script fails before
# printing any result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go -C "$root/campaignbench" build -o "$build/bin/campaignbench" .
cd "$root"
exec "$build/bin/campaignbench" "$@"
