#!/usr/bin/env bash
# Builds the drop-day benchmark from source and runs it. Run from the
# repository root:
#
#	bash dropbench/run.sh --workload durable-create --seed 1 --seconds 8 --trace 0
#
# Every build and run artefact (Go build cache, binary, data directories,
# span dumps) stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off
# The source-revision stamp comes from this tree only, never an enclosing one.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
(cd "$root/dropbench" && go build -o "$build/dropbench" .)
exec "$build/dropbench" "$@"
