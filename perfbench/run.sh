#!/usr/bin/env bash
# Builds the benchmark and the engine from the sources of the checkout it
# is run from, then runs it with the given arguments. Run it from the root
# of the repository:
#
#	bash perfbench/run.sh --workload oltp --seed 1 --seconds 10 --trace 0
#
# Build outputs (binary, Go build cache), database files and span logs go
# under .bench_build/ at the root, so nothing is written outside the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/home"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOENV=off
# The go command keeps telemetry counters and config under the user's
# config directory; point it into the build directory too.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
