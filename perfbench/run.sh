#!/usr/bin/env bash
# Builds the benchmark against this checkout's sources and runs it. Run
# from the repository root; arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload point-read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The go command's caches, module path, temporary files and telemetry all
# move into the checkout; no module is downloaded.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
# Build quietly: the last line of standard output is the result.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --dir "$out/run-$$" "$@"
