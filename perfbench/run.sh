#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs one workload.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary and the benchmark's data
# directories all live under .bench_build/ in the checkout; nothing is
# written elsewhere.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# A run killed before its own cleanup leaves its data directory behind.
rm -rf "$out"/data-*
# XDG_CONFIG_HOME keeps the go command's own state (telemetry counters)
# inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
commit=unknown
if [ -d .git ] && c=$(git rev-parse HEAD 2>/dev/null); then
	commit=$c
fi
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" --commit "$commit" --data "$out" "$@"
