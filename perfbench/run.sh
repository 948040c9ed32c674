#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-r120k --seed 1 --seconds 30 --trace 0
#
# Every build artifact and scratch file stays under .bench_build/ in the
# working directory: the Go build cache, temp files and telemetry counters,
# the binary, and the audit logs the serve workload writes.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOENV=off GOWORK=off GOPROXY=off \
	GOTOOLCHAIN=local

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -scratch "$out/tmp" "$@"
