#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artifact (binary, Go build
# cache, temporary files) stays under $CARGO_TARGET_DIR (default
# .bench_build); reports and traces go to .bench_out.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/gocache"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
