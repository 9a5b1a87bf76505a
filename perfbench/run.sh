#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with the
# given arguments (see perfbench/README.md):
#
#	bash perfbench/run.sh --workload join-scan --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, temporary files, the binary, spans, journals) stays under
# .bench_build/ and .bench_out/ in the current directory; the Go toolchain
# is used offline.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" || ! -d "$root/pdms" ]]; then
	echo "perfbench: run from the repository root (no go.mod, perfbench/go.mod or pdms/ here)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
