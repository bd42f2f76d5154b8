#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root; everything the build and the run write
# stays under .bench_build/ in the current directory.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "perfbench: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi
out=.bench_build/perfbench
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/tmp" XDG_CONFIG_HOME="$PWD/$out/config"
export GOTOOLCHAIN=local
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
