#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it.
#
#   bash benchmark/run.sh --workload <bert-deepum|bert-um|serve-ckpt> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run write —
# the Go build cache, the binary, journals and stores — stays under
# .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/benchmark" ]]; then
	echo "run.sh: run from the repository root (no go.mod or benchmark/ here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off

(cd "$root/benchmark" && go build -o "$build/deepum-benchmark" .)
exec "$build/deepum-benchmark" "$@"
