#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The binary, the Go build cache and Go's temporary files live in
# .bench_build/ at the checkout root, so nothing is written outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -f bench/baseline.json ]]; then
	echo "perfbench: $root is not a nicbarrier checkout (go.mod or bench/baseline.json missing)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOENV=off GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

# Build to a private name and rename, so concurrent runs never execute a
# half-written binary.
tmp="$out/perfbench.$$"
go -C perfbench build -o "$tmp" .
mv -f "$tmp" "$out/perfbench"
exec "$out/perfbench" "$@"
