#!/usr/bin/env bash
# Builds mspgemm-serve and the perfbench harness from the checkout it is
# run in, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload serve-byref-delta --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# generated inputs, traces and the run history all go under
# .bench_build/ in that root, so nothing outside the checkout is written.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/mspgemm-serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/mspgemm-serve and perfbench/)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/mspgemm-serve" ./cmd/mspgemm-serve
go -C perfbench build -o "$out/bin/perfbench" .

exec "$out/bin/perfbench" -serve-bin "$out/bin/mspgemm-serve" -work "$out/perfbench" "$@"
