#!/usr/bin/env bash
# Builds flarebench from this checkout and runs it with the given flags:
#   bash flarebench/run.sh --workload estimate-cold --seed 1 --seconds 12 --trace 0
# Everything the build and the run write stays under .bench_build/ at the
# checkout root (Go's build cache included).
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd flarebench && go build -o "$out/flarebench" .)
exec "$out/flarebench" --dir "$out/run" "$@"
