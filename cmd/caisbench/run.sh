#!/usr/bin/env bash
# Builds caisbench from source and runs it with the given flags, e.g.
#
#   bash cmd/caisbench/run.sh --workload layer-hot --seed 7 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, the Go
# tool's temporary and configuration files and the traced runs' CPU
# profiles all stay under .bench_build/ there.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

go -C cmd/caisbench build -o "$out/caisbench" .
exec "$out/caisbench" -profiles "$out/profiles" "$@"
