#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the
# repository root; arguments pass through to the binary, e.g.
#
#   bash e2ebench/run.sh --workload grid-policy --seed 7 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the compiler's temporary files and
# the go command's own state all go under .bench_build at the repository
# root, so nothing outside the checkout is written.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
