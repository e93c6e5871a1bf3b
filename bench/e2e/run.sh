#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it lives in and runs it
# with the given arguments, e.g. from the repository root:
#
#   bash bench/e2e/run.sh --workload mc_dense --seed 1 --seconds 10 --trace 0
#   bash bench/e2e/run.sh -seed 1 -out run.json
#
# Everything the build and the run write (Go build cache, temporary files,
# job-store directories, span files) stays under .bench_build/ at the
# repository root, and nothing is fetched: the module depends only on the
# repository's own packages. Outside a full checkout the build fails and
# the script exits non-zero without running anything.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
# The go command keeps its config and telemetry counters under the user
# config directory; point that into the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$out/e2e" .)
cd "$root"
exec "$out/e2e" "$@"
