#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout and runs one workload.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write — Go's build cache, temporary
# files, the binary, the fixture cache — goes under .bench_build/ at the
# root of the checkout. Without the rest of the repository (the sofya
# module this benchmark measures) the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$here" && go build -o "$out/sofya-bench" .) >&2
cd "$root"
"$out/sofya-bench" fixtures -workdir "$out/fixtures" >&2
exec "$out/sofya-bench" -workdir "$out/fixtures" "$@"
