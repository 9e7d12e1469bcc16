#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it with the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload fig3-dense --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
cd "$root"
# Without VCS metadata (an exported tree) the build stamps no revision.
(cd perfbench && { go build -o "$build/perfbench" . 2>/dev/null ||
	go build -buildvcs=false -o "$build/perfbench" .; }) >&2
exec "$build/perfbench" "$@"
