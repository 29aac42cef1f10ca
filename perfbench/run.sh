#!/usr/bin/env bash
# Builds perfbench from the checkout's source and runs it:
#
#   bash perfbench/run.sh --workload fib-pool --seed 1 --seconds 10 --trace 0
#
# Run from the root of a gowool checkout. The binary, the Go build
# cache and the traced run's spans all go under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: $root is not a gowool checkout (no go.mod); nothing to build" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out"
# Keep every build artefact inside the checkout and never reach the
# network: the benchmark depends only on the checkout's own module.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --out "$out/trace" "$@"
