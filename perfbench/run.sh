#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# files) goes under .bench_build at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
commit=unknown
if [ -d .git ]; then
	commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
fi
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" --commit "$commit" "$@"
