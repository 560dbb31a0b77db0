#!/usr/bin/env bash
# Builds the benchmark program (perfbench) from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload figures-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, temp files, the
# perfbench binary, working stores and corpora, span trees) stays under
# .bench_build/ in the checkout. The perfbench module replaces the repository
# module with ../, so outside a full checkout the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
