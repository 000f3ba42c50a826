#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs one
# workload:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build at the
# root of the checkout. The benchmark module reaches the simulator
# through a replace of ../, so outside a full checkout the build fails
# and no result is printed.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/bench" .)

args=()
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
	case $1 in
	--workload) args+=(-workload "$2") ;;
	--seed) args+=(-seed "$2") ;;
	--seconds) args+=(-duration "${2}s") ;;
	--trace) [ "$2" = 0 ] || args+=(-trace "$build/trace.json") ;;
	*) echo "run.sh: unknown flag $1" >&2; exit 2 ;;
	esac
	shift 2
done
exec "$build/bench" "${args[@]}"
