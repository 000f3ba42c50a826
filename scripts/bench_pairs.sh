#!/usr/bin/env bash
# Measures a speed change with bench/: alternating pairs of 25 s runs
# (BENCHMARK.json's length) of one workload, HEAD against the working
# tree, then bench's -compare of the two sets:
#
#   bash scripts/bench_pairs.sh --workload <name> --seed <n> [--pairs <n>]
#
# Pair i (from 0) runs both sides on seed+i, and --pairs defaults to 10.
# Even pairs run HEAD first, odd pairs the working tree. --seed has no
# default: pick seeds that no earlier measurement of the change used.
# HEAD is built from a temporary checkout, removed on exit: a shared
# clone, not a git worktree, because go stamps a build's revision only
# from a .git directory. Like bench/run.sh, everything the builds and
# runs write stays under .bench_build: the results are
# .bench_build/pairs/<workload>-base.jsonl and -tree.jsonl, the runs'
# printed output <workload>.log beside them.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
out=$build/pairs
workload='' seed='' pairs=10
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || { echo "bench_pairs.sh: $1 needs a value" >&2; exit 2; }
	case $1 in
	--workload) workload=$2 ;;
	--seed) seed=$2 ;;
	--pairs) pairs=$2 ;;
	*) echo "bench_pairs.sh: unknown flag $1" >&2; exit 2 ;;
	esac
	shift 2
done
[ -n "$workload" ] || { echo "bench_pairs.sh: --workload is required" >&2; exit 2; }
[ -n "$seed" ] || { echo "bench_pairs.sh: --seed is required" >&2; exit 2; }
for n in "$seed" "$pairs"; do
	case $n in
	'' | *[!0-9]*) echo "bench_pairs.sh: --seed and --pairs take a whole number" >&2; exit 2 ;;
	esac
done
rev=$(git -C "$root" rev-parse --verify 'HEAD^{commit}')

mkdir -p "$build/tmp" "$out"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

src=$build/tmp/base-src.$$
trap 'rm -rf "$src"' EXIT
git clone --quiet --shared --no-checkout "$root" "$src"
git -C "$src" checkout --quiet --detach "$rev"
(cd "$src/bench" && go build -o "$out/bench-base" .)
(cd "$root/bench" && go build -o "$out/bench-tree" .)

log=$out/$workload.log
rm -f "$out/$workload-base.jsonl" "$out/$workload-tree.jsonl" "$log"
for ((i = 0; i < pairs; i++)); do
	sides='base tree'
	[ $((i % 2)) = 0 ] || sides='tree base'
	for side in $sides; do
		echo "pair $((i + 1))/$pairs: $side, seed $((seed + i))" >&2
		"$out/bench-$side" -workload "$workload" -seed $((seed + i)) -duration 25s \
			-out "$out/$workload-$side.jsonl" >>"$log"
	done
done
cd "$root" && "$out/bench-tree" -compare "$out/$workload-base.jsonl" "$out/$workload-tree.jsonl"
