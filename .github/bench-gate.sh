#!/usr/bin/env bash
# Benchmark regression gate. Runs mpbench's suite and fabric-sweep
# workloads from this checkout and from a base revision on the same machine,
# in alternating pairs, then compares the two sets of records at the bounds
# in BENCHMARK.json. fabric-sweep times the in-order loop alone and the
# fabric's per-cell dispatch, which the suite does not. One traced
# sampled-mcf run per side adds the per-layer rows, the functional
# interpreter's arch.funcinsts_per_s among them.
#
#   bash .github/bench-gate.sh HEAD^1
#
# It exits non-zero when a run fails its correctness check, when any
# (workload, metric) pair regressed, or when the compare table has no
# arch.funcinsts_per_s row. The base is checked out as a detached worktree
# under .bench_build/ (git-ignored) and removed on exit; the records and
# the compare table stay in .bench_build/gate/.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: bench-gate.sh <base-rev>" >&2
	exit 2
fi
head="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
rev="$(git -C "$head" rev-parse --verify "$1^{commit}")"
base="$head/.bench_build/gate-base"
out="$head/.bench_build/gate"

git -C "$head" worktree remove --force "$base" 2>/dev/null || true
git -C "$head" worktree add --detach "$base" "$rev"
trap 'git -C "$head" worktree remove --force "$base"' EXIT
rm -rf "$out"
mkdir -p "$out"

# side <base|head> <seed> <mpbench flags...>: one run of that side's build,
# its record appended to .bench_build/gate/<side>.jsonl.
side() {
	local tree="$head"
	if [ "$1" = base ]; then tree="$base"; fi
	bash "$tree/cmd/mpbench/run.sh" -seed "$2" -out "$out/$1.jsonl" "${@:3}"
}

start=$SECONDS
for workload in suite fabric-sweep; do
	for seed in 1 2 3; do
		if ((seed % 2)); then order="base head"; else order="head base"; fi
		for s in $order; do
			side "$s" "$seed" -workload "$workload" -trace 0
		done
	done
done
side base 1 -workload sampled-mcf -trace 1
side head 1 -workload sampled-mcf -trace 1
echo "bench-gate: runs took $((SECONDS - start)) s"

status=0
bash "$head/cmd/mpbench/run.sh" -compare "$out/base.jsonl" "$out/head.jsonl" | tee "$out/compare.txt" || status=1
if ! grep -q 'arch\.funcinsts_per_s' "$out/compare.txt"; then
	echo "bench-gate: the compare table has no arch.funcinsts_per_s row" >&2
	status=1
fi
exit "$status"
