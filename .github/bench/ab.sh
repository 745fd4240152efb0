#!/usr/bin/env bash
# Runs every workload BENCHMARK.json declares on two checkouts of the
# repository, the base and the head of a change, in alternating pairs on
# this machine: pair k runs both sides with seed k, base first in odd
# pairs and head first in even ones, so a drift of the host's speed over
# the run falls on both sides alike.
#
#   bash .github/bench/ab.sh <base checkout> <head checkout> <out dir>
#   python3 .github/bench/compare.py <base checkout>/BENCHMARK.json <out dir>/summaries.tsv
#
# The workloads, the command and run_seconds come from the base's
# BENCHMARK.json, so a change is judged by the benchmark it was written
# against. Each run appends one tab-separated line to
# <out dir>/summaries.tsv: workload, side, seed, exit status and the
# run's last line of output, its summary line. The full output is kept
# beside it as <workload>.<side>.<seed>.out and .err. A failed run is
# recorded, not fatal: compare.py judges it. Needs jq besides what the
# benchmark itself needs.
set -euo pipefail
if [ $# -ne 3 ]; then
	echo "usage: $0 <base checkout> <head checkout> <out dir>" >&2
	exit 2
fi
pairs=3
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)
spec="$base/BENCHMARK.json"
mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")
mapfile -t cmd < <(jq -r '.command[]' "$spec")
seconds=$(jq -r '.run_seconds' "$spec")
: >"$out/summaries.tsv"

run() { # side checkout workload seed
	local side=$1 dir=$2 w=$3 seed=$4 rc=0
	local log="$out/$w.$side.$seed"
	(cd "$dir" && "${cmd[@]}" --workload "$w" --seed "$seed" --seconds "$seconds") >"$log.out" 2>"$log.err" || rc=$?
	printf '%s\t%s\t%s\t%s\t%s\n' "$w" "$side" "$seed" "$rc" "$(tail -n 1 "$log.out")" >>"$out/summaries.tsv"
	echo "$(date -u +%T) $w seed $seed: $side exit $rc"
}

for w in "${workloads[@]}"; do
	for seed in $(seq 1 "$pairs"); do
		if [ $((seed % 2)) -eq 1 ]; then
			run base "$base" "$w" "$seed"
			run head "$head" "$w" "$seed"
		else
			run head "$head" "$w" "$seed"
			run base "$base" "$w" "$seed"
		fi
	done
done
