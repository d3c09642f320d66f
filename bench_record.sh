#!/usr/bin/env bash
# Records the benchmark of the checkout it runs in: perfbench's three
# workloads at seed 7 for 30 s, each once untraced (end-to-end metrics) and
# once traced (per-layer metrics). Each run's env line and final JSON line
# go into BENCH_<label>.json. Seed and length are fixed so that any two
# BENCH_*.json files compare.
#   bash bench_record.sh <label>
# Run it from the repository root.
set -euo pipefail
if [[ $# -ne 1 ]]; then
	echo "usage: bash bench_record.sh <label>" >&2
	exit 2
fi
label=$1
readonly seed=7 seconds=30
out="BENCH_${label}.json"
log=$(mktemp)
trap 'rm -f "$log" "$out.tmp"' EXIT
{
	printf '{"seed":%s,"seconds":%s,"runs":[' "$seed" "$seconds"
	sep=""
	for workload in design-search mega-storm daemon-mix; do
		for trace in 0 1; do
			bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" >"$log"
			env=$(sed -n 's/^env //p' "$log")
			result=$(tail -n 1 "$log")
			printf '%s\n{"workload":"%s","trace":%s,"env":%s,"result":%s}' "$sep" "$workload" "$trace" "$env" "$result"
			sep=","
		done
	done
	printf '\n]}\n'
} >"$out.tmp"
mv "$out.tmp" "$out"
echo "wrote $out"
