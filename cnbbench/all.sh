#!/usr/bin/env bash
# Prints every end-to-end metric of every workload, with its unit: one
# run per workload. Run it from the repository root:
#
#   bash cnbbench/all.sh [SEED] [SECONDS]
set -euo pipefail

for w in warm_query cold_plan scan_exec; do
	echo "== $w"
	bash cnbbench/run.sh --workload "$w" --seed "${1:-1}" --seconds "${2:-20}" --trace 0
done
