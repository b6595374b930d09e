#!/usr/bin/env bash
# Runs K sets of one workload and one seed back to back and judges the
# run-to-run spread of every end-to-end metric against its bound; counts
# and bytes must repeat exactly (non-zero exit otherwise). A thin wrapper
# over `fl-benchmark --repeat`.
#
#   benchmark/repeat.sh <workload> [K] [extra fl-benchmark arguments...]
#
#   benchmark/repeat.sh table1_train            # 10 sets of seed 1
#   benchmark/repeat.sh sharded_1k 2            # the two-set check
#   benchmark/repeat.sh stream_churn 3 --trace 1 --seed 7
set -euo pipefail

if [ "$#" -lt 1 ]; then
    sed -n '2,11p' "$0" >&2
    exit 2
fi
workload="$1"
sets="${2:-10}"
shift
[ "$#" -gt 0 ] && shift

here="$(cd "$(dirname "$0")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
    --workload "$workload" --repeat "$sets" "$@"
