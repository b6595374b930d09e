#!/usr/bin/env bash
# Smoke-runs the Criterion-shim benches under the release profile: two
# samples per entry, every JSON line appended to one artefact (shape of
# the committed BENCH_*.json records). Each bench asserts its optimised
# path bit-identical to its reference before it samples — what each one
# checks is in the rustdoc at the top of crates/bench/benches/<name>.rs —
# so this is an equivalence gate, not a timing one. Stops at the first
# bench that fails.
#
# usage: scripts/bench_smoke.sh [artefact.jsonl]
set -euo pipefail

out=${1:-/tmp/bench_smoke.jsonl}
rm -f "$out"
export CRITERION_SAMPLE_SIZE=2 CRITERION_JSON="$out"

# <bench> [group filter]; the cohort_round entries stop short of the
# 1024 / 10k-owner acceptance runs.
while read -r bench filter; do
    cargo bench --bench "$bench" -- ${filter:+"$filter"}
done <<'BENCHES'
chain_throughput
sv_runtime sv_estimator
sv_runtime group_sv
sv_runtime secure_agg_recovery
ml_training
chain_durability
crypto_primitives dh_agreement
crypto_primitives dh_keygen
crypto_primitives dh_batch_setup
cohort_scaling cohort_round/flat/100
cohort_scaling cohort_round/sharded/128
cohort_scaling cohort_commit_stream
cohort_scaling state_root
round_pipeline
BENCHES

cat "$out"
