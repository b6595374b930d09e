#!/usr/bin/env bash
# Smoke-runs the Criterion-shim benches under the release profile: two
# samples per entry, every JSON line appended to one artefact (shape of
# the committed BENCH_*.json records). Each bench asserts its optimised
# path bit-identical to its reference before it samples — what each one
# checks is in the rustdoc at the top of crates/bench/benches/<name>.rs —
# so the loop is an equivalence gate, not a timing one. Stops at the
# first bench that fails.
#
# One timing gate follows it, a ratio inside one run because absolute
# ns drift ±15 % on the CI box: a 4-cohort pipelined chain at thread cap
# 2 may not cost more than 1.75 × the sequential chain at cap 1 (≈ 1.0
# with the numeric::par thread budget; ≈ 2.3 – 2.5 when every nested
# region spawned its own threads onto two cores).
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

if [ "$(nproc)" -lt 2 ]; then
    echo "ratio gate skipped: nproc is 1, round_pipeline samples no cap-2 entry"
else
    ratio_out="$out.ratio"
    rm -f "$ratio_out"
    CRITERION_SAMPLE_SIZE=9 CRITERION_JSON="$ratio_out" \
        cargo bench --bench round_pipeline -- /4/cap
    median() {
        sed -n "s|.*\"round_pipeline/$1\", \"median_ns\": \([0-9.]*\).*|\1|p" "$ratio_out"
    }
    awk -v pipe="$(median pipelined/4/cap2)" -v seq="$(median sequential/4/cap1)" 'BEGIN {
        if (pipe + 0 == 0 || seq + 0 == 0) { print "ratio gate: entry missing from the run"; exit 1 }
        printf "ratio gate: pipelined/4/cap2 / sequential/4/cap1 = %.2f (limit 1.75)\n", pipe / seq
        exit !(pipe / seq <= 1.75)
    }'
fi
