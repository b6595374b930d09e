#!/usr/bin/env bash
# Smoke-runs the Criterion-shim benches under the release profile: two
# samples per entry, every JSON line appended to one artefact (shape of
# the committed BENCH_*.json records). Each bench asserts its optimised
# path bit-identical to its reference before it samples — what each one
# checks is in the rustdoc at the top of crates/bench/benches/<name>.rs —
# so the loop is an equivalence gate, not a timing one. Stops at the
# first bench that fails.
#
# Fourteen timing gates follow it, each a ratio inside one run because
# absolute ns drift ±15 % on the CI box. A 4-cohort pipelined chain at
# thread cap 2 may not cost more than 1.75 × the sequential chain at cap
# 1 (≈ 1.0 with the numeric::par thread budget; ≈ 2.3 – 2.5 when every
# nested region spawned its own threads onto two cores). And the exact
# m = 9 game at the Table I test-set size, valued through the batch
# kernel, may not cost more than 0.75 × the same game asked one
# coalition at a time (≈ 0.5 with the f64 walk; 1.0 is a kernel that
# stopped sharing member-prefix sums). The label screen sped single
# coalitions up more than batches: twelve runs as here read 0.60 –
# 0.81 (median 0.61) and twelve at thread cap 1 0.54 – 0.81 (0.65),
# four of the twenty-four over the limit when a busy spell of the
# shared box landed on one entry and none of their twelve back-to-back
# pairs over it twice, so a reading over the limit is sampled once more
# before it fails. And the same game over Table I's nine trained group
# models, whose every test row settles, may not cost more than 0.3 ×
# that game over a utility that settles no row (≈ 0.005: such a
# game tallies its empty tile once per batch; 1.0 is a game that
# stopped settling rows). And the benchmark's second-level game
# (Stratified{2} over 32 cohorts, 410 rows × 4 classes, no row settled)
# through the coalition walk, at thread cap 1, may not cost more than
# 0.2 × the same estimates over coalition means summed from scratch and
# scored row-major, kept in the bench file (0.113 – 0.143 in five runs
# with the f32 label screen; the f64 walk before it read 0.22 – 0.23
# measured alongside and 0.18 – 0.32 over twenty-one runs, so the bound
# catches a walk that lost the screen most of the time; a reading over
# the limit is sampled once more before it fails, as a busy spell of
# the shared box can double the walk entry). And one dim-650 local training through the library,
# at thread cap 1, may not cost more than 0.20 × the retained naive
# pipeline (measured 0.127 and 0.136 in two 9-sample
# runs where the AVX instantiations run, 0.176 on the SSE2 baseline
# alone; 0.17 – 0.19 and 0.24 were the same two while the softmax called
# libm's exp per element). And one data set's worth of Gaussian samples
# through Xoshiro256::fill_gaussian may not cost more than 0.5 × the
# per-sample loop over libm's ln and cos (0.22 – 0.24 with AVX-512F,
# 0.24 – 0.33 with AVX; the SSE2 baseline alone reads 0.49, so a host
# without AVX sits on this limit). And one
# owner's key escrow at the stream_churn shape (32 shares, threshold 17)
# through the Montgomery-resident Shamir::split may not cost more than
# 0.2 × the retained plain-U256 Horner ladder (≈ 0.04; a split that went
# back to one bit-serial reduction per step reads 1.0). And one keypair
# from a seed, its public key taken from the generator's table of powers,
# may not cost more than 0.006 × the seed's keypair over the naive
# square-and-multiply ladder (0.0016 – 0.0023 in six runs; 0.014 – 0.016
# when the public key runs the scalar fixed-window ladder). And where the CPU
# lists the SHA extensions (`sha_ni` in /proc/cpuinfo), SHA-256 over
# 64 KiB through the library may not cost more than 0.4 × the scalar
# rounds kept in the bench file (≈ 0.16; 1.0 is a dispatch that stopped
# finding the extensions); skipped, and said so, on a CPU without them.
# And where the CPU lists AVX-512F (`avx512f` in /proc/cpuinfo), the
# trainer's class-major logits product at a Table I shard (Wᵀ · Xᵀ,
# 10 × 65 × 500) at thread cap 1 may not cost more than the row-major
# X · W of the same shard (0.47 – 0.72 in 17 of 18 runs with the 5 × 32
# AVX-512F micro-tile, 0.88 in one; 1.17 – 1.70 in seven runs of a
# build whose AVX-512F instantiation kept the 2 × 8 tile it had before,
# two accumulator chains per output row that leave the wide product
# latency-bound); a reading over the limit is sampled once more
# before it fails, as the cap-2 gates are; skipped, and said so, on a
# CPU without AVX-512F. And where the CPU lists AVX-512 IFMA
# (`avx512ifma` in /proc/cpuinfo), one owner's batch of eight key
# agreements may not cost more than 3 x one scalar agreement (1.28 -
# 1.76 in four runs with the eight-lane ladder; 5.7 - 8.4 in two runs of
# a build whose dispatch never finds IFMA and runs the scalar ladder per
# peer); skipped, and said so, on a CPU without it.
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
sv_runtime coalition_walk
sv_runtime secure_agg_recovery
ml_training
chain_durability
crypto_primitives sha256/
crypto_primitives hkdf_derive
crypto_primitives dh_agreement
crypto_primitives dh_keygen
crypto_primitives dh_batch_setup
crypto_primitives shamir_escrow
cohort_scaling cohort_round/flat/100
cohort_scaling cohort_round/sharded/128
cohort_scaling cohort_commit_stream
cohort_scaling state_root
round_pipeline
BENCHES

cat "$out"

# median <artefact> <benchmark id>
median() {
    sed -n "s|.*\"$2\", \"median_ns\": \([0-9.]*\).*|\1|p" "$1"
}

# gate <artefact> <numerator id> <denominator id> <limit>
gate() {
    awk -v num="$(median "$1" "$2")" -v den="$(median "$1" "$3")" -v limit="$4" \
        -v name="$2 / $3" 'BEGIN {
        if (num + 0 == 0 || den + 0 == 0) { print "ratio gate: entry missing from the run"; exit 1 }
        printf "ratio gate: %s = %.3g (limit %s)\n", name, num / den, limit
        exit !(num / den <= limit)
    }'
}

ratio_out="$out.ratio"
rm -f "$ratio_out"
export CRITERION_SAMPLE_SIZE=9 CRITERION_JSON="$ratio_out"

# cap2_gate <bench filter> <numerator id> <denominator id> <limit>: the
# second vCPU of a shared box comes and goes in spells of seconds, and a
# spell that lands on one of the two entries moves the ratio by half, so
# a reading over the limit is sampled once more before it fails (a real
# regression reads 1.4 – 2.3 on every try).
cap2_gate() {
    for _ in 1 2; do
        rm -f "$ratio_out"
        cargo bench --bench round_pipeline -- "$1"
        if gate "$ratio_out" "$2" "$3" "$4"; then return 0; fi
    done
    return 1
}

if [ "$(nproc)" -lt 2 ]; then
    echo "ratio gates skipped: nproc is 1, round_pipeline samples no cap-2 entry (4-cohort chain, cold audit, Table I chain, persisted chain)"
else
    cap2_gate /4/cap round_pipeline/pipelined/4/cap2 round_pipeline/sequential/4/cap1 1.75
    cap2_gate cold_audit/stream_churn cold_audit/stream_churn/cap2 cold_audit/stream_churn/cap1 1.1
    cap2_gate /table1/cap2 round_pipeline/pipelined/table1/cap2 round_pipeline/sequential/table1/cap2 1.05
    cap2_gate stream_churn/cap2 round_pipeline/persisted/stream_churn/cap2 round_pipeline/memory/stream_churn/cap2 1.3
fi
rm -f "$ratio_out"

for try in 1 2; do
    rm -f "$ratio_out"
    cargo bench --bench sv_runtime -- coalition_walk/
    if gate "$ratio_out" coalition_walk/batch/table1_sv coalition_walk/single/table1_sv 0.75; then
        break
    fi
    [ "$try" = 1 ] || exit 1
done
gate "$ratio_out" coalition_walk/settled/table1_sv coalition_walk/unsettled/table1_sv 0.3

for try in 1 2; do
    rm -f "$ratio_out"
    FL_PAR_THREADS=1 cargo bench --bench sv_runtime -- coalition_walk/
    if gate "$ratio_out" coalition_walk/unsettled/sharded_1k coalition_walk/seed/sharded_1k 0.2; then
        break
    fi
    [ "$try" = 1 ] || exit 1
done

FL_PAR_THREADS=1 cargo bench --bench ml_training -- logreg_train/
gate "$ratio_out" logreg_train/opt/650 logreg_train/seed/650 0.20

FL_PAR_THREADS=1 cargo bench --bench ml_training -- gaussian_fill/
gate "$ratio_out" gaussian_fill/opt gaussian_fill/seed 0.5

cargo bench --bench crypto_primitives -- shamir_escrow/
gate "$ratio_out" shamir_escrow/opt/split/32/17 shamir_escrow/seed/split/32/17 0.2

cargo bench --bench crypto_primitives -- dh_keygen/
gate "$ratio_out" dh_keygen/opt/256 dh_keygen/seed/256 0.006

if grep -qw avx512f /proc/cpuinfo; then
    for try in 1 2; do
        rm -f "$ratio_out"
        cargo bench --bench ml_training -- gemm_train_shape/logits
        if gate "$ratio_out" gemm_train_shape/logits_t/500/cap1 gemm_train_shape/logits/500/cap1 1.0; then
            break
        fi
        [ "$try" = 1 ] || exit 1
    done
else
    echo "ratio gate skipped: /proc/cpuinfo lists no avx512f, the GEMM runs no 5 x 32 tile"
fi

if grep -qw sha_ni /proc/cpuinfo; then
    cargo bench --bench crypto_primitives -- sha256/
    gate "$ratio_out" sha256/opt/65536 sha256/seed/65536 0.4
else
    echo "ratio gate skipped: /proc/cpuinfo lists no sha_ni, sha256 opt is the scalar rounds"
fi

if grep -qw avx512ifma /proc/cpuinfo; then
    rm -f "$ratio_out"
    cargo bench --bench crypto_primitives -- dh_batch_setup/opt/8
    cargo bench --bench crypto_primitives -- dh_agreement/opt/256
    gate "$ratio_out" dh_batch_setup/opt/8 dh_agreement/opt/256 3.0
else
    echo "ratio gate skipped: /proc/cpuinfo lists no avx512ifma, key agreements run the scalar ladder"
fi
