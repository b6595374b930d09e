#!/usr/bin/env bash
# Fails unless the coalition walk's label screen (`shapley::group`, "The
# label screen") runs in 16-lane vectors in a release binary. The screen
# sums each row's label-minus-rival differences in `f32` and compares
# the sums with their thresholds; LLVM keeps those adds in zmm registers
# only as the source spells them (`add` builds a new register group, the
# running count is lane-wise integers, no closure in the per-vector
# path). Spelled otherwise — an in-place add, a bit mask per compare —
# the walk still computes the same bits, 3–5 × slower, with the sums
# going through the stack one `f32` at a time.
#
# The check disassembles the release `quickstart` example, finds the
# AVX-512F instantiation (`numeric::isa::run_avx512`) that holds the
# screen's compare (`vcmpltps … zmm`), and requires that it adds in
# `vaddps … zmm` and holds no scalar `f32` add or compare (`vaddss`,
# `vucomiss`).
#
# usage: scripts/screen_codegen.sh
set -euo pipefail
cd "$(dirname "$0")/.."

bin=$(cargo build --release --example quickstart --message-format=json-render-diagnostics |
    sed -n 's/.*"executable":"\([^"]*\)".*/\1/p' | tail -n 1)
if [ -z "$bin" ]; then
    echo "could not locate the quickstart binary"
    exit 1
fi
# One line per AVX-512F instantiation holding the screen's compare: its
# name, then its counts of vcmpltps zmm, vaddps zmm, vaddss + vucomiss.
screens=$(objdump -d --no-show-raw-insn "$bin" | awk '
    /^[0-9a-f]+ <.*>:$/ { name = substr($2, 2, length($2) - 3) }
    name !~ /isa10run_avx512/ { next }
    /vcmpltps.*zmm/ { compares[name]++ }
    /vaddps.*zmm/ { adds[name]++ }
    /vaddss|vucomiss/ { scalar[name]++ }
    END { for (n in compares) print n, compares[n], adds[n] + 0, scalar[n] + 0 }
')
if [ -z "$screens" ]; then
    echo "$bin: no AVX-512F instantiation holds the screen's vcmpltps … zmm"
    exit 1
fi
failed=0
while read -r name compares adds scalar; do
    if [ "$adds" -eq 0 ] || [ "$scalar" -gt 0 ]; then
        echo "$name: $compares vcmpltps zmm, $adds vaddps zmm, $scalar vaddss / vucomiss: the screen left its vectors"
        failed=1
    else
        echo "$name: $compares vcmpltps zmm, $adds vaddps zmm, no vaddss / vucomiss"
    fi
done <<<"$screens"
exit "$failed"
