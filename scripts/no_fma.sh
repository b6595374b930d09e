#!/usr/bin/env bash
# Fails if a fused multiply-add can reach the lane-compiled kernels of
# `numeric` (the GEMM panel, `exp_slice`, `softmax_columns`,
# `box_muller`), the trainer in `ml`, or the coalition walk of `shapley`
# (its `f64` means and the label screen's exact decisions) and the
# `fedchain` accuracy utility whose logits it walks. A fused multiply-add
# rounds once where `a * b + c` rounds twice, so it changes bits. `numeric::isa`
# compiles each kernel a third time with `avx512f` enabled, and in rustc
# `avx512f` implies the `fma` target feature: from there on only the
# source and the compiler keep FMA out.
# The script checks both:
#
#   1. no `mul_add` in non-test code of `numeric`, `ml`, `shapley` and
#      `fedchain` (each file read up to its first `#[cfg(test)]`, comment
#      lines skipped, test-module files named `tests.rs` left out);
#   2. no `vfmadd` / `vfmsub` / `vfnmadd` / `vfnmsub` in the disassembly
#      of a release binary that runs every kernel (the `quickstart`
#      example: data generation, training, scoring), which must hold the
#      AVX-512F instantiation for the check to mean anything.
#
# usage: scripts/no_fma.sh
set -euo pipefail
cd "$(dirname "$0")/.."

found=$(find crates/{numeric,ml,shapley,fedchain}/src -name '*.rs' ! -name tests.rs -print0 |
    xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*\/\// { next }
        /mul_add/ { print FILENAME ":" FNR ": " $0 }
    ')
if [ -n "$found" ]; then
    echo "mul_add in non-test code (spell a * b + c; a fused multiply-add changes bits):"
    echo "$found"
    exit 1
fi
echo "no mul_add in non-test code of numeric, ml, shapley and fedchain"

bin=$(cargo build --release --example quickstart --message-format=json-render-diagnostics |
    sed -n 's/.*"executable":"\([^"]*\)".*/\1/p' | tail -n 1)
if [ -z "$bin" ]; then
    echo "could not locate the quickstart binary"
    exit 1
fi
disassembly=$(objdump -d --no-show-raw-insn "$bin")
if ! grep -q 'isa10run_avx512' <<<"$disassembly"; then
    echo "$bin holds no AVX-512F instantiation of a numeric kernel; nothing to check"
    exit 1
fi
fused=$(grep -E '\bvfn?m(add|sub)' <<<"$disassembly" || true)
if [ -n "$fused" ]; then
    echo "fused multiply-add instructions in $bin:"
    echo "$fused" | head -n 20
    exit 1
fi
echo "no fused multiply-add instructions in $bin"
