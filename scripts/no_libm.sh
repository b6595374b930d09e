#!/usr/bin/env bash
# Fails if a host-libm transcendental call stands in non-test code of the
# crates whose results the chain re-executes. `numeric::math` owns `exp`,
# `ln` and `cos 2πu` so that every party computes the same bits; a
# `.exp()` or `.ln()` on an `f64` would pin a result to the host libm's
# last-place rounding again. `sqrt` is IEEE-exact and stays, as does
# `powi` (exact for the power of two `fixed.rs` asks of it).
#
# Reads each file up to its first `#[cfg(test)]`, comment lines skipped.
#
# usage: scripts/no_libm.sh
set -euo pipefail
cd "$(dirname "$0")/.."

found=$(find crates/{numeric,ml,shapley,fedchain,crypto,chain}/src -name '*.rs' -print0 |
    xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*\/\// { next }
        /\.(exp|ln|cos|sin|tan|powf|exp2|log2|log10|tanh)\(/ { print FILENAME ":" FNR ": " $0 }
    ')

if [ -n "$found" ]; then
    echo "host-libm calls in non-test code (use numeric::math):"
    echo "$found"
    exit 1
fi
echo "no host-libm transcendental calls in non-test code"
