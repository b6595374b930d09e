#!/usr/bin/env bash
# Fails if a consensus-visible source file holds more panic sites than
# the baseline below. A replica re-executing a block, or an auditor
# replaying a chain, must turn bad input into a typed error; every
# `assert!` / `.expect(` / `.unwrap()` / `panic!` / `unreachable!` left
# on those paths is one a hostile input might reach. The baseline may
# only go down: lower a count when a site goes, never raise one.
#
# Counts lines, per file, up to the `#[cfg(test)]` that opens an inline
# `mod … {`, comment lines skipped and `debug_assert!` (gone from
# release builds) excepted. A single item under `#[cfg(test)]` — a
# `mod tests;` declaration, a test-only method — is skipped, and the
# scan goes on after it.
#
# usage: scripts/panic_sites.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Sites allowed today; a file not listed is allowed none.
#   state.rs     `genesis` panics through `FlParams::validate`, on purpose
#   engine.rs    e.g. "replicas advance in lockstep"
#   group.rs     `GroupModelGame::new`'s shape checks and the off-chain
#                `group_shapley` / `grouping`; the walk every replica
#                runs holds none
#   dh.rs        the named groups' static primes and the group
#                constructor's width and odd-modulus checks, and
#                keygen's "p is a large prime"; replicas reach
#                `public_of` (recovery's key check) and the agreements,
#                which hold none
#   dropout.rs   `strip_dropped_set_masks`' caller contract: dropped
#                ids ascending, no dropped party among the survivors,
#                survivor keys validated when advertised
baseline() {
    case "$1" in
    crates/fedchain/src/contract_fl/state.rs) echo 1 ;;
    crates/chain/src/consensus/engine.rs) echo 5 ;;
    crates/shapley/src/group.rs) echo 8 ;;
    crates/crypto/src/dh.rs) echo 5 ;;
    crates/crypto/src/dropout.rs) echo 3 ;;
    *) echo 0 ;;
    esac
}

files=()
for f in crates/fedchain/src/contract_fl/*.rs; do
    [ "$(basename "$f")" = tests.rs ] || files+=("$f")
done
files+=(
    crates/chain/src/consensus/engine.rs
    crates/fedchain/src/protocol/mod.rs
    crates/fedchain/src/protocol/off_chain.rs
    crates/fedchain/src/protocol/on_chain.rs
    crates/fedchain/src/config.rs
    crates/fedchain/src/world.rs
    crates/fedchain/src/audit.rs
    crates/chain/src/durability.rs
    crates/chain/src/log.rs
    crates/shapley/src/group.rs
    crates/crypto/src/dh.rs
    crates/crypto/src/dropout.rs
)

failed=0
for f in "${files[@]}"; do
    sites=$(awk '
        # Inside a gated item: an inline test module ends the scan;
        # anything else is skipped until its braces close or, braceless,
        # its `;`.
        gated {
            if (depth == 0 && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*\{/) exit
            opens = gsub(/\{/, "{"); closes = gsub(/\}/, "}")
            depth += opens - closes
            if (depth == 0 && (opens > 0 || /;[[:space:]]*$/)) gated = 0
            next
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { gated = 1; depth = 0; next }
        /^[[:space:]]*\/\// { next }
        { line = $0; gsub(/debug_assert[a-z_]*!/, "", line) }
        line ~ /(assert(_eq|_ne)?!|\.expect\(|\.unwrap\(\)|panic!|unreachable!)/ {
            print FILENAME ":" FNR ": " $0
        }
    ' "$f")
    count=$(printf '%s' "$sites" | grep -c . || true)
    allowed=$(baseline "$f")
    if [ "$count" -gt "$allowed" ]; then
        echo "$f: $count panic sites, baseline $allowed:"
        echo "$sites"
        failed=1
    else
        echo "$f: $count (baseline $allowed)"
    fi
done
exit "$failed"
