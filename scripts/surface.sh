#!/usr/bin/env bash
# Fails if a crate carries more non-test code lines or more `pub` items
# than the baseline below. The same behaviour from less code is a
# result; a crate that must grow raises its baseline in the same change
# and says why.
#
# Scans every `src/**/*.rs` of a crate with `panic_sites.sh`'s rule:
# lines up to the `#[cfg(test)]` that opens an inline `mod … {`, a
# single gated item (a `mod tests;` declaration, a test-only method)
# skipped; a file named `tests.rs` or `*_tests.rs` is test code whole.
# Comment and blank lines are not counted. A `pub` item is a line
# declaring a `pub` fn, struct, enum, trait, type, const or mod
# (`pub(crate)` and narrower are not public).
#
# usage: scripts/surface.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test code lines and `pub` items allowed today, per crate.
baseline() {
    case "$1" in
    numeric) echo "1960 136" ;;
    crypto) echo "1403 89" ;;
    chain) echo "2253 164" ;;
    ml) echo "611 78" ;;
    shapley) echo "1550 73" ;;
    fedchain) echo "3432 97" ;;
    bench) echo "929 48" ;;
    esac
}

failed=0
total=0
for crate in numeric crypto chain ml shapley fedchain bench; do
    read -r lines pubs < <(
        find "crates/$crate/src" -name '*.rs' ! -name tests.rs ! -name '*_tests.rs' -print0 |
            sort -z | xargs -0 awk '
            FNR == 1 { gated = 0; done = 0 }
            done { next }
            # Inside a gated item: an inline test module ends the file;
            # anything else is skipped until its braces close or,
            # braceless, its `;`.
            gated {
                if (depth == 0 && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*\{/) { done = 1; next }
                opens = gsub(/\{/, "{"); closes = gsub(/\}/, "}")
                depth += opens - closes
                if (depth == 0 && (opens > 0 || /;[[:space:]]*$/)) gated = 0
                next
            }
            /^[[:space:]]*#\[cfg\(test\)\]/ { gated = 1; depth = 0; next }
            /^[[:space:]]*(\/\/|$)/ { next }
            { lines++ }
            /^[[:space:]]*pub[[:space:]]+((const|unsafe|async|extern)[[:space:]]+)*(fn|struct|enum|trait|type|const|mod)[[:space:]]/ { pubs++ }
            END { print lines + 0, pubs + 0 }
        '
    )
    read -r max_lines max_pubs < <(baseline "$crate")
    total=$((total + lines))
    if [ "$lines" -gt "$max_lines" ] || [ "$pubs" -gt "$max_pubs" ]; then
        echo "$crate: $lines lines, $pubs pub items; baseline $max_lines lines, $max_pubs pub items"
        failed=1
    else
        echo "$crate: $lines lines (baseline $max_lines), $pubs pub items (baseline $max_pubs)"
    fi
done
echo "total: $total lines"
exit "$failed"
