#!/usr/bin/env bash
# First-party Rust line counts, one way: per crate under crates/*/src and
# the root src/, total and non-test. A file's non-test lines are those
# before its first `#[cfg(test)]` at column 0 or 4 that opens a module (the
# unit-test module most files here end with; a `#[cfg(test)]` on a lone
# item does not end the count); files without one count whole. vendor/
# and khuzdul-bench/ are not first-party and are not looked at.
#
#   ci/loc.sh            the table
#   ci/loc.sh FILE...    the same two numbers for the named files
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # files... -> "total non_test"
    awk '
        FNR == 1 { in_tests = 0; pending = 0 }
        { total++ }
        in_tests { next }
        pending { pending = 0; if ($0 ~ /^(    )?(pub )?mod /) { in_tests = 1; non_test--; next } }
        /^(    )?#\[cfg\(test\)\]$/ { pending = 1 }
        { non_test++ }
        END { printf "%d %d\n", total, non_test }
    ' "$@"
}

if [ "$#" -gt 0 ]; then
    for f in "$@"; do
        read -r total non_test < <(count "$f")
        printf '%-40s %7d %9d\n' "$f" "$total" "$non_test"
    done
    exit 0
fi

printf '%-40s %7s %9s\n' crate total non-test
sum_total=0
sum_non_test=0
for src in crates/*/src src; do
    mapfile -t files < <(find "$src" -name '*.rs' | sort)
    read -r total non_test < <(count "${files[@]}")
    printf '%-40s %7d %9d\n' "$src" "$total" "$non_test"
    sum_total=$((sum_total + total))
    sum_non_test=$((sum_non_test + non_test))
done
printf '%-40s %7d %9d\n' first-party "$sum_total" "$sum_non_test"
