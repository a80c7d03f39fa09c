#!/usr/bin/env bash
# Counted lines of Rust source files: the non-blank lines that do not
# start with `//` after indentation (so `///` and `//!` docs are left
# out), up to the file's first `#[cfg(test)]` or `#[cfg(all(test, …))]`
# line (so in-file unit tests are left out).
#
# Usage:
#   ci/counted_lines.sh FILE...
#
# Prints `<count> <file>` per file, then `<sum> total` when given more
# than one file.
set -euo pipefail

[ $# -ge 1 ] || { echo "usage: $0 FILE..." >&2; exit 2; }

total=0
for file in "$@"; do
  count=$(awk '
    /^[[:space:]]*#\[cfg\((test\)|all\(test,)/ { exit }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n + 0 }
  ' "$file")
  printf '%6d %s\n' "$count" "$file"
  total=$((total + count))
done
[ $# -eq 1 ] || printf '%6d total\n' "$total"
