#!/usr/bin/env bash
# Public items nothing calls: every `pub fn|struct|enum|trait|const|type`
# declared in a `crates/*/src` file, above the file's first
# `#[cfg(test)]`/`#[cfg(all(test, …))]` line, whose name appears as a
# whole word in no other non-comment line of
#   * the non-test code of every `crates/*/src` file, or
#   * `src/`, `examples/`, `crates/*/benches/` and `perfbench/src/`.
#
# The scan is by name: an item shares its uses with every item of the
# same name, and a name inside a string literal counts as a use. A
# comment line (`//`, `///`, `//!`, doc tests included) never does.
#
# Usage:
#   ci/unused_pub.sh
#
# Prints `<file>:<line>: <name>` per unused item, nothing when every
# public item has a caller. Always exits 0: the listing is informational.
set -euo pipefail

cd "$(dirname "$0")/.."

mapfile -t lib_files < <(find crates/*/src -name '*.rs' | sort)
mapfile -t other_files < <(find src examples crates/*/benches perfbench/src -name '*.rs' | sort)

awk '
  FNR == 1 { stop = 0 }
  lib && /^[[:space:]]*#\[cfg\((test\)|all\(test,)/ { stop = 1 }
  stop || /^[[:space:]]*\/\// { next }
  {
    line = $0
    if (lib && match(line, /^[[:space:]]*pub (fn|struct|enum|trait|const|type) [A-Za-z_][A-Za-z0-9_]*/)) {
      decl = substr(line, RSTART, RLENGTH)
      sub(/.*[[:space:]]/, "", decl)
      n++
      name[n] = decl
      where[n] = FILENAME ":" FNR
    }
    gsub(/[^A-Za-z0-9_]+/, " ", line)
    split("", seen)
    words = split(line, word, " ")
    for (i = 1; i <= words; i++) {
      if (!(word[i] in seen)) {
        seen[word[i]] = 1
        lines_with[word[i]]++
      }
    }
  }
  END {
    for (i = 1; i <= n; i++) {
      if (lines_with[name[i]] <= 1) {
        print where[i] ": " name[i]
      }
    }
  }
' lib=1 "${lib_files[@]}" lib=0 "${other_files[@]}"
