#!/bin/sh
# Allocation digest of the suite.
#
# Runs `rbp alloc LOOP -c C --regs K` on every suite loop, on the
# paper's three geometries (2x8, 4x4, 8x2: -c 2/4/8) and at two bank
# sizes: the paper's 32 registers, and 3, where most loops spill and
# many need several colouring rounds. Each run prints its rounds, spill
# count, per-bank pressure and the full (bank, index) mapping; a loop
# that fails contributes its stderr and exit code instead. The script
# prints one line per (geometry, bank size): the MD5 of the
# concatenated reports with their line count. A change that claims to
# leave every allocation alone prints the same six lines as its parent.
# tools/alloc_digest.expected holds the lines of the current tree;
# `make alloc-digest-check` and CI diff this script's output against it.
#
# Usage: alloc_digest.sh [rbp-binary]
#   (default: _build/default/bin/rbp.exe; build it first)
set -eu

rbp=${1:-_build/default/bin/rbp.exe}
[ -x "$rbp" ] || { echo "alloc_digest: $rbp not found (run dune build)" >&2; exit 2; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The suite's loop names, from the first column of `rbp list`.
"$rbp" list | awk -F'|' 'NR > 4 && /^\|/ { gsub(/ /, "", $2); print $2 }' > "$tmp/loops"
[ -s "$tmp/loops" ] || { echo "alloc_digest: rbp list printed no loops" >&2; exit 1; }

for regs in 32 3; do
  for c in 2 4 8; do
    out="$tmp/c$c-r$regs"
    : > "$out"
    while read -r loop; do
      echo "== $loop" >> "$out"
      status=0
      "$rbp" alloc "$loop" -c "$c" --regs "$regs" >> "$out" 2> "$tmp/err" || status=$?
      if [ "$status" -ne 0 ]; then
        cat "$tmp/err" >> "$out"
        echo "exit $status" >> "$out"
      fi
    done < "$tmp/loops"
    printf '%-11s %s  (%s lines)\n' "c$c-regs$regs" "$(md5sum < "$out" | cut -d' ' -f1)" \
      "$(wc -l < "$out" | tr -d ' ')"
  done
done
