#!/bin/sh
# Search digest of the exact branch-and-bound solver.
#
# Prints the MD5 and line count of four `rbp exact` outputs:
#   slice      `rbp exact -v` (every slice loop on 2x8/4x4/8x2, embedded:
#              status, best II and copies, lower bound and node count)
#   slice-cu   `rbp exact -v -m copy-unit` (the same slice on the three
#              geometries under the copy-unit model)
#   gen1       `rbp exact gen1 --budget 50000` (61 registers, 4x4)
#   gen22-c8   `rbp exact gen22 -c 8 --budget 50000` (159 registers, 8x2)
# The two single-loop reports print nodes, leaves, pruned and backjumps
# of a budget-exhausted search with tens of thousands of prunes, so a
# change that claims to leave every search decision alone prints the
# same four lines as its parent. tools/exact_digest.expected holds the
# lines of the current tree; `make exact-digest-check` and CI diff this
# script's output against it.
#
# Usage: exact_digest.sh [rbp-binary]
#   (default: _build/default/bin/rbp.exe; build it first)
set -eu

rbp=${1:-_build/default/bin/rbp.exe}
[ -x "$rbp" ] || { echo "exact_digest: $rbp not found (run dune build)" >&2; exit 2; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

digest() {
  label=$1
  shift
  "$rbp" exact "$@" > "$tmp/$label" \
    || { echo "exact_digest: rbp exact $* failed" >&2; exit 1; }
  printf '%-9s %s  (%s lines)\n' "$label" "$(md5sum < "$tmp/$label" | cut -d' ' -f1)" \
    "$(wc -l < "$tmp/$label" | tr -d ' ')"
}

digest slice -v -j 1
digest slice-cu -v -m copy-unit -j 1
digest gen1 gen1 --budget 50000
digest gen22-c8 gen22 -c 8 --budget 50000
