#!/bin/sh
# Dependence-graph digest of the suite.
#
# Prints the MD5 and line count of:
#   ddg-text     `rbp ddg LOOP` for every suite loop (nodes, edges in
#                each node's successor order, RecMII/ResMII bounds)
#   ddg-dot      `rbp ddg --dot LOOP` for every suite loop
#   compare-cN   `rbp compare LOOP -c N` on a fixed set of suite loops
#                (greedy, greedy + refinement, BUG, UAS and NE-style, each
#                scheduled with Rau's scheduler) on 2x8, 4x4 and 8x2
#   swing-cN     `rbp pipeline LOOP -c N -s swing` on the same set, with
#                stderr and the exit code (Swing finds no clustered II for
#                some of them)
# The set mixes straight-line bodies, recurrences, memory dependences and
# large generated loops, so a change that claims to leave every
# dependence edge, its order and every scheduling decision alone prints
# the same eight lines as its parent. tools/ddg_digest.expected holds the
# lines of the current tree; `make ddg-digest-check` and CI diff this
# script's output against it.
#
# Usage: ddg_digest.sh [rbp-binary]
#   (default: _build/default/bin/rbp.exe; build it first)
set -eu

rbp=${1:-_build/default/bin/rbp.exe}
[ -x "$rbp" ] || { echo "ddg_digest: $rbp not found (run dune build)" >&2; exit 2; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

loops=$("$rbp" list | awk -F'|' 'NR > 4 && NF > 2 { gsub(/ /, "", $2); print $2 }')
[ -n "$loops" ] || { echo "ddg_digest: rbp list printed no loops" >&2; exit 1; }

set_loops="daxpy-u4 dot-u4 isum-u8 stencil3-u2 rec1-u4 tridiag-u4 hydro-u4 iccg-u2
  horner4-u2 cmul-u4 maxloc-u4 ifilter-u2 gather-u4 state-u2 euler-u4 divides-u2
  gen1 gen7 gen12 gen22 gen36 gen100"

report() {
  printf '%-11s %s  (%s lines)\n' "$1" "$(md5sum < "$tmp/$1" | cut -d' ' -f1)" \
    "$(wc -l < "$tmp/$1" | tr -d ' ')"
}

for l in $loops; do "$rbp" ddg "$l"; done > "$tmp/ddg-text"
report ddg-text
for l in $loops; do "$rbp" ddg --dot "$l"; done > "$tmp/ddg-dot"
report ddg-dot
for c in 2 4 8; do
  for l in $set_loops; do "$rbp" compare "$l" -c "$c"; done > "$tmp/compare-c$c"
  report "compare-c$c"
done
for c in 2 4 8; do
  for l in $set_loops; do
    status=0
    "$rbp" pipeline "$l" -c "$c" -s swing 2>&1 || status=$?
    echo "exit $status"
  done > "$tmp/swing-c$c"
  report "swing-c$c"
done
