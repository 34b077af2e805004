#!/bin/sh
# Analysis digest of the suite.
#
# Runs `rbp analyze --json --maxlive -j 1` over the 211-loop suite and
# prints the MD5 of its output with the line count. Every loop's line
# carries the analysis results (MaxLive, dead and remat counts, the
# DDG diff) and the solvers' iteration and widening totals, so a change
# that claims to move no analysis result prints the same line as its
# parent. tools/analyze_digest.expected holds the line of the current
# tree; `make analyze-digest-check` and CI diff this script's output
# against it.
#
# Usage: analyze_digest.sh [rbp-binary]
#   (default: _build/default/bin/rbp.exe; build it first)
set -eu

rbp=${1:-_build/default/bin/rbp.exe}
[ -x "$rbp" ] || { echo "analyze_digest: $rbp not found (run dune build)" >&2; exit 2; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$rbp" analyze --json --maxlive -j 1 > "$tmp/analyze.jsonl" \
  || { echo "analyze_digest: rbp analyze failed" >&2; exit 1; }

printf 'analyze  %s  (%s lines)\n' "$(md5sum < "$tmp/analyze.jsonl" | cut -d' ' -f1)" \
  "$(wc -l < "$tmp/analyze.jsonl" | tr -d ' ')"
