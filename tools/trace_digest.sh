#!/bin/sh
# Decision digest of the fault-injection sweep.
#
# Runs `rbp stress --seed 1995 --trials 200 --trace-out`, drops the
# clock-dependent `start` / `dur` fields from every span line of the
# JSONL trace, and prints two MD5s: the stripped trace (every span,
# attribute, counter and decision event — `sched.evict` chains
# included) and stress's stdout. A change that claims to leave every
# decision alone prints the same two lines as its parent.
# tools/trace_digest.expected holds the two lines of the current tree;
# `make trace-digest-check` and CI diff this script's output against it.
#
# Usage: trace_digest.sh [rbp-binary]
#   (default: _build/default/bin/rbp.exe; build it first)
set -eu

rbp=${1:-_build/default/bin/rbp.exe}
[ -x "$rbp" ] || { echo "trace_digest: $rbp not found (run dune build)" >&2; exit 2; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$rbp" stress --seed 1995 --trials 200 --trace-out "$tmp/trace.jsonl" > "$tmp/stdout" \
  || { echo "trace_digest: rbp stress failed" >&2; exit 1; }

sed -e 's/"start":[^,]*,//' -e 's/"dur":[^,]*,//' "$tmp/trace.jsonl" > "$tmp/stripped"
grep -q '"start"\|"dur"' "$tmp/stripped" \
  && { echo "trace_digest: unstripped timing field" >&2; exit 1; }

printf 'trace  %s  (%s lines)\n' "$(md5sum < "$tmp/stripped" | cut -d' ' -f1)" \
  "$(wc -l < "$tmp/stripped" | tr -d ' ')"
printf 'stdout %s\n' "$(md5sum < "$tmp/stdout" | cut -d' ' -f1)"
