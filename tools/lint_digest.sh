#!/bin/sh
# Verification digest of the suite.
#
# Runs `rbp lint` (the full pipeline with every stage-boundary check)
# over the 211-loop suite on the paper's three geometries (2x8, 4x4,
# 8x2: -c 2/4/8), under both copy models, at the paper's 32 registers
# per bank and at 3, where most banks overflow. The text output keeps
# the checkers' diagnostic order (unlike --json, which sorts), so the
# digest pins every diagnostic and its position. Each run's stdout,
# stderr and exit code are hashed together; the script prints one line
# per (geometry, model, bank size): the MD5 with the line count. A
# change that claims to leave every diagnostic alone prints the same
# twelve lines as its parent. tools/lint_digest.expected holds the
# lines of the current tree; `make lint-digest-check` and CI diff this
# script's output against it.
#
# Usage: lint_digest.sh [rbp-binary]
#   (default: _build/default/bin/rbp.exe; build it first)
set -eu

rbp=${1:-_build/default/bin/rbp.exe}
[ -x "$rbp" ] || { echo "lint_digest: $rbp not found (run dune build)" >&2; exit 2; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for regs in 32 3; do
  for model in embedded copy-unit; do
    for c in 2 4 8; do
      out="$tmp/c$c-$model-r$regs"
      status=0
      "$rbp" lint -c "$c" -m "$model" --regs "$regs" > "$out" 2> "$tmp/err" || status=$?
      cat "$tmp/err" >> "$out"
      echo "exit $status" >> "$out"
      printf '%-22s %s  (%s lines)\n' "c$c-$model-regs$regs" \
        "$(md5sum < "$out" | cut -d' ' -f1)" "$(wc -l < "$out" | tr -d ' ')"
    done
  done
done
