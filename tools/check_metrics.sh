#!/bin/sh
# Validate a Prometheus text exposition scraped from `rbp top --prom`.
#
# Checks, in order:
#   1. every non-comment line is a well-formed sample
#      (name{labels} value, labels optional, value a number);
#   2. every `# TYPE` family declaration is followed by at least one
#      sample of that family — a declared-but-empty family means an
#      instrumentation point was never wired up;
#   3. the three latency summaries carry a non-zero `_count` — after a
#      bombardment the daemon must have recorded real distributions;
#   4. the per-request pipeline counters rbp_greedy_decisions_total,
#      rbp_sched_placements_total and rbp_ladder_rung_entered_total are
#      non-zero — each compile's trace must reach the daemon's stats.
#
# Usage: check_metrics.sh [exposition-file]   (stdin when omitted)
set -eu

input=${1:--}
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
cat -- "$input" > "$tmp" 2>/dev/null || { echo "check_metrics: cannot read $input" >&2; exit 2; }

awk '
  function fail(msg) { print "check_metrics: " msg > "/dev/stderr"; bad = 1 }
  /^$/ { next }
  /^# TYPE / {
    if (split($0, t, " ") < 4) { fail("malformed TYPE line: " $0); next }
    declared[t[3]] = t[4]
    next
  }
  /^#/ { next }
  {
    if ($0 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?([0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[0-9]+e[+-]?[0-9]+)$/) {
      fail("malformed sample line: " $0)
      next
    }
    name = $1
    sub(/\{.*/, "", name)
    samples[name]++
    # a summary family owns its _sum/_count samples too
    base = name
    sub(/_(sum|count)$/, "", base)
    samples[base]++
    if (name ~ /_count$/) counts[name] = $2
    if (name ~ /_total$/) totals[name] += $2
  }
  END {
    for (fam in declared)
      if (!(fam in samples)) fail("family " fam " declared but has no samples")
    n = split("rbp_serve_queue_latency_ms rbp_serve_compile_latency_ms rbp_serve_total_latency_ms", lat, " ")
    for (i = 1; i <= n; i++) {
      c = lat[i] "_count"
      if (!(c in counts)) fail("latency family " lat[i] " missing its _count sample")
      else if (counts[c] + 0 <= 0) fail("latency family " lat[i] " is empty (count " counts[c] ")")
    }
    n = split("rbp_greedy_decisions_total rbp_sched_placements_total rbp_ladder_rung_entered_total", per, " ")
    for (i = 1; i <= n; i++)
      if (!(per[i] in totals) || totals[per[i]] + 0 <= 0)
        fail("per-request counter " per[i] " is missing or zero")
    exit bad
  }
' "$tmp"

echo "check_metrics: exposition OK ($(grep -c '^# TYPE ' "$tmp") families)"
