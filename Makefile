# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-json bench-baseline perfdiff report check-report doc \
        clean quickstart experiment lint analyze stress trace serve-smoke bombard \
        metrics-check logs-check exact exact-baseline exact-perfdiff perfbench \
        trace-digest trace-digest-check analyze-digest-check exact-digest-check \
        alloc-digest-check lint-digest-check ddg-digest-check

all: build

build:
	dune build @all

test:
	dune runtest

# CI-style one-command verification: the full pipeline with independent
# checks at every stage boundary, over every example IR file.
lint:
	@for f in examples/*.ir; do \
	  echo "== $$f"; \
	  dune exec bin/rbp.exe -- lint $$f || exit 1; \
	done

# Engine parallelism passthrough: J=0 (the default) uses one domain per
# core; J=1 forces the exact serial path. Output is byte-identical for
# every J, so this is purely a wall-clock knob.
J ?= 0

# Translation validation of the DDG: the independent dataflow engine
# re-derives the dependence set of every suite loop and every example
# and diffs it edge-by-edge against Ddg.Graph. Any unsoundness finding
# (AN001/AN002) exits non-zero.
analyze:
	dune exec bin/rbp.exe -- analyze --diff-ddg -j $(J)
	@for f in examples/*.ir; do \
	  echo "== $$f"; \
	  dune exec bin/rbp.exe -- analyze --diff-ddg $$f || exit 1; \
	done

# The analysis gate: the MD5 of `rbp analyze --json --maxlive -j 1`
# (every loop's analysis results and solver iteration/widening totals)
# must equal tools/analyze_digest.expected. A change that moves an
# analysis result on purpose regenerates that file
# (sh tools/analyze_digest.sh > tools/analyze_digest.expected) and says why.
analyze-digest-check: build
	sh tools/analyze_digest.sh | diff -u tools/analyze_digest.expected -

# The search gate: the MD5s of `rbp exact -v` (embedded and copy-unit)
# and of two budget-exhausted single-loop reports (nodes, leaves, pruned
# and backjumps) must equal tools/exact_digest.expected. A change that
# moves a search decision on purpose regenerates that file
# (sh tools/exact_digest.sh > tools/exact_digest.expected) and says why.
exact-digest-check: build
	sh tools/exact_digest.sh | diff -u tools/exact_digest.expected -

# The allocation gate: the MD5s of `rbp alloc` (rounds, spills, per-bank
# pressure and the full register mapping) over every suite loop on
# 2x8/4x4/8x2 at 32 and at 3 registers per bank must equal
# tools/alloc_digest.expected. A change that moves an allocation on
# purpose regenerates that file
# (sh tools/alloc_digest.sh > tools/alloc_digest.expected) and says why.
alloc-digest-check: build
	sh tools/alloc_digest.sh | diff -u tools/alloc_digest.expected -

# The verification gate: the MD5s of `rbp lint` (every stage-boundary
# diagnostic, in the checkers' own order) over the suite on 2x8/4x4/8x2,
# both copy models, at 32 and at 3 registers per bank, with stderr and
# exit codes, must equal tools/lint_digest.expected. A change that moves
# a diagnostic on purpose regenerates that file
# (sh tools/lint_digest.sh > tools/lint_digest.expected) and says why.
lint-digest-check: build
	sh tools/lint_digest.sh | diff -u tools/lint_digest.expected -

# The dependence gate: the MD5s of `rbp ddg` (text and DOT) over the
# suite, of `rbp compare` (every partitioner) on a fixed set of suite
# loops on 2x8/4x4/8x2 and of `rbp pipeline -s swing` on the same set
# must equal tools/ddg_digest.expected. A change that moves a dependence
# edge, its order or a scheduling decision on purpose regenerates that
# file (sh tools/ddg_digest.sh > tools/ddg_digest.expected) and says why.
ddg-digest-check: build
	sh tools/ddg_digest.sh | diff -u tools/ddg_digest.expected -

# Deterministic fault-injection sweep through the resilient driver:
# 200 seeded trials, Verify as the oracle. Exit 0 = every trial either
# produced verified code or failed with a clean structured error.
stress:
	dune exec bin/rbp.exe -- stress --seed 1995 --trials 200 -j $(J)

# Decision digest: MD5 of the stress sweep's JSONL trace with its
# clock fields removed, next to the MD5 of its stdout. Run it on a
# change and on its parent; a change that leaves every scheduling and
# partitioning decision alone prints the same two lines.
trace-digest: build
	sh tools/trace_digest.sh

# The decision gate: the digest must equal tools/trace_digest.expected.
# A change that moves decisions on purpose regenerates that file
# (make trace-digest > tools/trace_digest.expected) and says why.
trace-digest-check: build
	sh tools/trace_digest.sh | diff -u tools/trace_digest.expected -

# The studies beyond the paper (ablation, schedulers, latency, ...); the
# paper's own tables and figures come from `make report` / `make experiment`.
bench:
	dune exec bench/main.exe

# Machine-readable full-suite telemetry: writes BENCH_pipeline.json
# (suite means, failure counts, engine jobs / cache hits / wall time).
bench-json:
	dune exec bin/rbp.exe -- report -f json -j $(J) -o BENCH_pipeline.json

# Refresh the checked-in perf-gate baseline (deterministic: no engine
# telemetry, so an unchanged pipeline regenerates it byte-identically).
# Shows what would change before overwriting.
bench-baseline:
	dune exec bin/rbp.exe -- report -n 32 -f json --deterministic -o BENCH_baseline_new.json
	-diff -u bench/baseline/BENCH_quick.json BENCH_baseline_new.json
	mv BENCH_baseline_new.json bench/baseline/BENCH_quick.json

# The CI perf gate, runnable locally: reduced-suite telemetry compared
# against the checked-in baseline with per-metric thresholds.
perfdiff:
	dune exec bin/rbp.exe -- report -n 32 -f json -j $(J) -o BENCH_quick.json
	dune exec bin/rbp.exe -- perfdiff bench/baseline/BENCH_quick.json BENCH_quick.json

# The benchmark of record, one 20 s run per workload at seed 1: prints the
# sweep, serve and exact result lines (JSON) in turn. Run it on two
# checkouts to compare a change against its parent on the same seed.
perfbench:
	@for w in sweep serve exact; do \
	  out=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 20) || exit 1; \
	  echo "$$out" | tail -n 1; \
	done

# The exact branch-and-bound study: provably optimal II + bank assignment
# for every tractable suite loop (<= 12 registers), against the greedy
# heuristic, on all three paper geometries. Node-budgeted, so the output
# is byte-identical for every J.
exact:
	dune exec bin/rbp.exe -- exact -j $(J)

# Refresh the checked-in exact-study baseline (deterministic: the solver
# is node-budgeted, not clock-budgeted, so an unchanged solver
# regenerates it byte-identically). Shows what would change first.
exact-baseline:
	dune exec bin/rbp.exe -- exact -j $(J) --json BENCH_exact_new.json
	-diff -u bench/baseline/BENCH_exact.json BENCH_exact_new.json
	mv BENCH_exact_new.json bench/baseline/BENCH_exact.json

# The exact-study CI gate, runnable locally: regenerate the telemetry
# and compare it against the checked-in baseline (optimal counts must
# not drop, budgets must match, means must not move — the data is
# deterministic, so the gates are strict).
exact-perfdiff:
	dune exec bin/rbp.exe -- exact -j $(J) --json BENCH_exact.json
	dune exec bin/rbp.exe -- perfdiff bench/baseline/BENCH_exact.json BENCH_exact.json

# Regenerate the paper tables of EXPERIMENTS.md (full 211-loop suite)
# and verify the committed document still matches, byte for byte.
report:
	dune exec bin/rbp.exe -- report -j $(J)

check-report:
	dune exec bin/rbp.exe -- report -j $(J) --check EXPERIMENTS.md > /dev/null

# Deterministic span tree for one loop (override LOOP/CLUSTERS to taste):
# the quickest way to see where pipeline time goes.
LOOP ?= daxpy-u4
CLUSTERS ?= 4
trace:
	dune exec bin/rbp.exe -- trace $(LOOP) -c $(CLUSTERS) --deterministic

# The service smoke test: a faults-enabled daemon on a Unix socket,
# bombarded with a reduced suite from concurrent clients under every
# service fault, then drained with SIGTERM. Exit 0 = every request
# answered, zero protocol errors, serve metrics match local compiles.
SERVE_SOCK ?= /tmp/rbp-serve-smoke.sock
# Run the built binary directly: a backgrounded `dune exec` keeps the
# dune project lock for as long as the daemon lives, deadlocking the
# second `dune exec`.
serve-smoke: build
	@rm -f $(SERVE_SOCK)
	./_build/default/bin/rbp.exe serve --listen unix:$(SERVE_SOCK) --faults & \
	serve_pid=$$!; \
	./_build/default/bin/rbp.exe bombard unix:$(SERVE_SOCK) \
	  --loops 25 --clients 8 --faults all --check; \
	status=$$?; \
	kill -TERM $$serve_pid; wait $$serve_pid || status=1; \
	exit $$status

# The observability smoke test: bombard a --no-cache daemon (cache hits
# would leave the compile and per-rung histograms empty), scrape the
# Prometheus exposition with `rbp top --prom`, and validate it — every
# declared family has samples and every latency histogram is non-empty.
METRICS_SOCK ?= /tmp/rbp-metrics-check.sock
metrics-check: build
	@rm -f $(METRICS_SOCK)
	./_build/default/bin/rbp.exe serve --listen unix:$(METRICS_SOCK) --no-cache & \
	serve_pid=$$!; \
	./_build/default/bin/rbp.exe bombard unix:$(METRICS_SOCK) \
	  --loops 25 --clients 8; \
	status=$$?; \
	./_build/default/bin/rbp.exe top unix:$(METRICS_SOCK) --once --prom \
	  | sh tools/check_metrics.sh || status=1; \
	kill -TERM $$serve_pid; wait $$serve_pid || status=1; \
	exit $$status

# The forensics smoke test: a --log-json debug daemon bombarded with
# trace sampling, a mid-run flight scrape, a SIGTERM drain writing the
# final flight dump, then the JSONL log validated line by line (fixed
# key order, monotone timestamps, trace ids everywhere).
LOGS_SOCK ?= /tmp/rbp-logs-check.sock
LOGS_OUT ?= /tmp/rbp-logs-check
logs-check: build
	@rm -f $(LOGS_SOCK) $(LOGS_OUT).jsonl $(LOGS_OUT)-flight.json
	./_build/default/bin/rbp.exe serve --listen unix:$(LOGS_SOCK) \
	  --log-json --log-level debug --flight-out $(LOGS_OUT)-flight.json \
	  2> $(LOGS_OUT).jsonl & \
	serve_pid=$$!; \
	./_build/default/bin/rbp.exe bombard unix:$(LOGS_SOCK) \
	  --loops 10 --clients 4 --trace-sample 3 --check; \
	status=$$?; \
	./_build/default/bin/rbp.exe flight unix:$(LOGS_SOCK) --json > /dev/null \
	  || status=1; \
	kill -TERM $$serve_pid; wait $$serve_pid || status=1; \
	sh tools/check_logs.sh $(LOGS_OUT).jsonl || status=1; \
	test -s $(LOGS_OUT)-flight.json || { \
	  echo "logs-check: no flight dump written" >&2; status=1; }; \
	exit $$status

# The full bombardment: the whole 211-loop suite against a live daemon
# (start one with `rbp serve`), writing the rbp-bench/1 latency report.
BOMBARD_ADDR ?= unix:/tmp/rbp-serve.sock
bombard: build
	./_build/default/bin/rbp.exe bombard $(BOMBARD_ADDR) \
	  --clients 8 --faults all --check --json BENCH_serve.json

quickstart:
	dune exec examples/quickstart.exe

# Tables 1-3 and the Figure 5-7 histograms as terminal tables, with the
# failure list (full 211-loop suite).
experiment:
	dune exec bin/rbp.exe -- report -f text -j $(J)

doc:
	dune build @doc

clean:
	dune clean
