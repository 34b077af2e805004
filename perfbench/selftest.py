#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 perfbench/selftest.py [WORKLOAD ...]

Run from the root of a repository checkout. For each workload (by
default every workload BENCHMARK.json lists):

- every run reports correct outputs and prints exactly the metrics
  BENCHMARK.json lists for its mode, each with the listed unit;
- two short runs on one seed give exactly equal deterministic metrics:
  mean_degradation, mean_copies, optimal_ratio and ok_ratio end to end,
  and every count and kword metric in the traced mode;
- the op list (bench.exe --list-ops) is the same for one seed, and
  another seed puts the same ops in another order.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC = ("mean_degradation", "mean_copies", "optimal_ratio", "ok_ratio")
DETERMINISTIC_UNITS = ("count", "kword")
SEED, OTHER_SEED = 1995, 2024

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print("FAIL " + msg, flush=True)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    label = "%s seed %d trace %d" % (workload, seed, trace)
    if p.returncode != 0 or not p.stdout.strip():
        check(False, "%s: exit %d" % (label, p.returncode))
        return {}
    result = json.loads(p.stdout.splitlines()[-1])
    check(result["correct"] and result["failed"] == 0, "%s: outputs not correct" % label)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    check(sorted(got) == sorted(x["name"] for x in listed),
          "%s: printed metrics differ from BENCHMARK.json" % label)
    for x in listed:
        if x["name"] in got:
            check(got[x["name"]]["unit"] == x["unit"], "%s: unit of %s" % (label, x["name"]))
    if trace:
        return {k: v["value"] for k, v in got.items() if v["unit"] in DETERMINISTIC_UNITS}
    return {k: got[k]["value"] for k in DETERMINISTIC if k in got}


def op_list(workload, seed):
    bench = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--list-ops"]
    return subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines()


def main():
    workloads = sys.argv[1:] or [w["name"] for w in SPEC["workloads"]]
    for w in workloads:
        for trace in (0, 1):
            a, b = run(w, SEED, trace), run(w, SEED, trace)
            diff = sorted(k for k in a if a.get(k) != b.get(k))
            check(a and not diff, "%s trace %d: same seed differs on %s" % (w, trace, diff))
            print("%s trace %d: %d deterministic metrics checked" % (w, trace, len(a)), flush=True)
        ops, again, other = op_list(w, SEED), op_list(w, SEED), op_list(w, OTHER_SEED)
        check(ops and ops == again, "%s: one seed gives two op lists" % w)
        check(other != ops and sorted(other) == sorted(ops),
              "%s: seed %d does not reorder the op list" % (w, OTHER_SEED))
        print("%s: %d ops, reordered by the seed" % (w, len(ops)), flush=True)
    print("selftest: %s" % ("FAILED" if failures else "ok"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
