#!/usr/bin/env python3
"""Run one benchmark workload from the root of a repository checkout.

    python3 perfbench/run.py --workload sweep|serve|exact \
        --seed N --seconds S --trace 0|1

Builds the benchmark (perfbench/bench.exe) and the rbp daemon with dune,
runs the workload in a scratch directory under .bench_run/, and relays
the benchmark's JSON result line as the last line of standard output.
Exits non-zero, printing no result, when the checkout cannot be built or
the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("sweep", "serve", "exact")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            die("%s not found: run from the root of a repository checkout" % need)

    targets = ["./perfbench/bench.exe", "./bin/rbp.exe"]
    # Dune's shared cache lives outside the checkout; the build stays in
    # _build/.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet"] + targets,
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if build.returncode != 0:
        die("build failed (dune exit %d)" % build.returncode)
    bench, rbp = (os.path.join(root, "_build", "default", t[2:]) for t in targets)

    workdir = os.path.join(root, ".bench_run", str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--rbp", rbp, "--workdir", workdir]
    # One CPU for the run and every process it starts. The serve daemon's
    # worker domain synchronises with its main domain at every minor
    # collection; across two shared vCPUs each of those waits on a
    # cross-CPU wake-up, which made serve's timings spread twice as much
    # as the in-process workloads'.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Its own session, so every process the run starts (the daemon too)
    # can be stopped together if it overruns.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    if out is None:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        die("benchmark exited %d" % proc.returncode)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
