#!/usr/bin/env python3
"""Build the benchmark from source and run one workload (or all of them).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload txn_contended --seed 11 \
        --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 11 --seconds 40

A single workload prints a human-readable table, then one JSON object as
the last line of standard output, and exits nonzero when an output check
failed. `--workload all` runs every workload untraced and traced, prints
each table, and exits nonzero if any run failed a check.

The OCaml driver is built with dune into `.perfbench/build`; the dune
cache is disabled so nothing is written outside the checkout. The
checker's default parallelism is capped at the number of CPUs this
process may run on, so the run never uses more domains than `nproc`.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["txn_contended", "txn_uniform", "mc_crash"]
BUILD_DIR = os.path.join(".perfbench", "build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def build(env):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the root of a source checkout "
                    "(dune-project and lib/ not found)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    cmd = ["dune", "build", "--root", ".",
           "--build-dir", os.path.abspath(BUILD_DIR),
           "--profile", "release", "./perfbench/main.exe"]
    try:
        # dune's progress goes to stderr: stdout's last line stays the JSON
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        return fail("cannot run dune: %s" % e)
    if proc.returncode != 0:
        return fail("build failed")
    return 0


def manifest_names():
    """Metric names BENCHMARK.json declares, or None without the file."""
    try:
        with open("BENCHMARK.json") as fh:
            bench = json.load(fh)
    except (OSError, ValueError):
        return None
    return ({m["name"] for m in bench["end_to_end"]},
            {m["name"] for m in bench["per_layer"]})


def run_one(env, workload, seed, seconds, trace, show_json=True):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    shown = lines if show_json else lines[:-1]
    print("\n".join(shown), flush=True)
    if proc.returncode != 0:
        return proc.returncode
    # the driver's metric tables and BENCHMARK.json must list the same names
    declared = manifest_names()
    if declared is not None:
        got = set(json.loads(lines[-1])["metrics"])
        want = declared[trace]
        if got != want:
            return fail("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (sorted(want - got), sorted(got - want)))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    code = build(env)
    if code != 0:
        return code
    env["ACTABLE_JOBS"] = str(len(os.sched_getaffinity(0)))

    if args.workload != "all":
        return run_one(env, args.workload, args.seed, args.seconds,
                       args.trace)
    bad = []
    for w in WORKLOADS:
        for trace in (0, 1):
            if run_one(env, w, args.seed, args.seconds, trace,
                       show_json=False) != 0:
                bad.append("%s --trace %d" % (w, trace))
    if bad:
        print("perfbench: FAILED: " + ", ".join(bad), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
