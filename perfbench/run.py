#!/usr/bin/env python3
"""The repository benchmark: build the harness, run one workload, print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds bin/shangfortes.exe and
perfbench/perfbench.exe with dune, runs the workload in a scratch
directory under perfbench/_run/, and prints the harness's full report
followed, as the last line, by the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics.  Exit status 0 means a result was
printed; anything else means no result.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_group(cmd, cwd, timeout, stdout, env=None):
    """Run cmd in its own process group; on timeout kill the whole group
    (the harness's daemon and router included) and wait for it."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True, env=env)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (os.path.basename(cmd[0]), timeout))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def build(root):
    for need in ("dune-project", "bin", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, need)):
            fail("not a checkout of the repository: %s is missing" % need)
    # No shared dune cache: the benchmark writes only inside its checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_group(["dune", "build", "--root", ".", "./bin/shangfortes.exe",
                         "./perfbench/perfbench.exe"], root, BUILD_TIMEOUT_S, sys.stderr, env)
    if code != 0:
        fail("build failed")
    exe = os.path.join(root, "_build", "default", "perfbench", "perfbench.exe")
    program = os.path.join(root, "_build", "default", "bin", "shangfortes.exe")
    return exe, program


def harness(root, exe, program, workload, seed, seconds, trace, extra=()):
    """Run the harness once in a fresh scratch directory; return its report."""
    rundir = os.path.join(HERE, "_run", "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        code, out = run_group([exe, "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace),
                               "--program", program] + list(extra),
                              rundir, RUN_TIMEOUT_S, subprocess.PIPE)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    lines = out.decode().strip().splitlines()
    if code != 0 or not lines:
        fail("harness exited with %d" % code)
    return json.loads(lines[-1])


def result(spec, report, trace):
    """The benchmark's result object for one harness report."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = report["metrics"]
    metrics = {}
    finite = True
    for m in wanted:
        if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]:
            fail("harness did not report %s in %s" % (m["name"], m["unit"]))
        v = got[m["name"]]["value"]
        finite = finite and isinstance(v, (int, float)) and math.isfinite(v)
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    correct = report["failed"] == 0 and report["setup_failed"] == 0 and finite
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    exe, program = build(root)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload)
    report = harness(root, exe, program, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(report))
    print(json.dumps(result(spec, report, args.trace)))


if __name__ == "__main__":
    main()
