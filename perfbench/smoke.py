#!/usr/bin/env python3
"""Smoke check of the benchmark itself, in well under a minute.

    python3 perfbench/smoke.py

Run it from the root of a checkout.  For every workload of
BENCHMARK.json it makes a tiny untraced and a tiny traced run and
requires a correct result carrying every named metric with its unit.
Then it plants one wrong expected answer in each workload and requires
the run to count the disagreement as a failed op.  Exits 1 on the first
violation.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SCALE = "0.02"


def check(cond, msg):
    if not cond:
        print("smoke: FAIL: " + msg)
        sys.exit(1)


def main():
    root = os.getcwd()
    exe, program = run.build(root)
    spec = run.json.load(open(os.path.join(root, "BENCHMARK.json")))
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            report = run.harness(root, exe, program, w, 1, spec["run_seconds"], trace,
                                 ["--scale", SCALE])
            res = run.result(spec, report, trace)
            check(res["correct"] and res["failed"] == 0,
                  "%s trace %d: not correct: %s" % (w, trace, res))
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            check(sorted(res["metrics"]) == sorted(m["name"] for m in wanted),
                  "%s trace %d: metric names differ" % (w, trace))
            print("smoke: %s trace %d: %d ops, every metric present" % (w, trace, res["attempted"]))
        report = run.harness(root, exe, program, w, 1, spec["run_seconds"], 0,
                             ["--scale", SCALE, "--plant-mismatch"])
        res = run.result(spec, report, 0)
        check(not res["correct"] and res["failed"] >= 1,
              "%s: a planted wrong expectation was not counted: %s" % (w, res))
        print("smoke: %s: planted mismatch counted (%d of %d ops failed, fail_rate %.4f)"
              % (w, res["failed"], res["attempted"], report["diag"]["fail_rate"]))
    print("smoke: ok")


if __name__ == "__main__":
    main()
