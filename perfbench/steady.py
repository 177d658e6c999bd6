#!/usr/bin/env python3
"""Check that the benchmark holds still: run each workload once per seed
and report, for every end-to-end metric, the median and the spread (the
distance between the first and third quartile of the runs, as a share
of their median) next to the metric's bound.

    python3 perfbench/steady.py [--workload NAME ...] [--seeds 1,2,...] [--trace 0|1]

Run it from the root of a checkout.  It exits 1 when a run is not
correct or, with --trace 0, when any spread exceeds its bound.  It also
prints the median time of each set-up step (inputs: instances and
expected verdicts in the harness; spawn: daemon and router start-up;
warm: the untimed warm-up), so that setup_s can be read apart.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    steady = True
    for w in workloads:
        values = {m["name"]: [] for m in wanted}
        refs = []
        phases = {}
        for seed in seeds:
            proc = subprocess.run(spec["command"] + ["--workload", w, "--seed", str(seed),
                                                     "--seconds", str(spec["run_seconds"]),
                                                     "--trace", str(args.trace)],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            if proc.returncode != 0:
                err = proc.stderr.decode().strip().splitlines()
                print("%s seed %d: no result (exit %d): %s" % (
                    w, seed, proc.returncode, " | ".join(err[-2:])), flush=True)
                steady = False
                continue
            lines = proc.stdout.decode().strip().splitlines()
            report, res = json.loads(lines[-2]), json.loads(lines[-1])
            if not res["correct"]:
                print("%s seed %d: incorrect result %s" % (w, seed, lines[-1]))
                steady = False
            for name, v in res["metrics"].items():
                values[name].append(v["value"])
            refs.append(report["reference_loop_ms"])
            for step, s in report["diag"].get("setup_phases_s", {}).items():
                phases.setdefault(step, []).append(s)
            print("%s seed %d: %s clean slices per window %s%s" % (w, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in res["metrics"].items()}),
                report["diag"].get("windows_clean_slices"),
                "" if report["diag"].get("steady", True) else " (host noisy)"), flush=True)
        print("== %s (%d runs; reference loop %s ms)" % (
            w, len(seeds), ", ".join("%.0f/%.0f" % (r["before"], r["after"]) for r in refs)))
        if phases:
            print("  set-up steps, median s: " + ", ".join(
                "%s %.3f" % (step, statistics.median(v)) for step, v in phases.items()))
        for m in wanted:
            vs = values[m["name"]]
            if not vs:
                continue
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO NOISY")
                if spread > bound:
                    steady = False
            print("  %-32s median %-14.6g spread %6.3f  bound %-5s %s" % (
                m["name"], med, spread, bound if bound is not None else "-", flag), flush=True)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
