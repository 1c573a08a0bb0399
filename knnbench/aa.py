#!/usr/bin/env python3
"""A/A comparison: the same build measured twice, as two sets of runs.

    python3 knnbench/aa.py [--runs 10] [--workloads two_selects,join_mix]

For each workload, set A and set B each run knnbench/run.py once per
seed (seeds 1..runs for A, runs+1..2*runs for B, --trace 0), alternating
between the sets run by run, so that the host's speed, which drifts by
up to a fifth over minutes on a shared VM, falls on both sets. For every
end-to-end metric it prints each set's median and quartiles (Python's
statistics.quantiles, n=4) and whether the two sets agree within the
metric's bound from BENCHMARK.json: B's median is not worse than A's by
more than the bound, and each set's quartile spread is within the bound
as a share of its median. It also checks that the share
of failed operations is the same in both sets. Exits 1 on any
disagreement.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Set:
    def __init__(self):
        self.values, self.attempted, self.failed = {}, 0, 0

    def run(self, workload, seed, seconds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            raise SystemExit("%s seed %d: run failed" % (workload, seed))
        result = json.loads(out.stdout.splitlines()[-1])
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        for name, metric in result["metrics"].items():
            self.values.setdefault(name, []).append(metric["value"])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    a = ap.parse_args()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    agree = True
    for workload in a.workloads.split(","):
        set_a, set_b = Set(), Set()
        for i in range(1, a.runs + 1):
            set_a.run(workload, i, a.seconds)
            set_b.run(workload, a.runs + i, a.seconds)
        a_vals, a_fail = set_a.values, set_a.failed / set_a.attempted
        b_vals, b_fail = set_b.values, set_b.failed / set_b.attempted
        print("%s: failed share A %.6f B %.6f%s" % (
            workload, a_fail, b_fail, "" if a_fail == b_fail else "  DIFFERENT"))
        agree &= a_fail == b_fail
        for name in sorted(a_vals):
            spec = bounds[name]
            qa = statistics.quantiles(a_vals[name], n=4)
            qb = statistics.quantiles(b_vals[name], n=4)
            ma, mb = statistics.median(a_vals[name]), statistics.median(b_vals[name])
            worse = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
            spread_a = (qa[2] - qa[0]) / ma
            spread_b = (qb[2] - qb[0]) / mb
            ok = (worse <= spec["bound"] and spread_a <= spec["bound"]
                  and spread_b <= spec["bound"])
            agree &= ok
            print("  %-20s A %10.4f [%10.4f %10.4f]  B %10.4f [%10.4f %10.4f]  "
                  "worse %+6.1f%%  spread %.3f/%.3f  bound %.2f  %s" % (
                      name, ma, qa[0], qa[2], mb, qb[0], qb[2], worse * 100,
                      spread_a, spread_b, spec["bound"], "agree" if ok else "DISAGREE"))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
