#!/usr/bin/env python3
"""Steadiness report: run one perfbench workload N times and judge each
metric's spread against its bound.

    python3 perfbench/steady.py --workload fleet_1024 --runs 10
    python3 perfbench/steady.py --workload fleet_1024 --runs 10 --save a.json
    python3 perfbench/steady.py --workload fleet_1024 --runs 10 --against a.json

Run i uses seed SEED0 + i (--same-seed keeps SEED0 for every run). For each
metric the report prints the median, the quartiles (statistics.quantiles,
n=4), min and max, and the spread: (q3 - q1) / median. A metric is flagged
SPREAD when its spread exceeds its bound, and "tight" when it exceeds a third
of it. With --against, each median is compared with a saved set and flagged
WORSE when it is worse by more than the bound.

Bounds come from BENCHMARK.json (the end-to-end metrics every workload
reports) and from bounds.json beside this file (the metrics only some
workloads report). Metrics without a bound, such as per-layer ones, are
listed without a verdict. Across seeds, the spread of a metric bounds.json
lists as seed-dependent is input variation, flagged only for the metrics
BENCHMARK.json gates. With --same-seed, a metric it lists as deterministic
must repeat exactly and is flagged NOT-REPEATABLE otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (shares the build-directory rule)


def bounds(workload):
    """(bound spec by metric, names BENCHMARK.json gates, seed-dependent
    names, deterministic names) for @workload."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = {m["name"]: m for m in spec["end_to_end"]}
    gated = set(out)
    with open(os.path.join(HERE, "bounds.json")) as f:
        extra = json.load(f)
    for m in extra["metrics"]:
        out[m["name"]] = m
    return (out, gated, set(extra["seed_dependent"].get(workload, [])),
            set(extra["deterministic"].get(workload, [])))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    with open(os.path.join(run.build_dir(), "results", tag + ".json")) as f:
        record = json.load(f)
    if done.returncode != 0:
        print("run with seed %d exited %d; failed checks: %s" %
              (seed, done.returncode, record.get("failed_checks")))
    return record


def worse_by(new, old, better):
    """Share by which new is worse than old (negative = better)."""
    if old == 0:
        return 0.0
    return (old - new if better == "higher" else new - old) / abs(old)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="write the values of every run here")
    ap.add_argument("--against", help="compare medians with a saved set")
    args = ap.parse_args()

    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]

    values, units, correct = {}, {}, 0
    for i in range(args.runs):
        seed = args.seed0 if args.same_seed else args.seed0 + i
        record = run_once(args.workload, seed, args.seconds, args.trace)
        correct += bool(record["correct"])
        for name, m in record["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("run %d/%d seed %d done" % (i + 1, args.runs, seed), flush=True)

    spec, gated, seed_dependent, deterministic = bounds(args.workload)
    saved = None
    if args.against:
        with open(args.against) as f:
            saved = json.load(f)["values"]

    print("\n%s: %d runs, %d correct, %g s each" %
          (args.workload, args.runs, correct, args.seconds))
    print("%-40s %-6s %12s %12s %12s %12s %12s %7s %6s  %s" %
          ("metric", "unit", "median", "q1", "q3", "min", "max", "spread",
           "bound", "verdict"))
    flagged = 0
    for name in values:
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / abs(med) if med else 0.0
        m = spec.get(name)
        verdict = ""
        bound = ""
        if name in deterministic and args.same_seed:
            if min(v) != max(v):
                verdict, flagged = "NOT-REPEATABLE", flagged + 1
            else:
                verdict = "repeats"
        elif m is not None and "bound" in m:
            if (name in seed_dependent and not args.same_seed and
                    name not in gated):
                verdict = "seed-to-seed"
            elif spread > m["bound"]:
                verdict, flagged = "SPREAD", flagged + 1
            elif spread > m["bound"] / 3:
                verdict = "tight"
        if m is not None and "bound" in m:
            bound = "%.3f" % m["bound"]
            if saved is not None and name in saved:
                w = worse_by(med, statistics.median(saved[name]), m["better"])
                verdict += " vs saved %+.2f%%" % (100 * w)
                if w > m["bound"]:
                    verdict, flagged = verdict + " WORSE", flagged + 1
        print("%-40s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %6.2f%% %6s  %s" %
              (name, units[name], med, q1, q3, min(v), max(v), 100 * spread,
               bound, verdict))

    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "values": values}, f)
    print("\n%d metric(s) flagged" % flagged)
    return 1 if flagged or correct != args.runs else 0


if __name__ == "__main__":
    sys.exit(main())
