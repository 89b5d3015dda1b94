#!/usr/bin/env python3
"""Run one perfbench workload and print its result as one JSON line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cruda_rog --seed 1 --seconds 30 --trace 0

The first call configures and builds perfbench/ (which compiles the
program's libraries from src/) into the build directory: $CARGO_TARGET_DIR
if set, else .bench_build. The C++ executable prints a metric table and writes
the full record (every metric, the correctness checks, the determinism
fingerprint) to <build>/results/; a traced run (--trace 1) also writes a
Chrome trace-event file to <build>/traces/ that opens in Perfetto.

The last line of standard output is the result: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
exit status is nonzero when the build fails, a correctness check fails, or
a listed metric is missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cruda_rog", "fleet_1024", "socket_udp")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build the executable; return its path or None."""
    out = os.path.join(build_dir(), "perfbench")
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    steps = [["cmake", "--build", out, "--target", "perfbench", "-j", "4"]]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, cmd)
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return None
    exe = os.path.join(out, "perfbench")
    return exe if os.path.exists(exe) else None


def bench_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    names = bench_metrics(args.trace)
    exe = build()
    if exe is None:
        return 1

    results = os.path.join(build_dir(), "results")
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(results, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record_path = os.path.join(results, tag + ".json")
    if os.path.exists(record_path):
        os.remove(record_path)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", record_path]
    if args.trace:
        cmd += ["--trace-file", os.path.join(traces, tag + ".json")]

    t0 = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=sys.stdout, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.flush()
    if not os.path.exists(record_path):
        log("perfbench exited %d without a record" % done.returncode)
        return 1
    with open(record_path) as f:
        record = json.load(f)
    missing = [n for n in names if n not in record["metrics"]]
    if missing:
        log("metrics missing from the record: " + ", ".join(missing))
        return 1

    result = {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {n: {"value": record["metrics"][n]["value"],
                        "unit": record["metrics"][n]["unit"]} for n in names},
    }
    log("%s seed %d took %.1f s" % (args.workload, args.seed,
                                     time.monotonic() - t0))
    print(json.dumps(result), flush=True)
    return 0 if done.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
