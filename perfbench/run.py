#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and through it the helios
library) in Release into .bench_build/perfbench, runs one workload in its own
process, and checks that the result names exactly the metrics BENCHMARK.json
lists for the mode. The harness's report is passed through; the last line of
standard output is the JSON result. Exit status is non-zero when the build,
the run or any output check fails.
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
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
# A run must end within 180 s; leave room for start-up and the final check.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the package; a no-op when it is up to date."""
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release", *gen],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def metric_table(mode):
    """(name, unit) pairs BENCHMARK.json lists for 'end_to_end'/'per_layer'."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec[mode]]


def validate(result, mode):
    """Problems with a harness result line, as a list of strings."""
    problems = []
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            problems.append(f"result lacks '{key}'")
    if problems:
        return problems
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"unexpected result keys {sorted(result)}")
    want = metric_table(mode)
    got = result["metrics"]
    if sorted(got) != sorted(name for name, _ in want):
        problems.append(
            f"metrics {sorted(got)} differ from BENCHMARK.json {mode} "
            f"{sorted(name for name, _ in want)}")
    for name, unit in want:
        if name in got and got[name].get("unit") != unit:
            problems.append(f"{name}: unit {got[name].get('unit')!r}, want {unit!r}")
    if mode == "end_to_end":
        for name, m in got.items():
            if not m.get("value"):
                problems.append(f"{name}: end-to-end value {m.get('value')!r} is 0")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not build():
        return 1
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work,
           "--spans", os.path.join(BUILD, f"spans-{args.workload}.json")]
    t0 = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the harness and waits for it before raising.
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    log(f"{args.workload} ran {time.monotonic() - t0:.1f} s, exit {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log("the harness printed no result line")
        return 1
    mode = "per_layer" if args.trace else "end_to_end"
    problems = validate(result, mode)
    for p in problems:
        log(f"invalid result: {p}")
    if problems:
        return 1
    print(json.dumps(result), flush=True)
    return 0 if done.returncode == 0 and result["correct"] else done.returncode or 1


if __name__ == "__main__":
    sys.exit(main())
