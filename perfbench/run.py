#!/usr/bin/env python3
"""Run one workload of the rarsub benchmark and print its result.

    python3 perfbench/run.py --workload tables|large|algebraic \
        --seed N --seconds S --trace 0|1

Builds perfbench_driver from this directory's CMakeLists.txt (which
compiles ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench under the checkout root, runs it, and prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; any other set is an error. Per-cell output
digests are logged in the build directory, and a later run of the same
binary on the same workload and seed must reproduce them exactly.

Exit status 0 when every check passed, 1 when a check failed or the
benchmark could not be built or run. See README.md for the workloads.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The whole run, build excepted, must end well inside 180 seconds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench_driver")


def file_sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_digests(log_path, key, binary_sha, cells):
    """True when no earlier run of this binary saw other outputs."""
    log = {}
    if os.path.isfile(log_path):
        with open(log_path) as f:
            log = json.load(f)
    prev = log.get(key)
    if prev is not None and prev["binary"] == binary_sha:
        if prev["cells"] != cells:
            for a, b in zip(prev["cells"], cells):
                if a != b:
                    print(f"perfbench: digest mismatch {a} vs {b}",
                          file=sys.stderr)
            return False
        return True
    log[key] = {"binary": binary_sha, "cells": cells}
    tmp = log_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(log, f)
    os.replace(tmp, log_path)
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = spec["per_layer" if args.trace else "end_to_end"]
    expected_units = {m["name"]: m["unit"] for m in expected}

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        driver = build(build_dir)
    except (subprocess.SubprocessError, OSError) as e:
        fail(f"build failed: {e}")
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    start = time.monotonic()
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"driver exited with status {proc.returncode}")
    result = json.loads(lines[-1])

    got_units = {k: v["unit"] for k, v in result["metrics"].items()}
    if got_units != expected_units:
        fail(f"metrics {sorted(got_units.items())} do not match BENCHMARK.json "
             f"{sorted(expected_units.items())}")
    same = check_digests(os.path.join(build_dir, "digests.json"),
                         f"{args.workload}/{args.seed}", file_sha(driver),
                         result["cells"])
    correct = result["correct"] and same and proc.returncode == 0
    print(f"perfbench: {args.workload} seed {args.seed} trace {args.trace}: "
          f"{time.monotonic() - start:.1f} s, output digest "
          f"{result['output_digest']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
