#!/usr/bin/env python3
"""Serving benchmark of the Blowfish query engine.

Builds the engine libraries and the harness from the checkout's sources
(into .bench_build/perfbench), runs the output-check self-test, then one
workload of the harness, and prints the harness report followed, as the
last line, by one JSON object: correct, attempted, failed, metrics.

    python3 perfbench/run.py --workload hist_warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Workloads: hist_warm, admit_small and range_stream (BENCHMARK.json says
why each exists). --trace 0 reports the end-to-end metrics, --trace 1
the per-layer table.
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
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("hist_warm", "admit_small", "range_stream")
# A run must end within 180 s; keep a margin for the build check and
# the self-test.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once and builds the two benchmark binaries."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            configured = "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE in f.read()
        if not configured:  # a build directory copied from elsewhere
            shutil.rmtree(BUILD)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 2),
                  "--target", "perfbench_harness", "perfbench_selftest"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))


def source_id():
    """The git commit when the checkout is a repository; otherwise a
    digest of the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if (out.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def self_test():
    out = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                         capture_output=True, text=True, timeout=60)
    return out.returncode == 0, out.stdout + out.stderr


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="only run the output checks' self-test")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "engine",
                                        "query_engine.h"))):
        fail("engine sources not found under " + ROOT +
             "; run from a full checkout")
    build()

    checks_ok, report = self_test()
    if args.self_test:
        sys.stdout.write(report)
        sys.exit(0 if checks_ok else 1)
    if not checks_ok:
        # The self-test runs its checks on a real engine's output, so a
        # defective engine fails it too; either way the run is incorrect.
        sys.stderr.write(report)
        print("perfbench: output-check self-test failed", file=sys.stderr)

    results = os.path.join(BUILD, "results")
    work = os.path.join(BUILD, "work")
    os.makedirs(results, exist_ok=True)
    out_file = os.path.join(
        results, "%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                             args.trace))
    cmd = [os.path.join(BUILD, "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--out", out_file, "--commit", source_id()]
    start = time.monotonic()
    try:
        run = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines:
        fail("harness exited with %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("harness printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    result["correct"] = result["correct"] and checks_ok
    for line in lines[:-1]:
        print(line)
    print("wall %.1f s; report in %s" % (time.monotonic() - start,
                                         os.path.relpath(out_file, ROOT)))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
