#!/usr/bin/env python3
"""Build and run the repository benchmark from a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of the checkout. The first call configures and builds
perfbench (with the libraries under src/) into .bench_build/perfbench;
later calls rebuild only what changed. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. With --trace 1
the span trace is written to .bench_build/traces/. Exits non-zero,
without a result, when the sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
# A run is killed after its measured seconds twice over plus this
# allowance for the set-ups, the drain and the traced run's probes.
SETUP_ALLOWANCE_S = 120


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt under " + ROOT + "; run from a checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SOURCE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the arithmetic self-tests")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if not args.workload:
        fail("--workload is required")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACES, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    timeout = SETUP_ALLOWANCE_S + 2 * args.seconds
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %g s" % timeout, 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
