#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 campbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the sable library and the
campaign_bench program from that checkout's sources into .bench_build/
(Release), runs one workload in its own process and passes its output
through: the last stdout line is the JSON result object. Files the run
writes (recorded corpora, span logs) stay under .bench_build/. Extra
arguments (--scale tiny, --inject-mismatch) go to campaign_bench.

Workloads: live-sabl, replay-allkeys, sampled-2o; see
BENCHMARK.json for why each exists.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "campbench")
# A run measures for --seconds, plus set-up and the traced passes; the
# whole process must end well inside the benchmark's 180 s limit.
RUN_TIMEOUT_S = 170


def fail(message):
    print("campbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not (
        os.path.isdir(os.path.join(ROOT, "src"))
    ):
        fail("no sable source tree at " + ROOT)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "campaign_bench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "campaign_bench")


def main():
    args = sys.argv[1:]
    if "--workload" not in args:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    binary = build()
    workdir = os.path.join(ROOT, ".bench_build", "run")
    try:
        proc = subprocess.run([binary, *args, "--workdir", workdir],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
