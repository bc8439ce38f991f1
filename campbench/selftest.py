#!/usr/bin/env python3
"""Harness self-test of the campaign benchmark, at tiny campaign sizes.

    python3 campbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * with --trace 0 the result prints exactly the end_to_end metrics, and
    with --trace 1 exactly the per_layer metrics, each once, with the
    unit BENCHMARK.json gives it; the run is correct with no failures;
  * a forced digest mismatch (--inject-mismatch) is counted as a failed
    campaign and makes the run incorrect;
  * the benchmark changes no file of the checkout outside .bench_build/;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, the benchmark exits non-zero without printing a result.
Exits 1 on the first failed check.
"""
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SCRATCH = os.path.join(ROOT, ".bench_build")
SKIP_DIRS = {".git", ".bench_build"}


def fail(message):
    print("selftest FAILED: " + message)
    sys.exit(1)


def snapshot():
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        rel = os.path.relpath(dirpath, ROOT)
        dirnames[:] = [d for d in dirnames
                       if d not in SKIP_DIRS
                       and not (rel == "." and d.startswith("build"))]
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            files[os.path.relpath(path, ROOT)] = (st.st_size, st.st_mtime_ns)
    return files


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        fail("duplicate key in result: %s" % keys)
    return dict(pairs)


def run(cwd, *args):
    cmd = [sys.executable, os.path.join(cwd, "campbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc, what):
    if proc.returncode != 0:
        fail("%s exited %d:\n%s" % (what, proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    stamp = json.loads(lines[-2])["stamp"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (what, sorted(result)))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted %r" % (what, result["attempted"]))
    return result, stamp


def check_metrics(result, expected, what, nonzero):
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in expected}:
        fail("%s: metric names %s" % (what, sorted(metrics)))
    for m in expected:
        got = metrics[m["name"]]
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            fail("%s: %s printed as %s" % (what, m["name"], got))
        if not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            fail("%s: %s = %r" % (what, m["name"], got["value"]))
        if nonzero and got["value"] == 0:
            fail("%s: end-to-end %s is 0" % (what, m["name"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    before = snapshot()
    tiny = ["--seed", "7", "--seconds", "1", "--scale", "tiny"]
    for w in (w["name"] for w in bench["workloads"]):
        for trace, expected in (("0", bench["end_to_end"]),
                                ("1", bench["per_layer"])):
            what = "%s --trace %s" % (w, trace)
            result, _ = result_of(run(ROOT, "--workload", w, "--trace", trace,
                                      *tiny), what)
            if not result["correct"] or result["failed"] != 0:
                fail("%s: correct %s, failed %d" % (
                    what, result["correct"], result["failed"]))
            check_metrics(result, expected, what, nonzero=trace == "0")
            print("ok  %s: %d metrics, %d campaigns" % (
                what, len(expected), result["attempted"]))
        what = "%s --inject-mismatch" % w
        result, stamp = result_of(run(ROOT, "--workload", w, "--trace", "0",
                                      "--inject-mismatch", *tiny), what)
        if result["correct"] or result["failed"] < 1 or \
                stamp["failed_frac"] <= 0:
            fail("%s: mismatch not counted (failed %d, failed_frac %g)" % (
                what, result["failed"], stamp["failed_frac"]))
        print("ok  %s: failed %d of %d" % (
            what, result["failed"], result["attempted"]))

    after = snapshot()
    changed = sorted(p for p in set(before) | set(after)
                     if before.get(p) != after.get(p))
    if changed:
        fail("benchmark changed checkout files: %s" % changed)
    print("ok  no checkout file outside .bench_build changed")

    bare = os.path.join(SCRATCH, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "--workload", bench["workloads"][0]["name"],
               "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("bare benchmark directory produced a result")
    print("ok  without the sources the benchmark exits %d, no result" %
          proc.returncode)
    print("selftest passed")


if __name__ == "__main__":
    main()
