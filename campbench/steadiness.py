#!/usr/bin/env python3
"""Steadiness evidence for the campaign benchmark.

    python3 campbench/steadiness.py --seeds 1-10 --out campbench/evidence/seeds-01-10.json
    python3 campbench/steadiness.py --seeds 11-20 --compare campbench/evidence/seeds-01-10.json \
        --out campbench/evidence/seeds-11-20.json

Runs every workload once per seed (seeds outer, workloads inner, so a drift
in host speed spreads over all workloads) through run.py with tracing off
and BENCHMARK.json's run_seconds. For each workload and end-to-end metric
it reports the median and the quartile spread (q3 - q1) / median from
statistics.quantiles(values, n=4). It fails on a spread above the metric's
bound and, with --compare, on a median worse than the other set's by more
than the bound; a spread above a third of the bound is noted.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit("run failed: %s\n%s" % (" ".join(cmd), proc.stderr))
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1])


def worse_by(metric, new, old):
    """Share by which `new` is worse than `old` (negative when better)."""
    if metric["better"] == "lower":
        return new / old - 1.0
    return old / new - 1.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", required=True)
    ap.add_argument("--compare", default="")
    opts = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(opts.seeds)
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            stamp, result = run_once(w, seed, bench["run_seconds"])
            runs[w].append({"seed": seed, "stamp": stamp, "result": result})
            print("%-15s seed %3d  correct %s  steal %.3f" % (
                w, seed, result["correct"], stamp["host_steal_frac"]),
                flush=True)

    other = {}
    if opts.compare:
        with open(opts.compare) as f:
            other = json.load(f)["summary"]
    ok = True
    summary = {}
    for w in workloads:
        summary[w] = {}
        if not all(r["result"]["correct"] for r in runs[w]):
            ok = False
            print("%s: a run reported correct = false" % w)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs[w]]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            entry = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                     "bound": metric["bound"], "values": values}
            flags = []
            if spread > metric["bound"]:
                flags.append("SPREAD>bound")
                ok = False
            elif spread > metric["bound"] / 3:
                flags.append("(spread>bound/3)")
            if w in other and name in other[w]:
                shift = worse_by(metric, q2, other[w][name]["median"])
                entry["worse_than_compare"] = shift
                if shift > metric["bound"]:
                    flags.append("MEDIAN-SHIFT>bound")
                    ok = False
            entry["flags"] = flags
            summary[w][name] = entry
            print("%-15s %-17s median %-12.6g spread %6.3f (bound %.2f)%s%s" % (
                w, name, q2, spread, metric["bound"],
                "" if "worse_than_compare" not in entry else
                "  vs compare %+.3f" % entry["worse_than_compare"],
                "  " + " ".join(flags) if flags else ""))

    os.makedirs(os.path.dirname(os.path.abspath(opts.out)), exist_ok=True)
    with open(opts.out, "w") as f:
        json.dump({"seeds": seeds, "run_seconds": bench["run_seconds"],
                   "summary": summary, "runs": runs}, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
