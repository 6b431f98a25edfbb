#!/usr/bin/env python3
"""Regenerates the reference figures of perfbench/README.md.

Run from the root of the checkout:

    python3 perfbench/reference.py [--seeds 1-10] [--seconds 10] [workload ...]

For every workload it makes one untraced run per seed and one traced run
(first seed), then prints the median of each end-to-end metric with its
run-to-run spread (the distance between the first and third quartile of
the per-seed values, as a share of their median), the per-layer figures of
the traced run, the tracing overhead (traced latency p50 minus the untraced
median p50) and the environment block.
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

WORKLOADS = ["exact-1m", "tbq-schema", "http-mix", "dist-2shard"]


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit("%s failed (exit %d):\n%s" % (" ".join(cmd), p.returncode, p.stderr[-4000:]))
    result = json.loads(p.stdout.strip().splitlines()[-1])
    traced = re.findall(r"traced latency p50 ([0-9.]+) ms", p.stderr)
    return result, float(traced[-1]) if traced else None


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=json.load(open("BENCHMARK.json"))["run_seconds"])
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    seeds = seeds_of(args.seeds)

    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.split()
    print("env: cpus=%d GOMAXPROCS=%s go=%s %s date=%s" % (
        os.cpu_count(), os.environ.get("GOMAXPROCS", str(os.cpu_count())),
        go[2] if len(go) > 2 else "?", platform.machine(),
        time.strftime("%Y-%m-%d", time.gmtime())))
    print("seeds %s, %d s per run\n" % (args.seeds, args.seconds))
    for w in args.workloads:
        vals, attempted, failed, correct = {}, 0, 0, True
        units = {}
        for s in seeds:
            r, _ = run(w, s, args.seconds, 0)
            print("%s seed %d: %s" % (w, s, " ".join("%s=%.4g" % (k, m["value"]) for k, m in sorted(r["metrics"].items()))),
                  file=sys.stderr, flush=True)
            attempted += r["attempted"]
            failed += r["failed"]
            correct = correct and r["correct"]
            for k, m in r["metrics"].items():
                vals.setdefault(k, []).append(m["value"])
                units[k] = m["unit"]
        print("## %s  (correct=%s, attempted=%d, failed=%d over %d runs)" % (
            w, correct, attempted, failed, len(seeds)))
        print("| metric | unit | median | spread (IQR/median) |")
        print("|---|---|---|---|")
        for k in sorted(vals):
            v = vals[k]
            med = statistics.median(v)
            spread = float("nan")
            if len(v) >= 2 and med:
                q = statistics.quantiles(v, n=4)
                spread = (q[2] - q[0]) / med
            print("| %s | %s | %.4g | %.3f |" % (k, units[k], med, spread))
        tr, traced_p50 = run(w, seeds[0], args.seconds, 1)
        print("\ntraced run (seed %d, correct=%s, attempted=%d, failed=%d): %s" % (
            seeds[0], tr["correct"], tr["attempted"], tr["failed"], ", ".join(
                "%s=%.4g" % (k, m["value"]) for k, m in sorted(tr["metrics"].items()))))
        if traced_p50 is not None:
            print("tracing overhead: %.3f ms (traced p50 %.3f - untraced median p50 %.3f)\n" % (
                traced_p50 - statistics.median(vals["latency_p50_ms"]), traced_p50,
                statistics.median(vals["latency_p50_ms"])))


if __name__ == "__main__":
    main()
