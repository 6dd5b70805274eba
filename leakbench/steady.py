#!/usr/bin/env python3
"""Steadiness check: run one workload k times and report, for each
end-to-end metric, the median, the quartiles and the spread against the
metric's bound in BENCHMARK.json.

    python3 leakbench/steady.py --workload attack-sweep -k 10
    python3 leakbench/steady.py --workload paper-cold -k 5 --sets 2

Run from the repository root. Each run gets its own seed (--seed0,
--seed0 + 1, ...). The spread is (Q3 - Q1) / median with the quartiles
of statistics.quantiles(values, n=4); a metric is "steady" when its
spread is below a third of its bound. With --sets 2 the runs are made
twice with the same seeds and the second set's median is compared with
the first's (the drift, positive when worse). setup_s is reported but
its spread is not held to its bound. Exits 1 when a run fails, when an
operation-failure share differs between runs, or when a spread or a
drift exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_set(bench, args, label):
    results = []
    for i in range(args.k):
        seed = args.seed0 + i
        result, wall = run_once(bench, args.workload, seed, args.seconds, args.trace)
        share = result["failed"] / result["attempted"]
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"[{label}] seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} wall={wall:.1f}s {values}",
              flush=True)
        results.append(result)
    return results


def summarize(bench, results, label):
    ok = True
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    shares = {(r["failed"], r["attempted"]) for r in results}
    fractions = {f / a for f, a in shares}
    if len(fractions) != 1:
        print(f"[{label}] failed share differs between runs: {sorted(shares)}")
        ok = False
    if not all(r["correct"] for r in results):
        print(f"[{label}] a run reported correct=false")
        ok = False
    medians = {}
    print(f"[{label}] {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        medians[name] = med
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name, {}).get("bound")
        if bound is None:
            verdict = "-"
        elif spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
        if verdict == "TOO WIDE" and name != "setup_s":
            ok = False
        print(f"[{label}] {name:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bound if bound is not None else '-':>6}  {verdict}")
    return ok, medians


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("-k", type=int, default=10, help="runs per set (default 10)")
    parser.add_argument("--sets", type=int, default=1, help="sets of k runs (default 1)")
    parser.add_argument("--seed0", type=int, default=1, help="seed of the first run")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.k < 2:
        parser.error("-k must be at least 2 for quartiles")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    ok = True
    first = None
    shares = set()
    for s in range(args.sets):
        label = f"{args.workload} set {s + 1}"
        results = run_set(bench, args, label)
        shares |= {r["failed"] / r["attempted"] for r in results}
        if args.trace:
            continue
        set_ok, medians = summarize(bench, results, label)
        ok &= set_ok
        if first is None:
            first = medians
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            base = first[name]
            drift = (medians[name] - base) / base
            if m["better"] == "higher":
                drift = -drift
            worse = drift > m["bound"]
            ok &= not worse
            print(f"[{label}] drift of {name} against set 1: {drift:+.4f} "
                  f"(bound {m['bound']}){'  WORSE' if worse else ''}")
    if len(shares) > 1:
        print(f"failed share differs between sets: {sorted(shares)}")
        ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
