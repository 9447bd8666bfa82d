#!/usr/bin/env python3
"""Steadiness check: run every workload several times and re-derive the bounds.

Usage (from the repository root):

    python3 fabricbench/steady.py [--runs 10] [--sets 1]

Runs every workload of BENCHMARK.json for its run_seconds, with seeds
1..runs; with --sets 2 the second set repeats the seeds. For every workload
and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4), and the spread (q3 - q1) / median, then checks
them against BENCHMARK.json:

  * every spread stays below a third of the metric's bound (the margin the
    bounds were chosen with) and below the bound itself;
  * with --sets 2, the second set's median is not worse than the first's by
    more than the bound, for every metric;
  * the share of failed operations is identical in every run of a workload.

"derived bound" is the bound this spread asks for: three times the largest
spread over the workloads, rounded up to 0.05, at most 0.25 (setup_s is
recorded with the largest bound whatever its spread). Exit status 0 iff every check held.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "fabricbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def ceil_to(x: float, step: float) -> float:
    return round(-(-x // step) * step, 2)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    ok = True
    spreads = {m["name"]: [] for m in metrics}

    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            results = []
            for seed in range(1, args.runs + 1):
                r = run_once(workload, seed, seconds)
                results.append(r)
                print(f"  {workload} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                      flush=True)
            sets.append(results)
        shares = {r["failed"] / r["attempted"] for s in sets for r in s}
        correct = all(r["correct"] for s in sets for r in s)
        if len(shares) != 1 or not correct:
            ok = False
        print(f"{workload}: {args.runs} runs x {args.sets} set(s), {seconds} s, all correct: "
              f"{correct}, failed shares: {sorted(shares)}")
        print(f"  {'metric':14} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'bound':>6}  verdict")
        medians = []
        for s in sets:
            medians.append({})
            for m in metrics:
                values = [r["metrics"][m["name"]]["value"] for r in s]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians[-1][m["name"]] = med
                spread = (q3 - q1) / med
                spreads[m["name"]].append(spread)
                verdict = "ok"
                if spread >= m["bound"]:
                    verdict, ok = "OVER BOUND", False
                elif spread >= m["bound"] / 3:
                    verdict, ok = "over bound/3", False
                print(f"  {m['name']:14} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                      f"{m['bound']:6.2f}  {verdict}")
        if args.sets == 2:
            for m in metrics:
                drift = worse_by(medians[0][m["name"]], medians[1][m["name"]], m["better"])
                verdict = "ok" if drift <= m["bound"] else "DRIFT OVER BOUND"
                ok = ok and drift <= m["bound"]
                print(f"  second-set median of {m['name']} worse by {drift:+.4f} "
                      f"(bound {m['bound']:.2f}): {verdict}")

    print("derived bounds (3 x largest spread, rounded up to 0.05, at most 0.25):")
    for m in metrics:
        derived = min(0.25, max(0.05, ceil_to(3 * max(spreads[m["name"]]), 0.05)))
        print(f"  {m['name']:14} largest spread {max(spreads[m['name']]):.4f}  "
              f"derived {derived:.2f}  recorded {m['bound']:.2f}")
    print("STEADY" if ok else "NOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
