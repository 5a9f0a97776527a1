#!/usr/bin/env python3
"""Steadiness tool: repeats each benchmark workload and reports, per
end-to-end metric, the median, the quartiles and min/max against the
metric's bound from BENCHMARK.json.

    python3 simbench/steady.py [--runs N] [--sets K] [--workloads a,b]
                               [--first-seed S] [--out FILE]

Every run is a fresh process with its own seed, as the benchmark's
`command` runs it. A metric is steady when its spread (interquartile
range over median) is within a third of its bound, and it fails when the
spread exceeds the bound; with `--sets 2` the second set's median must
also be no worse than the first's by more than the bound. Run from the
repository root; exits 1 if any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["workload"], result["seed"], result["elapsed_s"] = workload, seed, elapsed
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / statistics.median(values),
    }


def worse_by(metric, first, second):
    """How much worse `second` reads than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="append every run's result line to this file")
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    results = {}  # (set, workload) -> [result]
    seed = args.first_seed
    for s in range(args.sets):
        for _ in range(args.runs):
            for w in workloads:
                r = run_once(bench, w, seed)
                r["set"] = s
                results.setdefault((s, w), []).append(r)
                print(f"set {s} {w:<14} seed {seed:<4} correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} {r['elapsed_s']:.1f} s", flush=True)
                if args.out:
                    with open(args.out, "a") as f:
                        f.write(json.dumps(r) + "\n")
            seed += 1

    ok = True
    print(f"\n{'workload':<14} {'metric':<14} {'set':>3} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'min':>14} {'max':>14} {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        medians = {}
        for m in bench["end_to_end"]:
            for s in range(args.sets):
                runs = results[(s, w)]
                if not all(r["correct"] and r["failed"] == 0 for r in runs):
                    ok = False
                    print(f"{w:<14} set {s}: a run failed or was incorrect")
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                st = summarize(values)
                medians[(m["name"], s)] = st["median"]
                if st["spread"] <= m["bound"] / 3:
                    verdict = "steady"
                elif st["spread"] <= m["bound"]:
                    verdict = "within bound"
                else:
                    verdict, ok = "TOO WIDE", False
                print(f"{w:<14} {m['name']:<14} {s:>3} {st['median']:>14.6g} {st['q1']:>14.6g} "
                      f"{st['q3']:>14.6g} {st['min']:>14.6g} {st['max']:>14.6g} "
                      f"{st['spread']:>7.3f} {m['bound']:>6}  {verdict}")
            if args.sets == 2:
                d = worse_by(m, medians[(m["name"], 0)], medians[(m["name"], 1)])
                held = d <= m["bound"]
                ok = ok and held
                print(f"{w:<14} {m['name']:<14} set 1 vs set 0: worse by {d:+.3f} "
                      f"(bound {m['bound']})  {'ok' if held else 'FAILS'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
