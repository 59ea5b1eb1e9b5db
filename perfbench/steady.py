#!/usr/bin/env python3
"""Runs the benchmark over several seeds, interleaving the workloads, and
reports each end-to-end metric's median, quartiles and spread.

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1] [--seconds 10]
                                [--trace 0] [WORKLOAD ...]

Seed i of every workload runs before seed i+1 of any, so slow drift of the
machine spreads over all workloads.  The spread is (q3 - q1) / median, with
quartiles as Python's statistics.quantiles(values, n=4) gives them; a
metric is steady when its spread stays under a third of its bound in
BENCHMARK.json.  Exits non-zero if any run fails or reports a wrong answer.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"] if args.trace == "0" else spec["per_layer"]
    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in workloads:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", args.trace]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
            if not result or not result["correct"]:
                print(f"{w} seed {seed}: FAILED (exit {run.returncode})", flush=True)
                ok = False
                continue
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    for w in workloads:
        print(f"\n{w}")
        for m in metrics:
            vs = values[w][m["name"]]
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
            print(f"  {m['name']:<28} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                  f"  spread {spread:7.4f}" + ("" if bound is None else f"  bound {bound}") + flag)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
