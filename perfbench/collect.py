#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 --out BENCH_x.json
    python3 perfbench/collect.py --seeds 1-5 --workloads static --trace 1

Runs ``perfbench/run.py`` once per (seed, workload), one process at a time,
with the run length and metrics from BENCHMARK.json. For every metric it
reports the ten values, their median and quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound. Seeds are the outer loop, so a drift in host speed spreads
over all workloads instead of landing on one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digest = next((ln.split(":", 1)[1].strip() for ln in lines
                   if ln.startswith("outputs sha256:")), None)
    env = next((json.loads(ln.split(":", 1)[1]) for ln in lines
                if ln.startswith("environment:")), None)
    return {"result": result, "digest": digest, "environment": env,
            "wall_s": wall}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10",
                        help="seed list, e.g. 1-10 or 1,4,9")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary here")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    names = args.workloads.split(",")
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics_spec}
    runs = {w: [] for w in names}
    env = None
    for seed in seeds:
        for w in names:
            run = run_once(w, seed, spec["run_seconds"], args.trace)
            env = env or run["environment"]
            runs[w].append((seed, run))
            res = run["result"]
            print(f"{w} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  f"wall={run['wall_s']:.1f}s", file=sys.stderr, flush=True)

    summary = {"seconds": spec["run_seconds"], "seeds": seeds,
               "trace": args.trace,
               "environment": env, "workloads": {}}
    ok = True
    for w in names:
        rows = {}
        for m in metrics_spec:
            vals = [run["result"]["metrics"][m["name"]]["value"]
                    for _, run in runs[w]]
            rows[m["name"]] = {"unit": m["unit"], "better": m["better"],
                               "bound": bounds[m["name"]], **summarise(vals)}
        correct = all(run["result"]["correct"] and not run["result"]["failed"]
                      for _, run in runs[w])
        ok &= correct
        summary["workloads"][w] = {
            "correct": correct,
            "attempted": sum(r["result"]["attempted"] for _, r in runs[w]),
            "failed": sum(r["result"]["failed"] for _, r in runs[w]),
            "wall_s": [round(r["wall_s"], 2) for _, r in runs[w]],
            "outputs_sha256": {str(s): r["digest"] for s, r in runs[w]},
            "metrics": rows}
        print(f"\n{w}: correct={correct}")
        for name, row in rows.items():
            bound = "" if row["bound"] is None else f"bound {row['bound']:.2f}"
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
            print(f"  {name:34s} median {row['median']:12.6g} {row['unit']:9s}"
                  f" spread {spread:>8s} {bound}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
