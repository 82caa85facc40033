#!/usr/bin/env python3
"""Repeat perfbench/run.py over several seeds and summarise the spread.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads a,b] [--trace-seed N] [--out FILE]

For each workload, runs ``run.py --trace 0`` once per seed (one after another),
then reports every end-to-end metric's median, quartiles and spread, the
distance between the quartiles as a share of the median, next to a third of
the metric's bound in BENCHMARK.json.  With --trace-seed it adds one
``--trace 1`` run per workload.  With --out it writes the summary as JSON;
perfbench/baseline.json was written this way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result object, environment) of one benchmark run."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, type=seed_range, help="e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        failed = attempted = 0
        for seed in args.seeds:
            result, env = run_once(workload, seed, spec["run_seconds"], 0)
            summary.setdefault("environment", {k: v for k, v in env.items() if k != "seed"})
            attempted += result["attempted"]
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        entry = {"attempted": attempted, "failed": failed, "end_to_end": {}}
        print(f"{workload}: {failed} of {attempted} runs failed")
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < m["bound"] / 3
            steady &= ok
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread,
                "values": vals,
            }
            print(f"  {m['name']:<12} median {med:10.4f} {m['unit']:<3} q1 {q1:10.4f} q3 {q3:10.4f}"
                  f"  spread {spread:.4f} (bound/3 {m['bound'] / 3:.4f}{'' if ok else ', WIDER'})")
        if args.trace_seed is not None:
            result, _ = run_once(workload, args.trace_seed, spec["run_seconds"], 1)
            entry["per_layer_seed"] = args.trace_seed
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
