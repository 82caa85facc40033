#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy size.

    python3 perfbench/selftest.py

Runs every workload defined in run.py at toy size (S3 files, N = 32,
--count 5) with tracing off and on.  It checks that each metric of
BENCHMARK.json is printed with its unit and that no run fails.  Then it checks
that a malformed input, a config path that does not exist, counts toward
failed_frac.  Exits 1 on any failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys

import run


def bench_output(name: str, trace: bool, workload: run.Workload | None = None) -> tuple[dict, str]:
    """Result and printed report of one toy-size benchmark run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.bench(name, seed=1, seconds=1.0, trace=trace, toy=True, workload=workload)
        print(json.dumps(result))
    text = buf.getvalue()
    return json.loads(text.splitlines()[-1]), text


def check_metrics_printed(spec: dict) -> list[str]:
    errors = [f"{w['name']} is not defined in run.py" for w in spec["workloads"]
              if w["name"] not in run.WORKLOADS]
    for name in run.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, text = bench_output(name, trace)
            lines = text.splitlines()
            where = f"{name} trace {int(trace)}"
            if not result["correct"] or result["failed"]:
                errors.append(f"{where}: {result['failed']} of {result['attempted']} runs failed")
            if set(result["metrics"]) != {m["name"] for m in spec[key]}:
                errors.append(f"{where}: metrics {sorted(result['metrics'])} differ from {key}")
            for m in spec[key]:
                got = result["metrics"].get(m["name"], {})
                printed = any(
                    line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                    for line in lines
                )
                if got.get("unit") != m["unit"] or not printed:
                    errors.append(f"{where}: {m['name']} not printed with unit {m['unit']}")
    return errors


def missing_config(work: str, seed: int, size: dict) -> tuple[list[str], None]:
    return ["run", "finite_iterate", "--config", os.path.join(work, "no-such-config.json")], None


def check_malformed_input_fails() -> list[str]:
    workload = dataclasses.replace(run.WORKLOADS["s5_file_iterate"], prepare=missing_config)
    result, text = bench_output("s5_file_iterate", False, workload)
    runs = text.count("FAILED run: exit code 2")
    if result["correct"] or runs == 0 or result["failed"] != runs:
        return [f"missing config: {result['failed']} failed, {runs} runs exited 2"]
    if f"failed_frac = {runs / result['attempted']!r}" not in text:
        return ["missing config: failed_frac does not count the failed runs"]
    return []


def main() -> int:
    run.use_sources()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = check_metrics_printed(spec) + check_malformed_input_fails()
    for e in errors:
        print(f"FAIL {e}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
