#!/usr/bin/env python3
"""Benchmark of the groupavg command line: time to a certified limit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One run makes its inputs from --seed, then
drives the CLI from ``src/`` as a child process, one invocation at a time (a
closed loop with one client, BLAS/OpenMP pinned to one thread), for --seconds.
Every output is checked.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones of
one more invocation traced in process by perfbench/trace_child.py.  See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
CLI_MAIN = "import sys; from groupavg.cli import main; sys.exit(main())"
CLI_IMPORT = "import groupavg.cli"
DEADLINE_S = 165.0  # a run has to exit within 180 s
MIN_RUNS = 2
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 8.0
KIND_SELF_WARN = 0.05  # share of the traced wall above which cli.kind.self_s is flagged
TOL_C = 1e-12  # the CLI's default convergence tolerance

# Per-layer metrics.  A name ending in ".s" is the inclusive time of the span
# before the suffix, ".self_s" its time minus its child spans, ".calls" its
# number of spans; the other names are counters or are derived below.
PER_LAYER = [
    ("groupoid.load.s", "s"),
    ("groupoid.validate.s", "s"),
    ("groupoid.action_groupoid.s", "s"),
    ("groupoid.composable_pairs.n", "count"),
    ("haar.load.s", "s"),
    ("haar.check_haar.s", "s"),
    ("haar.counting_haar.s", "s"),
    ("psrep.load.s", "s"),
    ("psrep.b_norm.s", "s"),
    ("psrep.b_norm.calls", "count"),
    ("psrep.c_norm.s", "s"),
    ("psrep.c_norm.calls", "count"),
    ("psrep.c_norm.pairs", "count"),
    ("psrep.c_norm.calls_per_row", "ratio"),
    ("psrep.is_nearly_multiplicative.s", "s"),
    ("psrep.unit_defect.s", "s"),
    ("psrep.invert_arrow.s", "s"),
    ("psrep.invert_arrow.calls", "count"),
    ("averaging.average.s", "s"),
    ("averaging.average.calls", "count"),
    ("averaging.iterate.self_s", "s"),
    ("averaging.iterate.rows", "count"),
    ("averaging.verify_fundamental_identities.s", "s"),
    ("averaging.verify_fundamental_identities.calls", "count"),
    ("averaging.write.s", "s"),
    ("bounds.check_quadratic_decay.s", "s"),
    ("bounds.load_trace_csv.s", "s"),
    ("bounds.envelope.s", "s"),
    ("circle.cocycle_defect_field.s", "s"),
    ("circle.cocycle_defect_field.calls", "count"),
    ("circle.cocycle_defect_field.bytes", "bytes"),
    ("circle.iterate_circle.self_s", "s"),
    ("circle.average_circle.s", "s"),
    ("circle.average_circle.calls", "count"),
    ("circle.multiplicativity_residual.s", "s"),
    ("circle.multiplicativity_residual.calls", "count"),
    ("circle.from_profile.s", "s"),
    ("circle.save.s", "s"),
    ("presets.random_pseudorep.s", "s"),
    ("presets.smooth_torus_field.s", "s"),
    ("cli.import.s", "s"),
    ("cli.load_config.s", "s"),
    ("cli.kind.self_s", "s"),
    ("cli.gate_rescale.attempts", "count"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.absorbed_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

# The spans that the metrics not named after a span read.  A metric is left
# out of the result when a span it reads has lost its hook in the package.
READS = {
    "groupoid.composable_pairs.n": ("groupoid.load", "groupoid.action_groupoid"),
    "psrep.c_norm.pairs": ("psrep.c_norm",),
    "psrep.c_norm.calls_per_row": ("psrep.c_norm", "averaging.iterate"),
    "averaging.iterate.rows": ("averaging.iterate",),
    "circle.cocycle_defect_field.bytes": ("circle.cocycle_defect_field",),
    "cli.gate_rescale.attempts": ("circle.multiplicativity_residual",),
}


# -- workloads ------------------------------------------------------------------


def prepare_s5_files(work: str, seed: int, size: dict) -> tuple[list[str], list[str] | None]:
    """Write the S_n action groupoid, counting weights, bundle and a gated
    perturbation of the permutation-plane representation; return the run and
    set-up arguments."""
    import numpy as np
    from groupavg import groupoid, haar, presets

    n = size["n"]
    rng = np.random.default_rng(seed)
    action = groupoid.FiniteGroupAction(
        groupoid.symmetric_group(n), list(range(n)), lambda p, u: p[u]
    )
    G = groupoid.action_groupoid(action)
    frames = [presets.conditioned(rng, n - 1, 0.8, 1.25) for _ in range(n)]
    rep = presets.action_representation(action, G, presets.permutation_plane_rep(n), frames)
    lam, _ = presets.gated_perturbation(rep, rng, 1e-3)
    cfg = {name: os.path.join(work, f"{name}.json") for name in ("groupoid", "haar", "psrep", "bundle")}
    G.save(cfg["groupoid"])
    haar.counting_haar(G).save(cfg["haar"])
    lam.save(cfg["psrep"])
    write_json(lam.bundle.to_json_dict(G.objects), cfg["bundle"])
    cfg["seed"] = seed
    write_json(cfg, os.path.join(work, "cfg.json"))
    return (
        ["run", "finite_iterate", "--config", os.path.join(work, "cfg.json")],
        ["validate", "--groupoid", cfg["groupoid"], "--haar", cfg["haar"]],
    )


def prepare_circle(work: str, seed: int, size: dict) -> tuple[list[str], list[str] | None]:
    return ["run", "circle_iterate", "--N", str(size["N"]), "--k", "2", "--seed", str(seed)], None


def prepare_identities(work: str, seed: int, size: dict) -> tuple[list[str], list[str] | None]:
    return ["run", "finite_identities", "--count", str(size["count"]), "--seed", str(seed)], None


def check_iterate(out: str, size: dict) -> list[str]:
    """A certified limit: Converged, envelope kept, every defect under the
    closed-form envelope column and the last one at the tolerance."""
    problems = []
    verdict = read_json(os.path.join(out, "verdict.json"))
    if verdict["verdict"]["kind"] != "Converged":
        problems.append(f"verdict {verdict['verdict']}")
    if verdict["envelope_ok"] is not True:
        problems.append("envelope_ok is not true")
    with open(os.path.join(out, "trace.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != verdict["iterations"] + 1:
        problems.append(f"trace.csv has {len(rows)} rows for {verdict['iterations']} iterations")
    if not rows or float(rows[-1]["c"]) > TOL_C:
        problems.append("last trace row is above the tolerance")
    for row in rows:
        if row["envelope"] and float(row["c"]) > float(row["envelope"]) * (1.0 + 1e-12):
            problems.append(f"trace row i={row['i']}: c above the envelope column")
    with open(os.path.join(out, "bounds_check.csv"), encoding="utf-8") as fh:
        if fh.readline().strip() != "i,check,bound,observed,pass":
            problems.append("bounds_check.csv has an unexpected header")
    return problems


def check_circle(out: str, size: dict) -> list[str]:
    problems = check_iterate(out, size)
    with open(os.path.join(out, "limit_profile.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != f"{size['N']},2" or len(lines) != size["N"] + 1:
        problems.append("limit_profile.csv does not hold N samples for k = 2")
    return problems


def check_identities(out: str, size: dict) -> list[str]:
    problems = []
    verdict = read_json(os.path.join(out, "verdict.json"))
    if verdict["failures"] != 0 or verdict["count"] != size["count"]:
        problems.append(f"verdict reports {verdict['failures']} failures in {verdict['count']}")
    with open(os.path.join(out, "identities.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != size["count"]:
        problems.append(f"identities.csv has {len(rows)} rows, expected {size['count']}")
    for row in rows:
        tol = float(row["tol"])
        if row["pass"] != "true" or max(float(row["residual_a"]), float(row["residual_b"])) > tol:
            problems.append(f"identity sample {row['i']} is above its tolerance")
    return problems


@dataclass
class Workload:
    """How to make a workload's inputs from a seed and check its outputs.

    Why each workload was chosen is stated in README.md.
    """

    prepare: Callable[[str, int, dict], tuple[list[str], list[str] | None]]
    check: Callable[[str, dict], list[str]]
    artifacts: tuple[str, ...]
    size: dict
    toy: dict


ITERATE_ARTIFACTS = ("trace.csv", "bounds_check.csv", "verdict.json")

WORKLOADS = {
    "s5_file_iterate": Workload(
        prepare_s5_files, check_iterate, ITERATE_ARTIFACTS, {"n": 5}, {"n": 3},
    ),
    "circle_n256": Workload(
        prepare_circle, check_circle, ITERATE_ARTIFACTS + ("limit_profile.csv",),
        {"N": 256}, {"N": 32},
    ),
    "identities_s3": Workload(
        prepare_identities, check_identities, ("identities.csv", "verdict.json"),
        {"count": 300}, {"count": 5},
    ),
}


# -- child processes --------------------------------------------------------------


@dataclass
class Attempt:
    label: str
    wall_s: float
    rss_mb: float
    exit_code: int
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


class Session:
    """The work directory, the child environment and every attempt of one run."""

    def __init__(self, work: str, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, **THREAD_VARS)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        )
        self.attempts: list[Attempt] = []

    def spawn(self, label: str, argv: list[str]) -> Attempt:
        """Run one child to its exit; wall time from spawn to exit, its own ru_maxrss."""
        log = os.path.join(self.work, f"{len(self.attempts)}-{label}.log")
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        attempt = Attempt(label, wall, usage.ru_maxrss / 1024.0, proc.returncode)
        print(f"{label}: {wall:.3f} s, {attempt.rss_mb:.1f} MB, exit {proc.returncode}")
        if proc.returncode != 0:
            with open(log, encoding="utf-8", errors="replace") as fh:
                tail = fh.read().strip().splitlines()[-1:]
            attempt.problems.append(f"exit code {proc.returncode}: {' '.join(tail)}")
        self.attempts.append(attempt)
        return attempt

    def has_time_for(self, last: Attempt) -> bool:
        """Whether one more child like ``last`` ends well before the deadline."""
        return time.perf_counter() + 1.5 * last.wall_s < self.deadline

    def run_cli(self, label: str, args: list[str], workload: Workload, size: dict,
                tracer_dump: str | None = None) -> Attempt:
        """One CLI invocation into a fresh output directory, with its outputs checked."""
        out = os.path.join(self.work, f"out-{len(self.attempts)}")
        if tracer_dump is None:
            argv = [sys.executable, "-c", CLI_MAIN]
        else:
            argv = [sys.executable, os.path.join(HERE, "trace_child.py"), tracer_dump]
        attempt = self.spawn(label, argv + args + ["--out", out])
        if attempt.exit_code == 0:
            try:
                attempt.problems += workload.check(out, size)
                attempt.digests = {
                    name: sha256_file(os.path.join(out, name)) for name in workload.artifacts
                }
            except (OSError, ValueError, KeyError, IndexError) as exc:
                attempt.problems.append(f"unreadable output: {exc!r}")
        return attempt


def measure(session: Session, workload: Workload, size: dict, args: list[str],
            setup_argv: list[str] | None, seconds: float) -> tuple[list[Attempt], list[Attempt]]:
    """Interleave CLI runs and set-ups until both have enough samples.

    Runs go on until they add up to --seconds, and at least MIN_RUNS times;
    set-ups (none when ``setup_argv`` is None) until they add up to
    SETUP_MIN_SECONDS, and at least SETUP_MIN_REPEATS times.  While runs go
    on, set-ups keep pace with them, so both spread over the same stretch of
    time and a slow spell of the host does not fall on one of them alone.
    """
    runs: list[Attempt] = []
    setups: list[Attempt] = []
    while True:
        run_s = sum(r.wall_s for r in runs)
        setup_s = sum(s.wall_s for s in setups)
        need_run = len(runs) < MIN_RUNS or run_s < seconds
        need_setup = setup_argv is not None and (
            len(setups) < SETUP_MIN_REPEATS or setup_s < SETUP_MIN_SECONDS)
        if need_setup and (not need_run or setup_s * seconds <= SETUP_MIN_SECONDS * run_s):
            if setups and not session.has_time_for(setups[-1]):
                break
            setups.append(session.spawn("setup", setup_argv))
        elif need_run:
            if runs and not session.has_time_for(runs[-1]):
                break
            runs.append(session.run_cli("run", args, workload, size))
        else:
            break
    for run in runs[1:]:
        if run.digests and runs[0].digests and run.digests != runs[0].digests:
            run.problems.append("artifacts differ from the first run with the same inputs")
    return runs, setups


def setup_command(setup_args: list[str] | None) -> list[str]:
    """The set-up child: a CLI invocation, or an import of groupavg.cli alone."""
    if setup_args is None:
        return [sys.executable, "-c", CLI_IMPORT]
    return [sys.executable, "-c", CLI_MAIN] + setup_args


# -- per-layer metrics ------------------------------------------------------------


def layer_metrics(dump: dict, traced_wall_s: float,
                  untraced_wall_s: float) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from the spans and counters of one traced invocation,
    and the self time of each span name whose spans call hooked spans.

    The metrics that read a span whose hook is missing are left out.
    """
    spans = dump["spans"]
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    absorbed: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    children = [0.0] * len(spans)
    callers = set()
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent] += end - start
            callers.add(parent)
    for i, ((name, start, end, _), covered) in enumerate(zip(spans, children)):
        inclusive[name] += end - start
        own[name] += end - start - covered
        calls[name] += 1
        if i in callers:
            # An unhooked function called here adds to this self time.
            absorbed[name] += end - start - covered
    counts = dump["counts"]
    rows = counts.get("averaging.iterate.rows", 0)
    derived = {
        "psrep.c_norm.calls_per_row": calls["psrep.c_norm"] / rows if rows else 0.0,
        "cli.gate_rescale.attempts": sum(
            1 for name, _, _, parent in spans
            if name == "circle.multiplicativity_residual"
            and parent is not None and spans[parent][0] == "cli.kind"
        ),
        "trace.wall_s": dump["wall_s"],
        # The self times of all spans add up to the time inside the top-level
        # spans (cli.import, cli.load_config, cli.kind); the rest is CLI glue.
        "trace.unattributed_s": dump["wall_s"] - sum(own.values()),
        "trace.absorbed_s": sum(absorbed.values()),
        "trace.overhead_frac": (traced_wall_s - untraced_wall_s) / untraced_wall_s,
    }
    missing = set(dump["missing"])
    metrics = {}
    for name, _ in PER_LAYER:
        base, _, suffix = name.rpartition(".")
        if missing.intersection(READS.get(name, (base,))):
            continue
        if name in derived:
            metrics[name] = derived[name]
        elif suffix == "s":
            metrics[name] = inclusive[base]
        elif suffix == "self_s":
            metrics[name] = own[base]
        elif suffix == "calls":
            metrics[name] = calls[base]
        else:
            metrics[name] = counts.get(name, 0)
    return metrics, dict(absorbed)


def report_trace(values: dict[str, float], absorbed: dict[str, float], missing: list[str]) -> None:
    """Print how the traced wall splits, and flag what would hide a missed hook."""
    for name in missing:
        print(f"hook missing from the package: {name}; the metrics that read it are left out")
    wall, glue, inner = (values[k] for k in ("trace.wall_s", "trace.unattributed_s",
                                              "trace.absorbed_s"))
    print(f"traced wall {wall!r} s = leaf spans {wall - glue - inner!r} s"
          f" + self time of calling spans {inner!r} s + outside every span {glue!r} s")
    print("self time of calling spans: " + ", ".join(
        f"{name} {t:.4f} s" for name, t in sorted(absorbed.items(), key=lambda kv: -kv[1])))
    kind = absorbed.get("cli.kind", 0.0)
    if kind > KIND_SELF_WARN * wall:
        print(f"WARNING cli.kind.self_s is {kind / wall:.1%} of the traced wall:"
              " a function the CLI kind calls may lack a hook")


# -- environment and helpers --------------------------------------------------------


def write_json(doc, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def source_digest() -> str:
    """sha256 over the paths and bytes of src/, which identifies the code measured
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "threads": THREAD_VARS,
        "seed": seed,
    }


def use_sources() -> None:
    """Pin BLAS/OpenMP threads in this process, before numpy loads, and import
    groupavg from src/; without sources this raises before anything is printed."""
    os.environ.update(THREAD_VARS)
    sys.path.insert(0, SRC)
    import groupavg  # noqa: F401


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- entry point ---------------------------------------------------------------------


def bench(name: str, seed: int, seconds: float, trace: bool, toy: bool = False,
          workload: Workload | None = None) -> dict:
    """One benchmark run; prints a report and returns the result object.

    ``toy`` selects the workload's small size; ``workload`` replaces the
    registered definition of ``name`` (both for the self-test).
    """
    workload = workload or WORKLOADS[name]
    size = workload.toy if toy else workload.size
    deadline = time.perf_counter() + DEADLINE_S
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)} size {size}")
    print("env " + json.dumps(environment(seed), sort_keys=True))
    work = tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT)
    try:
        session = Session(work, deadline)
        args, setup_args = workload.prepare(work, seed, size)
        runs, setups = measure(session, workload, size, args,
                               None if trace else setup_command(setup_args), seconds)
        wall = statistics.median(r.wall_s for r in runs)
        if trace:
            dump_path = os.path.join(work, "spans.json")
            traced = session.run_cli("traced", args, workload, size, tracer_dump=dump_path)
            if traced.digests and runs[0].digests and traced.digests != runs[0].digests:
                traced.problems.append("traced artifacts differ from the untraced ones")
            try:
                dump = read_json(dump_path)
            except (OSError, ValueError):  # the traced child died before writing it
                dump = {"spans": [], "counts": {}, "missing": [], "wall_s": 0.0}
            values, absorbed = layer_metrics(dump, traced.wall_s, wall)
            metrics = {n: metric(values[n], unit) for n, unit in PER_LAYER if n in values}
            report_trace(values, absorbed, dump["missing"])
        else:
            metrics = {
                "wall_s": metric(wall, "s"),
                "setup_s": metric(statistics.median(s.wall_s for s in setups), "s"),
                "peak_rss_mb": metric(statistics.median(r.rss_mb for r in runs), "MB"),
            }
            print(f"medians of {len(runs)} runs and {len(setups)} set-ups")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempts = session.attempts
    failed = [a for a in attempts if a.failed]
    for a in failed:
        print(f"FAILED {a.label}: " + "; ".join(a.problems))
    print("artifacts sha256 " + json.dumps(runs[0].digests, sort_keys=True))
    for n, m in metrics.items():
        print(f"{n} = {m['value']!r} {m['unit']}")
    print(f"failed_frac = {len(failed) / len(attempts)!r} ({len(failed)} of {len(attempts)} runs)")
    return {"correct": not failed, "attempted": len(attempts), "failed": len(failed),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    use_sources()
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
