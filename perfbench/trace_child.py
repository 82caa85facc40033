"""Run one groupavg CLI invocation in process, with spans at module boundaries.

    python3 perfbench/trace_child.py SPANS.json CLI-ARG...

Imports ``groupavg.cli`` inside a span, wraps the public functions listed in
HOOKS, runs ``cli.main(CLI-ARG...)`` and writes the spans and counters to
SPANS.json.  Spans stay in memory until the run ends.  The exit code is the
CLI's.  perfbench/run.py starts this script as a child and turns the dump into
per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter


def composable_pairs(G) -> int:
    """Number of (g2, g1) with src(g2) == tgt(g1), from the source/target tables."""
    leaving, arriving = Counter(G.src), Counter(G.tgt)
    return sum(n * arriving[x] for x, n in leaving.items())


def count_groupoid(counts: Counter, G) -> None:
    counts["groupoid.composable_pairs.n"] = max(
        counts["groupoid.composable_pairs.n"], composable_pairs(G)
    )


def count_c_norm_pairs(counts: Counter, rep) -> None:
    counts["psrep.c_norm.pairs"] += composable_pairs(rep.groupoid)


def count_defect_field_bytes(counts: Counter, L) -> None:
    counts["circle.cocycle_defect_field.bytes"] += L.N**3 * 8


def count_trace_rows(counts: Counter, trace) -> None:
    counts["averaging.iterate.rows"] += len(trace.rows)


# (module, attribute, span name, counter on the first argument, counter on the result).
# A plain function is wrapped at every module of the package that binds it by
# name: averaging, presets and psrep each import b_norm, c_norm and
# invert_arrow, and cli imports action_groupoid, check_haar and counting_haar.
HOOKS = [
    ("groupavg.groupoid", "FiniteGroupoid.load", "groupoid.load", None, count_groupoid),
    ("groupavg.groupoid", "FiniteGroupoid.validate", "groupoid.validate", None, None),
    ("groupavg.groupoid", "action_groupoid", "groupoid.action_groupoid", None, count_groupoid),
    ("groupavg.haar", "HaarSystem.load", "haar.load", None, None),
    ("groupavg.haar", "check_haar", "haar.check_haar", None, None),
    ("groupavg.haar", "counting_haar", "haar.counting_haar", None, None),
    ("groupavg.psrep", "PseudoRep.load", "psrep.load", None, None),
    ("groupavg.psrep", "PseudoRep.unit_defect", "psrep.unit_defect", None, None),
    ("groupavg.psrep", "b_norm", "psrep.b_norm", None, None),
    ("groupavg.psrep", "c_norm", "psrep.c_norm", count_c_norm_pairs, None),
    ("groupavg.psrep", "invert_arrow", "psrep.invert_arrow", None, None),
    ("groupavg.psrep", "is_nearly_multiplicative", "psrep.is_nearly_multiplicative", None, None),
    ("groupavg.averaging", "average", "averaging.average", None, None),
    ("groupavg.averaging", "iterate", "averaging.iterate", None, count_trace_rows),
    ("groupavg.averaging", "verify_fundamental_identities",
     "averaging.verify_fundamental_identities", None, None),
    ("groupavg.averaging", "write_trace_csv", "averaging.write", None, None),
    ("groupavg.averaging", "write_verdict_json", "averaging.write", None, None),
    ("groupavg.bounds", "check_quadratic_decay", "bounds.check_quadratic_decay", None, None),
    ("groupavg.bounds", "load_trace_csv", "bounds.load_trace_csv", None, None),
    ("groupavg.bounds", "envelope", "bounds.envelope", None, None),
    ("groupavg.circle", "cocycle_defect_field", "circle.cocycle_defect_field",
     count_defect_field_bytes, None),
    ("groupavg.circle", "iterate_circle", "circle.iterate_circle", None, None),
    ("groupavg.circle", "average_circle", "circle.average_circle", None, None),
    ("groupavg.circle", "multiplicativity_residual", "circle.multiplicativity_residual", None, None),
    ("groupavg.circle", "from_profile", "circle.from_profile", None, None),
    ("groupavg.circle", "save_grid_csv", "circle.save", None, None),
    ("groupavg.circle", "save_profile_csv", "circle.save", None, None),
    ("groupavg.presets", "random_pseudorep", "presets.random_pseudorep", None, None),
    ("groupavg.presets", "smooth_torus_field", "presets.smooth_torus_field", None, None),
    ("groupavg.cli", "load_config", "cli.load_config", None, None),
]


class Tracer:
    """Spans as [name, start, end, parent index or None], plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, fn, name: str, on_arg=None, on_result=None):
        spans, stack, clock, counts = self.spans, self.stack, time.perf_counter, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_arg is not None:
                on_arg(counts, args[0])
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    def install(self, cli) -> list[str]:
        """Wrap every hook and every CLI kind; return the span names of the
        hooks the package lacks.

        A later refactor may rename or fold a hooked function.  run.py then
        leaves out the metrics that read its span, so that they cannot read 0
        and pass for a gain, and prints the hook as missing.
        """
        package = [m for name, m in sys.modules.items() if name.split(".")[0] == "groupavg"]
        missing = []
        for module, path, name, on_arg, on_result in HOOKS:
            owner_name, _, attr = path.rpartition(".")
            owner = sys.modules.get(module)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            try:
                raw = inspect.getattr_static(owner, attr)
            except AttributeError:
                missing.append(name)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, on_arg, on_result)))
            elif owner_name:
                setattr(owner, attr, self.wrap(raw, name, on_arg, on_result))
            else:
                traced = self.wrap(raw, name, on_arg, on_result)
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, traced)
        for kind, fn in cli.KINDS.items():
            cli.KINDS[kind] = self.wrap(fn, "cli.kind")
        return missing


def main(argv: list[str]) -> int:
    dump_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    t0 = time.perf_counter()
    import groupavg.cli as cli

    t1 = time.perf_counter()
    tracer.spans.append(["cli.import", t0, t1, None])
    missing = tracer.install(cli)
    t2 = time.perf_counter()
    try:
        return cli.main(cli_args)
    finally:
        t3 = time.perf_counter()
        # The wall leaves out the time spent installing the hooks.
        doc = {"spans": tracer.spans, "counts": tracer.counts, "missing": missing,
               "wall_s": (t1 - t0) + (t3 - t2)}
        with open(dump_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
