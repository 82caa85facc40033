"""The benchmark's span hooks name functions the package still has.

perfbench/trace_child.py wraps each ``(module, attribute)`` of its HOOKS after importing
``groupavg.cli``; a hook whose name is gone is reported missing and its metrics are left out of
the run.  Here the same names are resolved the same way, so a refactor that drops one fails.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import groupavg.cli  # noqa: F401  (the bench imports it before it installs the hooks)

TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"


def test_every_bench_hook_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_trace_child", TRACE_CHILD)
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    assert trace_child.HOOKS
    missing = []
    for module, path, *_ in trace_child.HOOKS:
        owner_name, _, attr = path.rpartition(".")
        owner = sys.modules.get(module)
        if owner_name:
            owner = getattr(owner, owner_name, None)
        try:
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{module}.{path}")
    assert missing == []
