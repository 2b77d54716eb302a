"""The benchmark's tracer finds its functions by name; keep those names bound.

``perfbench/tracing.py`` wraps every function named in ``TARGETS`` and reads
``cache_info()`` from every function named in ``CACHED``.  The two tables
are read from its source without running it.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _table(name):
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in {TRACING}")


def test_trace_targets_resolve():
    for layer, names in _table("TARGETS").items():
        module = importlib.import_module(f"upkit.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"upkit.{layer}.{name}"


def test_cached_functions_resolve():
    for layer, name in _table("CACHED"):
        fn = getattr(importlib.import_module(f"upkit.{layer}"), name, None)
        assert hasattr(fn, "cache_info"), f"upkit.{layer}.{name}"
