"""The benchmark wraps package functions by name: every name it traces or
probes must resolve, so removing one fails here and not only in the
benchmark's own suite.  The benchmark's files are read, not changed."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _probe_points() -> list[tuple[str, str]]:
    """PROBE_POINTS of harness.py, read from its source: importing harness
    would import the benchmark's other modules."""
    tree = ast.parse((PERFBENCH / "harness.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PROBE_POINTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("harness.py defines no PROBE_POINTS")


def _wrapped_names() -> list[tuple[str, str]]:
    plan = runpy.run_path(str(PERFBENCH / "tracing.py"))["PLAN"]
    return sorted({(module, attr) for module, attr, _, _ in plan} | set(_probe_points()))


@pytest.mark.parametrize("module,attr", _wrapped_names())
def test_benchmark_wrapped_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"relgcn.{module}"), attr, None))
