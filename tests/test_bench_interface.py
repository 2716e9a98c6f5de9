"""The package names the benchmark reaches into.

``perfbench/test_bench.py`` lies outside the test paths, so a renamed
function that the benchmark wraps or reads would otherwise fail only when
the benchmark runs.  The benchmark's module is loaded from its path and
never written to.
"""

import importlib.util
import sys
from pathlib import Path

import gantrace.autodiff

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves(monkeypatch):
    boundaries = load_tracing(monkeypatch).BOUNDARIES
    assert boundaries
    for module_name, attribute, _ in boundaries:
        assert callable(getattr(importlib.import_module(module_name), attribute)), \
            f"{module_name}.{attribute}"


def test_vjp_counter_and_counted_product_are_callable():
    assert callable(gantrace.autodiff.vjp_gradient_call_count)
    assert callable(gantrace.autodiff.vjp_of_gradient)
