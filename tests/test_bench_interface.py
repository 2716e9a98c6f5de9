"""The package names the benchmark reaches into.

``perfbench/test_bench.py`` lies outside the test paths, so a renamed
function that the benchmark wraps or reads would otherwise fail only when
the benchmark runs.  The benchmark's module is loaded from its path and
never written to.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import gantrace.autodiff
import gantrace.metrics

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


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


# The arguments that the benchmark's counters and span names read by name
# from each wrapped call.
BOUND_ARGUMENTS = {
    ("gantrace.metrics", "metric_value"): ("spec", "context", "eval_latents"),
    ("gantrace.influence", "infer_linear_influence"): ("trace", "k_epochs", "start_step"),
    ("gantrace.oracle", "counterfactual_retrain"): ("trace", "k_epochs"),
    ("gantrace.training", "save_trace"): ("directory",),
    ("gantrace.training", "load_trace"): ("directory",),
    ("gantrace.models", "data_term_scores"): ("rows",),
}


@pytest.mark.parametrize("boundary", sorted(BOUND_ARGUMENTS), ids=".".join)
def test_traced_calls_take_the_arguments_the_counters_bind(boundary):
    module_name, attribute = boundary
    function = getattr(importlib.import_module(module_name), attribute)
    parameters = inspect.signature(function).parameters
    for name in BOUND_ARGUMENTS[boundary]:
        assert name in parameters, f"{module_name}.{attribute} has no argument {name!r}"


def test_vjp_counter_and_counted_product_are_callable():
    assert callable(gantrace.autodiff.vjp_gradient_call_count)
    assert callable(gantrace.autodiff.vjp_of_gradient)


def test_wrapped_classifier_pullback_is_callable():
    # The benchmark wraps this method by attribute, outside ``BOUNDARIES``.
    assert callable(getattr(gantrace.metrics.Classifier, "input_pullback", None))


def bench_calls():
    """Each call ``alias.function(...)`` in the benchmark's workloads, where
    ``alias`` is an imported ``gantrace`` module: its line, the module's
    name, the function's name and the call's node.  The file is parsed,
    never imported."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name.startswith("gantrace.")}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules):
            yield node.lineno, modules[node.func.value.id], node.func.attr, node


def test_bench_calls_fit_the_signatures():
    calls = list(bench_calls())
    assert any(call.keywords for *_, call in calls)
    for line, module_name, attribute, call in calls:
        function = getattr(importlib.import_module(module_name), attribute)
        # The benchmark passes no *args or **kwargs, so every argument is counted.
        assert not any(isinstance(arg, ast.Starred) for arg in call.args)
        assert all(keyword.arg is not None for keyword in call.keywords)
        try:
            inspect.signature(function).bind(*call.args, **{keyword.arg: keyword.value
                                                            for keyword in call.keywords})
        except TypeError as exc:
            pytest.fail(f"perfbench/workloads.py:{line} calls {module_name}.{attribute}: {exc}")
