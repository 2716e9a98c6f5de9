"""Spans and counters recorded at the boundaries of the gantrace modules.

Nothing here edits the package.  ``install`` replaces each public function
named in ``BOUNDARIES`` by a wrapper, in every gantrace module that holds a
reference to it, so that calls made inside the package (``asgd_step``
looking up ``joint_gradient`` in ``gantrace.training``, say) are recorded
as well as the benchmark's own calls.  Spans stay in memory as
(name, start, end, parent) rows until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, attribute, span name).  A span name ending in "." gets the
# metric kind of the call appended.
BOUNDARIES = (
    ("gantrace.autodiff", "vjp_of_gradient", "autodiff.vjp_of_gradient"),
    ("gantrace.models", "joint_gradient", "models.joint_gradient"),
    ("gantrace.models", "data_term_scores", "models.data_term_scores"),
    ("gantrace.training", "asgd_step", "training.asgd_step"),
    ("gantrace.training", "run_training", "training.run_training"),
    ("gantrace.training", "save_trace", "training.save_trace"),
    ("gantrace.training", "load_trace", "training.load_trace"),
    ("gantrace.influence", "propagate_query", "influence.propagate_query"),
    ("gantrace.influence", "infer_linear_influence", "influence.infer_linear_influence"),
    ("gantrace.oracle", "counterfactual_retrain", "oracle.counterfactual_retrain"),
    ("gantrace.metrics", "metric_value", "metrics.metric_value."),
    ("gantrace.metrics", "build_query_vector", "metrics.build_query_vector"),
    ("gantrace.metrics", "generator_pullback", "metrics.generator_pullback"),
    ("gantrace.metrics", "train_classifier", "metrics.train_classifier"),
    ("gantrace.experiments", "prepare_seed_run", "experiments.prepare_seed_run"),
    ("gantrace.experiments", "permutation_test_tau", "experiments.permutation_test_tau"),
    ("gantrace.experiments", "run_estimation_accuracy", "experiments.run_estimation_accuracy"),
    ("gantrace.experiments", "run_data_cleansing", "experiments.run_data_cleansing"),
)

# Span names whose prepare_seed_run children count as the CLI's retrain.
RETRAINING_COMMANDS = ("cli.influence", "cli.oracle")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    # -- installing the wrappers --------------------------------------------

    def install(self) -> None:
        import gantrace.metrics

        modules = [module for name, module in sys.modules.items()
                   if name.startswith("gantrace.") and module is not None]
        for module_name, attribute, span_name in BOUNDARIES:
            original = getattr(sys.modules[module_name], attribute)
            wrapper = self._wrap(original, span_name, _COUNTERS.get(span_name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        method = gantrace.metrics.Classifier.input_pullback
        self._undo.append((gantrace.metrics.Classifier, "input_pullback", method))
        gantrace.metrics.Classifier.input_pullback = self._wrap(
            method, "metrics.Classifier.input_pullback", None)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def _wrap(self, original, span_name: str, count):
        signature = inspect.signature(original)
        by_kind = span_name.endswith(".")

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = span_name
            bound = None
            if by_kind or count is not None:
                bound = signature.bind(*args, **kwargs).arguments
                if by_kind:
                    name = span_name + bound["spec"].kind
            with self.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                count(self.counters, bound, result)
            return result

        return wrapper

    # -- summaries --------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap in this
        single-threaded program.
        """
        child_time = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, parent) in enumerate(self.spans):
            entry = table[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time[index]
        return dict(table)

    def retrain_seconds(self) -> float:
        """Time spent in prepare_seed_run under the influence and oracle commands."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name != "experiments.prepare_seed_run":
                continue
            while parent >= 0 and self.spans[parent][0] not in RETRAINING_COMMANDS:
                parent = self.spans[parent][3]
            if parent >= 0:
                total += end - start
        return total

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start and end in seconds, parent row."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start - origin, end - origin, parent]) + "\n")


# -- counters computed from the arguments and results of a call -------------------

def _count_traced_steps(counters, args, result):
    from gantrace.influence import window_start

    trace = args["trace"]
    start = args.get("start_step")
    if start is None:
        start = window_start(trace, args.get("k_epochs"))
    counters["influence.traced_steps"] += trace.n_steps - start


def _count_rows(counters, args, result):
    counters["models.data_term_scores.rows"] += len(np.atleast_2d(args["rows"]))


def _count_replay(counters, args, result):
    from gantrace.influence import window_start

    trace = args["trace"]
    start = window_start(trace, args.get("k_epochs"))
    excluded = np.asarray(sorted(result.excluded), dtype=np.int64)
    wasted = 0
    for record in trace.records[start:]:
        if np.isin(record.batch_indices, excluded).any():
            break
        wasted += 1
    counters["oracle.replayed_steps"] += trace.n_steps - start
    counters["oracle.wasted_steps"] += wasted


def _count_kde(counters, args, result):
    if args["spec"].kind == "all":
        counters["metrics.kde_evaluations"] += 1
        counters["metrics.kde_pairs_total"] += (len(args["context"].real_data)
                                                * len(args["eval_latents"]))


def _count_saved_bytes(counters, args, result):
    counters["training.save_trace.bytes"] += sum(
        path.stat().st_size for path in Path(args["directory"]).rglob("*") if path.is_file())


def _count_loaded_files(counters, args, result):
    counters["training.load_trace.files"] += sum(
        len(files) for _, _, files in os.walk(args["directory"]))


_COUNTERS = {
    "influence.infer_linear_influence": _count_traced_steps,
    "models.data_term_scores": _count_rows,
    "oracle.counterfactual_retrain": _count_replay,
    "metrics.metric_value.": _count_kde,
    "training.save_trace": _count_saved_bytes,
    "training.load_trace": _count_loaded_files,
}
