"""Exact ground truth by re-running the recorded schedule without an instance.

A counterfactual run starts at the first step of the window whose batch
holds an excluded instance, from its recorded snapshot, since every earlier
step would replay exactly as recorded, and runs the rest through
``training.step_records``, the loop training runs.  With nothing excluded
it replays the whole window and reproduces the stored final parameters
bit-exactly, which anchors every comparison.

Metric readings go through ``metric_reader``: the samples of one parameter
vector are generated once, and classified at most once, for every reading
taken from it.  ``metric_deltas`` reads each replayed vector that way, and
the final vector once per call, or takes its readings from
``final_readings``, as the accuracy experiment does once per seed for all
its depths.  Data cleansing reads the final vector and each distinct
harmful selection the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .influence import checked_dataset, window_start
from .metrics import GeneratedSet, metric_value
from .training import TrainingTrace, step_records


@dataclass
class CounterfactualResult:
    excluded: tuple[int, ...]
    params: np.ndarray
    delta: np.ndarray


def counterfactual_retrain(problem, trace: TrainingTrace, dataset: np.ndarray,
                           excluded, k_epochs: int | None = None) -> CounterfactualResult:
    """Re-run the last ``k_epochs`` epochs with ``excluded`` instances removed.

    ``excluded`` may be a single index or a set; exclusion drops those
    rows from every batch they appear in while the loss normalizer stays
    the full batch size.  The replay starts at the first step of the window
    that holds an excluded instance, or at the window start if none does.
    Excluded indices must be instance indices in ``[0, n_train)``, and
    ``dataset`` must hold the trace's ``n_train`` rows.
    """
    dataset = checked_dataset(trace, dataset)
    if isinstance(excluded, (int, np.integer)):
        excluded = [excluded]
    exclusion = sorted({int(j) for j in excluded})
    if exclusion and (exclusion[0] < 0 or exclusion[-1] >= trace.n_train):
        raise ValueError(f"excluded indices must be instance indices in [0, {trace.n_train})")
    window = trace.records[window_start(trace, k_epochs):]
    batches = [record.batch_indices for record in window]
    # One lookup over the whole window; each step reads its slice.
    excluded_mask = np.zeros(trace.n_train, dtype=bool)
    excluded_mask[exclusion] = True
    hits = excluded_mask[np.concatenate(batches)]
    ends = np.cumsum([len(idx) for idx in batches])
    first = int(np.searchsorted(ends, np.argmax(hits), side="right")) if hits.any() else 0
    params = step_records(problem, window[first].params, window[first:], dataset,
                          dropped=hits[ends[first] - len(batches[first]):])
    return CounterfactualResult(excluded=tuple(exclusion), params=params,
                                delta=params - trace.final_params)


def metric_deltas(problem, trace: TrainingTrace, dataset: np.ndarray, targets,
                  k_epochs: int | None, specs, eval_latents: np.ndarray,
                  context, baselines: dict[str, float] | None = None) -> dict[str, np.ndarray]:
    """True metric change from dropping each target alone, one replay per target.

    Both readings of a delta use the same evaluation latents, which removes
    the Monte Carlo noise between them; each parameter vector's samples are
    generated once for all its sample-based readings.  ``baselines`` holds
    each metric's reading at the final parameters by kind, as from
    ``final_readings``; without it they are read here, once per call.  Each
    array is aligned with ``targets``.
    """
    targets = [int(t) for t in targets]
    if baselines is None:
        baselines = final_readings(problem, trace, specs, eval_latents, context)
    deltas = {spec.kind: np.empty(len(targets)) for spec in specs}
    for position, target in enumerate(targets):
        result = counterfactual_retrain(problem, trace, dataset, target, k_epochs)
        after = metric_reader(problem, result.params, specs, eval_latents, context)
        for spec in specs:
            deltas[spec.kind][position] = after(spec) - baselines[spec.kind]
    return deltas


def final_readings(problem, trace: TrainingTrace, specs, eval_latents: np.ndarray,
                   context) -> dict[str, float]:
    """Each metric's reading at the trace's final parameters, by kind."""
    read = metric_reader(problem, trace.final_params, specs, eval_latents, context)
    return {spec.kind: read(spec) for spec in specs}


def metric_reader(problem, params: np.ndarray, specs, eval_latents: np.ndarray, context):
    """A function from a spec of ``specs`` to its reading at ``params``.

    Every reading comes from one generated sample set and at most one
    classifier pass over it; ``disc_loss`` reads no samples, so a reader
    for it alone generates none.
    """
    generated = None
    if any(spec.kind != "disc_loss" for spec in specs):
        generated = GeneratedSet(problem.generator_forward(params, eval_latents),
                                 context.classifier)
    return lambda spec: metric_value(spec, problem, params, eval_latents, context, generated)
