"""Exact ground truth by re-running the recorded schedule without an instance.

The counterfactual run starts at the first step of the window whose batch
holds an excluded instance, from that step's recorded snapshot: every
earlier step would replay exactly as recorded.  From there it replays every
recorded step with the same batches, latents and learning rates, dropping
the excluded instances' data-term summands while keeping the original batch
normalizer.  The latents are the records' own batches, drawn once per
trace, so repeated calls on one trace never redraw them.  When no step of
the window holds an excluded instance the whole window is replayed, so with
nothing excluded the replay reproduces the stored final parameters
bit-exactly, which anchors every comparison.

A replay copies its starting snapshot once and allocates one more buffer
of the same size.  Each step, through ``training.asgd_step``'s ``out``,
writes its gradient into the free buffer and turns it there into the new
parameters, so the two buffers swap roles every step.  These are the
operations training runs on fresh arrays, in the same order, and the
trace's snapshots are only ever read.

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
from .training import TrainingTrace, asgd_step


@dataclass
class CounterfactualResult:
    excluded: tuple[int, ...]
    params: np.ndarray
    delta: np.ndarray


def _as_exclusion_set(excluded) -> set[int]:
    if isinstance(excluded, (int, np.integer)):
        return {int(excluded)}
    return {int(j) for j in excluded}


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
    exclusion = sorted(_as_exclusion_set(excluded))
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
    # The starting snapshot is copied once; each step writes the new
    # parameters into the other buffer, so no step allocates a vector.
    params = window[first].params.copy()
    spare = np.empty_like(params)
    for record, end in zip(window[first:], ends[first:].tolist()):
        idx = record.batch_indices
        drop = hits[end - len(idx):end]
        params, spare = asgd_step(problem, params, dataset[idx[~drop] if drop.any() else idx],
                                  record.latents(problem.latent_dim), record.lr_gen,
                                  record.lr_disc, denom=len(idx), out=spare), params
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
