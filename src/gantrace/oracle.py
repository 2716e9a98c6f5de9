"""Exact ground truth by re-running the recorded schedule without an instance.

A counterfactual run marks its excluded instances in a mask over the
training instances.  It starts at the first step of the window whose batch
holds one, from its recorded snapshot, since every earlier step would
replay exactly as recorded, and runs the rest through
``training.step_records``, the loop training runs.  With nothing excluded
it replays the whole window and reproduces the stored final parameters
bit-exactly, which anchors every comparison.

The replay returns parameters and reads no metric: the experiments read a
replayed vector, and the final one, each from one ``metrics.generated_set``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .influence import checked_dataset, window_start
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
    mask = np.zeros(trace.n_train, dtype=bool)
    mask[exclusion] = True
    hits = (t for t, record in enumerate(window) if mask[record.batch_indices].any())
    first = next(hits, 0) if exclusion else 0
    params = step_records(problem, window[first].params, window[first:], dataset,
                          excluded=mask)
    return CounterfactualResult(excluded=tuple(exclusion), params=params,
                                delta=params - trace.final_params)
