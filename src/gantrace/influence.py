"""Matrix-free estimation of per-instance influence from a training trace.

The estimator walks the trace backwards, maintaining a query vector that is
multiplied through each step's update map (identity minus the learning-rate
scaled Jacobian of the joint gradient).  Whenever a step's batch contains a
scored instance, the inner product of the query's discriminator block with
that instance's data-term gradient, scaled by the step's discriminator rate
over the batch size, is added to the instance's score.  One backward sweep
serves every instance; the per-step cost is a single vector-Jacobian
product, whose R pass also yields the scores of every row in the batch, so
each step runs one forward pass.  Each step's latent batch is the record's
own, drawn once per trace, so repeated sweeps never redraw it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .autodiff import vjp_of_gradient
from .training import StepRecord, TrainingTrace, block_rates


@dataclass
class QueryVector:
    """Flat query over the coupled parameters, split at the generator block."""

    data: np.ndarray
    dim_gen: int
    label: str = ""

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 1 or not 0 <= self.dim_gen <= len(self.data):
            raise ValueError("query vector must be flat with a valid block split")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("query vector must be finite")

    @property
    def fingerprint(self) -> str:
        digest = hashlib.sha256(self.data.astype("<f8").tobytes())
        digest.update(self.label.encode())
        return digest.hexdigest()


@dataclass
class InfluenceTable:
    metric: str
    k_epochs: int
    query_fingerprint: str
    trace_fingerprint: str
    scores: dict[int, float]

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        keys = sorted(self.scores)
        return np.array(keys, dtype=np.int64), np.array([self.scores[k] for k in keys])


def window_start(trace: TrainingTrace, k_epochs: int | None) -> int:
    """First step index of a window spanning the last ``k_epochs`` epochs."""
    k = trace.epochs if k_epochs is None else int(k_epochs)
    if not 1 <= k <= trace.epochs:
        raise ValueError(f"k_epochs must be in [1, {trace.epochs}], got {k}")
    return trace.epoch_starts[trace.epochs - k]


def checked_dataset(trace: TrainingTrace, dataset) -> np.ndarray:
    """``dataset`` as float64; ``ValueError`` unless it holds the trace's
    ``n_train`` instances, since batch indices would read other rows."""
    dataset = np.asarray(dataset, dtype=np.float64)
    if len(dataset) != trace.n_train:
        raise ValueError(f"dataset of {len(dataset)} rows does not match the trace's "
                         f"{trace.n_train} training instances")
    return dataset


def _check_query(trace: TrainingTrace, query: QueryVector) -> None:
    if len(query.data) != trace.dim_params or query.dim_gen != trace.dim_gen:
        raise ValueError(
            f"query of length {len(query.data)} (split {query.dim_gen}) does not match "
            f"trace dimensions {trace.dim_params} (split {trace.dim_gen})")


def propagate_query(problem, query: np.ndarray, record: StepRecord,
                    data_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pull the query back through one recorded step and score its rows.

    Returns ``q - q^T B J`` where ``B`` holds the step's block learning
    rates and ``J`` is the Jacobian of the joint batch gradient at the
    step's snapshot.  Folding ``B`` into the query first reduces the whole
    product to one vector-Jacobian product, so no square matrix is ever
    formed.  Also returns each data row's score at this step: the inner
    product of ``q``'s discriminator block with the row's data-term
    gradient, times the discriminator rate over the batch size, which the
    same product yields.
    """
    latents = record.latents(problem.latent_dim)
    scaled = block_rates(problem.dim_gen, problem.dim_params, record.lr_gen,
                         record.lr_disc) * query
    product, row_scores = vjp_of_gradient(problem, scaled, record.params, latents, data_rows,
                                          len(latents))
    return query - product, row_scores


def infer_linear_influence(problem, trace: TrainingTrace, dataset: np.ndarray,
                           query: QueryVector, targets=None,
                           k_epochs: int | None = None,
                           start_step: int | None = None) -> InfluenceTable:
    """Estimated influence of every target instance on ``<query, final params>``.

    Every instance's score accumulates in 64-bit with compensated summation
    across its occurrences in the traced window, and an instance with none
    keeps an exact zero.  ``targets`` only chooses which scores are
    reported, so a score is identical whatever the target set.  Targets
    are a sequence or 1-D array of instance indices in ``[0, n_train)``,
    and ``dataset`` must hold the trace's ``n_train`` rows.
    """
    _check_query(trace, query)
    dataset = checked_dataset(trace, dataset)
    start = window_start(trace, k_epochs) if start_step is None else int(start_step)
    if not 0 <= start < trace.n_steps:
        raise ValueError(f"start step {start} outside trace of {trace.n_steps} steps")
    targets = np.arange(trace.n_train) if targets is None else np.asarray(targets, np.int64)
    if targets.ndim != 1 or not np.all((0 <= targets) & (targets < trace.n_train)):
        raise ValueError(f"targets must be instance indices in [0, {trace.n_train})")

    sums = np.zeros(trace.n_train)
    carry = np.zeros(trace.n_train)
    current = query.data.copy()
    for record in reversed(trace.records[start:]):
        idx = record.batch_indices
        current, values = propagate_query(problem, current, record, dataset[idx])
        # Steps without a discriminator rate score zeros and are skipped,
        # which leaves the Kahan sums and carries exactly as they were.
        if record.lr_disc != 0.0:
            # Kahan step, since occurrences across epochs can partially
            # cancel; a batch's indices are distinct, so each instance's
            # update is the scalar one.
            before = sums[idx]
            y = values - carry[idx]
            t = before + y
            carry[idx] = (t - before) - y
            sums[idx] = t

    return InfluenceTable(query.label, trace.epochs if k_epochs is None else int(k_epochs),
                          query.fingerprint, trace.fingerprint,
                          dict(zip(targets.tolist(), sums[targets].tolist())))
