"""Matrix-free estimation of per-instance influence from a training trace.

The estimator walks the trace backwards, maintaining a query vector that is
multiplied through each step's update map (identity minus the learning-rate
scaled Jacobian of the joint gradient).  Whenever a step's batch contains a
scored instance, the inner product of the query's discriminator block with
that instance's data-term gradient, scaled by the step's discriminator rate
over the batch size, is added to the instance's score.  One backward sweep
serves every instance; the per-step cost is a single vector-Jacobian
product plus one batched score computation.  Each step's latent batch is
the record's own, drawn once per trace, so repeated sweeps never redraw it.

A forward variant that assembles the full parameter-shift vector with
finite-difference Jacobian-vector products is provided for validation at
small parameter counts.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .models import data_term_gradient, data_term_scores, joint_gradient
from .training import StepRecord, TrainingTrace


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
    def gen_block(self) -> np.ndarray:
        return self.data[:self.dim_gen]

    @property
    def disc_block(self) -> np.ndarray:
        return self.data[self.dim_gen:]

    @property
    def fingerprint(self) -> str:
        digest = hashlib.sha256(self.data.astype("<f8").tobytes())
        digest.update(self.label.encode())
        return digest.hexdigest()


@dataclass
class InfluenceTable:
    metric_name: str
    scores: dict[int, float]
    k_epochs: int
    query_fingerprint: str

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        idx = np.array(sorted(self.scores), dtype=np.int64)
        return idx, np.array([self.scores[int(i)] for i in idx])


def save_influence_csv(table: InfluenceTable, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "score"])
        for index in sorted(table.scores):
            writer.writerow([index, repr(float(table.scores[index]))])


def save_influence_json(table: InfluenceTable, path) -> None:
    payload = {
        "metric": table.metric_name,
        "k_epochs": table.k_epochs,
        "query_fingerprint": table.query_fingerprint,
        "scores": {str(k): table.scores[k] for k in sorted(table.scores)},
    }
    Path(path).write_text(json.dumps(payload, indent=2))


def window_start(trace: TrainingTrace, k_epochs: int | None) -> int:
    """First step index of a window spanning the last ``k_epochs`` epochs."""
    k = trace.epochs if k_epochs is None else int(k_epochs)
    if not 1 <= k <= trace.epochs:
        raise ValueError(f"k_epochs must be in [1, {trace.epochs}], got {k}")
    return trace.epoch_starts[trace.epochs - k]


def _check_query(trace: TrainingTrace, query: QueryVector) -> None:
    if len(query.data) != trace.dim_params or query.dim_gen != trace.dim_gen:
        raise ValueError(
            f"query of length {len(query.data)} (split {query.dim_gen}) does not match "
            f"trace dimensions {trace.dim_params} (split {trace.dim_gen})")


def propagate_query(problem, query: np.ndarray, record: StepRecord,
                    data_rows: np.ndarray) -> np.ndarray:
    """Pull the query back through one recorded step.

    Returns ``q - q^T B J`` where ``B`` holds the step's block learning
    rates and ``J`` is the Jacobian of the joint batch gradient at the
    step's snapshot.  Folding ``B`` into the query first reduces the whole
    product to one vector-Jacobian product, so no square matrix is ever
    formed.
    """
    latents = record.latents(problem.latent_dim)
    d = problem.dim_gen
    scaled = np.concatenate([record.lr_gen * query[:d], record.lr_disc * query[d:]])
    return query - problem.joint_gradient_vjp(scaled, record.params, latents, data_rows,
                                              len(latents))


def infer_linear_influence(problem, trace: TrainingTrace, dataset: np.ndarray,
                           query: QueryVector, targets=None,
                           k_epochs: int | None = None,
                           start_step: int | None = None) -> InfluenceTable:
    """Estimated influence of every target instance on ``<query, final params>``.

    Scores accumulate in 64-bit with compensated summation across a
    target's occurrences.  Instances with no occurrence inside the traced
    window keep an exact zero.  A step whose batch holds a target scores
    every row of the batch, so an instance's score, like the query
    propagation, is identical regardless of the target set.  Targets must
    be instance indices in ``[0, n_train)``.
    """
    _check_query(trace, query)
    dataset = np.asarray(dataset, dtype=np.float64)
    start = window_start(trace, k_epochs) if start_step is None else int(start_step)
    if not 0 <= start < trace.n_steps:
        raise ValueError(f"start step {start} outside trace of {trace.n_steps} steps")
    if targets is None:
        targets = range(trace.n_train)
    targets = np.array([int(j) for j in targets], dtype=np.int64)
    if targets.size and (targets.min() < 0 or targets.max() >= trace.n_train):
        raise ValueError(f"targets must be instance indices in [0, {trace.n_train})")
    is_target = np.zeros(trace.n_train, dtype=bool)
    is_target[targets] = True

    sums = np.zeros(trace.n_train)
    carry = np.zeros(trace.n_train)
    current = query.data.copy()
    for record in reversed(trace.records[start:]):
        idx = record.batch_indices
        rows = dataset[idx]
        if record.lr_disc != 0.0 and is_target[idx].any():
            values = (record.lr_disc / len(idx)) * data_term_scores(
                problem, current[trace.dim_gen:], record.params, rows)
            # Kahan step, since occurrences across epochs can partially
            # cancel; a batch's indices are distinct, so each instance's
            # update is the scalar one.
            y = values - carry[idx]
            t = sums[idx] + y
            carry[idx] = (t - sums[idx]) - y
            sums[idx] = t
        current = propagate_query(problem, current, record, rows)

    k_used = trace.epochs if k_epochs is None else int(k_epochs)
    return InfluenceTable(
        metric_name=query.label,
        scores={int(j): float(sums[j]) for j in targets},
        k_epochs=k_used,
        query_fingerprint=query.fingerprint,
    )


def jacobian_vector_product_fd(problem, params: np.ndarray, direction: np.ndarray,
                               latents: np.ndarray, data_rows: np.ndarray,
                               denom: int | None = None, step_scale: float = 1e-4) -> np.ndarray:
    """J·v by central finite differences of the joint gradient.

    The evaluation points sit at ``params +- eps * v_hat`` with
    ``eps = step_scale * (1 + |v|)``, so the perturbation magnitude stays
    near ``step_scale`` regardless of the direction's length.
    """
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        return np.zeros_like(params)
    eps = step_scale * (1.0 + norm)
    offset = (eps / norm) * direction
    plus = joint_gradient(problem, params + offset, latents, data_rows, denom)
    minus = joint_gradient(problem, params - offset, latents, data_rows, denom)
    return (plus - minus) * (norm / (2.0 * eps))


def estimate_influence_vector(problem, trace: TrainingTrace, dataset: np.ndarray,
                              target: int, k_epochs: int | None = None,
                              dim_cap: int = 2000) -> np.ndarray:
    """Forward-accumulated estimate of the full parameter shift for one instance.

    Validation-only utility: each step multiplies the running shift by the
    step's update map using a finite-difference Jacobian-vector product,
    then injects the instance's scaled data-term gradient at its
    occurrences.  Refuses parameter counts above ``dim_cap``.
    """
    if problem.dim_params > dim_cap:
        raise ValueError(
            f"parameter count {problem.dim_params} exceeds the cap {dim_cap} "
            "for the forward influence estimate")
    dataset = np.asarray(dataset, dtype=np.float64)
    start = window_start(trace, k_epochs)
    target = int(target)
    d = problem.dim_gen
    shift = np.zeros(problem.dim_params)
    for record in trace.records[start:]:
        idx = record.batch_indices
        latents = record.latents(problem.latent_dim)
        if np.any(shift):
            jv = jacobian_vector_product_fd(problem, record.params, shift, latents,
                                            dataset[idx], denom=len(latents))
            shift = shift - np.concatenate([record.lr_gen * jv[:d], record.lr_disc * jv[d:]])
        if record.lr_disc != 0.0 and target in set(int(j) for j in idx):
            grad = data_term_gradient(problem, record.params, dataset[target])
            shift = shift.copy()
            shift[d:] += (record.lr_disc / len(idx)) * grad
    return shift


@dataclass
class CrossBlockReport:
    """Cross-block image of a probe under one step's update map.

    ``gen_image`` is what the probe's discriminator block contributes to
    the generator block after the step; ``disc_image`` the converse.  A
    nonzero ``gen_image`` is exactly the coupling that carries an
    instance's removal from the discriminator into the generator.
    """

    step: int
    output: np.ndarray
    gen_image: np.ndarray
    disc_image: np.ndarray

    @property
    def gen_transfer_norm(self) -> float:
        return float(np.linalg.norm(self.gen_image))

    @property
    def disc_transfer_norm(self) -> float:
        return float(np.linalg.norm(self.disc_image))


def cross_block_transfer_check(problem, trace: TrainingTrace, dataset: np.ndarray,
                               step_index: int, probe: np.ndarray | None = None,
                               rng: np.random.Generator | None = None) -> CrossBlockReport:
    """Measure how a probe crosses the generator/discriminator block boundary.

    The output applies only the off-diagonal Jacobian blocks: the generator
    part is ``probe_gen - lr_gen * (J (0, probe_disc))_gen`` and the
    discriminator part the mirror image.  With a probe confined to the
    discriminator block, a nonzero generator image certifies the transfer.
    """
    dataset = np.asarray(dataset, dtype=np.float64)
    record = trace.records[step_index]
    d = problem.dim_gen
    if probe is None:
        rng = rng or np.random.default_rng(0)
        probe = np.concatenate([np.zeros(d), rng.standard_normal(problem.dim_disc)])
        probe /= np.linalg.norm(probe)
    probe = np.asarray(probe, dtype=np.float64)
    latents = record.latents(problem.latent_dim)
    rows = dataset[record.batch_indices]

    disc_only = np.concatenate([np.zeros(d), probe[d:]])
    gen_only = np.concatenate([probe[:d], np.zeros(problem.dim_disc)])
    gen_image = np.zeros(d)
    if np.any(disc_only):
        gen_image = -record.lr_gen * jacobian_vector_product_fd(
            problem, record.params, disc_only, latents, rows, denom=len(latents))[:d]
    disc_image = np.zeros(problem.dim_disc)
    if np.any(gen_only):
        disc_image = -record.lr_disc * jacobian_vector_product_fd(
            problem, record.params, gen_only, latents, rows, denom=len(latents))[d:]
    output = probe + np.concatenate([gen_image, disc_image])
    return CrossBlockReport(step=step_index, output=output,
                            gen_image=gen_image, disc_image=disc_image)
