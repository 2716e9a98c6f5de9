"""Epoch-based simultaneous (or alternating) adversarial SGD with a full trace.

Every step stores the parameter snapshot, the mini-batch index set, both
learning rates and a 64-bit seed that regenerates the step's latent batch
bit-exactly.  Replaying the recorded schedule reproduces the final
parameters byte for byte; the counterfactual oracle relies on that.

Replays and sweeps draw a step's latent batch once per trace: the first
replay or sweep that reaches a step keeps its batch, read-only, on the
record for every later one.  Training draws its own batches and keeps
none, so only the steps that replays and sweeps reach hold one.  The
batches are never written to disk and cost memory only, 8 bytes per latent
entry: 400 KB when every step of the desk config holds one, at most
280 MB for the 35000 steps of the paper's cleansing config.

Traces persist as a directory: a JSON manifest plus one little-endian
binary record per step and the final parameter vector.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .models import joint_gradient

TRACE_FORMAT_VERSION = 1


class DivergenceError(RuntimeError):
    """Training left the finite / bounded parameter regime."""


@dataclass(frozen=True)
class TrainingSettings:
    epochs: int
    batch_size: int
    lr_gen: float
    lr_disc: float
    mode: str = "simultaneous"
    first_update: str = "generator"
    seed: int = 0
    divergence_limit: float = 1e6

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.lr_gen < 0 or self.lr_disc < 0:
            raise ValueError("learning rates must be non-negative")
        if self.mode not in ("simultaneous", "alternating"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.first_update not in ("generator", "discriminator"):
            raise ValueError(f"unknown first_update {self.first_update!r}")


@dataclass
class StepRecord:
    step: int
    batch_indices: np.ndarray
    lr_gen: float
    lr_disc: float
    params: np.ndarray
    latent_seed: int
    _latents: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def latents(self, latent_dim: int) -> np.ndarray:
        """The step's latent batch, drawn from its seed on first use and kept read-only."""
        if self._latents is None:
            batch = latents_from_seed(self.latent_seed, len(self.batch_indices), latent_dim)
            batch.flags.writeable = False
            self._latents = batch
        return self._latents


@dataclass
class TrainingTrace:
    records: list[StepRecord]
    final_params: np.ndarray
    fingerprint: str
    epoch_starts: list[int]
    n_train: int
    epochs: int
    latent_dim: int
    dim_gen: int
    dim_disc: int

    @property
    def n_steps(self) -> int:
        return len(self.records)

    @property
    def dim_params(self) -> int:
        return self.dim_gen + self.dim_disc


def latents_from_seed(seed: int, count: int, latent_dim: int) -> np.ndarray:
    """Standard-normal latent batch; the single regeneration path everywhere."""
    return np.random.default_rng(np.uint64(seed)).standard_normal((count, latent_dim))


def minibatch_schedule(n_train: int, batch_size: int, epochs: int,
                       rng: np.random.Generator) -> tuple[list[np.ndarray], list[int]]:
    """Fresh seeded permutation per epoch, chunked into batches.

    Each training index appears exactly once per epoch; the final batch of
    an epoch is short when batch_size does not divide n_train.
    """
    if batch_size > n_train:
        raise ValueError("batch_size must not exceed the dataset size")
    batches: list[np.ndarray] = []
    epoch_starts: list[int] = []
    for _ in range(epochs):
        epoch_starts.append(len(batches))
        order = rng.permutation(n_train)
        for start in range(0, n_train, batch_size):
            batches.append(order[start:start + batch_size].astype(np.int64))
    return batches, epoch_starts


def learning_rate_schedule(settings: TrainingSettings, n_steps: int) -> list[tuple[float, float]]:
    """Per-step (generator, discriminator) rates.

    Simultaneous mode keeps both constant; alternating mode zeroes one of
    them at each step, starting with ``first_update``.
    """
    if settings.mode == "simultaneous":
        return [(settings.lr_gen, settings.lr_disc)] * n_steps
    gen_first = settings.first_update == "generator"
    rates = []
    for t in range(n_steps):
        if (t % 2 == 0) == gen_first:
            rates.append((settings.lr_gen, 0.0))
        else:
            rates.append((0.0, settings.lr_disc))
    return rates


def asgd_step(problem, params: np.ndarray, data_rows: np.ndarray, latents: np.ndarray,
              lr_gen: float, lr_disc: float, denom: int | None = None) -> np.ndarray:
    """One descent step on the coupled vector with block learning rates."""
    grad = joint_gradient(problem, params, latents, data_rows, denom)
    d = problem.dim_gen
    # The gradient is a fresh array, so the block rates scale it in place.
    grad[:d] *= lr_gen
    grad[d:] *= lr_disc
    return params - grad


def _check_divergence(params: np.ndarray, step: int, limit: float) -> None:
    peak = np.max(np.abs(params))
    if not np.isfinite(peak) or peak > limit:
        raise DivergenceError(
            f"parameter magnitude {peak:.3e} exceeded {limit:.1e} after step {step}")


def run_training(problem, dataset: np.ndarray, settings: TrainingSettings,
                 fingerprint: str = "") -> TrainingTrace:
    """Run K-epoch adversarial SGD and record the complete trace.

    Streams are derived from the seed: parameter initialization, the epoch
    permutations, and one latent seed per step.  Re-running with the same
    seed reproduces the trace bit for bit.
    """
    dataset = np.asarray(dataset, dtype=np.float64)
    if len(dataset) == 0:
        raise ValueError("dataset must not be empty")
    root = np.random.SeedSequence(settings.seed)
    init_seq, schedule_seq, latent_seq = root.spawn(3)
    params = problem.init_params(np.random.default_rng(init_seq))
    batches, epoch_starts = minibatch_schedule(
        len(dataset), settings.batch_size, settings.epochs, np.random.default_rng(schedule_seq))
    rates = learning_rate_schedule(settings, len(batches))
    step_seeds = latent_seq.generate_state(len(batches), dtype=np.uint64)

    records: list[StepRecord] = []
    for t, idx in enumerate(batches):
        lr_gen, lr_disc = rates[t]
        seed = int(step_seeds[t])
        latents = latents_from_seed(seed, len(idx), problem.latent_dim)
        records.append(StepRecord(t, idx, lr_gen, lr_disc, params, seed))
        params = asgd_step(problem, params, dataset[idx], latents, lr_gen, lr_disc)
        _check_divergence(params, t, settings.divergence_limit)

    return TrainingTrace(
        records=records,
        final_params=params,
        fingerprint=fingerprint,
        epoch_starts=epoch_starts,
        n_train=len(dataset),
        epochs=settings.epochs,
        latent_dim=problem.latent_dim,
        dim_gen=problem.dim_gen,
        dim_disc=problem.dim_disc,
    )


def replay_trace(problem, trace: TrainingTrace, dataset: np.ndarray) -> np.ndarray:
    """Re-apply every recorded step from the first snapshot.

    Returns the final parameters, which must equal ``trace.final_params``
    bit-exactly on an intact trace.
    """
    dataset = np.asarray(dataset, dtype=np.float64)
    params = trace.records[0].params.copy()
    for record in trace.records:
        params = asgd_step(problem, params, dataset[record.batch_indices],
                           record.latents(trace.latent_dim), record.lr_gen, record.lr_disc)
    return params


# -- persistence ------------------------------------------------------------

def _record_bytes(record: StepRecord) -> bytes:
    idx = np.asarray(record.batch_indices, dtype="<u4")
    head = struct.pack("<I", len(idx))
    body = idx.tobytes()
    tail = struct.pack("<Qdd", record.latent_seed, record.lr_gen, record.lr_disc)
    params = np.asarray(record.params, dtype="<f8").tobytes()
    return head + body + tail + params


def _record_from_bytes(blob: bytes, step: int, dim_params: int) -> StepRecord:
    (n_idx,) = struct.unpack_from("<I", blob, 0)
    offset = 4
    idx = np.frombuffer(blob, dtype="<u4", count=n_idx, offset=offset).astype(np.int64)
    offset += 4 * n_idx
    seed, lr_gen, lr_disc = struct.unpack_from("<Qdd", blob, offset)
    offset += 24
    params = np.frombuffer(blob, dtype="<f8", count=dim_params, offset=offset).astype(np.float64)
    if offset + 8 * dim_params != len(blob):
        raise ValueError(f"corrupted trace record at step {step}")
    return StepRecord(step, idx, lr_gen, lr_disc, params, int(seed))


def save_trace(trace: TrainingTrace, directory) -> None:
    directory = Path(directory)
    steps_dir = directory / "steps"
    steps_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": TRACE_FORMAT_VERSION,
        "fingerprint": trace.fingerprint,
        "n_train": trace.n_train,
        "epochs": trace.epochs,
        "n_steps": trace.n_steps,
        "latent_dim": trace.latent_dim,
        "dim_gen": trace.dim_gen,
        "dim_disc": trace.dim_disc,
        "epoch_starts": list(trace.epoch_starts),
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    for record in trace.records:
        (steps_dir / f"step_{record.step:06d}.bin").write_bytes(_record_bytes(record))
    (directory / "final.bin").write_bytes(np.asarray(trace.final_params, dtype="<f8").tobytes())


def load_trace(directory) -> TrainingTrace:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    if manifest["version"] != TRACE_FORMAT_VERSION:
        raise ValueError(f"unsupported trace version {manifest['version']}")
    dim_params = manifest["dim_gen"] + manifest["dim_disc"]
    records = []
    for step in range(manifest["n_steps"]):
        blob = (directory / "steps" / f"step_{step:06d}.bin").read_bytes()
        records.append(_record_from_bytes(blob, step, dim_params))
    final = np.frombuffer((directory / "final.bin").read_bytes(), dtype="<f8").astype(np.float64)
    if len(final) != dim_params:
        raise ValueError("corrupted final parameter vector")
    return TrainingTrace(
        records=records,
        final_params=final,
        fingerprint=manifest["fingerprint"],
        epoch_starts=list(manifest["epoch_starts"]),
        n_train=manifest["n_train"],
        epochs=manifest["epochs"],
        latent_dim=manifest["latent_dim"],
        dim_gen=manifest["dim_gen"],
        dim_disc=manifest["dim_disc"],
    )


def trace_checksum(trace: TrainingTrace) -> str:
    """SHA-256 over the canonical serialized form of the trace."""
    digest = hashlib.sha256()
    digest.update(json.dumps({
        "fingerprint": trace.fingerprint,
        "n_train": trace.n_train,
        "epochs": trace.epochs,
        "epoch_starts": list(trace.epoch_starts),
        "latent_dim": trace.latent_dim,
        "dim_gen": trace.dim_gen,
        "dim_disc": trace.dim_disc,
    }, sort_keys=True).encode())
    for record in trace.records:
        digest.update(_record_bytes(record))
    digest.update(np.asarray(trace.final_params, dtype="<f8").tobytes())
    return digest.hexdigest()
