"""Epoch-based simultaneous (or alternating) adversarial SGD with a full trace.

Every step stores the parameter snapshot, the mini-batch index set, both
learning rates and a 64-bit seed that regenerates the step's latent batch
bit-exactly.  Training and every replay run one loop, ``step_records``, so
a replay of the schedule reproduces the final parameters byte for byte.

The first replay or sweep that reaches a step keeps its latent batch,
read-only, on the record for every later one; training keeps none.  The
batches are never saved and cost 8 bytes per latent entry: 400 KB with
every step of the desk config held, 280 MB for the paper's cleansing config.

Traces persist as a directory of five ``.npy`` arrays and a checksummed
JSON manifest (``save_trace``), the checked format (``save_checked``) that
stores the IS/FID classifier too.  Every stored JSON file holds a
dataclass, which ``read_record`` reads back field by field.
"""

from __future__ import annotations

import functools
import hashlib
import json
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .models import joint_gradient

FORMAT_VERSION = 2

DIVERGENCE_LIMIT = 1e6


class DivergenceError(RuntimeError):
    """Training left the finite / bounded parameter regime."""


@dataclass(frozen=True)
class TrainingSettings:
    epochs: int = 5
    batch_size: int = 100
    lr_gen: float = 1e-3
    lr_disc: float = 1e-3
    mode: str = "simultaneous"
    first_update: str = "generator"
    seed: int = 0

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
class TraceHeader:
    """Every field of a trace but its steps: a stored trace's manifest header."""

    n_train: int
    epochs: int
    latent_dim: int
    dim_gen: int
    dim_disc: int
    fingerprint: str
    epoch_starts: list[int]


@dataclass
class TrainingTrace(TraceHeader):
    records: list[StepRecord]
    final_params: np.ndarray

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


@functools.lru_cache(maxsize=16)
def block_rates(dim_gen: int, dim_params: int, lr_gen: float, lr_disc: float) -> np.ndarray:
    """Each coupled parameter's learning rate: ``lr_gen`` on the first
    ``dim_gen`` entries, ``lr_disc`` on the rest.

    One read-only vector is kept per argument tuple, so a run's steps share
    the few their schedule uses.  Rates that compare equal share a vector.
    """
    rates = np.full(dim_params, float(lr_disc))
    rates[:dim_gen] = lr_gen
    rates.flags.writeable = False
    return rates


def asgd_step(problem, params: np.ndarray, data_rows: np.ndarray, latents: np.ndarray,
              lr_gen: float, lr_disc: float, denom: int | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
    """One descent step on the coupled vector with block learning rates.

    The step's gradient is written into ``out``, scaled there by the block
    rates and replaced there by the new parameters, which are returned:
    the operations of ``params - rates * gradient``, so its bits.  ``out``
    must not share memory with ``params``; without it the step writes a
    fresh array.
    """
    grad = joint_gradient(problem, params, latents, data_rows, denom, out=out)
    grad *= block_rates(problem.dim_gen, problem.dim_params, lr_gen, lr_disc)
    return np.subtract(params, grad, out=grad)


def step_records(problem, params: np.ndarray, records: list[StepRecord], dataset: np.ndarray,
                 dropped: np.ndarray | None = None, keep: bool = False) -> np.ndarray:
    """Step ``params`` through ``records`` and return the last parameters.

    ``dropped`` marks rows to leave out, aligned with the records' batches
    end to end; the normalizer stays the full batch.  With ``keep``, as in
    training, each record gets its starting vector as its snapshot, each
    step a fresh vector and a divergence check, and latent batches are
    drawn, not kept.  Without it, as in a replay, the records are only
    read: the start is copied once and each step writes into the other of
    two buffers, which swap roles every step.
    """
    params, spare = (params, None) if keep else (params.copy(), np.empty_like(params))
    for record in records:
        idx = rows = record.batch_indices
        if dropped is not None:
            drop, dropped = dropped[:len(idx)], dropped[len(idx):]
            rows = idx[~drop] if drop.any() else idx
        if keep:
            record.params = params
            latents = latents_from_seed(record.latent_seed, len(idx), problem.latent_dim)
        else:
            latents = record.latents(problem.latent_dim)
        stepped = asgd_step(problem, params, dataset[rows], latents, record.lr_gen,
                            record.lr_disc, denom=len(idx), out=spare)
        if keep:
            peak = np.max(np.abs(stepped))
            if not peak <= DIVERGENCE_LIMIT:   # NaN and infinity too
                raise DivergenceError(f"parameter magnitude {peak:.3e} exceeded "
                                      f"{DIVERGENCE_LIMIT:.1e} after step {record.step}")
        params, spare = stepped, (None if keep else params)
    return params


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

    records = [StepRecord(t, idx, *rates[t], None, int(seed))
               for t, (idx, seed) in enumerate(zip(batches, step_seeds))]
    return TrainingTrace(
        n_train=len(dataset), epochs=settings.epochs, latent_dim=problem.latent_dim,
        dim_gen=problem.dim_gen, dim_disc=problem.dim_disc, fingerprint=fingerprint,
        epoch_starts=epoch_starts, records=records,
        final_params=step_records(problem, params, records, dataset, keep=True))


# -- persistence ------------------------------------------------------------

# The stored arrays and their dtypes, in checksum order with the snapshots last.
_ARRAYS = {"batch_indices": "<i8", "batch_sizes": "<i8", "latent_seeds": "<u8",
           "rates": "<f8", "params": "<f8"}


def _stored(trace: TrainingTrace) -> tuple[dict, dict]:
    """The trace's ``TraceHeader`` fields, and each stored array's dtype, shape
    and C-order pieces: the snapshots are never stacked into one copy."""
    header = {column.name: getattr(trace, column.name) for column in fields(TraceHeader)}
    records = trace.records
    sizes = [len(record.batch_indices) for record in records]
    arrays = {
        "batch_indices": ((sum(sizes),), [record.batch_indices for record in records]),
        "batch_sizes": ((len(records),), [sizes]),
        "latent_seeds": ((len(records),), [[record.latent_seed for record in records]]),
        "rates": ((len(records), 2), [[(record.lr_gen, record.lr_disc) for record in records]]),
        "params": ((len(records) + 1, trace.dim_params),
                   [record.params for record in records] + [trace.final_params]),
    }
    return header, {name: (_ARRAYS[name], *array) for name, array in arrays.items()}


def _checksum(header: dict, arrays: dict) -> str:
    """The checksum of a checked directory: the SHA-256 of ``header``'s
    sorted-key JSON and then of each array's data in order.  ``arrays``
    maps a name to its dtype, shape and pieces (array-likes whose C-order
    data, one after the other, is the array's); each piece is hashed where
    it lies, so the snapshots are never stacked into one copy."""
    digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode())
    for dtype, _, pieces in arrays.values():
        for piece in pieces:
            digest.update(np.ascontiguousarray(piece, dtype=dtype))
    return digest.hexdigest()


def save_checked(directory, header: dict, arrays: dict) -> str:
    """Write each of ``arrays``, as ``_checksum`` takes them, as
    ``<name>.npy``, then ``manifest.json``: ``header`` plus the format
    version and the checksum, which it returns.  The manifest goes last: an
    interrupted first save leaves none, and an interrupted overwrite leaves
    arrays that fail the old manifest's checksum.  No other file is touched."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, (dtype, shape, pieces) in arrays.items():
        with open(directory / f"{name}.npy", "wb") as handle:
            np.lib.format.write_array_header_1_0(
                handle, {"descr": dtype, "fortran_order": False, "shape": shape})
            for piece in pieces:
                handle.write(np.ascontiguousarray(piece, dtype=dtype))
    manifest = {**header, "version": FORMAT_VERSION,
                "checksum": _checksum(header, arrays)}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest["checksum"]


def _read(path: Path, reader):
    try:
        return reader(path)
    except (OSError, EOFError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def read_record(path, cls):
    """The ``cls`` the JSON file ``path`` holds: a dataclass of exactly its
    fields, read by their annotations, ``int``, ``float`` (or an int; a
    boolean is neither), ``str``, ``X | None``, ``list[X]``, ``dict[int, X]``
    (keys ``str(i)``, ``i >= 0``) and ``object``, any value.  One
    ``ValueError`` names the file, the row, the field and the entry or key."""
    path = Path(path)
    return _typed(path, "", cls, _read(path, lambda file: json.loads(file.read_text())))


def _typed(path: Path, where: str, cls, value):
    """``value`` read as ``cls`` for ``read_record``; ``where`` names its place."""
    if cls is object:
        return value
    if is_dataclass(cls):
        if not isinstance(value, dict):
            raise ValueError(f"{path}: {where or 'the file '}is not an object")
        hints = typing.get_type_hints(cls)
        odd = sorted(set(value) ^ set(hints))
        if odd:
            raise ValueError(f"{path}: {where}field {odd[0]!r} is "
                             f"{'unknown' if odd[0] in value else 'missing'}")
        return cls(**{name: _typed(path, f"{where}field {name!r} ", hint, value[name])
                      for name, hint in hints.items()})
    origin, args = typing.get_origin(cls), typing.get_args(cls)
    if origin is types.UnionType:
        return None if value is None else _typed(path, where, args[0], value)
    kind = origin or cls
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(f"{path}: {where}is {value!r}, not {kind.__name__}")
    if kind is list:
        return [_typed(path, f"row {number} " if is_dataclass(args[0])
                       else f"{where}entry {number} ", args[0], item)
                for number, item in enumerate(value)]
    if kind is dict:
        odd = [key for key in value if args[0] is int
               and not (key.isascii() and key.isdigit() and key == str(int(key)))]
        if odd:
            raise ValueError(f"{path}: {where}key {odd[0]!r} is not str(i) for an integer i >= 0")
        return {args[0](key): _typed(path, f"{where}entry {key!r} ", args[1], item)
                for key, item in value.items()}
    return float(value) if kind is float else value


def load_checked(directory, cls, dtypes: dict) -> tuple:
    """The header, a ``cls``, and the arrays, by name, of a directory written
    by ``save_checked``; ``dtypes`` maps each array's name to its dtype in
    checksum order.  ``ValueError``, naming the file, for a missing or
    unreadable file, a version other than ``FORMAT_VERSION``, a header
    ``read_record`` refuses and arrays that fail the checksum."""
    directory = Path(directory)
    path = directory / "manifest.json"
    header = read_record(path, object)
    version = header.pop("version", None) if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: format version {version} is not {FORMAT_VERSION}; "
                         f"run `gantrace train` again to record it")
    stored = header.pop("checksum", None)
    record = _typed(path, "", cls, header)
    # Read as the stored dtype: the checksum covers the data, not the .npy
    # header, so a damaged dtype must change the hashed bytes.
    arrays = {name: _read(directory / f"{name}.npy", lambda file: np.ascontiguousarray(
        np.load(file, allow_pickle=False), dtype=dtype)) for name, dtype in dtypes.items()}
    if _checksum(header, {name: (dtypes[name], array.shape, [array])
                          for name, array in arrays.items()}) != stored:
        raise ValueError(f"{directory} fails the checksum in {path}: a file is damaged "
                         f"or a save was cut short")
    return record, arrays


def save_trace(trace: TrainingTrace, directory) -> str:
    """Store the trace as five arrays and a checked manifest
    (``save_checked``); returns the checksum."""
    return save_checked(directory, *_stored(trace))


def load_trace(directory) -> TrainingTrace:
    """Read a trace written by ``save_trace``, verified by ``load_checked``
    before any step record is built; every record's snapshot is a row view
    of the one ``params`` array."""
    header, arrays = load_checked(directory, TraceHeader, _ARRAYS)
    params = arrays["params"]
    batches = np.split(arrays["batch_indices"], np.cumsum(arrays["batch_sizes"])[:-1])
    records = [StepRecord(step, batch, lr_gen, lr_disc, params[step], seed)
               for step, (batch, (lr_gen, lr_disc), seed) in enumerate(zip(
                   batches, arrays["rates"].tolist(), arrays["latent_seeds"].tolist()))]
    return TrainingTrace(records=records, final_params=params[-1], **asdict(header))


def trace_checksum(trace: TrainingTrace) -> str:
    """The checksum ``save_trace`` writes and ``load_trace`` verifies."""
    return _checksum(*_stored(trace))
