"""Experiment configuration: INI-style files, derived objects, fingerprints.

Every hyperparameter of the experiment protocol has a key.  The trace
fingerprint covers exactly the inputs that determine a training run
(dataset, architecture, training settings), so traces stay reusable across
evaluation-side changes while mismatched trace/config pairs are refused.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .datasets import (GLYPH_SIDE, glyph_templates, load_idx_images, make_digit_images,
                       sample_normal2d)
from .metrics import ClassifierSettings, MetricSpec
from .models import FcGan, GanArchitecture
from .training import TrainingSettings, json_digest

SELECTION_METHODS = ("influence", "disc_loss", "random")


@dataclass(frozen=True)
class DatasetSpec:
    kind: str = "normal2d"
    n_train: int = 1000
    n_classes: int = 4
    noise: float = 0.15
    images_path: str = ""
    labels_path: str = ""
    side: int = 8

    def __post_init__(self):
        if self.kind not in ("normal2d", "digits8", "idx"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.n_train < 1:
            raise ValueError("n_train must be positive")
        if not 0 <= self.noise < math.inf or math.copysign(1.0, self.noise) < 0:
            raise ValueError(f"noise {self.noise} must be finite and non-negative "
                             "(NumPy takes -0 as negative)")
        if self.kind == "digits8":
            glyph_templates(self.n_classes)   # refuses an n_classes with no glyphs


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec
    architecture: GanArchitecture
    training: TrainingSettings
    metrics: tuple[str, ...] = ("all",)
    bandwidth: float = 1.0
    n_reference: int = 1000
    n_test: int = 1000
    classifier: ClassifierSettings = field(default_factory=ClassifierSettings)
    classifier_seed: int = 0
    k_epochs: tuple[int, ...] = (1,)
    n_targets: int = 50
    n_permutations: int = 1000
    n_harmful: tuple[int, ...] = (50, 100, 250)
    methods: tuple[str, ...] = ("influence", "disc_loss", "random")
    n_seeds: int = 5

    def __post_init__(self):
        for key in ("metrics", "methods", "k_epochs", "n_harmful"):
            entries = getattr(self, key)
            if not entries:
                raise ValueError(f"{key} must not be empty")
            repeated = [entry for i, entry in enumerate(entries) if entry in entries[:i]]
            if repeated:
                raise ValueError(f"{key} repeats {repeated[0]!r}")
        specs = self.metric_specs()   # refuses an unknown metric kind
        samples = max(spec.least_samples for spec in specs)
        for key, value, least in (("n_reference", self.n_reference, samples),
                                  ("n_test", self.n_test, samples),
                                  ("classifier_epochs", self.classifier.epochs, 1),
                                  ("classifier_batch", self.classifier.batch_size, 1)):
            if value < least:
                raise ValueError(f"{key} must be at least {least}")
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be at least 1")
        if any(k < 1 or k > self.training.epochs for k in self.k_epochs):
            raise ValueError("k_epochs entries must be between 1 and epochs")
        if any(n < 0 or n >= self.dataset.n_train for n in self.n_harmful):
            raise ValueError("n_harmful entries must be non-negative and smaller than "
                             "the dataset")
        if not 2 <= self.n_targets <= self.dataset.n_train:
            raise ValueError(f"n_targets must be between 2 and n_train "
                             f"({self.dataset.n_train})")
        if self.n_permutations < 1:
            raise ValueError("n_permutations must be positive")
        if self.classifier_seed < 0:
            raise ValueError(f"classifier_seed {self.classifier_seed} must be non-negative")
        if self.training.batch_size > self.dataset.n_train:
            raise ValueError(f"batch_size {self.training.batch_size} must not exceed n_train "
                             f"({self.dataset.n_train})")
        classified = [spec.kind for spec in specs if spec.needs_classifier]
        if classified and (self.dataset.kind == "normal2d" or (
                self.dataset.kind == "idx" and not self.dataset.labels_path)):
            raise ValueError(f"metrics {classified} read through a classifier and need a "
                             "labeled dataset: digits8, or idx with labels")
        unknown = sorted(set(self.methods) - set(SELECTION_METHODS))
        if unknown:
            raise ValueError(f"unknown selection methods {unknown}; "
                             f"choose from {', '.join(SELECTION_METHODS)}")

    def metric_specs(self) -> list[MetricSpec]:
        return [MetricSpec(kind, bandwidth=self.bandwidth) for kind in self.metrics]

    def problem(self) -> FcGan:
        return FcGan(self.architecture)


def synthesize_dataset(spec: DatasetSpec, size: int, rng: np.random.Generator,
                       offset: int = 0) -> tuple[np.ndarray, np.ndarray | None]:
    """``size`` rows of the spec's dataset and their labels (None for ``normal2d``).

    The one draw behind the training set and both evaluation sets.  The
    synthetic kinds draw from ``rng``; ``idx`` takes the file's rows
    ``offset`` to ``offset + size``, leaves ``rng`` alone, and raises
    ``ValueError`` naming the file when it holds fewer.
    """
    if spec.kind == "normal2d":
        return sample_normal2d(size, rng), None
    if spec.kind == "digits8":
        return make_digit_images(size, spec.n_classes, spec.noise, rng)
    data, labels = load_idx_images(spec.images_path, spec.labels_path or None, spec.side)
    rows = slice(offset, offset + size)
    if len(data) < rows.stop:
        raise ValueError(f"IDX file {spec.images_path} holds {len(data)} images, "
                         f"need {rows.stop}")
    return data[rows], None if labels is None else labels[rows]


def trace_fingerprint(config: ExperimentConfig, data_checksum: str) -> str:
    """Hash of everything that determines the training run: every field of
    the architecture and of the training settings, and every field of the
    dataset spec but its file paths, for which the data checksum stands."""
    dataset = {key: value for key, value in asdict(config.dataset).items()
               if not key.endswith("_path")}
    payload = {"dataset": {**dataset, "checksum": data_checksum},
               "architecture": asdict(config.architecture),
               "training": asdict(config.training)}
    return json_digest(payload).hexdigest()


def _finite(text: str) -> float:
    """A float key's parser: NaN, infinity and an overflow like ``1e400`` are refused."""
    if not math.isfinite(value := float(text)):
        raise ValueError("not a finite number")
    return value


def _split(item):
    """The parser of a comma list: its non-empty entries, each as ``item``."""
    return lambda text: tuple(item(part.strip()) for part in text.split(",") if part.strip())


# Every config key -> (the settings class it fills, the field, its text's parser).
_KEYS = {
    "dataset.kind": (DatasetSpec, "kind", str),
    "dataset.n_train": (DatasetSpec, "n_train", int),
    "dataset.n_classes": (DatasetSpec, "n_classes", int),
    "dataset.noise": (DatasetSpec, "noise", _finite),
    "dataset.images": (DatasetSpec, "images_path", str),
    "dataset.labels": (DatasetSpec, "labels_path", str),
    "dataset.side": (DatasetSpec, "side", int),
    "architecture.latent_dim": (GanArchitecture, "latent_dim", int),
    "architecture.hidden_gen": (GanArchitecture, "hidden_gen", int),
    "architecture.hidden_disc": (GanArchitecture, "hidden_disc", int),
    "architecture.l2_rate": (GanArchitecture, "l2_rate", _finite),
    "architecture.objective": (GanArchitecture, "objective", str),
    "training.epochs": (TrainingSettings, "epochs", int),
    "training.batch_size": (TrainingSettings, "batch_size", int),
    "training.lr_gen": (TrainingSettings, "lr_gen", _finite),
    "training.lr_disc": (TrainingSettings, "lr_disc", _finite),
    "training.mode": (TrainingSettings, "mode", str),
    "training.first_update": (TrainingSettings, "first_update", str),
    "training.seed": (TrainingSettings, "seed", int),
    "evaluation.metrics": (ExperimentConfig, "metrics", _split(str)),
    "evaluation.bandwidth": (ExperimentConfig, "bandwidth", _finite),
    "evaluation.n_reference": (ExperimentConfig, "n_reference", int),
    "evaluation.n_test": (ExperimentConfig, "n_test", int),
    "evaluation.classifier_hidden": (ClassifierSettings, "hidden", _split(int)),
    "evaluation.classifier_epochs": (ClassifierSettings, "epochs", int),
    "evaluation.classifier_batch": (ClassifierSettings, "batch_size", int),
    "evaluation.classifier_lr": (ClassifierSettings, "lr", _finite),
    "evaluation.feature_layer": (ClassifierSettings, "feature_layer", int),
    "evaluation.classifier_activation": (ClassifierSettings, "activation", str),
    "evaluation.classifier_seed": (ExperimentConfig, "classifier_seed", int),
    "influence.k_epochs": (ExperimentConfig, "k_epochs", _split(int)),
    "influence.n_targets": (ExperimentConfig, "n_targets", int),
    "influence.n_permutations": (ExperimentConfig, "n_permutations", int),
    "cleansing.n_harmful": (ExperimentConfig, "n_harmful", _split(int)),
    "cleansing.methods": (ExperimentConfig, "methods", _split(str)),
    "cleansing.n_seeds": (ExperimentConfig, "n_seeds", int),
}


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a sectioned key-value config file; a field no key sets keeps its default.

    ``overrides`` maps dotted ``section.key`` names to values read as their ``str`` (the
    command-line flags).  A section or key not in ``_KEYS``, even in [DEFAULT], raises.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if not parser.read(path):
            raise FileNotFoundError(f"config file not found: {path}")
        for dotted, value in (overrides or {}).items():
            section, key = dotted.split(".", 1)
            parser.read_dict({section: {key: value}})
        sections = {section: dict(entries) for section, entries in parser.items()}
    except configparser.Error as exc:
        raise ValueError(f"config file {path}: {' '.join(str(exc).split())}") from exc

    given = {target: {} for target, _, _ in _KEYS.values()}
    for section, entries in sections.items():
        for key, text in entries.items():
            if f"{section}.{key}" not in _KEYS:
                raise ValueError(f"unknown config key {key!r} in section [{section}]")
            target, name, parse = _KEYS[f"{section}.{key}"]
            try:
                given[target][name] = parse(text)
            except ValueError as exc:
                raise ValueError(f"[{section}] {key} = {text!r} does not parse: {exc}") from exc
    for section in set(parser.sections()) - {dotted.split(".")[0] for dotted in _KEYS}:
        raise ValueError(f"unknown config section [{section}]")

    dataset = DatasetSpec(**given[DatasetSpec])
    # The glyphs are always GLYPH_SIDE pixels square; ``side`` sizes IDX images.
    side = GLYPH_SIDE if dataset.kind == "digits8" else dataset.side
    given[GanArchitecture]["data_dim"] = 2 if dataset.kind == "normal2d" else side * side
    return ExperimentConfig(dataset=dataset,
                            architecture=GanArchitecture(**given[GanArchitecture]),
                            training=TrainingSettings(**given[TrainingSettings]),
                            classifier=ClassifierSettings(**given[ClassifierSettings]),
                            **given[ExperimentConfig])
