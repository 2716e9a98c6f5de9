"""Experiment configuration: INI-style files, derived objects, fingerprints.

Every hyperparameter of the experiment protocol has a key.  The trace
fingerprint covers exactly the inputs that determine a training run
(dataset, architecture, training settings), so traces stay reusable across
evaluation-side changes while mismatched trace/config pairs are refused.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .datasets import GLYPH_SIDE, load_idx_images, make_digit_images, sample_normal2d
from .metrics import ClassifierSettings, MetricSpec
from .models import FcGan, GanArchitecture
from .training import TrainingSettings

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
            if not getattr(self, key):
                raise ValueError(f"{key} must not be empty")
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
        self.metric_specs()   # refuses an unknown metric kind
        unknown = sorted(set(self.methods) - set(SELECTION_METHODS))
        if unknown:
            raise ValueError(f"unknown selection methods {unknown}; "
                             f"choose from {', '.join(SELECTION_METHODS)}")

    def metric_specs(self) -> list[MetricSpec]:
        return [MetricSpec(kind, bandwidth=self.bandwidth) for kind in self.metrics]

    @property
    def uses_classifier(self) -> bool:
        """Whether a configured metric (IS or FID) reads samples through a classifier."""
        return any(kind in ("is", "fid") for kind in self.metrics)

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
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _split(text: str, item=str) -> tuple:
    """The comma list's non-empty entries, each as ``item``."""
    return tuple(item(part.strip()) for part in text.split(",") if part.strip())


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a sectioned key-value config file.

    ``overrides`` maps dotted ``section.key`` names to replacement values,
    read as their ``str`` (the command-line flags land here).
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    for dotted, value in (overrides or {}).items():
        section, key = dotted.split(".", 1)
        parser.read_dict({section: {key: value}})

    ds = parser["dataset"] if parser.has_section("dataset") else {}
    dataset = DatasetSpec(
        kind=ds.get("kind", "normal2d"),
        n_train=int(ds.get("n_train", 1000)),
        n_classes=int(ds.get("n_classes", 4)),
        noise=float(ds.get("noise", 0.15)),
        images_path=ds.get("images", ""),
        labels_path=ds.get("labels", ""),
        side=int(ds.get("side", 8)),
    )
    ar = parser["architecture"] if parser.has_section("architecture") else {}
    # The glyphs are always GLYPH_SIDE pixels square; ``side`` sizes IDX images.
    side = GLYPH_SIDE if dataset.kind == "digits8" else dataset.side
    data_dim = 2 if dataset.kind == "normal2d" else side * side
    if int(ar.get("data_dim", data_dim)) != data_dim:
        raise ValueError(f"[architecture] data_dim = {ar['data_dim']} does not match the "
                         f"{dataset.kind} dataset's dimension {data_dim}")
    architecture = GanArchitecture(
        latent_dim=int(ar.get("latent_dim", 10)),
        data_dim=data_dim,
        hidden_gen=int(ar.get("hidden_gen", 32)),
        hidden_disc=int(ar.get("hidden_disc", 64)),
        l2_rate=float(ar.get("l2_rate", 1e-3)),
        objective=ar.get("objective", "nonsaturating"),
    )
    tr = parser["training"] if parser.has_section("training") else {}
    training = TrainingSettings(
        epochs=int(tr.get("epochs", 5)),
        batch_size=int(tr.get("batch_size", 100)),
        lr_gen=float(tr.get("lr_gen", 1e-3)),
        lr_disc=float(tr.get("lr_disc", 1e-3)),
        mode=tr.get("mode", "simultaneous"),
        first_update=tr.get("first_update", "generator"),
        seed=int(tr.get("seed", 0)),
    )
    ev = parser["evaluation"] if parser.has_section("evaluation") else {}
    classifier = ClassifierSettings(
        hidden=_split(ev.get("classifier_hidden", "64,32"), int),
        epochs=int(ev.get("classifier_epochs", 30)),
        batch_size=int(ev.get("classifier_batch", 32)),
        lr=float(ev.get("classifier_lr", 0.05)),
        feature_layer=int(ev.get("feature_layer", 1)),
        activation=ev.get("classifier_activation", "tanh"),
    )
    infl = parser["influence"] if parser.has_section("influence") else {}
    cl = parser["cleansing"] if parser.has_section("cleansing") else {}
    return ExperimentConfig(
        dataset=dataset,
        architecture=architecture,
        training=training,
        metrics=_split(ev.get("metrics", "all")),
        bandwidth=float(ev.get("bandwidth", 1.0)),
        n_reference=int(ev.get("n_reference", 1000)),
        n_test=int(ev.get("n_test", 1000)),
        classifier=classifier,
        classifier_seed=int(ev.get("classifier_seed", 0)),
        k_epochs=_split(infl.get("k_epochs", "1"), int),
        n_targets=int(infl.get("n_targets", 50)),
        n_permutations=int(infl.get("n_permutations", 1000)),
        n_harmful=_split(cl.get("n_harmful", "50,100,250"), int),
        methods=_split(cl.get("methods", "influence,disc_loss,random")),
        n_seeds=int(cl.get("n_seeds", 5)),
    )
