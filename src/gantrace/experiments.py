"""Experiment pipelines: estimation accuracy and data cleansing.

Both experiments and the CLI run one per-seed chain on a ``SeedRun``,
which ``prepare_seed_run`` trains, ``save_seed_run`` stores and
``load_seed_run`` loads back: ``SeedRun.influence`` sweeps a metric's query
through the trace, and ``estimates_and_truths`` sets each target's estimate
beside its true delta, read from the oracle's replay without it.
Accuracy is scored with rank statistics (Kendall's tau and the Jaccard
overlap of critical sets) against a permutation null; cleansing removes the
estimated harmful set, re-runs the final epoch and reads the test metric.

Randomness is threaded through named streams derived from the experiment
seed, so every report row is reproducible from (config, seed).  Each draw
has one implementation, which the CLI shares: ``seed_dataset`` draws the
training set, ``evaluation_set`` the reference set behind the metric
context and cleansing's test set (latents first, then the rows of
``config.synthesize_dataset``), and ``draw_targets`` the targets of the
accuracy experiment, ``gantrace influence --targets`` and ``gantrace
oracle``.  Both experiments read their metrics through
``metrics.metric_reader``, one generated sample set per parameter vector.  What
one command stores for another is written and read back here, each JSON
file through ``training.read_record``, and every CSV through ``write_table``.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import asdict, dataclass, field, fields, make_dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, synthesize_dataset, trace_fingerprint
from .datasets import dataset_checksum
from .influence import InfluenceTable, infer_linear_influence
from .metrics import (
    METRIC_KINDS,
    GeneratedSet,
    MetricContext,
    MetricSpec,
    build_query_vector,
    classifier_key,
    load_classifier,
    metric_reader,
    save_classifier,
    train_classifier,
)
from .models import FcGan
from .oracle import counterfactual_retrain
from .training import TrainingTrace, load_trace, read_record, run_training, save_trace

_STREAMS = {"dataset": 11, "reference": 13, "targets": 17, "test": 19,
            "random_select": 23, "permutation": 29}


def _stream(seed: int, name: str, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), _STREAMS[name], *keys]))


# -- rank statistics -----------------------------------------------------------

def kendall_tau(a, b) -> float:
    """Tie-corrected (tau-b) ordinal correlation."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) != len(b) or len(a) < 2:
        raise ValueError("need two equal-length score lists of size >= 2")
    return float(_reordered_tau_b(a, b, np.arange(len(a))[None, :])[0])


def critical_set(scores, m: int = 10) -> set[int]:
    """Positions of the m largest and m smallest scores, ties broken by index."""
    scores = np.asarray(scores, dtype=np.float64)
    if len(scores) < 2 * m:
        raise ValueError(f"need at least {2 * m} scored instances")
    positions = np.arange(len(scores))
    by_descending = np.lexsort((positions, -scores))[:m]
    by_ascending = np.lexsort((positions, scores))[:m]
    return set(by_descending.tolist()) | set(by_ascending.tolist())


def jaccard_critical(estimated, true, m: int = 10) -> float:
    a, b = critical_set(estimated, m), critical_set(true, m)
    return len(a & b) / len(a | b)


@dataclass
class PermutationResult:
    observed: float
    threshold: float
    p_value: float
    n_permutations: int


def permutation_test_tau(estimated, true, n_permutations: int = 1000,
                         rng: np.random.Generator | None = None) -> PermutationResult:
    """One-sided permutation null for tau: shuffle the estimate order."""
    rng = rng or np.random.default_rng(0)
    estimated = np.asarray(estimated, dtype=np.float64)
    true = np.asarray(true, dtype=np.float64)
    observed = kendall_tau(estimated, true)
    n = len(estimated)
    # One draw of every order: row by row, the same permutations and the
    # same generator state as n_permutations calls of rng.permutation(n).
    orders = rng.permuted(np.tile(np.arange(n), (n_permutations, 1)), axis=1)
    null = _reordered_tau_b(estimated, true, orders)
    threshold = float(np.quantile(null, 0.975))
    p_value = float((np.sum(null >= observed) + 1) / (n_permutations + 1))
    return PermutationResult(observed, threshold, p_value, n_permutations)


# Sign-matrix entries gathered per block of permutations; bounds the test's
# scratch memory at a few MB whatever the number of targets.
_SIGN_BLOCK = 1 << 18


def _reordered_tau_b(x: np.ndarray, y: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Kendall's tau-b of ``x[order]`` against ``y`` for every row of ``orders``.

    scipy's formula, con_minus_dis / sqrt(tot - xtie) / sqrt(tot - ytie)
    clipped to [-1, 1], with con_minus_dis the sum over pairs of the
    product of the two signs.  The counts are integers and a reordering
    leaves the tie counts alone, so each value is bit-identical to
    ``scipy.stats.kendalltau(x[order], y)``, NaN where either side is all
    ties or holds a NaN.
    """
    if np.isnan(x).any() or np.isnan(y).any():
        return np.full(len(orders), np.nan)
    x_signs, y_signs = _sign_matrix(x), _sign_matrix(y)
    n = len(x)
    tot = n * (n - 1) // 2
    xtie = (n * n - np.count_nonzero(x_signs) - n) // 2
    ytie = (n * n - np.count_nonzero(y_signs) - n) // 2
    if xtie == tot or ytie == tot:
        return np.full(len(orders), np.nan)
    con_minus_dis = np.empty(len(orders), dtype=np.int64)
    step = max(1, _SIGN_BLOCK // (n * n))
    for start in range(0, len(orders), step):
        block = orders[start:start + step]
        # Both sign matrices are antisymmetric, so the full sum counts each pair twice.
        gathered = x_signs[block[:, :, None], block[:, None, :]]
        con_minus_dis[start:start + step] = \
            (gathered * y_signs).sum(axis=(1, 2), dtype=np.int64) // 2
    tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return np.clip(tau, -1.0, 1.0)


def _sign_matrix(values: np.ndarray) -> np.ndarray:
    """sign(values[i] - values[j]) as int8; equal values, infinities included, give 0."""
    above = values[:, None] > values[None, :]
    below = values[:, None] < values[None, :]
    return above.astype(np.int8) - below.astype(np.int8)


def select_harmful(table: InfluenceTable, spec: MetricSpec, n_harmful: int) -> np.ndarray:
    """Indices of the most harmful instances under the metric's sign rule.

    Only instances qualifying as harmful by sign are returned, most harmful
    first and ties by index; the set is truncated (with a warning) when
    fewer than requested qualify.
    """
    indices, scores = table.as_arrays()
    harmfulness = spec.harmful_sign * scores
    order = np.lexsort((indices, -harmfulness))
    qualified = indices[order[harmfulness[order] > 0]]
    if len(qualified) < n_harmful:
        warnings.warn(
            f"only {len(qualified)} of {n_harmful} requested instances qualify as harmful",
            RuntimeWarning, stacklevel=2)
    return qualified[:n_harmful]


def sign_test_greater(differences) -> float:
    """One-sided sign test that the paired differences are positive.

    Zero differences are dropped; the p-value is the exact binomial tail
    P(X >= wins) for X ~ Binomial(decided, 1/2), an integer count over
    2**decided in one correctly rounded division.
    """
    differences = np.asarray(differences, dtype=np.float64)
    wins = int(np.sum(differences > 0))
    decided = int(np.sum(differences != 0))
    if decided == 0:
        return 1.0
    return sum(math.comb(decided, i) for i in range(wins, decided + 1)) / 2 ** decided


# -- shared per-seed setup -------------------------------------------------------

# Where ``save_seed_run`` stores the seed's IS/FID classifier inside the
# trace directory, for ``load_seed_run`` to load instead of retraining.
CLASSIFIER_DIR = "classifier"


@dataclass
class SeedRun:
    """One seed's trace with the problem its sweeps and replays run, the
    training set it was recorded on, and its evaluation side."""

    seed: int
    problem: FcGan
    dataset: np.ndarray
    trace: TrainingTrace
    reference_latents: np.ndarray
    context: MetricContext
    fingerprint: str
    _queries: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def final_set(self) -> GeneratedSet:
        """The final parameters' generated set, shared by every query and baseline."""
        return GeneratedSet(self.problem.generator_forward(
            self.trace.final_params, self.reference_latents), self.context.classifier)

    def influence(self, spec: MetricSpec, k_epochs: int | None,
                  targets=None) -> InfluenceTable:
        """The metric's query at the final parameters on the reference set,
        built once per run, swept through the last ``k_epochs`` epochs."""
        if spec not in self._queries:   # disc_loss reads no samples, so makes none
            self._queries[spec] = build_query_vector(
                spec, self.problem, self.trace.final_params, self.reference_latents, self.context,
                None if spec.kind == "disc_loss" else self.final_set)
        return infer_linear_influence(self.problem, self.trace, self.dataset,
                                      self._queries[spec], targets=targets, k_epochs=k_epochs)

    def readings(self, specs, params: np.ndarray | None = None) -> dict[str, float]:
        """Each metric's reading on the reference set, by kind, at ``params`` or the final ones."""
        final = params is None and any(spec.kind != "disc_loss" for spec in specs)
        read = metric_reader(self.problem, self.trace.final_params if params is None else params,
                             specs, self.reference_latents, self.context,
                             self.final_set if final else None)
        return {spec.kind: read(spec) for spec in specs}


def seed_dataset(config: ExperimentConfig, seed: int
                 ) -> tuple[np.ndarray, np.ndarray | None, str]:
    """A seed's dataset and labels, drawn from its dataset stream, and the
    fingerprint a trace trained on them under ``config`` carries."""
    data, labels = synthesize_dataset(config.dataset, config.dataset.n_train,
                                      _stream(seed, "dataset"))
    return data, labels, trace_fingerprint(config, dataset_checksum(data))


def prepare_seed_run(config: ExperimentConfig, seed: int) -> SeedRun:
    """Train one trace and assemble the evaluation side for a seed."""
    data, _, fingerprint = seed_dataset(config, seed)
    problem = config.problem()
    trace = run_training(problem, data, replace(config.training, seed=seed),
                         fingerprint=fingerprint)
    reference_latents, context = evaluation_context(config, seed)
    return SeedRun(seed, problem, data, trace, reference_latents, context, fingerprint)


def save_seed_run(run: SeedRun, directory) -> str:
    """Store what ``load_seed_run`` reads back: the trace in ``directory``
    (``save_trace``), then the run's IS/FID classifier, when it has one, in
    ``CLASSIFIER_DIR`` inside it.  Returns the trace's checksum."""
    checksum = save_trace(run.trace, directory)
    if run.context.classifier is not None:
        save_classifier(run.context.classifier, Path(directory) / CLASSIFIER_DIR)
    return checksum


def load_seed_run(config: ExperimentConfig, trace_dir) -> SeedRun:
    """The run of the config's training seed from the trace stored in
    ``trace_dir``, retraining nothing: the classifier stored beside the
    trace is loaded when its key matches.  ``ValueError`` when the trace's
    fingerprint is not the config's."""
    seed = config.training.seed
    data, _, fingerprint = seed_dataset(config, seed)
    trace = load_trace(trace_dir)
    _check_fingerprint(trace.fingerprint, fingerprint, trace_dir)
    reference_latents, context = evaluation_context(config, seed,
                                                    Path(trace_dir) / CLASSIFIER_DIR)
    return SeedRun(seed, config.problem(), data, trace, reference_latents, context, fingerprint)


def _check_fingerprint(found: str, fingerprint: str, source) -> None:
    """``ValueError`` naming ``source`` when a stored trace fingerprint is not the config's."""
    if found != fingerprint:
        raise ValueError(f"{source}: trace fingerprint {found[:12]}... does not match the "
                         f"config fingerprint {fingerprint[:12]}...; refusing to mix them")


def evaluation_context(config: ExperimentConfig, seed: int, stored_classifier=None
                       ) -> tuple[np.ndarray, MetricContext]:
    """Reference latents and metric context of a seed, drawn from its reference stream.

    Needs no trace: the reference set comes from ``evaluation_set``, and
    when an IS or FID metric is configured, a classifier for that set.  It
    is loaded from the ``stored_classifier`` directory when one is stored
    there under the same ``classifier_key``, and trained otherwise.
    """
    reference_latents, reference_data, reference_labels = evaluation_set(
        config, seed, "reference", config.n_reference)
    classifier = None
    if config.uses_classifier:
        if stored_classifier is not None and (Path(stored_classifier) / "manifest.json").exists():
            classifier = load_classifier(stored_classifier)
        if classifier is None or classifier.key != classifier_key(
                reference_data, reference_labels, config.classifier, config.classifier_seed):
            classifier = train_classifier(reference_data, reference_labels,
                                          config.classifier, seed=config.classifier_seed)
    return reference_latents, MetricContext(real_data=reference_data, classifier=classifier)


def evaluation_set(config: ExperimentConfig, seed: int, stream: str, size: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``size`` latents, then ``size`` dataset rows and their labels, drawn in
    that order from the seed's named stream: ``reference`` for the metric
    context, ``test`` for cleansing's readings.  An ``idx`` file's rows are
    dealt in order, training rows first, then the reference rows, then the
    test rows, so no two sets share a row."""
    rng = _stream(seed, stream)
    latents = rng.standard_normal((size, config.architecture.latent_dim))
    offset = config.dataset.n_train + (config.n_reference if stream == "test" else 0)
    data, labels = synthesize_dataset(config.dataset, size, rng, offset)
    return latents, data, labels


def draw_targets(config: ExperimentConfig, seed: int, count: int) -> np.ndarray:
    """``count`` distinct instance indices from the seed's targets stream, sorted."""
    return np.sort(_stream(seed, "targets").choice(config.dataset.n_train, size=count,
                                                   replace=False))


# -- experiment 1: estimation accuracy -------------------------------------------

@dataclass
class AccuracyRow:
    metric: str
    k_epochs: int
    tau: float
    jaccard: float
    n_targets: int
    seed: int
    p_value: float
    threshold: float


def estimates_and_truths(run: SeedRun, specs, targets, k_epochs: int | None,
                         baselines: dict[str, float] | None = None
                         ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each metric's estimated influence of every target at depth
    ``k_epochs`` and its true metric delta, both aligned with ``targets``,
    by kind.

    A true delta is the reading after the target's replay minus the
    reading at the final parameters, both on the reference latents, which
    removes the Monte Carlo noise between them.  One replay per target
    serves every metric and one sweep per metric scores every target.
    ``baselines`` holds the final readings, as from ``SeedRun.readings``;
    without it they are read here.
    """
    targets = [int(j) for j in targets]
    if baselines is None:
        baselines = run.readings(specs)
    truths = {spec.kind: np.empty(len(targets)) for spec in specs}
    for position, target in enumerate(targets):
        after = run.readings(specs, counterfactual_retrain(run.problem, run.trace, run.dataset,
                                                           target, k_epochs).params)
        for spec in specs:
            truths[spec.kind][position] = after[spec.kind] - baselines[spec.kind]
    compared = {}
    for spec in specs:
        scores = run.influence(spec, k_epochs, targets).scores
        compared[spec.kind] = np.array([scores[j] for j in targets]), truths[spec.kind]
    return compared


def run_estimation_accuracy(config: ExperimentConfig, seeds=None) -> Report:
    """Estimate influence for sampled targets and score it against the oracle."""
    seeds = list(seeds) if seeds is not None else [config.training.seed]
    specs = config.metric_specs()
    report = Report("accuracy")
    for seed in seeds:
        run = prepare_seed_run(config, seed)
        targets = draw_targets(config, seed, config.n_targets)
        # Every depth's deltas are read against one baseline per metric.
        baselines = run.readings(specs)
        for k in config.k_epochs:
            compared = estimates_and_truths(run, specs, targets, k, baselines)
            for spec in specs:
                estimates, truths = compared[spec.kind]
                perm = permutation_test_tau(estimates, truths,
                                            n_permutations=config.n_permutations,
                                            rng=_stream(seed, "permutation"))
                critical_m = min(10, len(targets) // 2)
                report.rows.append(AccuracyRow(
                    metric=spec.kind, k_epochs=k, tau=perm.observed,
                    jaccard=jaccard_critical(estimates, truths, m=critical_m),
                    n_targets=len(targets), seed=seed,
                    p_value=perm.p_value, threshold=perm.threshold))
        report.fingerprints[seed] = run.fingerprint
    return report


# -- experiment 2: data cleansing --------------------------------------------------

@dataclass
class CleansingRow:
    method: str
    metric: str
    n_harmful: int
    before: float
    after: float
    improvement: float
    seed: int


def improvements(rows, method: str, metric: str, n_harmful: int) -> np.ndarray:
    """The improvement of each cleansing row of one method, metric and size."""
    return np.array([r.improvement for r in rows
                     if r.method == method and r.metric == metric and r.n_harmful == n_harmful])


def run_data_cleansing(config: ExperimentConfig, seeds=None) -> Report:
    """Remove estimated harmful sets, re-run the final epoch, read test metrics.

    Selection methods: ``influence`` ranks by the estimated influence on the
    target metric, ``disc_loss`` by the influence on the discriminator's
    expected loss, ``random`` draws uniformly.  The improvement column is
    ``harmful_sign * (after - before)``, so positive always means better.
    The final parameters and each distinct selection's replayed parameters
    are generated once, and classified at most once, for all their readings.
    """
    seeds = list(seeds) if seeds is not None else list(
        range(config.training.seed, config.training.seed + config.n_seeds))
    specs = config.metric_specs()
    # Each ranked kind is swept once, disc_loss too when it is both a
    # configured metric and a selection method.
    ranked = {spec.kind for spec in specs} if "influence" in config.methods else set()
    if "disc_loss" in config.methods:
        ranked.add("disc_loss")
    report = Report("cleansing")
    for seed in seeds:
        run = prepare_seed_run(config, seed)
        test_latents, test_data, _ = evaluation_set(config, seed, "test", config.n_test)
        test_context = MetricContext(real_data=test_data, classifier=run.context.classifier)
        tables = {kind: run.influence(MetricSpec(kind, bandwidth=config.bandwidth), k_epochs=1)
                  for kind in sorted(ranked)}

        def reader(params):
            return metric_reader(run.problem, params, specs, test_latents, test_context)

        before_reader = reader(run.trace.final_params)
        # One reader per distinct selection: the random and disc_loss selections
        # do not depend on the metric, so each is replayed and generated once.
        replays = {}
        for spec in specs:
            before = before_reader(spec)
            for n_harmful in config.n_harmful:
                for method in config.methods:
                    selected = _select_for_method(config, method, spec, tables,
                                                  seed, n_harmful)
                    key = frozenset(np.asarray(selected).tolist())
                    if key not in replays:
                        replays[key] = reader(counterfactual_retrain(
                            run.problem, run.trace, run.dataset, selected, k_epochs=1).params)
                    after = replays[key](spec)
                    report.rows.append(CleansingRow(
                        method=method, metric=spec.kind, n_harmful=n_harmful,
                        before=before, after=after,
                        improvement=spec.harmful_sign * (after - before), seed=seed))
        report.fingerprints[seed] = run.fingerprint
    return report


def _select_for_method(config: ExperimentConfig, method: str, spec: MetricSpec,
                       tables: dict, seed: int, n_harmful: int) -> np.ndarray:
    if method == "influence":
        return select_harmful(tables[spec.kind], spec, n_harmful)
    if method == "disc_loss":
        return select_harmful(tables["disc_loss"], MetricSpec("disc_loss"), n_harmful)
    # random; the config refuses any other method.
    rng = _stream(seed, "random_select", int(n_harmful))
    return np.sort(rng.choice(config.dataset.n_train, size=n_harmful, replace=False))


# -- report emission ------------------------------------------------------------

def write_table(path, header, rows) -> None:
    """The package's one CSV writer: ``header``, then each row.  Every
    float, NumPy float64 included, is written as ``repr(float(x))``, its
    shortest round-trip form, and every other value as ``csv`` writes it."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([repr(float(value)) if isinstance(value, float) else value
                          for value in row] for row in rows)


@dataclass
class TableTwin:
    """An influence table as its JSON twin stores it."""

    metric: str
    k_epochs: int
    query_fingerprint: str
    trace_fingerprint: str
    scores: dict[int, float]


def write_influence_table(table: InfluenceTable, path) -> None:
    """The table as a CSV of ``index, score`` rows in index order, and its
    ``TableTwin`` beside it (the CSV's path with ``.json``), for
    ``read_influence_table``."""
    if Path(path).suffix == ".json":
        raise ValueError(f"{path} would be overwritten by the table's JSON twin")
    indices = sorted(table.scores)
    write_table(path, ["index", "score"], ((j, table.scores[j]) for j in indices))
    twin = TableTwin(table.metric_name, table.k_epochs, table.query_fingerprint,
                     table.trace_fingerprint, {j: table.scores[j] for j in indices})
    Path(path).with_suffix(".json").write_text(json.dumps(asdict(twin), indent=2))


# Each report's row type and its JSON's record, by the report's name, its files' stem.
_ROW_TYPES = {"accuracy": AccuracyRow, "cleansing": CleansingRow}
_REPORT_JSON = {name: make_dataclass(name, [("rows", list[row]), ("fingerprints", dict[int, str])])
                for name, row in _ROW_TYPES.items()}


@dataclass
class Report:
    """One experiment's rows, of the type ``_ROW_TYPES`` gives its name, and
    the fingerprint of each seed's trace."""

    name: str
    rows: list = field(default_factory=list)
    fingerprints: dict[int, str] = field(default_factory=dict)


def write_report(report: Report, directory) -> None:
    """``<name>.csv``, one column per field of the report's row type, and
    ``<name>.json``, the rows and the fingerprints, for ``read_report``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    columns = [column.name for column in fields(_ROW_TYPES[report.name])]
    write_table(directory / f"{report.name}.csv", columns,
                ([getattr(row, column) for column in columns] for row in report.rows))
    stored = _REPORT_JSON[report.name](report.rows, report.fingerprints)
    (directory / f"{report.name}.json").write_text(json.dumps(asdict(stored), indent=2))


def read_report(directory, name: str) -> Report:
    """The report ``write_report`` wrote to ``directory``, read by ``read_record``."""
    path = Path(directory) / f"{name}.json"
    stored = read_record(path, _REPORT_JSON[name])
    return Report(name, stored.rows, stored.fingerprints)


def read_influence_table(path, fingerprint: str, n_train: int) -> InfluenceTable:
    """The table ``write_influence_table`` wrote to ``path``, read from its twin
    by ``training.read_record``; an unknown metric, a score index outside
    [0, ``n_train``) and a trace other than ``fingerprint``'s are refused too."""
    path = Path(path).with_suffix(".json")
    twin = read_record(path, TableTwin)
    if twin.metric not in METRIC_KINDS:
        raise ValueError(f"{path}: unknown metric kind {twin.metric!r}")
    _check_fingerprint(twin.trace_fingerprint, fingerprint, path)
    if twin.scores and max(twin.scores) >= n_train:
        raise ValueError(f"{path}: score index {max(twin.scores)} is outside [0, {n_train})")
    return InfluenceTable(twin.metric, twin.scores, twin.k_epochs, twin.query_fingerprint,
                          twin.trace_fingerprint)


def write_scatter_data(table: InfluenceTable, dataset: np.ndarray, spec: MetricSpec,
                       path) -> None:
    """Per-instance coordinates with scores and harmfulness ranks, for 2-d
    data: the first two columns of ``dataset`` are the coordinates."""
    dataset = np.asarray(dataset)
    indices, scores = table.as_arrays()
    harmfulness = spec.harmful_sign * scores
    ranks = np.empty(len(indices), dtype=np.int64)
    ranks[np.argsort(-harmfulness, kind="stable")] = np.arange(len(indices))
    write_table(path, ["index", "x0", "x1", "score", "harmfulness_rank"],
                zip(indices, dataset[indices, 0], dataset[indices, 1], scores, ranks))


def write_cleansing_curves(report: Report, path) -> None:
    """Mean improvement per (method, metric, n_harmful) for plotting."""
    keys = sorted({(r.method, r.metric, r.n_harmful) for r in report.rows})
    values = {key: improvements(report.rows, *key) for key in keys}
    write_table(path, ["method", "metric", "n_harmful", "mean_improvement",
                       "std_improvement", "n_seeds"],
                ((*key, values[key].mean(), values[key].std(ddof=0), len(values[key]))
                 for key in keys))
