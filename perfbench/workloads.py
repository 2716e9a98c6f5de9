"""The workloads and the operations they time.

Every workload reports every end-to-end metric, so each runs every
operation; what differs is the config and how often each operation
appears in one pass (``Workload.plan``).  A run repeats passes until its
time is up; a traced run makes a fixed number of passes so that its
counts repeat exactly.  The README gives the reason for each workload.

Package functions are always called through their module
(``experiments.prepare_seed_run``), never bound to a local name, so the
tracer's wrappers see the benchmark's calls too.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gantrace.autodiff as autodiff
import gantrace.cli as cli
import gantrace.config as gconfig
import gantrace.experiments as experiments
import gantrace.influence as influence
import gantrace.metrics as metrics
import gantrace.oracle as oracle
import gantrace.training as training

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Relative tolerance of the final-step identity: the influence estimate of
# an instance seen only in the last step equals the replayed change.
FINAL_STEP_RTOL = 1e-8
FINAL_STEP_TARGETS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    experiment: str             # "accuracy" or "cleansing"
    # Operation and how often it appears in one pass.  Short operations
    # appear several times so that each run has enough samples for a
    # steady median.
    plan: tuple[tuple[str, int], ...]
    cli_targets: int
    overrides: tuple[tuple[str, str], ...] = ()
    check_accuracy_threshold: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload("desk-sweep", "desk.ini", "cleansing",
                 plan=(("sweep_k1", 8), ("sweep_kall", 6), ("train", 4), ("oracle_k1", 4),
                       ("oracle_kall", 3), ("experiment", 1), ("cli_chain", 1)),
                 cli_targets=5),
        # 16 accuracy targets instead of the config's 50, so that a run of
        # the default length holds several experiments.
        Workload("desk-accuracy", "desk.ini", "accuracy",
                 plan=(("experiment", 2), ("oracle_k1", 10), ("oracle_kall", 6), ("train", 4),
                       ("sweep_k1", 4), ("sweep_kall", 2), ("cli_chain", 2)),
                 cli_targets=5, overrides=(("influence.n_targets", "16"),),
                 check_accuracy_threshold=True),
        Workload("digits-classifier", "digits.ini", "accuracy",
                 plan=(("experiment", 2), ("oracle_k1", 6), ("oracle_kall", 3), ("sweep_k1", 3),
                       ("sweep_kall", 2), ("train", 3), ("cli_chain", 2)),
                 cli_targets=3),
    )
}


class CheckFailed(RuntimeError):
    """An operation ran but its output was wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Context:
    """Everything set-up builds; the timed operations only read it."""

    workload: Workload
    seed: int
    config_path: Path
    config: gconfig.ExperimentConfig
    problem: object
    run: experiments.SeedRun
    queries: dict
    baselines: dict
    checksum: str
    targets: np.ndarray
    work: Path
    sweep_scores: dict
    # Opens a named span when the run is traced.
    span: Callable = lambda name: contextlib.nullcontext()

    @property
    def epochs(self) -> int:
        return self.config.training.epochs


def setup(workload: Workload, seed: int, work: Path) -> Context:
    """Dataset draw, trace, reference set and latents, classifier, query vectors."""
    path = CONFIG_DIR / workload.config
    config = gconfig.load_config(str(path), {"training.seed": seed, **dict(workload.overrides)})
    problem = config.problem()
    run = experiments.prepare_seed_run(config, seed)
    specs = config.metric_specs()
    params = run.trace.final_params
    queries = {spec.kind: metrics.build_query_vector(spec, problem, params,
                                                     run.reference_latents, run.context)
               for spec in specs + [metrics.MetricSpec("disc_loss")]}
    baselines = {spec.kind: metrics.metric_value(spec, problem, params,
                                                 run.reference_latents, run.context)
                 for spec in specs}
    targets = np.random.default_rng([seed, 1]).permutation(config.dataset.n_train)[:64]
    return Context(workload, seed, path, config, problem, run, queries, baselines,
                   training.trace_checksum(run.trace), targets, work, {})


# -- timed operations: each returns the metric sample, in the metric's unit ------

def op_train(ctx: Context, i: int) -> float:
    start = time.perf_counter()
    trace = training.run_training(ctx.problem, ctx.run.dataset, ctx.config.training,
                                  fingerprint=ctx.run.fingerprint)
    elapsed = time.perf_counter() - start
    check(training.trace_checksum(trace) == ctx.checksum, "retraining changed the trace")
    return 1e3 * elapsed / trace.n_steps


def _sweep(ctx: Context, i: int, k: int) -> float:
    kinds = sorted(ctx.queries)
    kind = kinds[i % len(kinds)]
    trace = ctx.run.trace
    vjp_before = autodiff.vjp_gradient_call_count()
    start = time.perf_counter()
    table = influence.infer_linear_influence(ctx.problem, trace, ctx.run.dataset,
                                             ctx.queries[kind], k_epochs=k)
    elapsed = time.perf_counter() - start
    steps = trace.n_steps - influence.window_start(trace, k)
    vjps = autodiff.vjp_gradient_call_count() - vjp_before
    check(vjps == steps, f"{vjps} vector-Jacobian products for {steps} traced steps")
    scores = np.array([table.scores[j] for j in range(trace.n_train)])
    check(bool(np.all(np.isfinite(scores))), "non-finite influence score")
    first = ctx.sweep_scores.setdefault((kind, k), scores)
    check(np.array_equal(first, scores), f"repeated {kind} sweep at k={k} changed its scores")
    return elapsed


def op_sweep_k1(ctx, i):
    return _sweep(ctx, i, 1)


def op_sweep_kall(ctx, i):
    return _sweep(ctx, i, ctx.epochs)


def _oracle(ctx: Context, i: int, k: int) -> float:
    """Ground truth for one target: the replay plus every configured metric's delta."""
    target = int(ctx.targets[i % len(ctx.targets)])
    run = ctx.run
    start = time.perf_counter()
    result = oracle.counterfactual_retrain(ctx.problem, run.trace, run.dataset, target,
                                           k_epochs=k)
    deltas = [metrics.metric_value(spec, ctx.problem, result.params, run.reference_latents,
                                   run.context) - ctx.baselines[spec.kind]
              for spec in ctx.config.metric_specs()]
    elapsed = time.perf_counter() - start
    check(result.excluded == (target,), "replay excluded the wrong instances")
    check(bool(np.all(np.isfinite(deltas))), "non-finite metric delta")
    return 1e3 * elapsed


def op_oracle_k1(ctx, i):
    return _oracle(ctx, i, 1)


def op_oracle_kall(ctx, i):
    return _oracle(ctx, i, ctx.epochs)


def op_experiment(ctx: Context, i: int) -> float:
    config, seed = ctx.config, ctx.seed
    start = time.perf_counter()
    if ctx.workload.experiment == "accuracy":
        report = experiments.run_estimation_accuracy(config, seeds=[seed])
    else:
        report = experiments.run_data_cleansing(config, seeds=[seed])
    elapsed = time.perf_counter() - start
    if ctx.workload.experiment == "accuracy":
        check(len(report.rows) == len(config.metrics) * len(config.k_epochs),
              "accuracy report has the wrong number of rows")
        check(all(np.isfinite(row.tau) for row in report.rows), "non-finite tau")
        if ctx.workload.check_accuracy_threshold:
            for row in report.rows:
                if row.k_epochs == 1:
                    check(row.tau > row.threshold,
                          f"{row.metric} tau {row.tau:.4f} at k=1 is not above its "
                          f"permutation threshold {row.threshold:.4f}")
    else:
        expected = len(config.metrics) * len(config.n_harmful) * len(config.methods)
        check(len(report.rows) == expected, "cleansing report has the wrong number of rows")
        check(all(np.isfinite(row.improvement) for row in report.rows),
              "non-finite cleansing improvement")
    return elapsed


def op_cli_chain(ctx: Context, i: int) -> float:
    """``train``, then ``influence``, then ``oracle``, each through ``cli.main``."""
    work = ctx.work / "cli"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--config", str(ctx.config_path), "--seed", str(ctx.seed)]
    trace_dir = str(work / "trace")
    commands = [
        ["train", *common, "--out", trace_dir],
        ["influence", *common, "--trace", trace_dir, "--k", "1",
         "--out", str(work / "influence.csv")],
        ["oracle", *common, "--trace", trace_dir, "--k", "1",
         "--targets", str(ctx.workload.cli_targets), "--out", str(work / "oracle.csv")],
    ]
    codes = []
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            with ctx.span(f"cli.{argv[0]}"):
                codes.append(cli.main(argv))
    elapsed = time.perf_counter() - start
    check(codes == [0, 0, 0], f"CLI exit codes {codes}")
    # The JSON twin of the CSV: the CSV holds repr() of NumPy scalars.
    written = json.loads((work / "influence.json").read_text())["scores"]
    scores = np.array([written[str(j)] for j in range(ctx.config.dataset.n_train)])
    kind = ctx.config.metrics[0]
    if (kind, 1) not in ctx.sweep_scores:
        op_sweep_k1(ctx, sorted(ctx.queries).index(kind))
    check(np.array_equal(scores, ctx.sweep_scores[(kind, 1)]),
          "gantrace influence disagrees with the in-process sweep")
    with open(work / "oracle.csv", newline="") as handle:
        oracle_rows = list(csv.reader(handle))[1:]
    check(len(oracle_rows) == ctx.workload.cli_targets * len(ctx.config.metrics),
          "gantrace oracle wrote the wrong number of rows")
    return elapsed


OPERATIONS = {
    "train": ("train_ms_per_step", op_train),
    "sweep_k1": ("sweep_k1_s", op_sweep_k1),
    "sweep_kall": ("sweep_kall_s", op_sweep_kall),
    "oracle_k1": ("oracle_k1_ms", op_oracle_k1),
    "oracle_kall": ("oracle_kall_ms", op_oracle_kall),
    "experiment": ("experiment_s", op_experiment),
    "cli_chain": ("cli_chain_s", op_cli_chain),
}


# -- checks made once per run, outside the timed loop -------------------------------

def check_replay_without_exclusion(ctx: Context) -> None:
    run = ctx.run
    result = oracle.counterfactual_retrain(ctx.problem, run.trace, run.dataset, [],
                                           k_epochs=ctx.epochs)
    check(np.array_equal(result.params, run.trace.final_params),
          "replay with no exclusion differs from the stored final parameters")


def final_step_targets(ctx: Context) -> list[int]:
    return sorted(int(j) for j in ctx.run.trace.records[-1].batch_indices)[:FINAL_STEP_TARGETS]


def check_final_step(ctx: Context, target: int) -> None:
    """For an instance in the last batch, a one-step estimate equals the replay."""
    run = ctx.run
    trace = run.trace
    query = ctx.queries["disc_loss"]
    estimate = influence.infer_linear_influence(
        ctx.problem, trace, run.dataset, query, targets=[target],
        start_step=trace.n_steps - 1).scores[target]
    replay = oracle.counterfactual_retrain(ctx.problem, trace, run.dataset, target, k_epochs=1)
    truth = float(query.data @ replay.delta)
    check(truth != 0.0, f"replay without {target} changed nothing")
    error = abs(estimate - truth) / abs(truth)
    check(error <= FINAL_STEP_RTOL,
          f"final-step estimate for {target} off by {error:.2e} relative")
