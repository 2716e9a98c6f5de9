"""Command-line front end for the training / influence / cleansing pipeline:
flags and printing, while ``experiments`` writes and reads every stored file.

Exit codes: 0 on success, 1 on usage or configuration errors (including a
trace or an influence table whose fingerprint does not match the config),
2 on numerical failure (divergence or non-finite values).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ExperimentConfig, load_config
from .experiments import (
    draw_targets,
    estimates_and_truths,
    load_seed_run,
    prepare_seed_run,
    read_influence_table,
    read_report,
    run_data_cleansing,
    run_estimation_accuracy,
    save_seed_run,
    seed_dataset,
    write_cleansing_curves,
    write_influence_table,
    write_report,
    write_scatter_data,
    write_table,
)
from .metrics import MetricSpec
from .models import NonFiniteError
from .training import DivergenceError


class UsageError(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the pipeline reserves 2 for
    # numerical failure, so remap usage problems to exit code 1.
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gantrace",
                     description="Replayable adversarial training with influence estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, out_help):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the training seed")
        p.add_argument("--out", required=True, help=out_help)
        return p

    command("train", "run training and store the trace", "trace output directory")

    p_infl = command("influence", "estimate influence from a stored trace", "output CSV path")
    p_infl.add_argument("--metric", default=None, help="one of the configured metric kinds (default: the first)")
    p_infl.add_argument("--k", type=int, default=None, help="epochs to trace back")
    p_infl.add_argument("--targets", type=int, default=None,
                        help="score a random target subset of this size")

    p_oracle = command("oracle", "counterfactual ground truth for targets", "output CSV path")
    p_oracle.add_argument("--targets", type=int, required=True)
    p_oracle.add_argument("--k", type=int, default=None)

    p_acc = command("accuracy", "estimation-accuracy experiment", "report output directory")
    p_acc.add_argument("--k", default=None,
                       help="comma-separated trace-back depths (influence.k_epochs)")
    p_acc.add_argument("--targets", type=int, default=None,
                       help="number of targets (influence.n_targets)")
    p_acc.add_argument("--seeds", type=int, default=1, help="number of seeds")

    p_cl = command("cleanse", "data-cleansing experiment", "report output directory")
    p_cl.add_argument("--n-harmful", default=None,
                      help="comma-separated removal sizes (cleansing.n_harmful)")
    p_cl.add_argument("--seeds", type=int, default=None,
                      help="number of seeds (cleansing.n_seeds)")

    p_rep = command("report", "emit plot-data CSVs from experiment outputs and an "
                    "influence table", "plot-data output directory")
    p_rep.add_argument("--from", dest="source", required=True,
                       help="directory holding experiment outputs")
    p_rep.add_argument("--scores", default=None,
                       help="influence CSV written by gantrace influence, for the 2-d scatter")
    for p in (p_infl, p_oracle):
        p.add_argument("--trace", required=True, help="trace directory written by gantrace train")
    return parser


def _load(args, flags=None) -> ExperimentConfig:
    """The config with ``--seed`` and each given flag of ``flags`` (the
    flag's attribute name -> its dotted config key) as an override."""
    keys = {"seed": "training.seed", **(flags or {})}
    return load_config(args.config, {key: getattr(args, name) for name, key in keys.items()
                                     if getattr(args, name) is not None})


def _targets(config: ExperimentConfig, count: int | None):
    """``--targets``: ``count`` targets of the training seed, or None without
    it, drawn before any trace is loaded; a count outside [1, n_train] is refused."""
    if count is not None and not 1 <= count <= config.dataset.n_train:
        raise UsageError(f"--targets {count} is outside [1, {config.dataset.n_train}]")
    return None if count is None else draw_targets(config, config.training.seed, count)


def _depth(config: ExperimentConfig, k: int | None) -> int | None:
    """``--k``, checked against the config before any trace is loaded."""
    if k is not None and not 1 <= k <= config.training.epochs:
        raise UsageError(f"--k {k} is outside [1, {config.training.epochs}]")
    return k


def _cmd_train(args) -> int:
    config = _load(args)
    run = prepare_seed_run(config, config.training.seed)
    checksum = save_seed_run(run, args.out)
    print(f"trace: {args.out}")
    print(f"steps: {run.trace.n_steps}  checksum: {checksum}")
    return 0


def _cmd_influence(args) -> int:
    config = _load(args)
    kind = args.metric or config.metrics[0]
    if kind not in config.metrics:
        raise UsageError(f"--metric {kind} is not a configured metric; "
                         f"the config has {', '.join(config.metrics)}")
    k = _depth(config, args.k)
    targets = _targets(config, args.targets)
    run = load_seed_run(config, args.trace)
    table = run.influence(MetricSpec(kind, bandwidth=config.bandwidth), k, targets)
    write_influence_table(table, args.out)
    print(f"influence table: {args.out} ({len(table.scores)} instances, metric {kind})")
    return 0


def _cmd_oracle(args) -> int:
    config = _load(args)
    k = _depth(config, args.k)
    targets = _targets(config, args.targets)
    run = load_seed_run(config, args.trace)
    specs = config.metric_specs()
    compared = estimates_and_truths(run, specs, targets, k)
    rows = []
    for position, target in enumerate(targets):
        for spec in specs:
            estimates, truths = compared[spec.kind]
            rows.append((target, spec.kind, truths[position], estimates[position]))
    write_table(args.out, ["index", "metric", "true_influence", "estimated_influence"], rows)
    print(f"oracle results: {args.out} ({len(targets)} targets)")
    return 0


def _cmd_accuracy(args) -> int:
    if args.seeds < 1:
        raise UsageError("--seeds must be at least 1")
    config = _load(args, {"k": "influence.k_epochs", "targets": "influence.n_targets"})
    seeds = list(range(config.training.seed, config.training.seed + args.seeds))
    report = run_estimation_accuracy(config, seeds=seeds)
    write_report(report, args.out)
    for row in report.rows:
        print(f"metric={row.metric} k={row.k_epochs} seed={row.seed} "
              f"tau={row.tau:.4f} jaccard={row.jaccard:.4f} p={row.p_value:.4f}")
    return 0


def _cmd_cleanse(args) -> int:
    config = _load(args, {"n_harmful": "cleansing.n_harmful", "seeds": "cleansing.n_seeds"})
    report = run_data_cleansing(config)
    write_report(report, args.out)
    write_cleansing_curves(report, Path(args.out) / "curves.csv")
    for row in report.rows:
        print(f"method={row.method} metric={row.metric} n_h={row.n_harmful} "
              f"seed={row.seed} improvement={row.improvement:+.6f}")
    return 0


def _cmd_report(args) -> int:
    # Every input is read and checked before --out is created.
    config = _load(args)
    source = Path(args.source)
    report = read_report(source, "cleansing") if (source / "cleansing.json").exists() else None
    table = None
    if args.scores is not None:
        data, _, fingerprint = seed_dataset(config, config.training.seed)
        if data.shape[1] != 2:
            raise UsageError(f"--scores {args.scores}: the harmfulness scatter needs 2-d "
                             f"data, and the {config.dataset.kind} data is {data.shape[1]}-d")
        table = read_influence_table(args.scores, fingerprint, len(data))
    if report is None and table is None:
        raise UsageError(f"nothing to report from {source}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    emitted = []
    if report is not None:
        write_cleansing_curves(report, out / "cleansing_curves.csv")
        emitted.append("cleansing_curves.csv")
    if table is not None:
        write_scatter_data(table, data, MetricSpec(table.metric_name),
                           out / "harmfulness_scatter.csv")
        emitted.append("harmfulness_scatter.csv")
    print(f"report files in {out}: {', '.join(emitted)}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "influence": _cmd_influence,
    "oracle": _cmd_oracle,
    "accuracy": _cmd_accuracy,
    "cleanse": _cmd_cleanse,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DivergenceError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
