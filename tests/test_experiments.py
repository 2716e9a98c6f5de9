import csv
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import gantrace.cli
import gantrace.experiments
import gantrace.metrics
from gantrace.autodiff import vjp_gradient_call_count
from gantrace.cli import main as cli_main
from gantrace.config import load_config
from gantrace.experiments import (
    AccuracyRow,
    CleansingRow,
    Report,
    draw_targets,
    evaluation_context,
    evaluation_set,
    prepare_seed_run,
    read_influence_table,
    read_report,
    run_data_cleansing,
    run_estimation_accuracy,
    write_cleansing_curves,
    write_influence_table,
    write_report,
    write_scatter_data,
    write_table,
)
from gantrace.influence import infer_linear_influence, window_start
from gantrace.metrics import (
    ClassifierSettings,
    MetricSpec,
    build_query_vector,
    load_classifier,
    save_classifier,
)
from gantrace.models import FcGan, NonFiniteError
from gantrace.oracle import counterfactual_retrain
from gantrace.training import load_trace, save_checked, save_trace, trace_checksum
from toys import true_influence_on_metric

CONFIGS = Path(__file__).parent.parent / "configs"

MINI_CONFIG = """
[dataset]
kind = normal2d
n_train = 60

[architecture]
latent_dim = 3
hidden_gen = 4
hidden_disc = 6
l2_rate = 1e-3

[training]
epochs = 2
batch_size = 20
lr_gen = 1e-3
lr_disc = 1e-3
seed = 3

[evaluation]
metrics = all
n_reference = 60
n_test = 60

[influence]
k_epochs = 1
n_targets = 8
n_permutations = 200

[cleansing]
n_harmful = 6
methods = influence,disc_loss,random
n_seeds = 2
"""


@pytest.fixture
def mini_config(tmp_path):
    path = tmp_path / "mini.ini"
    path.write_text(MINI_CONFIG)
    return load_config(path), path


def test_accuracy_scores_the_oracle_against_itself_perfectly(mini_config, monkeypatch):
    # With the true deltas standing in for the estimates, the scoring path
    # must find perfect rank agreement.
    config, _ = mini_config
    compare = gantrace.experiments.estimates_and_truths

    def truths_as_estimates(*args):
        return {kind: (truths.copy(), truths) for kind, (_, truths) in compare(*args).items()}

    monkeypatch.setattr(gantrace.experiments, "estimates_and_truths", truths_as_estimates)
    report = run_estimation_accuracy(config)
    assert report.rows
    for row in report.rows:
        assert row.tau == 1.0
        assert row.jaccard == 1.0


def test_accuracy_rows_carry_seed_and_significance(mini_config):
    config, _ = mini_config
    report = run_estimation_accuracy(config, seeds=[3])
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.metric == "all" and row.k_epochs == 1 and row.seed == 3
    assert -1.0 <= row.tau <= 1.0
    assert 0.0 <= row.jaccard <= 1.0
    assert report.fingerprints[3]


def test_accuracy_reruns_are_bit_reproducible(mini_config):
    config, _ = mini_config
    a = run_estimation_accuracy(config, seeds=[5])
    b = run_estimation_accuracy(config, seeds=[5])
    assert a.rows[0].tau == b.rows[0].tau
    assert a.rows[0].jaccard == b.rows[0].jaccard


def test_cleansing_zero_removals_change_nothing(mini_config):
    config, _ = mini_config
    config = _with(config, n_harmful=(0,), methods=("influence", "random"))
    report = run_data_cleansing(config, seeds=[3])
    for row in report.rows:
        assert row.after == row.before
        assert row.improvement == 0.0


def test_cleansing_before_value_identical_across_methods(mini_config):
    config, _ = mini_config
    report = run_data_cleansing(config, seeds=[3])
    befores = {row.before for row in report.rows}
    assert len(befores) == 1
    methods = {row.method for row in report.rows}
    assert methods == {"influence", "disc_loss", "random"}


def test_cleansing_replays_each_distinct_selection_once(monkeypatch):
    config = _with(load_config(CONFIGS / "digits8_smoke.ini"),
                   methods=("influence", "disc_loss", "random"))
    replayed = []
    retrain = gantrace.experiments.counterfactual_retrain

    def counting(problem, trace, dataset, excluded, k_epochs=None):
        replayed.append(frozenset(np.asarray(excluded).tolist()))
        return retrain(problem, trace, dataset, excluded, k_epochs)

    monkeypatch.setattr(gantrace.experiments, "counterfactual_retrain", counting)
    with pytest.warns(RuntimeWarning, match="qualify"):
        report = run_data_cleansing(config, seeds=[1])
    # Two metrics, two sizes and three methods read 12 rows.  Only the
    # influence selections depend on the metric: at most 4 + 2 + 2 replays,
    # fewer where selections coincide (few instances qualify for disc_loss).
    assert len(report.rows) == 12
    assert len(set(replayed)) == len(replayed) <= 8


def test_cleansing_generates_each_parameter_vector_once(monkeypatch):
    config = load_config(CONFIGS / "digits8_smoke.ini")
    assert config.metrics == ("fid", "is")
    test_latents, _, _ = evaluation_set(config, 1, "test", config.n_test)
    replayed, generated = [], []
    retrain = gantrace.experiments.counterfactual_retrain
    forward = FcGan.generator_forward

    def counting_retrain(*args, **kwargs):
        result = retrain(*args, **kwargs)
        replayed.append(result.params)
        return result

    def counting_forward(self, params, latents):
        if np.array_equal(latents, test_latents):
            generated.append(params)
        return forward(self, params, latents)

    monkeypatch.setattr(gantrace.experiments, "counterfactual_retrain", counting_retrain)
    monkeypatch.setattr(FcGan, "generator_forward", counting_forward)
    report = run_data_cleansing(config, seeds=[1])
    # Both metrics read every vector: once for the final parameters, then
    # once per distinct selection, each read by several rows.
    assert len(report.rows) == 8 and len(replayed) < len(report.rows)
    assert len(generated) == 1 + len(replayed)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(generated[1:], replayed))


def test_accuracy_reads_each_baseline_once_per_seed(mini_config, monkeypatch):
    config, _ = mini_config
    config = _with(config, training=_with(config.training, epochs=5), k_epochs=(1, 5))
    runs, read = [], []
    prepare = gantrace.experiments.prepare_seed_run
    value = gantrace.metrics.metric_value

    def capturing_prepare(*args):
        runs.append(prepare(*args))
        return runs[-1]

    def counting_value(spec, problem, params, *args):
        read.append(params)
        return value(spec, problem, params, *args)

    monkeypatch.setattr(gantrace.experiments, "prepare_seed_run", capturing_prepare)
    monkeypatch.setattr(gantrace.experiments, "metric_value", counting_value)
    report = run_estimation_accuracy(config, seeds=[3, 4])
    assert {(row.seed, row.k_epochs) for row in report.rows} == {(3, 1), (3, 5), (4, 1), (4, 5)}
    # One reading per metric at each seed's final parameters, not one per depth.
    n_metrics = len(config.metric_specs())
    assert [sum(params is run.trace.final_params for params in read) for run in runs] \
        == [n_metrics, n_metrics]


def test_cleansing_signs_improvements_by_the_metric(mini_config):
    # disc_loss is smaller-is-better, as fid is: a removal that lowers it improves.
    config, _ = mini_config
    report = run_data_cleansing(_with(config, metrics=("all", "disc_loss")), seeds=[3])
    assert {row.metric for row in report.rows} == {"all", "disc_loss"}
    for row in report.rows:
        assert row.improvement == MetricSpec(row.metric).harmful_sign * (row.after - row.before)
    assert any(row.after != row.before for row in report.rows if row.metric == "disc_loss")


@pytest.mark.parametrize("metrics, methods, sweeps", [
    (("all", "disc_loss"), ("influence", "disc_loss"), 2),
    (("all",), ("disc_loss", "random"), 1),
    (("all",), ("random",), 0),
    (("all", "disc_loss"), ("influence",), 2),
], ids=["disc_loss_metric_and_method", "disc_loss_method", "random_only", "disc_loss_metric"])
def test_cleansing_sweeps_each_ranked_kind_once(mini_config, metrics, methods, sweeps):
    # A ranking metric is swept the first time a selection needs it and
    # never again: disc_loss, both a configured metric and a selection
    # method, takes one sweep of the last epoch for both, and a random
    # selection takes none.
    config, _ = mini_config
    config = _with(config, metrics=metrics, methods=methods)
    trace = prepare_seed_run(config, 3).trace
    before = vjp_gradient_call_count()
    run_data_cleansing(config, seeds=[3])
    assert vjp_gradient_call_count() - before == sweeps * (trace.n_steps
                                                           - window_start(trace, 1))


def test_cleansing_random_selection_reproducible(mini_config):
    config, _ = mini_config
    config = _with(config, methods=("random",))
    a = run_data_cleansing(config, seeds=[4])
    b = run_data_cleansing(config, seeds=[4])
    assert a.rows[0].after == b.rows[0].after


def test_report_files_roundtrip(mini_config, tmp_path):
    config, _ = mini_config
    accuracy = run_estimation_accuracy(config, seeds=[3])
    write_report(accuracy, tmp_path / "acc")
    rows = list(csv.DictReader(open(tmp_path / "acc" / "accuracy.csv")))
    assert float(rows[0]["tau"]) == accuracy.rows[0].tau
    assert read_report(tmp_path / "acc", "accuracy") == accuracy

    cleansing = run_data_cleansing(config, seeds=[3])
    write_report(cleansing, tmp_path / "cl")
    assert read_report(tmp_path / "cl", "cleansing") == cleansing
    write_cleansing_curves(cleansing, tmp_path / "cl" / "curves.csv")
    curve_rows = list(csv.DictReader(open(tmp_path / "cl" / "curves.csv")))
    assert {r["method"] for r in curve_rows} == {"influence", "disc_loss", "random"}

    run = prepare_seed_run(config, 3)
    problem = config.problem()
    spec = MetricSpec("all")
    query = build_query_vector(spec, problem, run.trace.final_params,
                               run.reference_latents, run.context)
    table = infer_linear_influence(problem, run.trace, run.dataset, query, k_epochs=1)
    write_scatter_data(table, run.dataset, spec, tmp_path / "scatter.csv")
    scatter = list(csv.DictReader(open(tmp_path / "scatter.csv")))
    assert len(scatter) == 60
    ranks = sorted(int(r["harmfulness_rank"]) for r in scatter)
    assert ranks == list(range(60))


def test_write_table_writes_floats_as_their_repr(tmp_path):
    values = [0.1, np.float64(0.1), np.float64(1 / 3), -0.0, np.float64(5e-324)]
    write_table(tmp_path / "t.csv", ["index", "count", "name", "value"],
                [(np.int64(7), 3, "all", value) for value in values])
    text = (tmp_path / "t.csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["index", "count", "name", "value"]
    assert [row[:3] for row in rows[1:]] == [["7", "3", "all"]] * len(values)
    assert [row[3] for row in rows[1:]] == ["0.1", "0.1", "0.3333333333333333", "-0.0",
                                            "5e-324"]
    read = np.array([float(row[3]) for row in rows[1:]])
    assert read.tobytes() == np.array(values, dtype=np.float64).tobytes()


def test_write_table_without_rows_writes_the_header_alone(tmp_path):
    write_table(tmp_path / "t.csv", ["index", "score"], [])
    assert (tmp_path / "t.csv").read_bytes() == b"index,score\r\n"


@pytest.mark.parametrize("name", ["normal2d_desk", "digits8_smoke"])
@pytest.mark.parametrize("seed", [1, 3])
def test_evaluation_context_matches_prepare_seed_run(name, seed):
    config = load_config(CONFIGS / f"{name}.ini")
    latents, context = evaluation_context(config, seed)
    run = prepare_seed_run(config, seed)
    assert latents.tobytes() == run.reference_latents.tobytes()
    assert context.real_data.tobytes() == run.context.real_data.tobytes()
    if name == "digits8_smoke":
        assert context.classifier.params.tobytes() == run.context.classifier.params.tobytes()
    else:
        assert context.classifier is None and run.context.classifier is None


def test_cli_influence_and_oracle_do_not_retrain(mini_config, tmp_path, capsys, monkeypatch):
    config, path = mini_config
    cli_main(["train", "--config", str(path), "--out", str(tmp_path / "trace")])
    run = prepare_seed_run(config, config.training.seed)

    def refuse(*args, **kwargs):
        raise AssertionError("the command retrained the trace")

    monkeypatch.setattr(gantrace.cli, "prepare_seed_run", refuse)
    monkeypatch.setattr(gantrace.experiments, "prepare_seed_run", refuse)
    common = ["--config", str(path), "--trace", str(tmp_path / "trace"), "--k", "1"]
    assert cli_main(["influence", *common, "--out", str(tmp_path / "scores.csv")]) == 0
    assert cli_main(["oracle", *common, "--targets", "4",
                     "--out", str(tmp_path / "oracle.csv")]) == 0
    spec = MetricSpec("all")
    query = build_query_vector(spec, config.problem(), run.trace.final_params,
                               run.reference_latents, run.context)
    table = infer_linear_influence(config.problem(), run.trace, run.dataset, query,
                                   k_epochs=1)
    scores = json.loads((tmp_path / "scores.json").read_text())["scores"]
    assert all(scores[str(j)] == table.scores[j] for j in range(len(run.dataset)))
    rows = list(csv.DictReader(open(tmp_path / "oracle.csv")))
    for row in rows:
        target = int(row["index"])
        replay = counterfactual_retrain(config.problem(), run.trace, run.dataset, target, 1)
        assert float(row["true_influence"]) == true_influence_on_metric(
            config.problem(), run.trace.final_params, replay.params, spec,
            run.reference_latents, run.context)
        assert float(row["estimated_influence"]) == table.scores[target]


@pytest.fixture(scope="module")
def digits_trace(tmp_path_factory):
    """A ``gantrace train`` trace of the bundled IS/FID smoke config."""
    trace = tmp_path_factory.mktemp("digits") / "trace"
    assert cli_main(["train", "--config", str(CONFIGS / "digits8_smoke.ini"),
                     "--out", str(trace)]) == 0
    return trace


def _influence_and_oracle(trace: Path, out: Path) -> dict[str, bytes]:
    out.mkdir()
    common = ["--config", str(CONFIGS / "digits8_smoke.ini"), "--trace", str(trace), "--k", "1"]
    assert cli_main(["influence", *common, "--metric", "is",
                     "--out", str(out / "scores.csv")]) == 0
    assert cli_main(["oracle", *common, "--targets", "3",
                     "--out", str(out / "oracle.csv")]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_cli_influence_and_oracle_load_the_stored_classifier(digits_trace, tmp_path,
                                                              capsys, monkeypatch):
    trace = tmp_path / "trace"
    shutil.copytree(digits_trace, trace)

    def refuse(*args, **kwargs):
        raise AssertionError("the command retrained the classifier")

    with monkeypatch.context() as patch:
        patch.setattr(gantrace.experiments, "train_classifier", refuse)
        loaded = _influence_and_oracle(trace, tmp_path / "loaded")
    shutil.rmtree(trace / "classifier")
    trained = _influence_and_oracle(trace, tmp_path / "trained")
    assert set(loaded) == {"oracle.csv", "scores.csv", "scores.json"}
    assert loaded == trained


def test_stored_classifier_with_another_key_is_retrained(digits_trace, tmp_path, monkeypatch):
    config = load_config(CONFIGS / "digits8_smoke.ini")
    changed = _with(config, classifier=_with(config.classifier, epochs=5))
    calls = []
    original = gantrace.experiments.train_classifier

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(gantrace.experiments, "train_classifier", counting)
    seed = config.training.seed
    _, stored = evaluation_context(config, seed, digits_trace / "classifier")
    assert calls == []
    latents, context = evaluation_context(changed, seed, digits_trace / "classifier")
    assert len(calls) == 1
    fresh_latents, fresh = evaluation_context(changed, seed)
    assert latents.tobytes() == fresh_latents.tobytes()
    assert context.real_data.tobytes() == fresh.real_data.tobytes()
    assert context.classifier.params.tobytes() == fresh.classifier.params.tobytes()
    assert context.classifier.key == fresh.classifier.key != stored.classifier.key


@pytest.mark.parametrize("field, value", [("feature_layer", None), ("sizes", None),
                                          ("feature_layer", 2), ("feature_layer", -1)])
def test_cli_influence_rejects_a_stored_classifier_manifest_it_cannot_use(
        digits_trace, tmp_path, capsys, field, value):
    trace = tmp_path / "trace"
    shutil.copytree(digits_trace, trace)
    path = trace / "classifier" / "manifest.json"
    manifest = json.loads(path.read_text())
    if value is None:
        del manifest[field]
    else:
        manifest[field] = value
    path.write_text(json.dumps(manifest))
    # A missing field is named; an edited one fails the checksum, which
    # covers the manifest's fields as well as the parameters.
    with pytest.raises(ValueError, match=f"field '{field}' is missing" if value is None
                       else "checksum"):
        load_classifier(trace / "classifier")
    code = cli_main(["influence", "--config", str(CONFIGS / "digits8_smoke.ini"),
                     "--trace", str(trace), "--out", str(tmp_path / "scores.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(path) in err
    assert not (tmp_path / "scores.csv").exists()


@pytest.mark.parametrize("feature_layer", [2, 5, -1])
def test_feature_layer_outside_the_hidden_layers_is_refused(tmp_path, capsys, feature_layer):
    overrides = {"evaluation.feature_layer": str(feature_layer)}
    with pytest.raises(ValueError, match="not a hidden layer"):
        load_config(CONFIGS / "digits8_smoke.ini", overrides)
    with pytest.raises(ValueError, match="not a hidden layer"):
        ClassifierSettings(hidden=(64, 32), feature_layer=feature_layer)
    path = tmp_path / "digits.ini"
    path.write_text((CONFIGS / "digits8_smoke.ini").read_text().replace(
        "feature_layer = 1", f"feature_layer = {feature_layer}"))
    assert cli_main(["train", "--config", str(path), "--out", str(tmp_path / "trace")]) == 1
    assert "not a hidden layer" in capsys.readouterr().err
    assert not (tmp_path / "trace").exists()


def test_stored_classifier_leaves_the_trace_alone(digits_trace, tmp_path):
    config = load_config(CONFIGS / "digits8_smoke.ini")
    expected = trace_checksum(prepare_seed_run(config, config.training.seed).trace)
    trace = tmp_path / "trace"
    shutil.copytree(digits_trace, trace)
    with_classifier = load_trace(trace)
    shutil.rmtree(trace / "classifier")
    without = load_trace(trace)
    assert trace_checksum(with_classifier) == trace_checksum(without) == expected
    assert np.array_equal(with_classifier.final_params, without.final_params)


def test_cli_train_without_classifier_metrics_stores_no_classifier(mini_config, tmp_path,
                                                                   capsys, monkeypatch):
    _, path = mini_config

    def refuse(*args, **kwargs):
        raise AssertionError("train trained a classifier for an `all`-only config")

    monkeypatch.setattr(gantrace.experiments, "train_classifier", refuse)
    assert cli_main(["train", "--config", str(path), "--out", str(tmp_path / "trace")]) == 0
    assert not (tmp_path / "trace" / "classifier").exists()


def _with(config, **changes):
    from dataclasses import replace

    return replace(config, **changes)


# -- command line -----------------------------------------------------------------

def test_cli_train_is_deterministic(mini_config, tmp_path, capsys):
    _, path = mini_config
    assert cli_main(["train", "--config", str(path), "--out", str(tmp_path / "t1")]) == 0
    first = capsys.readouterr().out
    assert cli_main(["train", "--config", str(path), "--out", str(tmp_path / "t2")]) == 0
    second = capsys.readouterr().out
    checksum1 = first.split("checksum: ")[1].strip()
    checksum2 = second.split("checksum: ")[1].strip()
    assert checksum1 == checksum2
    trace = load_trace(tmp_path / "t1")
    assert trace.n_steps == 6


def test_cli_influence_refuses_fingerprint_mismatch(mini_config, tmp_path, capsys):
    _, path = mini_config
    assert cli_main(["train", "--config", str(path), "--out", str(tmp_path / "trace")]) == 0
    capsys.readouterr()
    code = cli_main(["influence", "--config", str(path), "--seed", "99",
                     "--trace", str(tmp_path / "trace"),
                     "--out", str(tmp_path / "scores.csv")])
    assert code == 1
    assert "fingerprint" in capsys.readouterr().err


@pytest.fixture(scope="module")
def mini_trace(tmp_path_factory):
    """The mini config and its ``gantrace train`` traces for seeds 3 and 4."""
    root = tmp_path_factory.mktemp("mini")
    config = root / "mini.ini"
    config.write_text(MINI_CONFIG)
    for seed in (3, 4):
        assert cli_main(["train", "--config", str(config), "--seed", str(seed),
                         "--out", str(root / f"seed{seed}")]) == 0
    return config, root / "seed3", root / "seed4"


def _flip_last_byte(path: Path) -> None:
    blob = path.read_bytes()
    path.write_bytes(blob[:-1] + bytes([blob[-1] ^ 0x01]))


def _cut_in_half(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])


def _rewrite_manifest(path: Path, **changes) -> None:
    path.write_text(json.dumps({**json.loads(path.read_text()), **changes}))


def _drop_from_manifest(path: Path, field: str) -> None:
    manifest = json.loads(path.read_text())
    del manifest[field]
    path.write_text(json.dumps(manifest))


# The arrays a checked directory may hold, in checksum order.
_CHECKSUM_ORDER = ("batch_indices", "batch_sizes", "latent_seeds", "rates", "params")


def _retyped(directory: Path, arrays=None, **changes) -> None:
    """Store ``directory`` again with ``changes`` in its manifest's header,
    ``arrays`` in place of the stored arrays of their names, and the checksum
    recomputed over them, so that only what changed is wrong."""
    manifest = {**json.loads((directory / "manifest.json").read_text()), **changes}
    arrays = {name: np.load(directory / f"{name}.npy") for name in _CHECKSUM_ORDER
              if (directory / f"{name}.npy").exists()} | (arrays or {})
    save_checked(directory, {key: value for key, value in manifest.items()
                             if key not in ("version", "checksum")},
                 {name: (array.dtype.str, array.shape, [array]) for name, array in arrays.items()})


def _edited_array(directory: Path, name: str, edit) -> dict:
    """``{name: edit(a)}`` for the stored array ``name``, read as ``a``."""
    return {name: edit(np.load(directory / f"{name}.npy"))}


def _drop_last(array):
    return array[:-1]


def _set_entry(array, index, value):
    array[index] = value
    return array


def _merge_first_batches(sizes):
    sizes[0] += sizes[1]
    sizes[1] = 0
    return sizes


# Damage to a stored directory, written by ``training.save_checked``, and the
# text its refusal must hold.  ``other`` is a directory of the same kind with
# other contents.  A trace and the digits trace's classifier/ both hold
# params.npy; the cases past ``_DAMAGE`` touch what only one of them holds.
_DAMAGE = {
    "no manifest": (lambda t, other: (t / "manifest.json").unlink(), "manifest.json"),
    "truncated manifest": (lambda t, other: _cut_in_half(t / "manifest.json"),
                           "manifest.json"),
    "v1 manifest": (lambda t, other: _rewrite_manifest(t / "manifest.json", version=1),
                    "gantrace train"),
    # As stored before the classifier shared the trace's format.
    "unversioned manifest": (lambda t, other: _drop_from_manifest(t / "manifest.json",
                                                                  "version"), "gantrace train"),
    "empty params": (lambda t, other: (t / "params.npy").write_bytes(b""), "params.npy"),
    "truncated params": (lambda t, other: _cut_in_half(t / "params.npy"), "params.npy"),
    "flipped params byte": (lambda t, other: _flip_last_byte(t / "params.npy"), "checksum"),
    # The same bytes under a big-endian header: the checksum covers the data only.
    "byte-swapped params header": (lambda t, other: (t / "params.npy").write_bytes(
        (t / "params.npy").read_bytes().replace(b"'<f8'", b"'>f8'", 1)), "checksum"),
    # An overwrite cut before its manifest: new arrays under the old manifest.
    "interrupted overwrite": (lambda t, other: [shutil.copy(path, t)
                                                for path in other.glob("*.npy")], "checksum"),
}

_TRACE_DAMAGE = {
    **_DAMAGE,
    "flipped batch byte": (lambda t, other: _flip_last_byte(t / "batch_indices.npy"),
                           "checksum"),
    "missing rates": (lambda t, other: (t / "rates.npy").unlink(), "rates.npy"),
    "string epochs": (lambda t, other: _retyped(t, epochs="5"), "field 'epochs' is '5', not int"),
    "float epoch start": (lambda t, other: _retyped(t, epoch_starts=[0, 10.0]),
                          "field 'epoch_starts' entry 1 is 10.0, not int"),
}

# A classifier with no manifest is an interrupted first save, and is trained again.
_CLASSIFIER_DAMAGE = {
    **{name: case for name, case in _DAMAGE.items() if name != "no manifest"},
    "feature_layer 1 to 0": (lambda t, other: _rewrite_manifest(t / "manifest.json",
                                                                feature_layer=0), "checksum"),
    "boolean feature_layer": (lambda t, other: _retyped(t, feature_layer=True),
                              "field 'feature_layer' is True, not int"),
    "numeric key": (lambda t, other: _retyped(t, key=7), "field 'key' is 7, not str"),
    "huge integer train_accuracy": (lambda t, other: _retyped(t, train_accuracy=10**400),
                                    "field 'train_accuracy' is an integer too large for a float"),
    "one parameter short": (lambda t, other: _retyped(t, _edited_array(t, "params", _drop_last)),
                            "params of shape"),
    "n_classes 4 to 3": (lambda t, other: _retyped(t, n_classes=3), "n_classes 3 is not"),
    "one activation fewer": (lambda t, other: _retyped(t, activations=["tanh", "tanh"]),
                             "need one activation per layer"),
}


# Damage to a stored trace's arrays or epoch starts, stored with the checksum
# recomputed, so that only the steps they describe disagree; and the array
# that the refusal must name.
_STEP_DAMAGE = {
    "batch index 5000": ("batch_indices", lambda a: _set_entry(a, 7, 5000)),
    "batch index -1": ("batch_indices", lambda a: _set_entry(a, 7, -1)),
    "one batch size fewer": ("batch_sizes", _drop_last),
    "one rate row fewer": ("rates", _drop_last),
    "one latent seed fewer": ("latent_seeds", _drop_last),
    "one snapshot fewer": ("params", _drop_last),
    "a column of rates fewer": ("rates", lambda a: a[:, :1]),
    "an empty batch": ("batch_sizes", _merge_first_batches),
    "sizes one short of the indices": ("batch_sizes", lambda a: _set_entry(a, -1, a[-1] - 1)),
    "epoch start 50": ("epoch_starts", [0, 50]),
    "epoch start 6": ("epoch_starts", [0, 6]),
    "epoch starts from 1": ("epoch_starts", [1, 3]),
    "repeated epoch start": ("epoch_starts", [0, 0]),
    "one epoch start fewer": ("epoch_starts", [0]),
}


@pytest.mark.parametrize("damage", list(_TRACE_DAMAGE))
def test_cli_influence_rejects_old_or_damaged_traces(mini_trace, tmp_path, capsys, damage):
    config, trace, other = mini_trace
    copy = tmp_path / "trace"
    shutil.copytree(trace, copy)
    damage_fn, expected = _TRACE_DAMAGE[damage]
    damage_fn(copy, other)
    out = tmp_path / "scores.csv"
    code = cli_main(["influence", "--config", str(config), "--trace", str(copy),
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert expected in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["influence", "oracle"])
@pytest.mark.parametrize("damage", list(_STEP_DAMAGE))
def test_cli_refuses_a_trace_whose_arrays_disagree(mini_trace, tmp_path, capsys, damage,
                                                   command):
    # The mini trace has 6 steps of 20 rows in 2 epochs starting at steps 0 and 3.
    config, trace, _ = mini_trace
    copy = tmp_path / "trace"
    shutil.copytree(trace, copy)
    name, edit = _STEP_DAMAGE[damage]
    if name == "epoch_starts":
        _retyped(copy, epoch_starts=edit)
    else:
        _retyped(copy, _edited_array(copy, name, edit))
    out = tmp_path / "out.csv"
    code = cli_main([command, "--config", str(config), "--trace", str(copy), "--k", "1",
                     "--targets", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {copy}: ") and err.count("\n") == 1
    assert name in err and "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def other_classifier(digits_trace, tmp_path_factory):
    """The digits classifier stored again with its parameters reversed."""
    classifier = load_classifier(digits_trace / "classifier")
    classifier.params = classifier.params[::-1].copy()
    directory = tmp_path_factory.mktemp("other") / "classifier"
    save_classifier(classifier, directory)
    return directory


@pytest.mark.parametrize("damage", list(_CLASSIFIER_DAMAGE))
def test_cli_influence_rejects_a_damaged_stored_classifier(digits_trace, other_classifier,
                                                           tmp_path, capsys, damage):
    trace = tmp_path / "trace"
    shutil.copytree(digits_trace, trace)
    damage_fn, expected = _CLASSIFIER_DAMAGE[damage]
    damage_fn(trace / "classifier", other_classifier)
    out = tmp_path / "scores.csv"
    code = cli_main(["influence", "--config", str(CONFIGS / "digits8_smoke.ini"),
                     "--metric", "fid", "--trace", str(trace), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert expected in err and str(trace / "classifier") in err
    assert not out.exists()


def test_stored_classifier_without_a_manifest_is_trained_again(digits_trace, tmp_path,
                                                               monkeypatch):
    trace = tmp_path / "trace"
    shutil.copytree(digits_trace, trace)
    (trace / "classifier" / "manifest.json").unlink()
    calls = []
    original = gantrace.experiments.train_classifier

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(gantrace.experiments, "train_classifier", counting)
    config = load_config(CONFIGS / "digits8_smoke.ini")
    _, retrained = evaluation_context(config, config.training.seed, trace / "classifier")
    _, stored = evaluation_context(config, config.training.seed, digits_trace / "classifier")
    assert len(calls) == 1
    assert retrained.classifier.params.tobytes() == stored.classifier.params.tobytes()


def test_saved_trace_is_the_manifest_and_five_arrays(mini_trace):
    _, trace, _ = mini_trace
    assert sorted(path.name for path in trace.iterdir()) == [
        "batch_indices.npy", "batch_sizes.npy", "latent_seeds.npy", "manifest.json",
        "params.npy", "rates.npy"]
    manifest = json.loads((trace / "manifest.json").read_text())
    assert manifest["version"] == 2
    assert manifest["checksum"] == trace_checksum(load_trace(trace))


def test_cli_influence_writes_scores(mini_config, tmp_path, capsys):
    _, path = mini_config
    cli_main(["train", "--config", str(path), "--out", str(tmp_path / "trace")])
    code = cli_main(["influence", "--config", str(path),
                     "--trace", str(tmp_path / "trace"), "--k", "1",
                     "--out", str(tmp_path / "scores.csv")])
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "scores.csv")))
    assert len(rows) == 60
    payload = json.loads((tmp_path / "scores.json").read_text())
    assert payload["metric"] == "all" and payload["k_epochs"] == 1


def test_cli_oracle_writes_joint_csv(mini_config, tmp_path, capsys):
    _, path = mini_config
    cli_main(["train", "--config", str(path), "--out", str(tmp_path / "trace")])
    code = cli_main(["oracle", "--config", str(path), "--trace", str(tmp_path / "trace"),
                     "--targets", "4", "--k", "1", "--out", str(tmp_path / "oracle.csv")])
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "oracle.csv")))
    assert len(rows) == 4
    assert set(rows[0]) == {"index", "metric", "true_influence", "estimated_influence"}


def test_cli_target_subsets_are_the_accuracy_targets(mini_config, tmp_path, capsys,
                                                    monkeypatch):
    config, path = mini_config
    trace = str(tmp_path / "trace")
    cli_main(["train", "--config", str(path), "--out", trace])
    assert cli_main(["influence", "--config", str(path), "--trace", trace, "--k", "1",
                     "--targets", "8", "--out", str(tmp_path / "scores.csv")]) == 0
    assert cli_main(["oracle", "--config", str(path), "--trace", trace, "--k", "1",
                     "--targets", "8", "--out", str(tmp_path / "oracle.csv")]) == 0
    drawn = []
    draw = gantrace.experiments.draw_targets

    def recording(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(gantrace.experiments, "draw_targets", recording)
    run_estimation_accuracy(config, seeds=[config.training.seed])
    expected = draw_targets(config, config.training.seed, config.n_targets).tolist()
    assert [d.tolist() for d in drawn] == [expected]
    for table in ("scores.csv", "oracle.csv"):
        rows = csv.DictReader(open(tmp_path / table))
        assert [int(row["index"]) for row in rows] == expected


def test_cli_csv_cells_are_plain_floats(mini_config, tmp_path, capsys):
    _, path = mini_config
    cli_main(["train", "--config", str(path), "--out", str(tmp_path / "trace")])
    assert cli_main(["influence", "--config", str(path), "--trace", str(tmp_path / "trace"),
                     "--k", "1", "--out", str(tmp_path / "scores.csv")]) == 0
    assert cli_main(["oracle", "--config", str(path), "--trace", str(tmp_path / "trace"),
                     "--targets", "4", "--k", "1", "--out", str(tmp_path / "oracle.csv")]) == 0
    scores = list(csv.DictReader(open(tmp_path / "scores.csv")))
    oracle = list(csv.DictReader(open(tmp_path / "oracle.csv")))
    for row in scores + oracle:
        for column, cell in row.items():
            if column != "metric":
                float(cell)
    twin = json.loads((tmp_path / "scores.json").read_text())["scores"]
    assert {row["index"]: float(row["score"]) for row in scores} == twin


def test_cli_accuracy_smoke(mini_config, tmp_path, capsys):
    _, path = mini_config
    code = cli_main(["accuracy", "--config", str(path), "--k", "1", "--targets", "8",
                     "--out", str(tmp_path / "acc")])
    assert code == 0
    assert (tmp_path / "acc" / "accuracy.csv").exists()
    assert "tau=" in capsys.readouterr().out


def test_cli_cleanse_and_report_smoke(mini_trace, tmp_path, capsys):
    path, trace, _ = mini_trace
    code = cli_main(["cleanse", "--config", str(path), "--n-harmful", "6",
                     "--seeds", "1", "--out", str(tmp_path / "cl")])
    assert code == 0
    assert cli_main(["influence", "--config", str(path), "--trace", str(trace), "--k", "1",
                     "--out", str(tmp_path / "scores.csv")]) == 0
    code = cli_main(["report", "--config", str(path), "--scores", str(tmp_path / "scores.csv"),
                     "--from", str(tmp_path / "cl"), "--out", str(tmp_path / "plots")])
    assert code == 0
    assert (tmp_path / "plots" / "cleansing_curves.csv").exists()
    assert (tmp_path / "plots" / "harmfulness_scatter.csv").exists()


CLEANSING_ROW = {"method": "random", "metric": "all", "n_harmful": 6, "before": 1.0,
                 "after": 0.5, "improvement": -0.5, "seed": 3}


def cleansing_json(**row):
    """A cleansing report of one row: ``CLEANSING_ROW`` with ``row``'s
    fields changed, or dropped where given as ``...``."""
    row = {key: value for key, value in {**CLEANSING_ROW, **row}.items() if value is not ...}
    return json.dumps({"rows": [row], "fingerprints": {"3": "f" * 64}})


@pytest.mark.parametrize("text, message", [
    (cleansing_json(improvement=...), "row 0 field 'improvement' is missing"),
    (json.dumps({"rows": 5, "fingerprints": {}}), "field 'rows' is 5, not list"),
    ('{"rows": [{"method": "ran', "cannot read"),
    (cleansing_json(improvement="abc"), "row 0 field 'improvement' is 'abc', not float"),
    (cleansing_json(improvement=None), "row 0 field 'improvement' is None, not float"),
    (cleansing_json(n_harmful="6"), "row 0 field 'n_harmful' is '6', not int"),
    (cleansing_json(seed=True), "row 0 field 'seed' is True, not int"),
    (cleansing_json(selected=6), "row 0 field 'selected' is unknown"),
    (json.dumps({"rows": [CLEANSING_ROW]}), "field 'fingerprints' is missing"),
    (json.dumps({"rows": ["random"], "fingerprints": {}}), "row 0 is not an object"),
    (json.dumps({"rows": [], "fingerprints": {"01": "f" * 64}}),
     "field 'fingerprints' key '01' is not str(i) for an integer i >= 0"),
    (json.dumps({"rows": [], "fingerprints": {"\u00b2": "f" * 64}}),
     "field 'fingerprints' key '\u00b2' is not str(i) for an integer i >= 0"),
    (cleansing_json(before=10**400), "row 0 field 'before' is an integer too large for a float"),
], ids=["row_without_improvement", "rows_not_a_list", "truncated", "string_improvement",
        "null_improvement", "string_n_harmful", "boolean_seed", "unknown_field",
        "no_fingerprints", "row_not_an_object", "leading_zero_seed", "superscript_seed",
        "huge_integer_before"])
def test_cli_report_refuses_a_malformed_cleansing_json(mini_config, tmp_path, capsys, text,
                                                       message):
    _, path = mini_config
    (tmp_path / "cl").mkdir()
    (tmp_path / "cl" / "cleansing.json").write_text(text)
    out = tmp_path / "plots"
    assert cli_main(["report", "--config", str(path),
                     "--from", str(tmp_path / "cl"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert str(tmp_path / "cl" / "cleansing.json") in err and message in err
    assert not out.exists()


def test_read_report_converts_each_field_by_its_annotation(tmp_path):
    # An integer where a float belongs is read as a float, and a seed key as an int.
    (tmp_path / "cleansing.json").write_text(cleansing_json(before=1, after=0))
    report = read_report(tmp_path, "cleansing")
    assert report.fingerprints == {3: "f" * 64}
    assert [type(getattr(report.rows[0], name)) for name in ("before", "after", "seed")] == \
        [float, float, int]


def test_cli_report_reads_the_influence_table(mini_trace, tmp_path, monkeypatch, capsys):
    # The scatter comes from the table `influence` wrote: no trace is read,
    # trained or swept, and the bytes are those of the in-process table.
    path, trace, _ = mini_trace
    config = load_config(path)
    run = prepare_seed_run(config, config.training.seed)
    spec = config.metric_specs()[0]
    write_scatter_data(run.influence(spec, k_epochs=1), run.dataset, spec,
                       tmp_path / "in_process.csv")
    assert cli_main(["influence", "--config", str(path), "--trace", str(trace), "--k", "1",
                     "--out", str(tmp_path / "scores.csv")]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("report read, trained or swept a trace")

    for name in ("load_trace", "run_training", "infer_linear_influence"):
        monkeypatch.setattr(gantrace.experiments, name, refuse)
    assert cli_main(["report", "--config", str(path), "--from", str(tmp_path),
                     "--scores", str(tmp_path / "scores.csv"),
                     "--out", str(tmp_path / "plots")]) == 0
    assert ((tmp_path / "plots" / "harmfulness_scatter.csv").read_bytes()
            == (tmp_path / "in_process.csv").read_bytes())


@pytest.fixture(scope="module")
def mini_twins(mini_trace):
    """The JSON twins of `influence --k 1` on the mini traces of seeds 3 and 4."""
    path, trace, other_seed_trace = mini_trace
    twins = {}
    for seed, stored in ((3, trace), (4, other_seed_trace)):
        out = stored.parent / f"scores{seed}.csv"
        assert cli_main(["influence", "--config", str(path), "--seed", str(seed),
                         "--trace", str(stored), "--k", "1", "--out", str(out)]) == 0
        twins[seed] = json.loads(out.with_suffix(".json").read_text())
    return twins


def _edited(twin, **fields):
    """``twin`` with ``fields`` changed, or dropped where given as ``...``."""
    return {key: value for key, value in {**twin, **fields}.items() if value is not ...}


@pytest.mark.parametrize("config_name, text, message", [
    ("mini", lambda twins: json.dumps(twins[4]), "does not match the config fingerprint"),
    ("mini", lambda twins: json.dumps(twins[3])[:200], "cannot read"),
    ("mini", lambda twins: json.dumps(_edited(twins[3], trace_fingerprint=...)),
     "field 'trace_fingerprint' is missing"),
    ("mini", lambda twins: json.dumps(_edited(twins[3], bandwidth=1.0)),
     "field 'bandwidth' is unknown"),
    ("mini", lambda twins: json.dumps(_edited(twins[3], scores={**twins[3]["scores"],
                                                                "7": "abc"})),
     "field 'scores' entry '7' is 'abc', not float"),
    ("mini", lambda twins: json.dumps(_edited(twins[3], scores={**twins[3]["scores"],
                                                                "60": 0.5})),
     "score index 60 is outside [0, 60)"),
    ("mini", lambda twins: json.dumps(_edited(twins[3], scores={**twins[3]["scores"],
                                                                "03": 0.9})),
     "field 'scores' key '03' is not str(i) for an integer i >= 0"),
    ("mini", lambda twins: json.dumps(_edited(twins[3], scores={**twins[3]["scores"],
                                                                "\u0663": 0.7})),
     "field 'scores' key '\u0663' is not str(i) for an integer i >= 0"),
    ("mini", lambda twins: json.dumps(_edited(twins[3], scores={**twins[3]["scores"],
                                                                "7": 10**400})),
     "field 'scores' entry '7' is an integer too large for a float"),
    ("digits8_smoke", lambda twins: json.dumps(twins[3]), "needs 2-d data"),
], ids=["another_seed", "truncated", "missing_field", "unknown_field", "non_numeric_score",
        "index_outside_the_training_set", "leading_zero_index", "arabic_indic_index",
        "huge_integer_score", "digits_data"])
def test_cli_report_refuses_an_influence_table_it_cannot_use(mini_trace, mini_twins, tmp_path,
                                                             capsys, config_name, text,
                                                             message):
    path = mini_trace[0] if config_name == "mini" else CONFIGS / f"{config_name}.ini"
    scores = tmp_path / "table.csv"
    scores.with_suffix(".json").write_text(text(mini_twins))
    out = tmp_path / "plots"
    assert cli_main(["report", "--config", str(path), "--from", str(tmp_path),
                     "--scores", str(scores), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert str(tmp_path / "table.") in err and message in err
    assert not out.exists()


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_rewritten_checked_directories_are_byte_identical(mini_trace, digits_trace, tmp_path):
    # A trace or classifier read back and stored again gives the same
    # manifest and arrays, byte for byte, and each manifest has its keys sorted.
    trace = mini_trace[1]
    save_trace(load_trace(trace), tmp_path / "trace")
    assert _files(tmp_path / "trace") == _files(trace)
    stored = digits_trace / "classifier"
    save_classifier(load_classifier(stored), tmp_path / "classifier")
    assert _files(tmp_path / "classifier") == _files(stored)
    for manifest in (trace / "manifest.json", stored / "manifest.json"):
        text = manifest.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)


@pytest.mark.parametrize("flags", [[], ["--targets", "8"]], ids=["full", "subset"])
def test_rewritten_influence_table_is_byte_identical(mini_trace, tmp_path, flags):
    path, trace, _ = mini_trace
    written = tmp_path / "written" / "scores.csv"
    written.parent.mkdir()
    assert cli_main(["influence", "--config", str(path), "--trace", str(trace), "--k", "1",
                     *flags, "--out", str(written)]) == 0
    table = read_influence_table(written, load_trace(trace).fingerprint, 60)
    assert len(table.scores) == (8 if flags else 60)
    again = tmp_path / "again" / "scores.csv"
    again.parent.mkdir()
    write_influence_table(table, again)
    assert _files(again.parent) == _files(written.parent)


def test_rewritten_reports_are_byte_identical(tmp_path):
    # A NaN tau and p-value, which ``read_report(...) == report`` cannot
    # compare, are written back as they were read.
    nan = float("nan")
    reports = [
        Report("accuracy", [AccuracyRow("all", 1, 0.1 + 0.2, 1.0, 8, 3, 1 / 201, 0.5),
                            AccuracyRow("disc_loss", 2, nan, 0.0, 8, 4, nan, nan)],
               {3: "a" * 64, 4: "b" * 64}),
        Report("cleansing", [CleansingRow("influence", "all", 6, -0.0, 1e-300, 1e-300, 3)],
               {3: "c" * 64}),
    ]
    for report in reports:
        write_report(report, tmp_path / "written")
        write_report(read_report(tmp_path / "written", report.name), tmp_path / "again")
    assert '"tau": NaN' in (tmp_path / "written" / "accuracy.json").read_text()
    assert _files(tmp_path / "again") == _files(tmp_path / "written")


def test_cli_accuracy_on_bundled_config(tmp_path, capsys):
    bundled = CONFIGS / "normal2d_desk.ini"
    code = cli_main(["accuracy", "--config", str(bundled), "--k", "1",
                     "--targets", "10", "--out", str(tmp_path / "acc")])
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "acc" / "accuracy.csv")))
    assert len(rows) == 1 and rows[0]["metric"] == "all"


def test_cli_divergence_exits_two(mini_config, tmp_path, capsys):
    _, path = mini_config
    code = cli_main(["train", "--config", str(path), "--out", str(tmp_path / "t")],)
    assert code == 0
    capsys.readouterr()
    bad = tmp_path / "diverge.ini"
    bad.write_text(MINI_CONFIG.replace("lr_gen = 1e-3", "lr_gen = 1e6")
                   .replace("lr_disc = 1e-3", "lr_disc = 1e6"))
    code = cli_main(["train", "--config", str(bad), "--out", str(tmp_path / "d")])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_cli_non_finite_values_exit_two(mini_config, tmp_path, monkeypatch, capsys):
    _, path = mini_config

    def non_finite(*args, **kwargs):
        raise NonFiniteError("non-finite values in joint_gradient")

    monkeypatch.setattr(gantrace.experiments, "run_training", non_finite)
    code = cli_main(["train", "--config", str(path), "--out", str(tmp_path / "t")])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_bandwidth_trace(tmp_path_factory):
    """The bundled desk config at bandwidth 1.5e-154, just above the floor
    ``MetricSpec`` allows, and its ``gantrace train`` trace."""
    root = tmp_path_factory.mktemp("tiny_bandwidth")
    config = root / "desk.ini"
    config.write_text((CONFIGS / "normal2d_desk.ini").read_text()
                      .replace("bandwidth = 1.0", "bandwidth = 1.5e-154"))
    assert cli_main(["train", "--config", str(config), "--out", str(root / "trace")]) == 0
    return config, root / "trace"


@pytest.mark.parametrize("command, flags", [("influence", []), ("oracle", ["--targets", "2"])])
def test_cli_kde_overflow_is_one_numerical_failure(tiny_bandwidth_trace, tmp_path, capsys,
                                                   command, flags):
    # The KDE's scaled distances would overflow: one line and exit 2, with
    # no NumPy warning before it.
    config, trace = tiny_bandwidth_trace
    capsys.readouterr()
    out = tmp_path / "out.csv"
    code = cli_main([command, "--config", str(config), "--trace", str(trace), "--k", "1",
                     *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("numerical failure: the KDE overflows at bandwidth 1.5e-154")
    assert err.count("\n") == 1
    assert not out.exists()


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports ``gantrace`` from this checkout."""
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _run_module(*args: str) -> subprocess.CompletedProcess:
    """``python -m gantrace`` from this checkout, as a user without the script runs it."""
    return _run_python("-m", "gantrace", *args)


def test_python_dash_m_runs_the_cli():
    result = _run_module("--help")
    assert result.returncode == 0
    assert "influence" in result.stdout


def test_cli_import_leaves_scipy_stats_out():
    """``scipy.stats`` takes about half a second to import, and
    ``scipy.ndimage`` serves only the IDX reader, so no CLI command pays for
    either at start-up."""
    result = _run_python("-c", "import sys, gantrace.cli; print('scipy.stats' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
    result = _run_python("-c", "import sys, gantrace.cli; print('scipy.ndimage' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
    script = ("import sys, gantrace, gantrace.cli\n"
              "print([name for name in sys.modules\n"
              "       if name == 'scipy' or name.startswith('scipy.')])")
    result = _run_python("-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_chain_runs_with_scipy_blocked(mini_trace, tmp_path):
    """SciPy is a test dependency only: ``train``, ``influence``, ``oracle``
    and a resizing IDX read all run where ``import scipy`` fails."""
    config, _, _ = mini_trace
    images = np.arange(2 * 10 * 10).reshape(2, 10, 10).astype(np.uint8)
    (tmp_path / "imgs.idx").write_bytes(struct.pack(">BBBBIII", 0, 0, 0x08, 3, 2, 10, 10)
                                        + images.tobytes())
    script = textwrap.dedent("""\
        import sys
        sys.modules["scipy"] = None
        from gantrace.cli import main
        from gantrace.datasets import load_idx_images
        config, out = sys.argv[1:]
        trace = out + "/trace"
        codes = [main(["train", "--config", config, "--out", trace]),
                 main(["influence", "--config", config, "--trace", trace,
                       "--out", out + "/scores.csv"]),
                 main(["oracle", "--config", config, "--trace", trace, "--targets", "3",
                       "--out", out + "/oracle.csv"])]
        data, _ = load_idx_images(out + "/imgs.idx", side=6)
        print(codes, data.shape)
        """)
    result = _run_python("-c", script, str(config), str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[0, 0, 0] (2, 36)"


def test_package_loads_no_autodiff_tape():
    """The closed-form kernels are the package's one differentiation engine;
    the tape that checks them lives with the tests."""
    script = ("import sys, gantrace, gantrace.cli\n"
              "print(sorted(f'{name}.{attr}' for name, module in sys.modules.items()\n"
              "             if name.startswith('gantrace') and module is not None\n"
              "             for attr in ('Tensor', 'backward') if hasattr(module, attr)))")
    result = _run_python("-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_influence_refuses_an_unconfigured_metric(mini_config, tmp_path, capsys):
    _, path = mini_config
    assert cli_main(["train", "--config", str(path), "--out", str(tmp_path / "trace")]) == 0
    result = _run_module("influence", "--config", str(path), "--trace", str(tmp_path / "trace"),
                         "--metric", "fid", "--out", str(tmp_path / "scores.csv"))
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "fid" in result.stderr and "all" in result.stderr
    assert not (tmp_path / "scores.csv").exists()


@pytest.mark.parametrize("command", ["influence", "oracle"])
@pytest.mark.parametrize("count", ["-3", "5000", "0"])
def test_cli_targets_outside_the_training_set_are_refused(mini_config, tmp_path, capsys,
                                                          command, count):
    # The trace named does not exist: the count is refused before it is read.
    _, path = mini_config
    out = tmp_path / "out.csv"
    assert cli_main([command, "--config", str(path), "--trace", str(tmp_path / "missing"),
                     "--targets", count, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --targets {count} is outside [1, 60]\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["influence", "oracle"])
@pytest.mark.parametrize("k", ["0", "9"])
def test_cli_k_outside_the_epochs_is_refused(mini_config, tmp_path, capsys, command, k):
    # The trace named does not exist: the depth is refused before it is read.
    _, path = mini_config
    out = tmp_path / "out.csv"
    assert cli_main([command, "--config", str(path), "--trace", str(tmp_path / "missing"),
                     "--k", k, "--targets", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --k {k} is outside [1, 2]\n"
    assert not out.exists()


def test_cli_train_into_an_existing_file_exits_one(mini_config, tmp_path, capsys):
    _, path = mini_config
    (tmp_path / "taken").write_text("")
    assert cli_main(["train", "--config", str(path), "--out", str(tmp_path / "taken")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err and "taken" in err


def test_cli_influence_into_an_existing_directory_exits_one(mini_trace, tmp_path, capsys):
    config, trace, _ = mini_trace
    (tmp_path / "scores.csv").mkdir()
    assert cli_main(["influence", "--config", str(config), "--trace", str(trace),
                     "--out", str(tmp_path / "scores.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err and "scores.csv" in err


def test_cli_influence_refuses_a_json_out(mini_trace, tmp_path, capsys):
    # The JSON twin takes the CSV's path with ".json", which would be the CSV itself.
    config, trace, _ = mini_trace
    assert cli_main(["influence", "--config", str(config), "--trace", str(trace),
                     "--out", str(tmp_path / "scores.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "scores.json" in err and "twin" in err
    assert not (tmp_path / "scores.json").exists()


@pytest.mark.parametrize("command, edit, flags, message", [
    ("cleanse", ("n_harmful = 6", "n_harmful = 6,-3"), [], "n_harmful"),
    ("cleanse", ("", ""), ["--n-harmful=-5"], "n_harmful"),
    ("accuracy", ("n_permutations = 200", "n_permutations = 0"), [], "n_permutations"),
    ("train", ("metrics = all", "metrics = foo"), [], "unknown metric kind 'foo'"),
    ("cleanse", ("methods = influence,disc_loss,random", "methods = influence,bogus"), [],
     "bogus"),
    ("train", ("metrics = all", "metrics = "), [], "metrics"),
    ("influence", ("metrics = all", "metrics = "), ["--trace", "unused"], "metrics"),
    ("cleanse", ("methods = influence,disc_loss,random", "methods = "), [], "methods"),
    ("accuracy", ("k_epochs = 1", "k_epochs = "), [], "k_epochs"),
    ("accuracy", ("", ""), ["--k="], "k_epochs"),
    ("cleanse", ("n_harmful = 6", "n_harmful = "), [], "n_harmful"),
    ("cleanse", ("n_seeds = 2", "n_seeds = 0"), [], "n_seeds"),
    ("cleanse", ("", ""), ["--seeds", "0"], "n_seeds"),
    ("accuracy", ("", ""), ["--seeds", "0"], "seeds"),
    ("accuracy", ("n_targets = 8", "n_targets = 100"), [], "n_targets"),
    ("accuracy", ("", ""), ["--targets", "61"], "n_targets"),
    ("train", ("metrics = all", "metrics = all\nclassifier_hidden = "), [],
     "classifier_hidden"),
    ("train", ("metrics = all", "metrics = all\nclassifier_hidden = 0,32"), [],
     "classifier_hidden (0, 32)"),
    ("train", ("metrics = all", "metrics = all\nclassifier_hidden = -3,32"), [],
     "classifier_hidden (-3, 32)"),
    ("train", ("epochs = 2", "epoch = 2"), [], "'epoch' in section [training]"),
    ("accuracy", ("n_targets = 8", "n_target = 7"), [], "'n_target' in section [influence]"),
    ("cleanse", ("k_epochs = 1", "k_epochs = 1\nbandwidth = 0.5"), [],
     "'bandwidth' in section [influence]"),
    ("train", ("[training]", "[trainng]"), [], "in section [trainng]"),
    ("train", ("epochs = 2", "epochs = 2\nepochs = 3"), [],
     "option 'epochs' in section 'training' already exists"),
    ("train", ("\n[dataset]", "seed = 1\n[dataset]"), [], "line: 1 'seed = 1"),
    ("train", ("epochs = 2", "epochs = two"), [], "[training] epochs = 'two' does not parse"),
    ("train", ("metrics = all", "metrics = all,is"), [], "need a labeled dataset"),
    ("accuracy", [("kind = normal2d", "kind = idx\nimages = digits.idx"),
                  ("metrics = all", "metrics = fid")], [], "need a labeled dataset"),
    ("train", ("n_reference = 60", "n_reference = 0"), [], "n_reference must be at least 1"),
    ("cleanse", ("n_test = 60", "n_test = 0"), [], "n_test must be at least 1"),
    ("train", [("kind = normal2d", "kind = digits8"), ("metrics = all", "metrics = all,fid"),
               ("n_reference = 60", "n_reference = 1")], [], "n_reference must be at least 2"),
    ("cleanse", [("kind = normal2d", "kind = digits8"), ("metrics = all", "metrics = fid"),
                 ("n_test = 60", "n_test = 1")], [], "n_test must be at least 2"),
    ("train", ("metrics = all", "metrics = all\nclassifier_batch = 0"), [], "classifier_batch"),
    ("train", ("metrics = all", "metrics = all\nclassifier_epochs = 0"), [],
     "classifier_epochs"),
    ("train", ("metrics = all", "metrics = all,disc_loss,all"), [], "metrics repeats 'all'"),
    ("cleanse", ("methods = influence,disc_loss,random", "methods = random,influence,random"),
     [], "methods repeats 'random'"),
    ("accuracy", ("", ""), ["--k", "1,1"], "k_epochs repeats 1"),
    ("cleanse", ("n_harmful = 6", "n_harmful = 6,6"), [], "n_harmful repeats 6"),
    ("cleanse", ("", ""), ["--n-harmful", "5,3,5"], "n_harmful repeats 5"),
    ("train", ("latent_dim = 3", "latent_dim = 3\ndata_dim = 2"), [],
     "'data_dim' in section [architecture]"),
    ("train", ("n_train = 60", "n_train = 60\nnoise = nan"), [],
     "[dataset] noise = 'nan' does not parse: not a finite number"),
    ("train", ("l2_rate = 1e-3", "l2_rate = inf"), [],
     "[architecture] l2_rate = 'inf' does not parse: not a finite number"),
    ("train", ("lr_gen = 1e-3", "lr_gen = -inf"), [],
     "[training] lr_gen = '-inf' does not parse: not a finite number"),
    ("train", ("lr_disc = 1e-3", "lr_disc = nan"), [],
     "[training] lr_disc = 'nan' does not parse: not a finite number"),
    ("train", ("metrics = all", "metrics = all\nbandwidth = 1e400"), [],
     "[evaluation] bandwidth = '1e400' does not parse: not a finite number"),
    ("train", ("metrics = all", "metrics = all\nclassifier_lr = NaN"), [],
     "[evaluation] classifier_lr = 'NaN' does not parse: not a finite number"),
    ("train", ("metrics = all", "metrics = all\nbandwidth = 1e-200"), [],
     "bandwidth must be positive and finite, its square at least"),
    ("train", [("kind = normal2d", "kind = digits8"),
               ("metrics = all", "metrics = fid\nclassifier_activation = x")], [],
     "classifier_activation 'x' is not one of relu, tanh, sigmoid, linear"),
    ("train", ("seed = 3", "seed = -1"), [], "seed -1 must be non-negative"),
    ("train", ("", ""), ["--seed", "-1"], "seed -1 must be non-negative"),
    ("train", [("kind = normal2d", "kind = digits8"),
               ("metrics = all", "metrics = fid\nclassifier_seed = -1")], [],
     "classifier_seed -1 must be non-negative"),
    ("train", ("batch_size = 20", "batch_size = 61"), [],
     "batch_size 61 must not exceed n_train (60)"),
    ("train", ("kind = normal2d", "kind = digits8\nn_classes = 11"), [],
     "n_classes must be in [1, 10]"),
    ("train", ("kind = normal2d", "kind = digits8\nn_classes = 0"), [],
     "n_classes must be in [1, 10]"),
    ("train", ("kind = normal2d", "kind = digits8\nnoise = -0"), [],
     "noise -0.0 must be finite and non-negative"),
], ids=["negative_n_harmful", "negative_n_harmful_flag", "no_permutations",
        "unknown_metric", "unknown_method", "empty_metrics", "empty_metrics_influence",
        "empty_methods", "empty_k_epochs", "empty_k_flag", "empty_n_harmful", "zero_n_seeds",
        "zero_seeds_flag", "zero_accuracy_seeds", "more_targets_than_rows",
        "more_targets_flag", "empty_classifier_hidden", "zero_classifier_hidden",
        "negative_classifier_hidden", "misspelled_key", "misspelled_n_targets",
        "key_in_the_wrong_section", "misspelled_section", "duplicate_key",
        "key_before_any_section", "unparsed_value", "is_on_normal2d",
        "fid_on_idx_without_labels", "zero_n_reference", "zero_n_test",
        "one_fid_reference_row", "one_fid_test_row", "zero_classifier_batch",
        "zero_classifier_epochs", "repeated_metric", "repeated_method", "repeated_k_flag",
        "repeated_n_harmful", "repeated_n_harmful_flag", "data_dim_key", "nan_noise",
        "infinite_l2_rate", "minus_infinite_lr_gen", "nan_lr_disc", "overflowing_bandwidth",
        "nan_classifier_lr", "vanishing_bandwidth", "unknown_classifier_activation",
        "negative_seed", "negative_seed_flag", "negative_classifier_seed",
        "batch_above_n_train", "eleven_glyph_classes", "zero_glyph_classes",
        "minus_zero_noise"])
def test_cli_refuses_a_bad_config_before_training(tmp_path, capsys, monkeypatch,
                                                   command, edit, flags, message):
    def refuse(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(gantrace.experiments, "run_training", refuse)
    path = tmp_path / "bad.ini"
    text = MINI_CONFIG
    for old, new in edit if isinstance(edit, list) else [edit]:
        text = text.replace(old, new)
    path.write_text(text)
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(path), *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_cli_unknown_flag_exits_one(capsys):
    assert cli_main(["train", "--bogus"]) == 1


def test_cli_missing_config_exits_one(tmp_path, capsys):
    code = cli_main(["train", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "t")])
    assert code == 1
