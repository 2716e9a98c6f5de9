from collections import Counter

import numpy as np
import pytest

import gantrace.experiments
import gantrace.training
from gantrace.experiments import SeedRun, estimates_and_truths, replayed_readings
from gantrace.influence import QueryVector, infer_linear_influence, window_start
from gantrace.metrics import (
    ClassifierSettings,
    MetricContext,
    MetricSpec,
    metric_value,
    train_classifier,
)
from gantrace.models import FcGan, GanArchitecture
from gantrace.oracle import counterfactual_retrain
from gantrace.training import (
    TrainingSettings,
    load_trace,
    run_training,
    save_trace,
    trace_checksum,
)
from toys import (
    TapeFcGan,
    build_trace,
    data_term_gradient,
    full_window_retrain,
    true_influence_on_metric,
)


def normal2d(n, seed):
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(np.array([[1.0, 0.8], [0.8, 1.0]]))
    return 1.0 + rng.standard_normal((n, 2)) @ chol.T


@pytest.fixture
def gan():
    return FcGan(GanArchitecture(latent_dim=3, data_dim=2, hidden_gen=4,
                                 hidden_disc=5, l2_rate=1e-3))


@pytest.fixture
def trained(gan):
    data = normal2d(24, 0)
    settings = TrainingSettings(epochs=2, batch_size=6, lr_gen=1e-3, lr_disc=1e-3, seed=1)
    return data, run_training(gan, data, settings)


def test_no_exclusion_reproduces_final_params_bit_exactly(gan, trained):
    data, trace = trained
    result = counterfactual_retrain(gan, trace, data, excluded=[])
    assert np.array_equal(result.params, trace.final_params)
    assert np.array_equal(result.delta, np.zeros(gan.dim_params))


def test_untouched_instance_changes_nothing(gan):
    # A hand-built schedule that never uses indices 8..11: excluding them
    # must reproduce the final parameters bit-exactly.
    from toys import build_trace

    data = normal2d(12, 2)
    rng = np.random.default_rng(3)
    theta0 = gan.init_params(rng)
    schedule = [np.array([0, 1, 2, 3]), np.array([4, 5, 6, 7])]
    trace = build_trace(gan, data, schedule, [(1e-3, 1e-3)] * 2, theta0)
    for excluded in (9, {8, 11}):
        result = counterfactual_retrain(gan, trace, data, excluded)
        assert np.array_equal(result.params, trace.final_params)
        assert np.array_equal(result.delta, np.zeros(gan.dim_params))


def test_disjoint_untouched_union_changes_nothing(gan):
    from toys import build_trace

    data = normal2d(12, 4)
    theta0 = gan.init_params(np.random.default_rng(5))
    schedule = [np.array([0, 1, 2]), np.array([3, 4, 5])]
    trace = build_trace(gan, data, schedule, [(1e-3, 1e-3)] * 2, theta0)
    merged = {6, 7} | {10, 11}
    result = counterfactual_retrain(gan, trace, data, merged)
    assert np.array_equal(result.params, trace.final_params)


def test_zero_disc_rate_means_zero_influence(gan):
    data = normal2d(20, 5)
    settings = TrainingSettings(epochs=2, batch_size=5, lr_gen=1e-3, lr_disc=0.0, seed=6)
    trace = run_training(gan, data, settings)
    result = counterfactual_retrain(gan, trace, data, excluded=7)
    assert np.array_equal(result.delta, np.zeros(gan.dim_params))


def test_final_step_exclusion_has_closed_form(gan):
    data = normal2d(30, 7)
    settings = TrainingSettings(epochs=2, batch_size=30, lr_gen=1e-3, lr_disc=1e-3, seed=8)
    trace = run_training(gan, data, settings)
    j = 11
    result = counterfactual_retrain(gan, trace, data, j, k_epochs=1)
    removal = data_term_gradient(TapeFcGan(gan.arch), trace.records[-1].params, data[j])
    expected = np.concatenate([np.zeros(gan.dim_gen), (1e-3 / 30) * removal])
    assert np.allclose(result.delta, expected, rtol=1e-7, atol=1e-18)


def test_sign_agreement_with_estimator_on_final_step(gan):
    data = normal2d(30, 9)
    settings = TrainingSettings(epochs=2, batch_size=30, lr_gen=1e-3, lr_disc=1e-3, seed=10)
    trace = run_training(gan, data, settings)
    rng = np.random.default_rng(11)
    for j in (2, 13, 27):
        query = QueryVector(rng.standard_normal(gan.dim_params), gan.dim_gen)
        table = infer_linear_influence(gan, trace, data, query, targets=[j], k_epochs=1)
        truth = float(query.data @ counterfactual_retrain(gan, trace, data, j, k_epochs=1).delta)
        assert np.sign(table.scores[j]) == np.sign(truth)
        assert table.scores[j] == pytest.approx(truth, rel=1e-8)


def test_true_metric_influence_zero_when_params_equal(gan, trained):
    data, trace = trained
    rng = np.random.default_rng(12)
    latents = rng.standard_normal((40, 3))
    context = MetricContext(real_data=normal2d(40, 13))
    spec = MetricSpec("all")
    value = true_influence_on_metric(gan, trace.final_params, trace.final_params,
                                     spec, latents, context)
    assert value == 0.0


def test_constant_metric_stub_gives_zero_influence(gan, trained, monkeypatch):
    import gantrace.metrics as metrics_module

    data, trace = trained
    stub = metrics_module._KINDS["all"]._replace(read=lambda spec, problem, params, gen, ctx: 42.0)
    monkeypatch.setitem(metrics_module._KINDS, "all", stub)
    rng = np.random.default_rng(14)
    latents = rng.standard_normal((10, 3))
    context = MetricContext(real_data=normal2d(10, 15))
    cf = counterfactual_retrain(gan, trace, data, 3, k_epochs=1)
    value = true_influence_on_metric(gan, trace.final_params, cf.params,
                                     MetricSpec("all"), latents, context)
    assert value == 0.0


def seed_run(gan, trained, latents, context):
    """A ``SeedRun`` of the trained fixture with ``latents`` and ``context``
    as its reference side."""
    data, trace = trained
    return SeedRun(0, gan, data, trace, latents, context, trace.fingerprint)


def count_replays(monkeypatch):
    """The selection of each ``counterfactual_retrain`` call the experiments make."""
    excluded = []
    retrain = gantrace.experiments.counterfactual_retrain

    def counting(problem, trace, dataset, selection, k_epochs=None):
        excluded.append(selection)
        return retrain(problem, trace, dataset, selection, k_epochs=k_epochs)

    monkeypatch.setattr(gantrace.experiments, "counterfactual_retrain", counting)
    return excluded


def test_estimates_and_truths_empty_and_duplicate_targets(gan, trained, monkeypatch):
    latents = np.random.default_rng(16).standard_normal((30, 3))
    run = seed_run(gan, trained, latents, MetricContext(real_data=normal2d(30, 17)))
    specs = [MetricSpec("all")]
    excluded = count_replays(monkeypatch)
    empty = estimates_and_truths(run, specs, [], 1)
    assert list(empty) == ["all"] and [array.shape for array in empty["all"]] == [(0,), (0,)]
    assert excluded == []
    repeated = estimates_and_truths(run, specs, [5, 5, 5], 1)
    # A repeated target is replayed once; its delta serves every position.
    assert excluded == [5]
    alone = estimates_and_truths(run, specs, [5], 1)
    for got, single in zip(repeated["all"], alone["all"]):
        assert np.array_equal(got, np.repeat(single, 3))


def test_estimates_and_truths_fill_every_metric(gan, trained):
    data, trace = trained
    latents = np.random.default_rng(16).standard_normal((30, 3))
    context = MetricContext(real_data=normal2d(30, 17))
    run = seed_run(gan, trained, latents, context)
    specs = [MetricSpec("all"), MetricSpec("disc_loss")]
    compared = estimates_and_truths(run, specs, [2, 1], 1)
    for spec in specs:
        estimates, truths = compared[spec.kind]
        scores = run.influence(spec, 1).scores
        for position, target in enumerate((2, 1)):
            cf = counterfactual_retrain(gan, trace, data, target, k_epochs=1)
            expected = true_influence_on_metric(gan, trace.final_params, cf.params,
                                                spec, latents, context)
            assert truths[position] == expected
            assert np.isfinite(expected)
            assert estimates[position] == scores[target]


def test_replayed_readings_read_each_distinct_selection_once(gan, trained, monkeypatch):
    data, trace = trained
    latents = np.random.default_rng(16).standard_normal((30, 3))
    context = MetricContext(real_data=normal2d(30, 17))
    run = seed_run(gan, trained, latents, context)
    specs = [MetricSpec("all"), MetricSpec("disc_loss")]
    # An index, an array, the empty selection and a repeat of each, in
    # another form or order.
    selections = [3, np.array([4, 2]), [], {2, 4}, np.int64(3), np.array([], dtype=np.int64)]
    excluded = count_replays(monkeypatch)
    got = replayed_readings(run, specs, selections, 1, latents, context)
    assert [sorted(np.atleast_1d(selection).tolist()) for selection in excluded] == \
        [[3], [2, 4], []]
    assert len(got) == len(selections) and got[0] != got[1] != got[2]
    for selection, readings in zip(selections, got):
        params = counterfactual_retrain(gan, trace, data, selection, k_epochs=1).params
        assert readings == {spec.kind: metric_value(spec, gan, params, latents, context)
                            for spec in specs}
    # A replay that drops nothing is bit-exact, so it reads what the run reads.
    final = run.readings(specs)
    for readings in (got[2], got[5]):
        assert [np.float64(readings[spec.kind]).tobytes() for spec in specs] == \
            [np.float64(final[spec.kind]).tobytes() for spec in specs]


def classifier_context():
    """A reference set of 30 points with a classifier of three regions."""
    reference = normal2d(30, 19)
    labels = (reference[:, 0] > 1.0).astype(np.int64) + (reference[:, 1] > 1.0)
    classifier = train_classifier(reference, labels, ClassifierSettings(hidden=(6, 4), epochs=3),
                                  seed=20)
    return MetricContext(real_data=reference, classifier=classifier)


def test_estimates_and_truths_generate_once_per_parameter_vector(gan, trained, monkeypatch):
    data, trace = trained
    rng = np.random.default_rng(18)
    context = classifier_context()
    context.fid_reference  # fits the reference side before the count starts
    latents = rng.standard_normal((30, 3))
    run = seed_run(gan, trained, latents, context)
    specs = [MetricSpec("all"), MetricSpec("is"), MetricSpec("fid"), MetricSpec("disc_loss")]
    targets = [2, 1, 7]
    calls = Counter()

    def counting(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(gan, "generator_forward", counting("forward", gan.generator_forward))
    monkeypatch.setattr(gan.gen_net, "forward", counting("generator", gan.gen_net.forward))
    monkeypatch.setattr(gan.disc_net, "forward", counting("discriminator", gan.disc_net.forward))
    monkeypatch.setattr(context.classifier, "record",
                        counting("classifier", context.classifier.record))
    monkeypatch.setattr(gantrace.experiments, "build_query_vector",
                        counting("query", gantrace.experiments.build_query_vector))
    compared = estimates_and_truths(run, specs, targets, 1)
    # One query per metric, and one generated set and classifier pass for
    # the final parameters, which every query and baseline shares, and for
    # each replay, whatever the number of metrics; disc_loss reads the same
    # sets.  Each set runs the generator network once, since a query pulls
    # back through its pass, and disc_loss runs the discriminator once per
    # reading and once for its query.
    per_vector = len(targets) + 1
    assert calls == {"query": len(specs), "forward": per_vector, "generator": per_vector,
                     "discriminator": per_vector + 1, "classifier": per_vector}
    # A disc_loss run alone makes one set per parameter vector too, and
    # runs no classifier over them.
    calls.clear()
    disc_run = seed_run(gan, trained, latents, context)
    estimates_and_truths(disc_run, [MetricSpec("disc_loss")], targets, 1)
    assert calls == {"query": 1, "forward": per_vector, "generator": per_vector,
                     "discriminator": per_vector + 1}
    monkeypatch.undo()
    for spec in specs:
        for position, target in enumerate(targets):
            cf = counterfactual_retrain(gan, trace, data, target, k_epochs=1)
            assert compared[spec.kind][1][position] == true_influence_on_metric(
                gan, trace.final_params, cf.params, spec, latents, context)


def test_readings_run_one_classifier_pass_per_sample_set(gan, trained, monkeypatch):
    _, trace = trained
    latents = np.random.default_rng(18).standard_normal((30, 3))
    context = classifier_context()
    context.fid_reference  # fits the reference side before the count starts
    specs = [MetricSpec("all"), MetricSpec("is"), MetricSpec("fid"), MetricSpec("disc_loss")]
    layout = context.classifier.layout
    forward = layout.forward
    inputs = []

    def counting(layers, x):
        inputs.append(x)
        return forward(layers, x)

    monkeypatch.setattr(layout, "forward", counting)
    readings = seed_run(gan, trained, latents, context).readings(specs)
    # One pass over the generated samples serves the FID's features and the
    # inception score's posteriors.
    assert [len(x) for x in inputs] == [len(latents)]
    monkeypatch.undo()
    for spec in specs:
        alone = metric_value(spec, gan, trace.final_params, latents, context)
        assert np.float64(readings[spec.kind]).tobytes() == np.float64(alone).tobytes()


# -- replay from the first excluded step ---------------------------------------------

def count_replayed_steps(monkeypatch):
    calls = []
    step = gantrace.training.asgd_step

    def counting_step(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(gantrace.training, "asgd_step", counting_step)
    return calls


def first_occurrence(trace, excluded, k_epochs):
    start = window_start(trace, k_epochs)
    return next((t for t in range(start, trace.n_steps)
                 if np.isin(trace.records[t].batch_indices, list(excluded)).any()), start)


def assert_replay_matches_full_window(gan, trace, data, excluded, k, calls):
    del calls[:]
    got = counterfactual_retrain(gan, trace, data, excluded, k_epochs=k)
    assert len(calls) == trace.n_steps - first_occurrence(trace, excluded, k)
    assert np.array_equal(got.params, full_window_retrain(gan, trace, data, excluded, k))


def test_replay_from_first_occurrence_is_bit_exact(gan, trained, monkeypatch):
    data, trace = trained
    calls = count_replayed_steps(monkeypatch)
    for k in (1, 2):
        for j in range(len(data)):
            assert_replay_matches_full_window(gan, trace, data, [j], k, calls)
        assert_replay_matches_full_window(gan, trace, data, {3, 17, 20}, k, calls)
    # The first batch of the last epoch: the replay covers the whole window.
    window_first = int(trace.records[window_start(trace, 1)].batch_indices[0])
    assert_replay_matches_full_window(gan, trace, data, [window_first], 1, calls)
    assert len(calls) == trace.n_steps - window_start(trace, 1)


def test_instance_only_in_the_final_step_replays_one_step(gan, monkeypatch):
    data = normal2d(10, 18)
    theta0 = gan.init_params(np.random.default_rng(19))
    schedule = [np.array([0, 1, 2, 3]), np.array([4, 5, 6, 7]), np.array([0, 4, 8, 9])]
    trace = build_trace(gan, data, schedule, [(1e-3, 1e-3)] * 3, theta0)
    calls = count_replayed_steps(monkeypatch)
    for excluded, replayed in (([8], 1), ([9, 8], 1), ([5], 2), ([0], 3), ([2, 9], 3)):
        assert_replay_matches_full_window(gan, trace, data, excluded, None, calls)
        assert len(calls) == replayed


def test_empty_or_untouched_exclusion_replays_the_whole_window(gan, monkeypatch):
    # Two epochs of two steps that never use indices 8..11.
    data = normal2d(12, 2)
    schedule = [np.array([0, 1, 2, 3]), np.array([4, 5, 6, 7])] * 2
    trace = build_trace(gan, data, schedule, [(1e-3, 1e-3)] * 4,
                        gan.init_params(np.random.default_rng(3)), epoch_starts=[0, 2])
    calls = count_replayed_steps(monkeypatch)
    for excluded in ([], [9], {8, 11}):
        for k in (1, 2):
            del calls[:]
            result = counterfactual_retrain(gan, trace, data, excluded, k_epochs=k)
            assert len(calls) == trace.n_steps - window_start(trace, k)
            assert np.array_equal(result.params, trace.final_params)


# Three epochs of two steps with batches of 4, 3 and 5 rows.  Instance 10 is
# met first in the second epoch, as the first row of a batch, 5 and 6 share
# every batch they are in, and 11 is met only in the first step.
UNEVEN_SCHEDULE = [[0, 1, 2, 11], [4, 5, 6], [0, 1, 2, 3], [10, 4, 5, 6, 7],
                   [10, 1, 2, 3], [4, 5, 6, 8, 9]]


@pytest.mark.parametrize("excluded, replayed_k1, replayed_kall, untouched", [
    ([10], 2, 3, ()),          # met only in later epochs of the full window
    ([6, 5], 1, 5, ()),        # two excluded instances in one batch
    ([11], 2, 6, (1,)),        # outside the last epoch's window
    ([], 2, 6, (1, None)),     # no exclusion
])
def test_replay_slices_the_window_hit_mask(gan, monkeypatch, excluded, replayed_k1,
                                           replayed_kall, untouched):
    data = normal2d(12, 20)
    trace = build_trace(gan, data, UNEVEN_SCHEDULE, [(1e-3, 1e-3)] * 6,
                        gan.init_params(np.random.default_rng(21)), epoch_starts=[0, 2, 4])
    calls = count_replayed_steps(monkeypatch)
    for k, replayed in ((1, replayed_k1), (None, replayed_kall)):
        del calls[:]
        got = counterfactual_retrain(gan, trace, data, excluded, k_epochs=k)
        assert len(calls) == replayed
        assert np.array_equal(got.params, full_window_retrain(gan, trace, data, excluded, k))
        if k in untouched:
            assert np.array_equal(got.params, trace.final_params)
        else:
            assert not np.array_equal(got.params, trace.final_params)


@pytest.mark.parametrize("stored", [False, True])
def test_replays_never_write_into_their_trace(gan, tmp_path, stored):
    """A replay steps its own buffers: after one exclusion, several, none or
    one the k=1 window does not hold, at k=1 and at all epochs, the trace
    keeps its checksum, the result shares no memory with a snapshot or the
    final parameters, and a repeated replay gives the same bytes.  A stored
    trace's snapshots are row views of one array."""
    data = normal2d(12, 20)
    trace = build_trace(gan, data, UNEVEN_SCHEDULE, [(1e-3, 1e-3)] * 6,
                        gan.init_params(np.random.default_rng(21)), epoch_starts=[0, 2, 4])
    if stored:
        save_trace(trace, tmp_path / "trace")
        trace = load_trace(tmp_path / "trace")
    checksum = trace_checksum(trace)
    snapshots = [record.params for record in trace.records] + [trace.final_params]
    for excluded in ([10], [6, 5, 0], [], [11]):
        for k in (1, None):
            result = counterfactual_retrain(gan, trace, data, excluded, k_epochs=k)
            assert trace_checksum(trace) == checksum
            assert not any(np.shares_memory(result.params, array) for array in snapshots)
            again = counterfactual_retrain(gan, trace, data, excluded, k_epochs=k)
            assert again.params.tobytes() == result.params.tobytes()
            assert not np.shares_memory(again.params, result.params)


@pytest.mark.parametrize("excluded", [-1, [24], {3, 29}, [-1, 0]])
def test_exclusion_outside_the_instances_is_refused(gan, trained, excluded):
    # Such an index is in no batch, so the replay would silently exclude
    # nothing and report a zero delta.
    data, trace = trained
    with pytest.raises(ValueError, match=r"instance indices in \[0, 24\)"):
        counterfactual_retrain(gan, trace, data, excluded)


@pytest.mark.parametrize("rows", [23, 25])
def test_dataset_of_another_length_is_refused(gan, trained, rows):
    # A longer array would replay and score the trace's batch indices on
    # rows it was never trained with.
    data, trace = trained
    other = normal2d(rows, 0)
    with pytest.raises(ValueError, match="does not match the trace's 24"):
        counterfactual_retrain(gan, trace, other, [0])
    query = QueryVector(np.ones(gan.dim_params), gan.dim_gen)
    with pytest.raises(ValueError, match="does not match the trace's 24"):
        infer_linear_influence(gan, trace, other, query)


def test_repeated_replays_draw_each_latent_batch_at_most_once(gan, trained, tmp_path,
                                                               monkeypatch):
    data, trace = trained
    save_trace(trace, tmp_path / "trace")
    loaded = load_trace(tmp_path / "trace")
    draws = Counter()
    draw = gantrace.training.latents_from_seed

    def counting_draw(seed, count, latent_dim):
        draws[seed] += 1
        return draw(seed, count, latent_dim)

    monkeypatch.setattr(gantrace.training, "latents_from_seed", counting_draw)
    for k in (1, 2):
        for j in range(len(data)):
            result = counterfactual_retrain(gan, loaded, data, [j], k_epochs=k)
            assert np.array_equal(result.params, full_window_retrain(gan, trace, data, [j], k))
    query = QueryVector(np.random.default_rng(4).standard_normal(gan.dim_params), gan.dim_gen)
    infer_linear_influence(gan, loaded, data, query)
    assert draws == Counter(record.latent_seed for record in loaded.records)
