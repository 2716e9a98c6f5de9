import functools
import math
import operator

import numpy as np
import pytest

import gantrace.influence
from gantrace.autodiff import vjp_gradient_call_count
from gantrace.influence import (
    InfluenceTable,
    QueryVector,
    infer_linear_influence,
    propagate_query,
    window_start,
)
from gantrace.models import FcGan, GanArchitecture
from gantrace.oracle import counterfactual_retrain
from gantrace.training import TrainingSettings, run_training
from toys import (
    QuadraticGameProblem,
    TapeFcGan,
    bilinear_game,
    build_trace,
    cross_block_transfer_check,
    data_term_gradient,
    decoupled_game,
    estimate_influence_vector,
)


def normal2d(n, seed):
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(np.array([[1.0, 0.8], [0.8, 1.0]]))
    return 1.0 + rng.standard_normal((n, 2)) @ chol.T


@pytest.fixture
def gan():
    return FcGan(GanArchitecture(latent_dim=3, data_dim=2, hidden_gen=4,
                                 hidden_disc=5, l2_rate=1e-3))


def test_window_start_selects_epoch_boundaries(gan):
    data = normal2d(20, 0)
    settings = TrainingSettings(epochs=3, batch_size=5, lr_gen=1e-3, lr_disc=1e-3, seed=1)
    trace = run_training(gan, data, settings)
    assert window_start(trace, 3) == 0
    assert window_start(trace, 1) == trace.epoch_starts[2]
    with pytest.raises(ValueError):
        window_start(trace, 4)


def test_query_dimension_mismatch_rejected(gan):
    data = normal2d(10, 1)
    settings = TrainingSettings(epochs=1, batch_size=5, lr_gen=1e-3, lr_disc=1e-3, seed=2)
    trace = run_training(gan, data, settings)
    bad = QueryVector(np.ones(gan.dim_params + 1), gan.dim_gen)
    with pytest.raises(ValueError, match="does not match"):
        infer_linear_influence(gan, trace, data, bad)


def test_propagate_query_matches_explicit_update_map():
    # Quadratic losses have a constant, fully known Jacobian; compare the
    # matrix-free pullback with the explicit (I - B J)^T u.
    rng = np.random.default_rng(3)
    sym = rng.standard_normal((4, 4))
    gen_quad = 0.5 * (sym + sym.T)
    sym2 = rng.standard_normal((4, 4))
    disc_quad = 0.5 * (sym2 + sym2.T)
    problem = QuadraticGameProblem(2, 2, gen_quad, disc_quad, data_map=np.eye(2))
    data = rng.standard_normal((6, 2))
    trace = build_trace(problem, data, [np.array([0, 1, 2])],
                        [(1e-2, 2e-2)], rng.uniform(-0.5, 0.5, 4))
    record = trace.records[0]

    query = rng.standard_normal(4)
    got, _ = propagate_query(problem, query, record, data[record.batch_indices])
    jac = problem.expected_jacobian()
    scaling = np.diag([1e-2, 1e-2, 2e-2, 2e-2])
    expected = query - jac.T @ (scaling @ query)
    assert np.allclose(got, expected, rtol=1e-10, atol=1e-14)


def test_propagate_query_identity_when_rates_are_zero(gan):
    data = normal2d(10, 4)
    settings = TrainingSettings(epochs=1, batch_size=5, lr_gen=0.0, lr_disc=0.0, seed=5)
    trace = run_training(gan, data, settings)
    query = np.random.default_rng(6).standard_normal(gan.dim_params)
    out, _ = propagate_query(gan, query, trace.records[0],
                             data[trace.records[0].batch_indices])
    assert np.array_equal(out, query)


def test_zero_query_stays_zero(gan):
    data = normal2d(10, 7)
    settings = TrainingSettings(epochs=1, batch_size=5, lr_gen=1e-3, lr_disc=1e-3, seed=8)
    trace = run_training(gan, data, settings)
    query = QueryVector(np.zeros(gan.dim_params), gan.dim_gen)
    table = infer_linear_influence(gan, trace, data, query)
    assert all(score == 0.0 for score in table.scores.values())


def test_untouched_instances_score_exactly_zero(gan):
    data = normal2d(20, 9)
    settings = TrainingSettings(epochs=1, batch_size=5, lr_gen=1e-3, lr_disc=1e-3, seed=10)
    trace = run_training(gan, data, settings)
    # A window starting mid-epoch leaves the earlier batches untouched.
    query = QueryVector(np.random.default_rng(11).standard_normal(gan.dim_params), gan.dim_gen)
    table = infer_linear_influence(gan, trace, data, query, start_step=2)
    touched = set(int(j) for record in trace.records[2:] for j in record.batch_indices)
    untouched = set(range(20)) - touched
    assert untouched
    assert all(table.scores[j] == 0.0 for j in untouched)
    assert all(table.scores[j] != 0.0 for j in touched)


def test_single_step_window_matches_oracle_exactly(gan):
    # Every epoch is one full-dataset batch, so tracing one epoch back
    # isolates the final step, where the estimator makes no approximation.
    data = normal2d(30, 12)
    settings = TrainingSettings(epochs=2, batch_size=30, lr_gen=1e-3, lr_disc=1e-3, seed=13)
    trace = run_training(gan, data, settings)
    rng = np.random.default_rng(14)
    for j in (0, 7, 29):
        query = QueryVector(rng.standard_normal(gan.dim_params), gan.dim_gen)
        table = infer_linear_influence(gan, trace, data, query, targets=[j], k_epochs=1)
        cf = counterfactual_retrain(gan, trace, data, j, k_epochs=1)
        truth = float(query.data @ cf.delta)
        assert table.scores[j] == pytest.approx(truth, rel=1e-8)


def test_multi_step_estimate_matches_hand_unrolled_products():
    # Bilinear two-parameter game: the Jacobian is the constant
    # [[0, cg], [cd, 0]], so the whole backward recursion can be written
    # down with explicit 2x2 matrices.
    problem = bilinear_game(coupling_gen=0.8, coupling_disc=1.3)
    rng = np.random.default_rng(15)
    data = rng.standard_normal((4, 1))
    schedule = [np.array([0, 1]), np.array([2, 3]), np.array([0, 2]), np.array([1, 3])]
    rates = [(1e-2, 3e-2)] * 4
    trace = build_trace(problem, data, schedule, rates, np.array([0.7, -0.3]))

    query = QueryVector(np.array([1.1, -0.6]), 1)
    table = infer_linear_influence(problem, trace, data, query)

    jac = problem.expected_jacobian()
    for target in range(4):
        row = query.data.copy()
        expected = 0.0
        for record in reversed(trace.records):
            if target in set(record.batch_indices):
                removal = data_term_gradient(problem, record.params, data[target])
                expected += (record.lr_disc / len(record.batch_indices)) * (row[1:] @ removal)
            scaling = np.diag([record.lr_gen, record.lr_disc])
            row = row - jac.T @ (scaling @ row)
        assert table.scores[target] == pytest.approx(expected, rel=1e-10)


def test_influence_is_linear_in_the_query(gan):
    data = normal2d(20, 16)
    settings = TrainingSettings(epochs=2, batch_size=5, lr_gen=1e-3, lr_disc=1e-3, seed=17)
    trace = run_training(gan, data, settings)
    rng = np.random.default_rng(18)
    u = rng.standard_normal(gan.dim_params)
    v = rng.standard_normal(gan.dim_params)
    alpha, beta = 0.6, -2.0
    t_u = infer_linear_influence(gan, trace, data, QueryVector(u, gan.dim_gen))
    t_v = infer_linear_influence(gan, trace, data, QueryVector(v, gan.dim_gen))
    t_mix = infer_linear_influence(gan, trace, data,
                                   QueryVector(alpha * u + beta * v, gan.dim_gen))
    for j in range(20):
        combined = alpha * t_u.scores[j] + beta * t_v.scores[j]
        assert abs(t_mix.scores[j] - combined) <= 1e-10


def test_final_step_score_scales_exactly_with_rates(gan):
    data = normal2d(30, 19)
    settings = TrainingSettings(epochs=2, batch_size=30, lr_gen=1e-3, lr_disc=1e-3, seed=20)
    trace = run_training(gan, data, settings)
    query = QueryVector(np.random.default_rng(21).standard_normal(gan.dim_params), gan.dim_gen)
    base = infer_linear_influence(gan, trace, data, query, targets=[4], k_epochs=1)

    # Doubling the recorded rates on the same trace doubles the final-step
    # score exactly (factor two is exact in binary floating point).
    for record in trace.records:
        record.lr_gen *= 2.0
        record.lr_disc *= 2.0
    doubled = infer_linear_influence(gan, trace, data, query, targets=[4], k_epochs=1)
    assert doubled.scores[4] == 2.0 * base.scores[4]


def test_generator_only_occurrence_has_zero_influence(gan):
    # Alternating schedule: instances whose only traced occurrence is a
    # generator-only step contribute nothing, and the oracle agrees
    # bit-exactly because the zeroed rate freezes the discriminator block.
    data = normal2d(20, 22)
    settings = TrainingSettings(epochs=1, batch_size=10, lr_gen=1e-3, lr_disc=1e-3,
                                mode="alternating", seed=23)
    trace = run_training(gan, data, settings)
    assert trace.records[0].lr_disc == 0.0 and trace.records[1].lr_disc > 0.0
    gen_only = [int(j) for j in trace.records[0].batch_indices]
    query = QueryVector(np.random.default_rng(24).standard_normal(gan.dim_params), gan.dim_gen)
    table = infer_linear_influence(gan, trace, data, query, targets=gen_only)
    for j in gen_only:
        assert table.scores[j] == 0.0
        cf = counterfactual_retrain(gan, trace, data, j)
        assert np.array_equal(cf.delta, np.zeros(gan.dim_params))


def test_scores_do_not_depend_on_the_target_set():
    gan = FcGan(GanArchitecture(latent_dim=3, data_dim=2, hidden_gen=8,
                                hidden_disc=16, l2_rate=1e-3))
    data = normal2d(200, 7)
    settings = TrainingSettings(epochs=2, batch_size=50, lr_gen=1e-3, lr_disc=1e-3, seed=8)
    trace = run_training(gan, data, settings)
    query = QueryVector(np.random.default_rng(9).standard_normal(gan.dim_params), gan.dim_gen)
    full = infer_linear_influence(gan, trace, data, query)
    targets = list(range(0, 200, 7))
    some = infer_linear_influence(gan, trace, data, query, targets=targets)
    assert some.scores == {j: full.scores[j] for j in targets}
    for j in targets[:8]:
        alone = infer_linear_influence(gan, trace, data, query, targets=[j])
        assert alone.scores == {j: full.scores[j]}


@pytest.mark.parametrize("mode, start_step", [("simultaneous", None),
                                              ("simultaneous", 3),
                                              ("alternating", None)])
def test_every_target_form_reads_the_full_table(gan, mode, start_step):
    # Alternating mode skips every other step's scores (lr_disc == 0), and a
    # start step cuts the window mid-epoch; the table's entries stay those of
    # the full table in the targets' order, whichever form the targets take.
    data = normal2d(30, 42)
    settings = TrainingSettings(epochs=2, batch_size=6, lr_gen=1e-3, lr_disc=1e-3,
                                mode=mode, seed=43)
    trace = run_training(gan, data, settings)
    query = QueryVector(np.random.default_rng(44).standard_normal(gan.dim_params), gan.dim_gen)
    full = infer_linear_influence(gan, trace, data, query, start_step=start_step)
    assert list(full.scores) == list(range(30))
    assert all(type(key) is int and type(value) is float for key, value in full.scores.items())
    assert any(value != 0.0 for value in full.scores.values())
    forms = [range(30), [7, 3, 7, 29, 0, 3], np.array([12, 5, 18], dtype=np.int32),
             np.arange(30)[::-1], list(range(30)) + [4], []]
    for targets in forms:
        table = infer_linear_influence(gan, trace, data, query, targets=targets,
                                       start_step=start_step)
        expected = {int(j): full.scores[int(j)].hex() for j in targets}
        assert [(key, value.hex()) for key, value in table.scores.items()] == list(
            expected.items())


def test_targets_must_be_instance_indices(gan):
    data = normal2d(20, 12)
    settings = TrainingSettings(epochs=1, batch_size=5, lr_gen=1e-3, lr_disc=1e-3, seed=13)
    trace = run_training(gan, data, settings)
    query = QueryVector(np.ones(gan.dim_params), gan.dim_gen)
    for bad in ([0, -1], [0, len(data)], np.array([len(data) + 5]), np.array([[0, 1]])):
        with pytest.raises(ValueError) as refused:
            infer_linear_influence(gan, trace, data, query, targets=bad)
        assert str(refused.value) == "targets must be instance indices in [0, 20)"
    assert infer_linear_influence(gan, trace, data, query, targets=[]).scores == {}


@pytest.mark.parametrize("scores", [{}, {4: -0.5, 1: 2.0, 9: 0.25}])
def test_table_arrays_are_sorted_by_index(scores):
    table = InfluenceTable("all", 1, "", "", scores)
    indices, values = table.as_arrays()
    assert indices.dtype == np.int64 and values.dtype == np.float64
    assert indices.tolist() == sorted(scores)
    assert values.tolist() == [scores[j] for j in sorted(scores)]


def test_one_sweep_vjp_count_is_step_count_independent_of_targets(gan):
    data = normal2d(30, 25)
    settings = TrainingSettings(epochs=2, batch_size=10, lr_gen=1e-3, lr_disc=1e-3, seed=26)
    trace = run_training(gan, data, settings)
    query = QueryVector(np.random.default_rng(27).standard_normal(gan.dim_params), gan.dim_gen)

    before = vjp_gradient_call_count()
    infer_linear_influence(gan, trace, data, query)
    assert vjp_gradient_call_count() - before == trace.n_steps

    before = vjp_gradient_call_count()
    infer_linear_influence(gan, trace, data, query, targets=[3, 4])
    assert vjp_gradient_call_count() - before == trace.n_steps


def test_sweep_runs_one_forward_pass_per_traced_step(gan, monkeypatch):
    # The step's scores come from its product's R pass, so the batch rows
    # go through the discriminator once per step, not once more to score.
    data = normal2d(30, 25)
    settings = TrainingSettings(epochs=3, batch_size=10, lr_gen=1e-3, lr_disc=1e-3, seed=26)
    trace = run_training(gan, data, settings)
    query = QueryVector(np.random.default_rng(27).standard_normal(gan.dim_params), gan.dim_gen)
    calls = []
    forward = FcGan._forward

    def counting_forward(self, *args):
        calls.append(1)
        return forward(self, *args)

    monkeypatch.setattr(FcGan, "_forward", counting_forward)
    for k in (1, 3):
        del calls[:]
        infer_linear_influence(gan, trace, data, query, k_epochs=k)
        assert len(calls) == trace.n_steps - window_start(trace, k)


def test_steps_without_a_discriminator_rate_add_nothing(gan, monkeypatch):
    # Generator-only steps score zeros.  The sweep must not add them, so
    # here it is handed NaN in their place, which any addition would show.
    data = normal2d(20, 22)
    settings = TrainingSettings(epochs=3, batch_size=10, lr_gen=1e-3, lr_disc=1e-3,
                                mode="alternating", seed=23)
    trace = run_training(gan, data, settings)
    assert any(record.lr_disc == 0.0 for record in trace.records)
    query = QueryVector(np.random.default_rng(24).standard_normal(gan.dim_params), gan.dim_gen)
    expected = infer_linear_influence(gan, trace, data, query).scores
    propagate = gantrace.influence.propagate_query

    def poisoned(problem, current, record, rows):
        current, values = propagate(problem, current, record, rows)
        if record.lr_disc == 0.0:
            assert not values.any()
            values = np.full_like(values, np.nan)
        return current, values

    monkeypatch.setattr(gantrace.influence, "propagate_query", poisoned)
    assert infer_linear_influence(gan, trace, data, query).scores == expected
    assert any(score != 0.0 for score in expected.values())


def test_sweep_sums_each_instance_with_compensation(gan):
    # Eight occurrences per instance: the sweep's score is closer to the
    # exactly rounded sum of the per-step terms than the plain left-to-right
    # sum is, which differs from it for some instance.
    data = normal2d(12, 40)
    settings = TrainingSettings(epochs=8, batch_size=4, lr_gen=1e-2, lr_disc=1e-2, seed=41)
    trace = run_training(gan, data, settings)
    query = QueryVector(np.random.default_rng(42).standard_normal(gan.dim_params), gan.dim_gen)
    terms = [[] for _ in range(len(data))]
    current = query.data
    for record in reversed(trace.records):
        current, values = propagate_query(gan, current, record, data[record.batch_indices])
        for j, value in zip(record.batch_indices.tolist(), values.tolist()):
            terms[j].append(value)
    scores = infer_linear_influence(gan, trace, data, query).scores
    exact = [math.fsum(instance) for instance in terms]
    plain = [functools.reduce(operator.add, instance, 0.0) for instance in terms]
    assert plain != exact
    assert (sum(abs(scores[j] - exact[j]) for j in range(len(data)))
            < sum(abs(plain[j] - exact[j]) for j in range(len(data))))


# -- forward (validation) estimate -------------------------------------------

def test_forward_estimate_zero_for_untouched_instance():
    problem = bilinear_game()
    data = np.random.default_rng(28).standard_normal((6, 1))
    trace = build_trace(problem, data, [np.array([0, 1]), np.array([2, 3])],
                        [(1e-2, 1e-2)] * 2, np.array([0.4, 0.2]))
    shift = estimate_influence_vector(problem, trace, data, target=5)
    assert np.array_equal(shift, np.zeros(2))


def test_forward_estimate_single_step_closed_form():
    problem = bilinear_game()
    data = np.random.default_rng(29).standard_normal((2, 1))
    trace = build_trace(problem, data, [np.array([0, 1])], [(1e-2, 3e-2)],
                        np.array([0.4, 0.2]))
    shift = estimate_influence_vector(problem, trace, data, target=0)
    removal = data_term_gradient(problem, trace.records[0].params, data[0])
    expected = np.concatenate([[0.0], (3e-2 / 2) * removal])
    assert np.allclose(shift, expected, rtol=1e-12)


def test_forward_estimate_consistent_with_backward_scores(gan):
    data = normal2d(12, 30)
    settings = TrainingSettings(epochs=2, batch_size=4, lr_gen=1e-3, lr_disc=1e-3, seed=31)
    trace = run_training(gan, data, settings)
    query = QueryVector(np.random.default_rng(32).standard_normal(gan.dim_params), gan.dim_gen)
    table = infer_linear_influence(gan, trace, data, query, targets=[5])
    shift = estimate_influence_vector(TapeFcGan(gan.arch), trace, data, target=5)
    assert float(query.data @ shift) == pytest.approx(table.scores[5], rel=1e-4)


def test_forward_estimate_refuses_large_models(gan):
    data = normal2d(10, 33)
    settings = TrainingSettings(epochs=1, batch_size=5, lr_gen=1e-3, lr_disc=1e-3, seed=34)
    trace = run_training(gan, data, settings)
    with pytest.raises(ValueError, match="cap"):
        estimate_influence_vector(gan, trace, data, target=0, dim_cap=10)


# -- cross-block transfer -------------------------------------------------------

def test_cross_block_probe_without_disc_component_passes_through():
    problem = decoupled_game()
    data = np.random.default_rng(35).standard_normal((4, 2))
    trace = build_trace(problem, data, [np.array([0, 1])], [(1e-2, 1e-2)],
                        np.random.default_rng(36).uniform(-0.5, 0.5, 4))
    probe = np.array([0.3, -0.7, 0.0, 0.0])
    report = cross_block_transfer_check(problem, trace, data, 0, probe=probe)
    assert np.array_equal(report.output[:2], probe[:2])
    assert report.gen_transfer_norm == 0.0


def test_cross_block_transfer_vanishes_for_decoupled_losses():
    problem = decoupled_game()
    data = np.random.default_rng(37).standard_normal((4, 2))
    trace = build_trace(problem, data, [np.array([0, 1])], [(1e-2, 1e-2)],
                        np.random.default_rng(38).uniform(-0.5, 0.5, 4))
    report = cross_block_transfer_check(problem, trace, data, 0)
    assert report.gen_transfer_norm <= 1e-14


def test_cross_block_transfer_nonzero_on_trained_gan(gan):
    data = normal2d(30, 39)
    settings = TrainingSettings(epochs=2, batch_size=10, lr_gen=1e-2, lr_disc=1e-2, seed=40)
    trace = run_training(gan, data, settings)
    report = cross_block_transfer_check(gan, trace, data, trace.n_steps - 1,
                                        rng=np.random.default_rng(41))
    assert report.gen_transfer_norm > 1e-10
