"""Closed-form FcGan kernels against the autodiff tape.

``TapeFcGan`` computes the joint gradient, its vector-Jacobian product and
the data-term scores from the graph builders; the closed forms must match
it to 1e-12 relative in every regime the relu and clamp conventions
distinguish.
"""

import numpy as np
import pytest

from gantrace.autodiff import NonFiniteError, vjp_gradient_call_count
from gantrace.influence import propagate_query
from gantrace.models import FcGan, GanArchitecture, data_term_scores, joint_gradient
from gantrace.training import StepRecord, latents_from_seed
from toys import TapeFcGan, bilinear_game

LATENT, DATA, HIDDEN_GEN, HIDDEN_DISC = 3, 2, 6, 8


def pair(objective):
    arch = GanArchitecture(latent_dim=LATENT, data_dim=DATA, hidden_gen=HIDDEN_GEN,
                           hidden_disc=HIDDEN_DISC, l2_rate=1e-3, objective=objective)
    return FcGan(arch), TapeFcGan(arch)


def assert_matches(got, ref):
    assert got.shape == ref.shape
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def dead_relus(gan, params):
    """Half the hidden units of each network get a bias no input overcomes."""
    params = params.copy()
    gen_bias = gan.gen_net.spans[1][0]
    disc_bias = gan.dim_gen + gan.disc_net.spans[1][0]
    params[gen_bias:gen_bias + HIDDEN_GEN // 2] = -50.0
    params[disc_bias:disc_bias + HIDDEN_DISC // 2] = -50.0
    return params


def saturated(gan, params):
    params = params.copy()
    params[-1] = 60.0  # discriminator output bias: D == 1.0 on every input
    return params


# name: (n latents, n data rows, denom, parameter edit)
SCENARIOS = {
    "full_batch": (7, 7, 7, None),
    "oracle_replay": (7, 4, 7, None),        # denom > len(data_rows)
    "all_rows_excluded": (7, 0, 7, None),
    "single_row": (1, 1, 1, None),
    "dead_relus": (7, 7, 7, dead_relus),
    "saturated_discriminator": (7, 7, 7, saturated),
}


@pytest.mark.parametrize("objective", ["nonsaturating", "minimax"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_closed_form_matches_tape(objective, scenario):
    gan, tape = pair(objective)
    n_latents, n_rows, denom, edit = SCENARIOS[scenario]
    rng = np.random.default_rng(sorted(SCENARIOS).index(scenario))
    params = gan.init_params(rng) + rng.normal(0.0, 0.1, gan.dim_params)
    if edit is not None:
        params = edit(gan, params)
    latents = rng.standard_normal((n_latents, LATENT))
    rows = rng.standard_normal((n_rows, DATA))
    vector = rng.standard_normal(gan.dim_params)
    query = rng.standard_normal(gan.dim_disc)
    score_rows = rows if n_rows else rng.standard_normal((3, DATA))

    assert_matches(gan.joint_gradient(params, latents, rows, denom),
                   tape.joint_gradient(params, latents, rows, denom))
    assert_matches(gan.joint_gradient_vjp(vector, params, latents, rows, denom),
                   tape.joint_gradient_vjp(vector, params, latents, rows, denom))
    scores = gan.data_term_scores(query, params, score_rows)
    assert_matches(scores, tape.data_term_scores(query, params, score_rows))
    if edit is saturated:
        # The clamp freezes -log D at D == 1, so the real-term derivative
        # is exactly zero.
        assert np.array_equal(scores, np.zeros(len(score_rows)))
    if edit is dead_relus:
        gen_hidden = gan.gen_net.forward_np(params[:gan.dim_gen], latents, upto_layer=0)
        disc_hidden = gan.disc_net.forward_np(params[gan.dim_gen:], rows, upto_layer=0)
        assert not gen_hidden[:, :HIDDEN_GEN // 2].any()
        assert not disc_hidden[:, :HIDDEN_DISC // 2].any()


def test_propagate_query_counts_one_vjp_per_call():
    gan, _ = pair("nonsaturating")
    rng = np.random.default_rng(20)
    record = StepRecord(0, np.arange(5), 1e-2, 2e-2, gan.init_params(rng), 7)
    rows = rng.standard_normal((5, DATA))
    toy = bilinear_game()
    toy_record = StepRecord(0, np.arange(2), 1e-2, 1e-2, np.array([0.3, -0.2]), 8)
    for problem, step, data in ((gan, record, rows), (toy, toy_record, np.ones((2, 1)))):
        before = vjp_gradient_call_count()
        propagate_query(problem, rng.standard_normal(problem.dim_params), step, data)
        assert vjp_gradient_call_count() == before + 1


def test_vjp_rejects_a_vector_of_the_wrong_length():
    gan, _ = pair("nonsaturating")
    rng = np.random.default_rng(21)
    with pytest.raises(ValueError, match="does not match"):
        gan.joint_gradient_vjp(np.ones(gan.dim_params - 1), gan.init_params(rng),
                               rng.standard_normal((2, LATENT)),
                               rng.standard_normal((2, DATA)), 2)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("position", ["generator_kernel", "discriminator_output_bias"])
def test_non_finite_parameter_raises(bad, position):
    # An infinite output bias saturates D to exactly 1, where every clamp
    # derivative vanishes: the kernels must still refuse the point.
    gan, _ = pair("nonsaturating")
    rng = np.random.default_rng(22)
    params = gan.init_params(rng)
    params[0 if position == "generator_kernel" else -1] = bad
    indices = np.arange(4)
    rows = rng.standard_normal((4, DATA))
    latents = latents_from_seed(9, len(indices), LATENT)
    with pytest.raises(NonFiniteError):
        joint_gradient(gan, params, latents, rows)
    with pytest.raises(NonFiniteError):
        data_term_scores(gan, rng.standard_normal(gan.dim_disc), params, rows)
    record = StepRecord(0, indices, 1e-3, 1e-3, params, 9)
    with pytest.raises(NonFiniteError):
        propagate_query(gan, rng.standard_normal(gan.dim_params), record, rows)
