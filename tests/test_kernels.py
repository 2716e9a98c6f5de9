"""Closed-form kernels against the autodiff tape of ``tape.py``.

``TapeFcGan`` computes the joint gradient, its vector-Jacobian product with
the data rows' scores, the data-term scores and the metric queries from
the graph builders; the closed forms must match it to 1e-12 relative in
every regime the relu convention distinguishes and at a saturated
discriminator, and the scores read off the product must equal a separate
score pass bit for bit.  The
dense-stack forward and backward (``MlpLayout.forward`` and
``MlpLayout.backward``) and the classifier built on them are checked
against the ``tape_*`` references the same way.  The
vectorized permutation test is checked against a loop over
``scipy.stats.kendalltau`` and its orders against row-by-row draws, and the blocked KDE against
the dense ``dense_*`` references, which build the whole kernel matrix.
The FID value and query that read a context's cached reference fit are
checked against the uncached forms.  ``FcGan``'s kernels, which write
their operands into a reused workspace, must give a fresh instance's
bytes whatever batch shapes came before.

``DIGESTS`` pins the bytes of the kernels, the KDE, the classifier trainer
and the logistic on the cases built here, so that a change meant to keep
every bit shows where it does not; as in ``test_trace_digests``, the test
skips where NumPy or its BLAS differ from the recorded build.  Run this
file as a script to print the digests of the current code.
"""

import dataclasses
import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import softmax as scipy_softmax

import gantrace.experiments
import gantrace.influence
import gantrace.metrics
import gantrace.models
import gantrace.training
import tape
from gantrace.autodiff import vjp_gradient_call_count
from gantrace.config import load_config
from gantrace.datasets import make_digit_images
from gantrace.experiments import permutation_test_tau, prepare_seed_run
from gantrace.influence import propagate_query
from gantrace.metrics import (
    _KDE_BLOCK_ENTRIES,
    ClassifierSettings,
    GeneratedSet,
    MetricContext,
    MetricSpec,
    _all_gradient,
    _kde_blocks,
    average_log_likelihood,
    build_query_vector,
    generator_pullback,
    metric_gradient_wrt_generated,
    metric_value,
    train_classifier,
)
from gantrace.models import (
    FcGan,
    GanArchitecture,
    MlpLayout,
    NonFiniteError,
    _logistic,
    data_term_scores,
    joint_gradient,
)
from gantrace.training import DivergenceError, StepRecord, asgd_step, latents_from_seed
from toys import (
    TapeFcGan,
    bilinear_game,
    dense_all_gradient,
    dense_average_log_likelihood,
    fid,
    loop_permutation_test_tau,
    mlp_graph,
    tape_input_pullback,
    tape_mlp_vjp,
    tape_train_classifier,
    uncached_fid_gradient,
)
from test_trace_digests import skip_unless_pinned_build

LATENT, DATA, HIDDEN_GEN, HIDDEN_DISC = 3, 2, 6, 8


def pair(objective, data_dim=DATA):
    arch = GanArchitecture(latent_dim=LATENT, data_dim=data_dim, hidden_gen=HIDDEN_GEN,
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


# name: (n latents, n data rows, denom, parameter edit, data dimension)
SCENARIOS = {
    "full_batch": (7, 7, 7, None, DATA),
    "oracle_replay": (7, 4, 7, None, DATA),        # denom > len(data_rows)
    "all_rows_excluded": (7, 0, 7, None, DATA),
    "single_row": (1, 1, 1, None, DATA),
    "dead_relus": (7, 7, 7, dead_relus, DATA),
    "saturated_discriminator": (7, 7, 7, saturated, DATA),
    # Rows wider than the discriminator's hidden layer, as on 64-pixel
    # digits with 32 hidden units: the weighted inputs of the products
    # through the relu mask are then wider than the mask itself.
    "wide_data": (7, 7, 7, None, 12),
}


@pytest.mark.parametrize("objective", ["nonsaturating", "minimax"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_closed_form_matches_tape(objective, scenario):
    n_latents, n_rows, denom, edit, data_dim = SCENARIOS[scenario]
    gan, tape = pair(objective, data_dim)
    rng = np.random.default_rng(sorted(SCENARIOS).index(scenario))
    params = gan.init_params(rng) + rng.normal(0.0, 0.1, gan.dim_params)
    if edit is not None:
        params = edit(gan, params)
    latents = rng.standard_normal((n_latents, LATENT))
    rows = rng.standard_normal((n_rows, data_dim))
    vector = rng.standard_normal(gan.dim_params)
    query = rng.standard_normal(gan.dim_disc)
    score_rows = rows if n_rows else rng.standard_normal((3, data_dim))

    grad = gan.joint_gradient(params, latents, rows, denom)
    assert_matches(grad, tape.joint_gradient(params, latents, rows, denom))
    product, row_scores = gan.joint_gradient_vjp(vector, params, latents, rows, denom)
    tape_product, tape_row_scores = tape.joint_gradient_vjp(vector, params, latents, rows, denom)
    assert_matches(product, tape_product)
    assert_matches(row_scores, tape_row_scores)
    scores = data_term_scores(gan, query, params, score_rows)
    assert_matches(scores, tape.data_term_scores(query, params, score_rows))
    if edit is saturated:
        # At D == 1.0 a data row's logit derivative p - 1 is exactly 0, so
        # the rows score nothing, but a generated row's p is 1: the
        # discriminator's output bias, which no penalty covers, takes
        # n_latents / denom.  The generator's block is its penalty alone
        # under the non-saturating loss, whose -p (1 - p) is 0, and not
        # under the minimax loss, whose -p is -1.
        assert np.array_equal(scores, np.zeros(len(score_rows)))
        assert grad[-1] == pytest.approx(n_latents / denom, rel=1e-14)
        gen_loss_grad = grad[:gan.dim_gen] - gan._penalty_rates[:gan.dim_gen] * params[:gan.dim_gen]
        if objective == "nonsaturating":
            assert not gen_loss_grad.any()
        else:
            assert gen_loss_grad.any()
    if edit is dead_relus:
        gen_net, disc_net = gan.gen_net, gan.disc_net
        gen_hidden = gen_net.forward(gen_net.unpack(params[:gan.dim_gen]), latents).activations[1]
        disc_hidden = disc_net.forward(disc_net.unpack(params[gan.dim_gen:]), rows).activations[1]
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


def separate_pass_scores(gan, disc_query, params, rows):
    """Data-term scores from a forward pass of their own over ``rows``: the
    logit derivative of each row's loss times its logit's derivative along
    the query."""
    f = gan._forward(params, np.empty((0, gan.latent_dim)), rows)
    _, _, qv1, qv2 = gan._layers(np.concatenate([np.zeros(gan.dim_gen), disc_query]))
    along = (np.einsum("ij,ij->i", f.inputs, f.disc_mask @ (qv1 * f.v2[:-1]).T)
             + f.disc_hidden @ qv2[:-1] + qv2[-1])
    return gantrace.models._disc_logit_first(f.probs, 0, 1) * along


def assert_close_in_max_norm(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * np.max(np.abs(ref), initial=0.0)


@pytest.mark.parametrize("objective", ["nonsaturating", "minimax"])
@pytest.mark.parametrize("edit", [None, dead_relus, saturated])
def test_vjp_row_scores_are_the_step_scores(objective, edit):
    # A sweep step's product runs along (lr_gen q_gen, lr_disc q_disc) with
    # the batch size as normalizer; its row scores must be the step's score
    # increments, lr_disc / denom times the query's data-term scores.
    gan, tape = pair(objective)
    rng = np.random.default_rng(24)
    params = gan.init_params(rng) + rng.normal(0.0, 0.1, gan.dim_params)
    if edit is not None:
        params = edit(gan, params)
    latents = rng.standard_normal((7, LATENT))
    rows = rng.standard_normal((7, DATA))
    query = rng.standard_normal(gan.dim_params)
    lr_gen, lr_disc, denom = 1e-2, 3e-2, len(latents)
    vector = np.concatenate([lr_gen * query[:gan.dim_gen], lr_disc * query[gan.dim_gen:]])
    _, row_scores = gan.joint_gradient_vjp(vector, params, latents, rows, denom)
    expected = lr_disc / denom * data_term_scores(gan, query[gan.dim_gen:], params, rows)
    assert_close_in_max_norm(row_scores, expected)
    _, tape_scores = tape.joint_gradient_vjp(vector, params, latents, rows, denom)
    assert_close_in_max_norm(row_scores, tape_scores)
    if edit is saturated:
        # At D == 1.0 every data row's logit derivative p - 1 is exactly 0.
        assert not row_scores.any()
    else:
        assert np.abs(row_scores).max() > 0


@pytest.mark.parametrize("objective", ["nonsaturating", "minimax"])
@pytest.mark.parametrize("scenario", ["full_batch", "single_row", "dead_relus",
                                      "saturated_discriminator", "wide_data"])
def test_data_term_scores_are_bit_identical_to_a_separate_pass(objective, scenario):
    _, n_rows, _, edit, data_dim = SCENARIOS[scenario]
    gan, _ = pair(objective, data_dim)
    rng = np.random.default_rng(25)
    params = gan.init_params(rng) + rng.normal(0.0, 0.1, gan.dim_params)
    if edit is not None:
        params = edit(gan, params)
    rows = rng.standard_normal((n_rows, data_dim))
    query = rng.standard_normal(gan.dim_disc)
    assert np.array_equal(data_term_scores(gan, query, params, rows),
                          separate_pass_scores(gan, query, params, rows))


def random_case(gan, seed, n_latents, n_rows, edit=None):
    rng = np.random.default_rng(seed)
    params = gan.init_params(rng) + rng.normal(0.0, 0.1, gan.dim_params)
    if edit is not None:
        params = edit(gan, params)
    return (params, rng.standard_normal((n_latents, LATENT)),
            rng.standard_normal((n_rows, gan.data_dim)), rng.standard_normal(gan.dim_params))


# The pinned kernel cases: SCENARIOS and a batch of a few hundred rows.
REFERENCE_SCENARIOS = dict(SCENARIOS, wide_batch=(300, 260, 300, None, DATA))


@pytest.mark.parametrize("objective", ["nonsaturating", "minimax"])
@pytest.mark.parametrize("lr_gen, lr_disc", [(1e-2, 3e-2), (1e-2, 0.0), (0.0, 3e-2)])
def test_steps_match_the_kernels_scaled_block_by_block(objective, lr_gen, lr_disc):
    """A descent step and a query pull-back at simultaneous rates and at
    the zero rates of alternating mode, against a fresh instance's kernels
    with each rate applied to its own block."""
    gan, _ = pair(objective)
    reference = FcGan(gan.arch)
    params, latents, rows, query = random_case(gan, 27, 7, 5)
    d = gan.dim_gen
    grad = reference.joint_gradient(params, latents, rows, 7)
    grad[:d] *= lr_gen
    grad[d:] *= lr_disc
    assert_same_bits(asgd_step(gan, params, rows, latents, lr_gen, lr_disc, 7), params - grad)

    record = StepRecord(0, np.arange(5), lr_gen, lr_disc, params, 11)
    latents = record.latents(LATENT)
    scaled = np.concatenate([lr_gen * query[:d], lr_disc * query[d:]])
    product, scores = reference.joint_gradient_vjp(scaled, params, latents, rows, 5)
    got, got_scores = propagate_query(gan, query, record, rows)
    assert_same_bits(got, query - product)
    assert_same_bits(got_scores, scores)


@pytest.mark.parametrize("objective", ["nonsaturating", "minimax"])
def test_workspace_reuse_changes_no_result(objective):
    """Gradients, products and scores at growing and shrinking batch shapes
    through one instance equal a fresh instance's, and no result changes
    when later calls rewrite the workspace."""
    gan, _ = pair(objective)
    calls = [("gradient", 100, 100), ("product", 99, 100), ("scores", 0, 99),
             ("gradient", 1, 0), ("product", 0, 1), ("gradient", 99, 1),
             ("product", 100, 0), ("scores", 0, 100), ("gradient", 1, 99),
             ("product", 1, 1), ("scores", 0, 1), ("product", 100, 100)]
    kept = []
    for seed, (kind, n_latents, n_rows) in enumerate(calls):
        params, latents, rows, vector = random_case(gan, seed, n_latents, n_rows)
        denom = max(n_latents, n_rows, 1)
        results = []
        for problem in (gan, FcGan(gan.arch)):
            if kind == "gradient":
                results.append((problem.joint_gradient(params, latents, rows, denom),))
            elif kind == "product":
                results.append(problem.joint_gradient_vjp(vector, params, latents, rows, denom))
            else:
                results.append((data_term_scores(problem, vector[gan.dim_gen:], params, rows),))
        for got, fresh in zip(*results):
            assert_same_bits(got, fresh)
            kept.append((got, got.copy()))
    for got, copy in kept:
        assert_same_bits(got, copy)


@pytest.mark.parametrize("objective", ["nonsaturating", "minimax"])
def test_reused_buffers_give_fresh_arrays_bytes(objective):
    """Two parameter buffers used in turn, each rewritten in place before
    its next use, and two gradient buffers passed as ``out``, give the
    gradients, products and scores of fresh arrays on a fresh instance; no
    gradient already returned changes in a later call."""
    gan, _ = pair(objective)
    buffers = [np.empty(gan.dim_params) for _ in range(2)]
    outs = [np.empty(gan.dim_params) for _ in range(2)]
    kept = []
    for seed in range(6):
        params, latents, rows, vector = random_case(gan, 40 + seed, 7, 5)
        buffer, out = buffers[seed % 2], outs[seed % 2]
        buffer[...] = params
        fresh = FcGan(gan.arch)
        expected = fresh.joint_gradient(params.copy(), latents, rows, 7)
        assert gan.joint_gradient(buffer, latents, rows, 7, out=out) is out
        assert_same_bits(out, expected)
        returned = gan.joint_gradient(buffer, latents, rows, 7)
        assert_same_bits(returned, expected)
        kept.append((returned, expected))
        for got, ref in zip(gan.joint_gradient_vjp(vector, buffer, latents, rows, 7),
                            fresh.joint_gradient_vjp(vector.copy(), params.copy(),
                                                     latents, rows, 7)):
            assert_same_bits(got, ref)
    for got, expected in kept:
        assert_same_bits(got, expected)


@pytest.mark.parametrize("lr_gen, lr_disc", [(1e-2, 3e-2), (0.0, 3e-2)])
def test_steps_between_two_buffers_match_fresh_steps(lr_gen, lr_disc):
    """Steps that write each new parameter vector into the other of two
    buffers, as a replay does, give the bytes of steps on fresh arrays."""
    gan, _ = pair("nonsaturating")
    params, latents, rows, _ = random_case(gan, 29, 7, 5)
    current, spare = params.copy(), np.empty(gan.dim_params)
    for _ in range(4):
        params = asgd_step(gan, params, rows, latents, lr_gen, lr_disc, 7)
        current, spare = asgd_step(gan, current, rows, latents, lr_gen, lr_disc, 7,
                                   out=spare), current
        assert_same_bits(current, params)


def test_gradient_out_is_checked():
    gan, _ = pair("nonsaturating")
    params, latents, rows, _ = random_case(gan, 30, 3, 3)
    with pytest.raises(ValueError, match="share memory"):
        joint_gradient(gan, params, latents, rows, out=params)
    with pytest.raises(ValueError, match="share memory"):
        asgd_step(gan, params, rows, latents, 1e-2, 3e-2, out=params[::-1])
    for out in (np.empty(gan.dim_params - 1), np.empty(gan.dim_params, dtype=np.float32)):
        with pytest.raises(ValueError, match="float64 vector"):
            joint_gradient(gan, params, latents, rows, out=out)


def test_warm_kernels_build_no_operands(monkeypatch):
    """Once the workspace holds a batch, a kernel call, a descent step or a
    query pull-back of that batch or a smaller one builds no ones columns
    and stacks no arrays."""
    gan, _ = pair("nonsaturating")
    params, latents, rows, vector = random_case(gan, 28, 7, 7)
    record = StepRecord(0, np.arange(5), 1e-2, 3e-2, params, 11)
    kernel_calls = [
        lambda n: joint_gradient(gan, params, latents[:n], rows[:n]),
        lambda n: gan.joint_gradient_vjp(vector, params, latents[:n], rows[:n], n),
        lambda n: data_term_scores(gan, vector[gan.dim_gen:], params, rows[:n]),
        lambda n: asgd_step(gan, params, rows[:n], latents[:n], 1e-2, 3e-2),
        lambda n: propagate_query(gan, vector, record, rows[:5]),
    ]
    for call in kernel_calls:
        call(7)
    spy = NumpySpy({"ones", "hstack", "column_stack", "concatenate"})
    for module in (gantrace.models, gantrace.training, gantrace.influence):
        monkeypatch.setattr(module, "np", spy)
    for n in (7, 6, 1):
        for call in kernel_calls:
            call(n)
    assert spy.events == []


@pytest.mark.parametrize("kernel, operand", [
    ("joint_gradient", "data rows"), ("joint_gradient", "latents"),
    ("joint_gradient_vjp", "data rows"), ("joint_gradient_vjp", "latents"),
    ("data_term_scores", "data rows"),
])
def test_kernels_reject_rows_of_the_wrong_width(kernel, operand):
    # Twice the width holds as many numbers as twice the rows, so a reshape
    # would read each row as two instances instead of refusing it.
    gan, _ = pair("nonsaturating")
    rng = np.random.default_rng(23)
    params = gan.init_params(rng)
    rows = rng.standard_normal((4, 2 * DATA if operand == "data rows" else DATA))
    latents = rng.standard_normal((4, 2 * LATENT if operand == "latents" else LATENT))
    calls = {
        "joint_gradient": lambda: gan.joint_gradient(params, latents, rows, 4),
        "joint_gradient_vjp": lambda: gan.joint_gradient_vjp(
            rng.standard_normal(gan.dim_params), params, latents, rows, 4),
        "data_term_scores": lambda: data_term_scores(
            gan, rng.standard_normal(gan.dim_disc), params, rows),
    }
    with pytest.raises(ValueError, match=f"{operand} of shape"):
        calls[kernel]()


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
    # An infinite output bias saturates D to exactly 1, where a data row's
    # logit derivative p - 1 is 0: the kernels must still refuse the point.
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


# -- dense-stack backward ----------------------------------------------------------

@pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid", "linear"])
@pytest.mark.parametrize("upto_layer", [None, 1])
@pytest.mark.parametrize("n_rows", [1, 7])
@pytest.mark.parametrize("dead", [False, True])
def test_mlp_vjp_matches_tape(activation, upto_layer, n_rows, dead):
    layout = MlpLayout((4, 6, 5, 3), (activation,) * 3)
    rng = np.random.default_rng(30)
    params = layout.init_params(rng) + rng.normal(0.0, 0.1, layout.n_params)
    if dead:
        # Half the first layer's units get a bias no input overcomes.
        bias = layout.spans[1][0]
        params[bias:bias + 3] = -50.0
    x = rng.standard_normal((n_rows, 4))
    record = layout.forward(layout.unpack(params), x)
    if upto_layer is not None:
        record = record.upto(upto_layer)
    assert_matches(record.output, mlp_graph(layout, tape.Tensor(params), 0, x, upto_layer).data)
    adjoint = rng.standard_normal(record.output.shape)
    # The gradient views of layers past the record are left as they are.
    param_grad = np.full(layout.n_params, 7.0)
    input_grad = layout.backward(record, adjoint, layout.unpack(param_grad),
                                 input_adjoint=True)
    ref_param, ref_input = tape_mlp_vjp(layout, params, x, adjoint, upto_layer)
    cut = layout.n_params if upto_layer is None else layout.spans[2 * upto_layer + 2][0]
    assert_matches(param_grad[:cut], ref_param[:cut])
    assert not ref_param[cut:].any() and np.all(param_grad[cut:] == 7.0)
    assert_matches(input_grad, ref_input)
    if dead and activation == "relu":
        assert not record.activations[1][:, :3].any()


def test_mlp_vjp_rejects_a_misshapen_adjoint():
    layout = MlpLayout((4, 6, 3), ("tanh", "linear"))
    rng = np.random.default_rng(31)
    params = layout.init_params(rng)
    record = layout.forward(layout.unpack(params), rng.standard_normal((5, 4)))
    with pytest.raises(ValueError, match="does not match"):
        layout.backward(record, np.ones((5, 1)), layout.unpack(np.empty_like(params)))
    with pytest.raises(ValueError, match="does not match"):
        layout.backward(record.upto(0), np.ones((5, 3)), input_adjoint=True)


# -- classifier and metric queries ----------------------------------------------------

def small_classifier_data(seed=32):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, 45)
    data = rng.standard_normal((45, 5)) + 1.5 * np.eye(3, 5)[labels]
    return data, labels


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_train_classifier_matches_tape(activation):
    data, labels = small_classifier_data()
    settings = ClassifierSettings(hidden=(6, 4), epochs=6, batch_size=8, lr=0.1,
                                  activation=activation)
    got = train_classifier(data, labels, settings, seed=3)
    ref = tape_train_classifier(data, labels, settings, seed=3)
    assert np.linalg.norm(got.params - ref.params) <= 1e-10 * np.linalg.norm(ref.params)
    assert got.train_accuracy == ref.train_accuracy


def test_train_classifier_refuses_a_non_finite_gradient():
    data, labels = small_classifier_data()
    data[7, 2] = np.nan
    with pytest.raises(NonFiniteError):
        train_classifier(data, labels, ClassifierSettings(hidden=(6, 4), epochs=1), seed=3)


def test_train_classifier_refuses_a_diverging_parameter():
    # One step at this rate carries some parameter past 1e6 while every
    # value stays finite.
    data, labels = small_classifier_data()
    with pytest.raises(DivergenceError):
        train_classifier(data, labels, ClassifierSettings(hidden=(6, 4), epochs=1, lr=1e9),
                         seed=3)


def test_softmax_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(39)
    logits = rng.standard_normal((20000, 10)) * np.logspace(-3, 3, 20000)[:, None]
    logits[:5] = [[0.0] * 10, [1e300] * 10, [-np.inf] + [0.0] * 9,
                  [700.0, -700.0] * 5, [-1e-300, 1e-300] * 5]
    assert np.array_equal(gantrace.metrics._softmax(logits), scipy_softmax(logits, axis=1))


@pytest.mark.parametrize("layer", ["logits", "features"])
def test_input_pullback_matches_tape(layer):
    data, labels = small_classifier_data()
    clf = train_classifier(data, labels, ClassifierSettings(hidden=(6, 4), epochs=3), seed=4)
    rng = np.random.default_rng(33)
    x = rng.standard_normal((9, 5))
    width = clf.n_classes if layer == "logits" else 4
    grads = rng.standard_normal((9, width))
    assert_matches(clf.input_pullback(clf.record(x), grads, layer),
                   tape_input_pullback(clf, x, grads, layer))


@pytest.mark.parametrize("scenario", ["full_batch", "single_row", "dead_relus",
                                      "saturated_discriminator"])
def test_metric_queries_match_tape(scenario):
    gan, tape = pair("nonsaturating")
    n_latents, n_rows, _, edit, _ = SCENARIOS[scenario]
    rng = np.random.default_rng(34)
    params = gan.init_params(rng) + rng.normal(0.0, 0.1, gan.dim_params)
    if edit is not None:
        params = edit(gan, params)
    latents = rng.standard_normal((n_latents, LATENT))
    rows = rng.standard_normal((n_rows, DATA))
    sample_grads = rng.standard_normal((n_latents, DATA))
    context = MetricContext(real_data=rows)

    pulled = generator_pullback(gan, params, latents, sample_grads)
    assert_matches(pulled.data, tape.generator_vjp(params, latents, sample_grads))
    query = build_query_vector(MetricSpec("disc_loss"), gan, params, latents, context)
    assert_matches(query.data, tape.expected_disc_loss_gradient(params, latents, rows))
    value = gan.expected_disc_loss(params, latents, rows)
    assert abs(value - tape.expected_disc_loss(params, latents, rows)) <= 1e-12 * abs(value)
    if edit is saturated:
        # D == 1.0 on every input: each generated sample's logit derivative
        # is p / n = 1 / n and each row's (p - 1) / m is 0, so the output
        # bias's gradient is 1, and the generated samples pull the
        # generator too.
        assert query.data[-1] == pytest.approx(1.0, rel=1e-14)
        assert np.abs(query.data[:gan.dim_gen]).max() > 0


@pytest.mark.parametrize("output_bias", [20.0, 60.0])
def test_disc_loss_gradient_matches_finite_differences_when_saturated(output_bias):
    # At bias 20, 1 - D is about 2e-9 on every input, and at 60 D rounds to
    # 1.0: a clamp of the probabilities at 1e-7 would bind at both and pass
    # no derivative, but the logit-form loss still has one.
    gan, _ = pair("nonsaturating")
    rng = np.random.default_rng(37)
    params = gan.init_params(rng) + rng.normal(0.0, 0.1, gan.dim_params)
    params[-1] = output_bias
    latents = rng.standard_normal((5, LATENT))
    rows = rng.standard_normal((6, DATA))
    assert _logistic(gan.discriminator_logits(params, rows)).min() > 1.0 - 1e-7
    h = 1e-5
    numeric = np.empty(gan.dim_params)
    for i in range(gan.dim_params):
        step = np.zeros(gan.dim_params)
        step[i] = h
        numeric[i] = (gan.expected_disc_loss(params + step, latents, rows)
                      - gan.expected_disc_loss(params - step, latents, rows)) / (2 * h)
    grad = gan.expected_disc_loss_gradient(params, latents, rows)
    assert np.abs(grad[:gan.dim_gen]).max() > 0
    assert np.linalg.norm(grad - numeric) <= 1e-7 * np.linalg.norm(numeric)


def test_softplus_loss_is_finite_without_warnings_at_huge_logits():
    assert np.array_equal(gantrace.models._softplus(np.array([800.0, -800.0, 0.0])),
                          [800.0, 0.0, np.log(2.0)])
    gan, _ = pair("nonsaturating")
    rng = np.random.default_rng(38)
    params = gan.init_params(rng)
    latents = rng.standard_normal((4, LATENT))
    rows = rng.standard_normal((4, DATA))
    for output_bias in (800.0, -800.0):
        params[-1] = output_bias
        with warnings.catch_warnings(), np.errstate(over="raise", divide="raise",
                                                    invalid="raise"):
            warnings.simplefilter("error")
            value = gan.expected_disc_loss(params, latents, rows)
            grad = gan.expected_disc_loss_gradient(params, latents, rows)
        # Each generated sample's loss is softplus(x) and each row's
        # softplus(-x), so one side reads about 800 and the other 0.
        assert 790.0 < value < 810.0
        assert np.all(np.isfinite(grad))
        # The output bias's gradient: 1 from the generated samples at +800,
        # -1 from the rows at -800.
        assert grad[-1] == pytest.approx(np.sign(output_bias), rel=1e-14)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("position", ["generator_kernel", "discriminator_output_bias"])
def test_metric_queries_refuse_non_finite_parameters(bad, position):
    gan, _ = pair("nonsaturating")
    rng = np.random.default_rng(35)
    params = gan.init_params(rng)
    params[0 if position == "generator_kernel" else -1] = bad
    latents = rng.standard_normal((4, LATENT))
    rows = rng.standard_normal((4, DATA))
    with pytest.raises(NonFiniteError):
        generator_pullback(gan, params, latents, rng.standard_normal((4, DATA)))
    with pytest.raises(NonFiniteError):
        build_query_vector(MetricSpec("disc_loss"), gan, params, latents,
                           MetricContext(real_data=rows))
    with pytest.raises(NonFiniteError):
        gan.expected_disc_loss(params, latents, rows)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_classifier_pullback_refuses_non_finite_parameters(bad):
    data, labels = small_classifier_data()
    clf = train_classifier(data, labels, ClassifierSettings(hidden=(6, 4), epochs=1), seed=5)
    clf.params[-1] = bad
    x = np.random.default_rng(36).standard_normal((3, 5))
    with pytest.raises(NonFiniteError):
        clf.input_pullback(clf.record(x), np.ones((3, clf.n_classes)), "logits")
    for kind in ("is", "fid"):
        with pytest.raises(NonFiniteError):
            metric_gradient_wrt_generated(MetricSpec(kind), GeneratedSet(x, clf),
                                          MetricContext(real_data=x, classifier=clf))


# -- vectorized permutation test --------------------------------------------------------

@pytest.mark.parametrize("n, ties", [(2, False), (16, False), (16, True), (40, True)])
def test_permutation_test_matches_kendalltau_loop(n, ties):
    rng = np.random.default_rng(n)
    estimated, true = rng.standard_normal(n), rng.standard_normal(n)
    if ties:
        estimated, true = np.round(2.0 * estimated), np.round(true)
    got = permutation_test_tau(estimated, true, 300, rng=np.random.default_rng(37))
    ref = loop_permutation_test_tau(estimated, true, 300, rng=np.random.default_rng(37))
    assert (got.observed, got.threshold, got.p_value) == \
        (ref.observed, ref.threshold, ref.p_value)


@pytest.mark.parametrize("n", [2, 16, 20, 50, 200])
def test_permutation_orders_are_the_row_by_row_draws(monkeypatch, n):
    seen = []
    reordered = gantrace.experiments._reordered_tau_b

    def recording(x, y, orders):
        seen.append(orders)
        return reordered(x, y, orders)

    monkeypatch.setattr(gantrace.experiments, "_reordered_tau_b", recording)
    values = np.random.default_rng(n).standard_normal((2, n))
    rng, ref_rng = np.random.default_rng(40), np.random.default_rng(40)
    permutation_test_tau(values[0], values[1], 120, rng=rng)
    assert np.array_equal(seen[-1], np.array([ref_rng.permutation(n) for _ in range(120)]))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_permutation_test_of_an_all_tied_side_is_nan():
    true = np.arange(10.0)
    got = permutation_test_tau(np.ones(10), true, 50, rng=np.random.default_rng(38))
    ref = loop_permutation_test_tau(np.ones(10), true, 50, rng=np.random.default_rng(38))
    assert np.isnan(got.observed) and np.isnan(ref.observed)
    assert np.isnan(got.threshold) and np.isnan(ref.threshold)
    assert got.p_value == ref.p_value


# -- blocked KDE -------------------------------------------------------------------------

def rows_per_block(n_gen):
    return max(1, _KDE_BLOCK_ENTRIES // n_gen)


def assert_kde_matches_dense(real, generated, bandwidth):
    value = average_log_likelihood(real, generated, bandwidth)
    ref_value = dense_average_log_likelihood(real, generated, bandwidth)
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    grads = _all_gradient(real, generated, bandwidth)
    ref_grads = dense_all_gradient(real, generated, bandwidth)
    assert grads.shape == ref_grads.shape
    assert np.max(np.abs(grads - ref_grads)) <= 1e-12 * np.max(np.abs(ref_grads))
    return value, grads


# Reference-set sizes around the block edge, as (blocks, extra rows).
BLOCK_EDGES = {"one_row": (0, 1), "block_minus_one": (1, -1), "one_block": (1, 0),
               "block_plus_one": (1, 1), "two_blocks_plus_three": (2, 3)}


# One generated point gives 2^17 rows per block, 3000 give 43.  The 64-dim
# case runs with 3000 points only: at one point its largest reference set
# would be 2^18 x 64 floats.
@pytest.mark.parametrize("n_gen,dim", [(1, 2), (3000, 2), (3000, 64)])
@pytest.mark.parametrize("edge", sorted(BLOCK_EDGES))
@pytest.mark.parametrize("bandwidth", [0.05, 2.0])
def test_blocked_kde_matches_dense(n_gen, dim, edge, bandwidth):
    blocks, extra = BLOCK_EDGES[edge]
    n_real = blocks * rows_per_block(n_gen) + extra
    rng = np.random.default_rng(40)
    real = rng.standard_normal((n_real, dim))
    generated = rng.standard_normal((n_gen, dim)) + 0.5
    assert_kde_matches_dense(real, generated, bandwidth)


@pytest.mark.parametrize("n_gen", [1, 3000, _KDE_BLOCK_ENTRIES + 1])
def test_kde_blocks_are_sized_by_entries_in_one_buffer(n_gen):
    step = rows_per_block(n_gen)
    rng = np.random.default_rng(41)
    real = rng.standard_normal((2 * step + 1, 2))
    generated = rng.standard_normal((n_gen, 2))
    seen = [(rows.start, rows.stop, kernels.shape, kernels.ctypes.data)
            for rows, kernels, _, _ in _kde_blocks(real, generated, 1.0)]
    assert [entry[:3] for entry in seen] == [
        (0, step, (step, n_gen)), (step, 2 * step, (step, n_gen)),
        (2 * step, 2 * step + 1, (1, n_gen))]
    assert len({entry[3] for entry in seen}) == 1


@pytest.mark.parametrize("bandwidth", [0.05, 2.0])
def test_blocked_kde_far_cluster(bandwidth):
    """Kernels to a cluster about 80 bandwidths off underflow to exactly zero."""
    rng = np.random.default_rng(42)
    real = rng.standard_normal((60, 2)) * bandwidth
    near = rng.standard_normal((20, 2)) * bandwidth
    far = rng.standard_normal((10, 2)) * bandwidth + [85.0 * bandwidth, 0.0]
    gaps = np.linalg.norm(real[:, None, :] - far[None, :, :], axis=2)
    assert gaps.min() > 75.0 * bandwidth
    assert not np.exp(-gaps ** 2 / 2.0 / bandwidth ** 2).any()

    _, grads = assert_kde_matches_dense(real, np.vstack([near, far]), bandwidth)
    assert not grads[len(near):].any()
    assert grads[:len(near)].any()
    # With only the far cluster every kernel underflows; the row-max shift
    # keeps the value finite and the gradient pointing at the data.
    value, grads = assert_kde_matches_dense(real, far, bandwidth)
    assert np.isfinite(value)
    assert np.all(grads[:, 0] < 0.0)


def spy_on_shifted_rows(monkeypatch):
    """Record the reference rows each KDE pass recomputes with a row-max shift."""
    recomputed = []
    shifted = gantrace.metrics._shifted_kernels

    def spy(left_rows, right, mantissa):
        recomputed.append(left_rows[:, :-2].copy())
        return shifted(left_rows, right, mantissa)

    monkeypatch.setattr(gantrace.metrics, "_shifted_kernels", spy)
    return recomputed


def test_kde_recomputes_only_rows_whose_sums_underflow(monkeypatch):
    """One block at bandwidth 0.05: near rows, faint rows whose log kernels
    sit near -540 (sums near 1e-234), low rows near -620 (sums near 1e-268)
    and far rows near -1800.  Only the low and far rows take the shifted path."""
    rng = np.random.default_rng(46)
    generated = rng.standard_normal((40, 2)) * 0.02

    def ring(count, radius):
        angle = rng.uniform(0.0, 2.0 * np.pi, count)
        return radius * np.column_stack([np.cos(angle), np.sin(angle)])

    near = rng.standard_normal((20, 2)) * 0.05
    faint, low, far = ring(5, np.sqrt(2.7)), ring(5, np.sqrt(3.1)), ring(5, 3.0)
    real = np.vstack([near[:10], low, faint, near[10:], far])
    underflowing = np.repeat([False, True, False, False, True], [10, 5, 5, 10, 5])
    sq = ((real[:, None, :] - generated[None, :, :]) ** 2).sum(axis=2)
    dense_log_sums = np.logaddexp.reduce(-sq / (2 * 0.05 ** 2), axis=1)
    assert np.array_equal(dense_log_sums < np.log(1e-250), underflowing)
    assert rows_per_block(len(generated)) > len(real)

    recomputed = spy_on_shifted_rows(monkeypatch)
    assert_kde_matches_dense(real, generated, 0.05)
    assert len(recomputed) == 2
    for rows in recomputed:
        assert np.array_equal(rows, real[underflowing])


def test_kde_memory_is_bounded_when_every_row_falls_back(monkeypatch):
    """Generated points 60 bandwidths from all 10000 reference rows: every
    plain row sum is 0, so every row is recomputed shifted, block by block."""
    rng = np.random.default_rng(47)
    real = rng.standard_normal((10000, 2))
    generated = rng.standard_normal((1000, 2)) + [60.0, 0.0]
    recomputed = spy_on_shifted_rows(monkeypatch)
    tracemalloc.start()
    try:
        value = average_log_likelihood(real, generated, 1.0)
        grads = _all_gradient(real, generated, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert sum(len(rows) for rows in recomputed) == 2 * len(real)
    assert max(len(rows) for rows in recomputed) == rows_per_block(1000)
    assert np.isfinite(value)
    # Each reference row's weight goes to its nearest generated points,
    # which sit on the near side of the cluster.
    assert np.all(grads[:, 0] <= 0.0) and grads[:, 0].min() < 0.0


def test_blocked_kde_clamps_distances_rounded_below_zero():
    """Coincident points far from the origin: the matmul expansion of some
    squared distances rounds below zero, and the clamp must hold them at 0."""
    rng = np.random.default_rng(45)
    points = rng.standard_normal((200, 64)) * 10.0 + 1000.0
    sq = (points * points).sum(axis=1)
    assert (np.diag(points @ (-2.0 * points.T)) + sq + sq < 0.0).any()
    value = average_log_likelihood(points, points, 0.05)
    ref_value = dense_average_log_likelihood(points, points, 0.05)
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)


class NumpySpy:
    """Stands in for ``numpy`` inside a module, recording each call of the
    named functions with the largest entry of its first argument when that
    is an array."""

    def __init__(self, names):
        self.names = names
        self.events = []

    def __getattr__(self, name):
        function = getattr(np, name)
        if name not in self.names:
            return function

        def recorded(x, *args, **kwargs):
            self.events.append((name, float(np.max(x)) if isinstance(x, np.ndarray) else None))
            return function(x, *args, **kwargs)

        return recorded


def spy_on_kde_passes(monkeypatch):
    """Record the KDE's mantissa multiplies, clamps and exponentials."""
    spy = NumpySpy({"multiply", "minimum", "exp"})
    monkeypatch.setattr(gantrace.metrics, "np", spy)
    return spy.events


def kde_case(name, bandwidth):
    """(real, generated): a Gaussian cloud over three blocks, a far cluster
    whose every row takes the shifted path, or coincident points far from
    the origin whose matmul distances round below zero."""
    rng = np.random.default_rng(48)
    if name == "cloud":
        real = rng.standard_normal((2 * rows_per_block(300) + 7, 2))
        return real, rng.standard_normal((300, 2)) * 1.3 + 0.2
    if name == "far_cluster":
        real = rng.standard_normal((60, 2)) * bandwidth
        return real, rng.standard_normal((10, 2)) * bandwidth + [85.0 * bandwidth, 0.0]
    points = rng.standard_normal((200, 64)) * 10.0 + 1000.0
    return points, points


def assert_same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


# 1.0, 0.5 and 2.0 give a kernel scale that is a power of two (mantissa 1);
# 0.7, 0.2 and 0.05 run the mantissa multiply.
@pytest.mark.parametrize("bandwidth", [1.0, 0.5, 2.0, 0.7, 0.2, 0.05])
@pytest.mark.parametrize("case", ["far_cluster", "coincident"])
def test_kde_shifts_every_far_row_and_clamps_coincident_points(case, bandwidth, monkeypatch):
    real, generated = kde_case(case, bandwidth)
    passes = spy_on_kde_passes(monkeypatch)
    h2 = bandwidth * bandwidth
    shifts = [shift.copy() for _, _, _, shift in _kde_blocks(real, generated, h2)]
    if case == "far_cluster":
        assert all(shift.all() for shift in shifts)
    else:
        assert any(name == "minimum" for name, _ in passes)


@pytest.mark.parametrize("bandwidth,mantissa_pass", [(1.0, False), (0.7, True)])
def test_kde_clamps_only_blocks_above_zero(bandwidth, mantissa_pass, monkeypatch):
    """Three blocks against points far from the origin: the middle block
    holds copies of the generated points, whose matmul distances can round
    below zero; the outer blocks hold them moved by about 2.4.  The mantissa
    multiply runs once per block, and only where the mantissa is not 1."""
    rng = np.random.default_rng(45)
    generated = rng.standard_normal((200, 64)) * 10.0 + 1000.0
    step = rows_per_block(len(generated))
    copies = generated[rng.integers(0, len(generated), (3, step))]
    copies[[0, 2]] += rng.standard_normal((2, step, 64)) * 0.3
    passes = spy_on_kde_passes(monkeypatch)
    average_log_likelihood(copies.reshape(-1, 64), generated, bandwidth)

    multiply = ["multiply"] * mantissa_pass
    assert [name for name, _ in passes] == (
        multiply + ["exp"] + multiply + ["minimum", "exp"] + multiply + ["exp"])
    # The clamp reads a block whose largest log kernel is above 0; the
    # blocks that skip it reach the exponential with none above 0.
    largest = {name: [peak for event, peak in passes if event == name]
               for name in ("minimum", "exp")}
    assert largest["minimum"][0] > 0.0
    assert largest["exp"][0] <= 0.0 and largest["exp"][2] <= 0.0


def test_all_metric_value_and_query_match_dense():
    gan, _ = pair("nonsaturating")
    rng = np.random.default_rng(43)
    params = gan.init_params(rng) + rng.normal(0.0, 0.1, gan.dim_params)
    latents = rng.standard_normal((50, LATENT))
    rows = rng.standard_normal((300, DATA))
    context = MetricContext(real_data=rows)
    spec = MetricSpec("all", bandwidth=0.7)
    generated = gan.generator_forward(params, latents)

    value = metric_value(spec, gan, params, latents, context)
    ref_value = dense_average_log_likelihood(rows, generated, 0.7)
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    query = build_query_vector(spec, gan, params, latents, context)
    ref = generator_pullback(gan, params, latents, dense_all_gradient(rows, generated, 0.7))
    assert np.max(np.abs(query.data - ref.data)) <= 1e-12 * np.max(np.abs(ref.data))
    assert not query.data[gan.dim_gen:].any()


def test_kde_memory_is_bounded_at_paper_scale():
    """n_reference = 10000 against 1000 points; one dense matrix is 80 MB."""
    rng = np.random.default_rng(44)
    real = rng.standard_normal((10000, 2))
    generated = rng.standard_normal((1000, 2))
    tracemalloc.start()
    try:
        average_log_likelihood(real, generated, 1.0)
        _all_gradient(real, generated, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The block buffer itself shows, so NumPy's allocations are traced.
    assert 8 * rows_per_block(1000) * 1000 <= peak < 8 * 2 ** 20


# -- no tape on the metric path ------------------------------------------------------------

TINY_DIGITS = """
[dataset]
kind = digits8
n_train = 40
n_classes = 3

[architecture]
latent_dim = 4
hidden_gen = 8
hidden_disc = 8

[training]
epochs = 1
batch_size = 20
seed = 2

[evaluation]
metrics = fid,is
n_reference = 40
classifier_hidden = 8,6
classifier_epochs = 2

[influence]
n_targets = 4

[cleansing]
n_harmful = 4
"""


def test_metric_path_builds_no_tape(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the metric path reached the autodiff tape")

    # Every use of the tape, forward-only or differentiated, constructs a tensor.
    monkeypatch.setattr(tape.Tensor, "__init__", refuse)

    path = tmp_path / "tiny.ini"
    path.write_text(TINY_DIGITS)
    config = load_config(path)
    run = prepare_seed_run(config, 2)
    problem = config.problem()
    for kind in ("is", "fid", "disc_loss"):
        query = build_query_vector(MetricSpec(kind), problem, run.trace.final_params,
                                   run.reference_latents, run.context)
        assert query.data.any()


# -- FID reference fit, once per context ----------------------------------------------------

@pytest.fixture
def tiny_digits_run(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_DIGITS)
    config = load_config(path)
    return config.problem(), prepare_seed_run(config, 2)


def test_fid_value_and_query_match_the_uncached_forms(tiny_digits_run):
    problem, run = tiny_digits_run
    clf, real = run.context.classifier, run.context.real_data
    params, latents = run.trace.final_params, run.reference_latents
    generated = problem.generator_forward(params, latents)
    value = metric_value(MetricSpec("fid"), problem, params, latents, run.context)
    assert value == fid(clf.features(real), clf.features(generated))
    query = build_query_vector(MetricSpec("fid"), problem, params, latents, run.context)
    ref = generator_pullback(problem, params, latents,
                             uncached_fid_gradient(generated, clf, real))
    assert np.array_equal(query.data, ref.data)


def test_fid_reference_features_are_computed_once(tiny_digits_run, monkeypatch):
    problem, run = tiny_digits_run
    context = MetricContext(real_data=run.context.real_data,
                            classifier=run.context.classifier)
    layout = context.classifier.layout
    forward = layout.forward
    reference_passes = []

    def counting_forward(layers, x):
        reference_passes.append(x is context.real_data)
        return forward(layers, x)

    monkeypatch.setattr(layout, "forward", counting_forward)
    rng = np.random.default_rng(45)
    params = run.trace.final_params
    for _ in range(3):
        latents = rng.standard_normal(run.reference_latents.shape)
        metric_value(MetricSpec("fid"), problem, params, latents, context)
        build_query_vector(MetricSpec("fid"), problem, params, latents, context)
    # One pass over the reference set for its fit, and one over each of the
    # six generated sets.
    assert sum(reference_passes) == 1 and len(reference_passes) == 7


@pytest.mark.parametrize("kind", ["is", "fid"])
def test_a_classifier_query_runs_one_classifier_forward(tiny_digits_run, monkeypatch, kind):
    problem, run = tiny_digits_run
    run.context.fid_reference  # fits the reference side before the count starts
    layout = run.context.classifier.layout
    forward = layout.forward
    inputs = []

    def counting_forward(layers, x):
        inputs.append(x)
        return forward(layers, x)

    monkeypatch.setattr(layout, "forward", counting_forward)
    build_query_vector(MetricSpec(kind), problem, run.trace.final_params,
                       run.reference_latents, run.context)
    # The reading and the pullback share one record of the generated samples.
    assert [len(x) for x in inputs] == [len(run.reference_latents)]


def test_metric_context_is_frozen(tiny_digits_run):
    _, run = tiny_digits_run
    with pytest.raises(dataclasses.FrozenInstanceError):
        run.context.real_data = run.context.real_data[:10]
    with pytest.raises(dataclasses.FrozenInstanceError):
        run.context.classifier = None


# -- pinned digests ---------------------------------------------------------------------------

def pinned_outputs(name):
    """The package's outputs for one pinned case: ``kernels/<objective>/<scenario>``
    (the joint gradient, the VJP pair and the data-term scores),
    ``kde/<case>/<bandwidth>`` (the KDE value and gradient),
    ``classifier/<activation>-<batch size>`` or ``classifier/digits`` (the
    trained parameters and accuracy) or ``logistic``."""
    group, *key = name.split("/")
    if group == "kernels":
        objective, scenario = key
        n_latents, n_rows, denom, edit, data_dim = REFERENCE_SCENARIOS[scenario]
        gan, _ = pair(objective, data_dim)
        params, latents, rows, vector = random_case(gan, 26, n_latents, n_rows, edit)
        return (gan.joint_gradient(params, latents, rows, denom),
                *gan.joint_gradient_vjp(vector, params, latents, rows, denom),
                data_term_scores(gan, vector[gan.dim_gen:], params, rows))
    if group == "kde":
        case, bandwidth = key[0], float(key[1])
        real, generated = kde_case(case, bandwidth)
        return (average_log_likelihood(real, generated, bandwidth),
                _all_gradient(real, generated, bandwidth))
    if group == "classifier":
        if key[0] == "digits":
            # The digits8 configs' classifier: 64 inputs, hidden (64, 32),
            # batches of 32 with a short last one.
            data, labels = make_digit_images(300, 4, 0.15, np.random.default_rng(101))
            clf = train_classifier(data, labels, ClassifierSettings(epochs=3), seed=101)
        else:
            activation, batch_size = key[0].split("-")
            settings = ClassifierSettings(hidden=(6, 4), epochs=5, batch_size=int(batch_size),
                                          lr=0.1, activation=activation)
            clf = train_classifier(*small_classifier_data(), settings, seed=3)
        return clf.params, clf.train_accuracy
    x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 36.7, 745.0, -745.0],
                        np.linspace(-750.0, 750.0, 30001),
                        np.random.default_rng(8).standard_normal(10000) * 20.0])
    return (_logistic(x),)


def digest(outputs):
    """sha256 over the dtype, shape and bytes of each output in turn."""
    hasher = hashlib.sha256()
    for array in map(np.asarray, outputs):
        hasher.update(f"{array.dtype.str} {array.shape}\n".encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()


DIGESTS = {
    "classifier/digits": "818b2c58260f4b625eb54916fbf23752b8a00df6b2f555a7dc76bd80579b5810",
    "classifier/relu-7": "589642dc2665cdcc23b6eb366052356b8531813cb9f7e779de2a0c7e645a4b2c",
    "classifier/sigmoid-45": "11f16cb52f222d8ce936df0034a23c53f3b824627b9dfa8abab1337e3b67402b",
    "classifier/tanh-8": "577e62bf5200efec4ce0bf89936d23509bce7d25fe633a662a901a42cc9f1ee1",
    "kde/cloud/0.05": "e4f60cb31ca5626dc84e8645cb5448099eaa878cd9f2f33826f5e07a2c0d4111",
    "kde/cloud/0.2": "c1e9d6389eb79dd3002343ae6cdd479fec771bff20a0a2446bd6656ec296d58b",
    "kde/cloud/0.5": "06779015719bd92fd1adb6fe28ed07a30e12aea3a0e471da5ba61451e49aeccc",
    "kde/cloud/0.7": "169c1ea56272a4f9a7ae257e369c7a6d9e72b361f4625105a7d9c3d5e2951e9f",
    "kde/cloud/1.0": "a0ff75066c9e4288ef5d107c516c1046534cf771c9e54a651d6dc7023347b6b6",
    "kde/cloud/2.0": "eae513800a3b2d349489ebfa2fe10d48a7f25e6e9bda2dc48271d59d4520d70f",
    "kde/coincident/0.05": "e01007ccb5fdff2aec1d5472afe4f4ab866812ca3eec16a5ebdfb282d7a84c95",
    "kde/coincident/0.2": "974d4acea5ce40ac11cf09141f2fc47bff56f53d4841d989d3183a8f4590e9c8",
    "kde/coincident/0.5": "54efe80e9070e5dc813f4a768caa6ee1990c318e9b90d5380c02131c3487b58b",
    "kde/coincident/0.7": "8dc4983e17887920797f0c7461755a93cc9622b824c3955e3409f3b1a16ce0b9",
    "kde/coincident/1.0": "bc46e9ffe618c4c3375e70847dae87889d5c7d2cd1365c181f6ebb9f696b1abc",
    "kde/coincident/2.0": "2d732bacfab11e7b13d372d98cd06d75c48f63c12baa87ccc0765309ca299012",
    "kde/far_cluster/0.05": "4b863b4776390ad2d06479dc7499e3cd67ecbdc61e25dfd849303fe1ab92a8da",
    "kde/far_cluster/0.2": "8520e1ffecb7f19bdfb9be61aa03ec878c91818fb362e33dc4f1b16566e1de95",
    "kde/far_cluster/0.5": "64dd5d19a6448ca8cb509b72e9f9ef86fa74a43312fa330afa2500f6a94a8ce1",
    "kde/far_cluster/0.7": "a1904719b697dc9dff94ed0ba2040d6780a87eb6611b9b3a4b402299eaffa14c",
    "kde/far_cluster/1.0": "0197843e2693721c7947236de047c514fee6963c65f0339ceb182e9fa7af3435",
    "kde/far_cluster/2.0": "6e46f89e72a974868818ab687cbbc70d4d981211b4ab3d26796121c75f91cce2",
    "kernels/minimax/all_rows_excluded": "2e376c1d910a847cfd0490218acd71849dbe8e56d6f77a1275b0b80c78a220ad",
    "kernels/minimax/dead_relus": "de70246e04aa30fa98503de39169008c1ee4a775cd32d8e0bba14c99b8aae5d2",
    "kernels/minimax/full_batch": "0b9854cfabb293631481948fdcd673e26c91150d0bed34390541ad56c5f5cf1a",
    "kernels/minimax/oracle_replay": "e46c40b471c77be058ea91a98792dade695890ad91815a78880368f2ea673c95",
    "kernels/minimax/saturated_discriminator": "39fba42e5f7d86230d8e6b0afa597e6fad08b6de9a0f8a7c3adf3a9f0a388529",
    "kernels/minimax/single_row": "b5d596798f1e6595bbc43642243e92db32d0a4af53e9df6f3647125982553463",
    "kernels/minimax/wide_batch": "35c5442bdb7919a9269e8abc92bbec94ef82e606f5ece5171e40b6c8c2e5132d",
    "kernels/minimax/wide_data": "f6ed2b12553d0bab9af5ced8b5e47599b99b33184aebea2bff300b66dae627bd",
    "kernels/nonsaturating/all_rows_excluded": "9eae57a6623b7b45412946480f4a416316fbc491b5cfbee6cc4406d684d8f44d",
    "kernels/nonsaturating/dead_relus": "088b9780017643262d1456beb9a57ed17e6c9ea5046cf846b61699afb94ced4c",
    "kernels/nonsaturating/full_batch": "72e69457206cdd7a4ff6128b9e5b855d225c18b5920c3d7044e0765422a9c5a0",
    "kernels/nonsaturating/oracle_replay": "115be56bd755e10dfb0820e1b94c655a9f9ea78b39653e20854144bee16cb43d",
    "kernels/nonsaturating/saturated_discriminator": "60d05eadfaab6a8b6853457ee7e520183ec1a6bce1380e3f402a325b1241490e",
    "kernels/nonsaturating/single_row": "dd11a0efdd8f4afad7d7e4e6ff387afe9672f35fbeb42e8fa6b393eb19bedd03",
    "kernels/nonsaturating/wide_batch": "d7b397f46c04981349a9dacdb13218acf30d2f015de9dbc21d29b70636a0a273",
    "kernels/nonsaturating/wide_data": "d0bd1b9b67085f8555a77671bcd0f18cfe52751b7ca38ced830ce68b9872d216",
    "logistic": "f6945c437bea01f5bf6817b5fd8514b6e13032c8ed18b62ba9d490d31b60a070",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_outputs_match_their_pinned_digest(name):
    skip_unless_pinned_build()
    assert digest(pinned_outputs(name)) == DIGESTS[name]


if __name__ == "__main__":
    print("DIGESTS = {")
    for case_name in sorted(DIGESTS):
        print(f'    "{case_name}": "{digest(pinned_outputs(case_name))}",')
    print("}")
