import numpy as np
import pytest
from scipy.special import expit

from gantrace.models import (
    FcGan,
    GanArchitecture,
    MlpLayout,
    _logistic,
    data_term_scores,
    joint_gradient,
)
from tape import Tensor, backward
from toys import (
    TapeFcGan,
    TinyDiscriminatorProblem,
    data_term_gradient,
    disc_batch_loss_graph,
    disc_logits,
    gen_batch_loss_graph,
    kink_safe_params,
)


@pytest.fixture
def small_gan():
    return FcGan(GanArchitecture(latent_dim=3, data_dim=2, hidden_gen=4,
                                 hidden_disc=5, l2_rate=1e-3))


@pytest.fixture
def tape_gan(small_gan):
    """The same model with its losses expressed on the autodiff tape."""
    return TapeFcGan(small_gan.arch)


def test_layer_views_tile_the_flat_vector():
    # Each layer's [W; b], in layer order, every entry once: the trainer
    # writes gradients through these views.
    layout = MlpLayout((3, 7, 2), ("relu", "tanh"))
    rng = np.random.default_rng(0)
    flat = rng.standard_normal(layout.n_params)
    layers = layout.layers(flat)
    assert all(np.shares_memory(layer, flat) for layer in layers)
    assert np.array_equal(np.concatenate([layer.ravel() for layer in layers]), flat)


def test_gan_layers_and_l2_mask_read_the_layouts(small_gan):
    # Every layer is one [W; b] block: the views of arange tile it once, in
    # order, each bias in the last row, which is the entries after the kernel.
    for net in (small_gan.gen_net, small_gan.disc_net):
        layers = net.layers(np.arange(net.n_params))
        assert np.array_equal(np.concatenate([layer.ravel() for layer in layers]),
                              np.arange(net.n_params))
        for layer, fan_in, fan_out in zip(layers, net.sizes, net.sizes[1:]):
            assert layer.shape == (fan_in + 1, fan_out)
            assert np.array_equal(layer[-1], layer[0, 0] + fan_in * fan_out + np.arange(fan_out))
    # The kernels' views are the two layouts', the discriminator's offset by
    # the generator block and its output layer flattened.
    flat = np.arange(small_gan.dim_params)
    expected = (*small_gan.gen_net.layers(flat[:small_gan.dim_gen]),
                *small_gan.disc_net.layers(flat[small_gan.dim_gen:]))
    got = small_gan._layers(flat)
    assert [layer.shape for layer in got[:3]] == [layer.shape for layer in expected[:3]]
    assert all(np.array_equal(a, b) for a, b in zip(got[:3], expected[:3]))
    assert got[3].shape == (expected[3].size,)
    assert np.array_equal(got[3], expected[3].ravel())
    assert np.array_equal(np.concatenate([layer.ravel() for layer in got]), flat)
    # The L2 mask is zero on exactly the bias entries.
    bias_entries = np.concatenate([layer[-1] for layer in expected])
    zeros = np.flatnonzero(small_gan._penalty_rates == 0.0)
    assert np.array_equal(zeros, np.sort(bias_entries))
    assert np.all(small_gan._penalty_rates[small_gan._penalty_rates != 0.0]
                  == 2.0 * small_gan.arch.l2_rate)


def test_block_layout_is_contiguous(small_gan):
    assert small_gan.dim_params == small_gan.dim_gen + small_gan.dim_disc


def test_zero_generator_outputs_zero_vector(small_gan):
    params = np.zeros(small_gan.dim_params)
    out = small_gan.generator_forward(params,
                                      np.random.default_rng(1).standard_normal((6, 3))).output
    assert np.array_equal(out, np.zeros((6, 2)))


def test_identity_like_linear_generator_returns_weight_column():
    layout = MlpLayout((3, 2), ("linear",))
    kernel = np.array([[1.5, -2.0], [0.0, 3.0], [4.0, 0.5]])
    flat = np.concatenate([kernel.ravel(), np.zeros(2)])
    out = layout.forward(layout.layers(flat), np.array([[1.0, 0.0, 0.0]])).output
    assert np.array_equal(out[0], kernel[0])


def test_generator_forward_deterministic(small_gan):
    rng = np.random.default_rng(2)
    params = small_gan.init_params(rng)
    z = rng.standard_normal((4, 3))
    assert np.array_equal(small_gan.generator_forward(params, z).output,
                          small_gan.generator_forward(params, z).output)


def test_zero_discriminator_gives_half_and_log_two_losses(tape_gan):
    params = np.zeros(tape_gan.dim_params)
    x = np.array([0.4, -0.7])
    z = np.array([1.0, 0.0, -1.0])
    assert _logistic(disc_logits(tape_gan, params, x))[0] == 0.5
    assert tape_gan.disc_real_loss(params, x) == pytest.approx(np.log(2.0), abs=1e-12)
    assert tape_gan.disc_fake_loss(params, z) == pytest.approx(np.log(2.0), abs=1e-12)
    assert tape_gan.gen_loss(params, z) == pytest.approx(-0.5, abs=1e-15)


def test_losses_match_hand_written_expression(tape_gan):
    rng = np.random.default_rng(3)
    params = tape_gan.init_params(rng) + rng.normal(0, 0.1, tape_gan.dim_params)
    z = rng.standard_normal(3)
    x = rng.standard_normal(2)

    def disc_prob(v):
        v1, v2 = tape_gan.disc_net.layers(params[tape_gan.dim_gen:])
        h = np.maximum(v @ v1[:-1] + v1[-1], 0.0)
        return expit(h @ v2[:-1] + v2[-1])[0]

    w1, w2 = tape_gan.gen_net.layers(params[:tape_gan.dim_gen])
    generated = np.tanh(np.maximum(z @ w1[:-1] + w1[-1], 0.0) @ w2[:-1] + w2[-1])
    p_data = np.clip(disc_prob(x), 1e-7, 1 - 1e-7)
    p_fake = np.clip(disc_prob(generated), 1e-7, 1 - 1e-7)
    assert tape_gan.disc_real_loss(params, x) == pytest.approx(-np.log(p_data), rel=1e-12)
    assert tape_gan.disc_fake_loss(params, z) == pytest.approx(-np.log(1 - p_fake), rel=1e-12)
    assert tape_gan.gen_loss(params, z) == pytest.approx(-disc_prob(generated), rel=1e-12)


def test_minimax_objective_switch():
    arch = GanArchitecture(latent_dim=3, data_dim=2, hidden_gen=4, hidden_disc=5,
                           objective="minimax")
    gan = TapeFcGan(arch)
    rng = np.random.default_rng(4)
    params = gan.init_params(rng) + rng.normal(0, 0.1, gan.dim_params)
    z = rng.standard_normal(3)
    # In the minimax form the generator loss is the negated fake-side
    # discriminator loss.
    assert gan.gen_loss(params, z) == pytest.approx(-gan.disc_fake_loss(params, z), rel=1e-12)


def test_joint_gradient_zero_at_constructed_critical_point(small_gan):
    # Zero parameters: D is 0.5 on everything, every gradient path is
    # blocked by a zero weight or a dead relu, and the fake/real head
    # pressures cancel for equal batch sizes.
    gan = FcGan(GanArchitecture(latent_dim=3, data_dim=2, hidden_gen=4, hidden_disc=5,
                                l2_rate=0.0))
    rng = np.random.default_rng(5)
    grad = joint_gradient(gan, np.zeros(gan.dim_params),
                          rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
    assert np.array_equal(grad, np.zeros(gan.dim_params))


def test_singleton_batch_equals_per_sample_gradient(small_gan, tape_gan):
    rng = np.random.default_rng(6)
    params = small_gan.init_params(rng)
    z = rng.standard_normal((1, 3))
    x = rng.standard_normal((1, 2))
    grad = joint_gradient(small_gan, params, z, x)

    theta = Tensor(params)
    gen_loss = tape_gan.gen_terms_graph(theta, z).sum() + tape_gan.gen_reg_graph(theta)
    disc_loss = (tape_gan.disc_fake_terms_graph(theta, z).sum()
                 + tape_gan.disc_real_terms_graph(theta, x).sum()) \
        + tape_gan.disc_reg_graph(theta)
    (gg,) = backward(gen_loss, [theta])
    (gd,) = backward(disc_loss, [theta])
    expected = np.concatenate([gg.data[:small_gan.dim_gen], gd.data[small_gan.dim_gen:]])
    assert np.allclose(grad, expected, rtol=1e-14)


def test_batch_gradient_is_average_of_singletons(small_gan):
    rng = np.random.default_rng(7)
    params = small_gan.init_params(rng)
    z = rng.standard_normal((4, 3))
    x = rng.standard_normal((4, 2))
    batch = joint_gradient(small_gan, params, z, x)
    singles = np.mean([joint_gradient(small_gan, params, z[i:i + 1], x[i:i + 1])
                       for i in range(4)], axis=0)
    assert np.allclose(batch, singles, rtol=1e-12, atol=1e-15)


def test_joint_gradient_matches_finite_differences_blockwise(small_gan, tape_gan):
    rng = np.random.default_rng(8)
    z = rng.standard_normal((4, 3))
    x = rng.standard_normal((4, 2)) * 0.5
    params = kink_safe_params(small_gan, z, x, rng)
    grad = joint_gradient(small_gan, params, z, x)

    def gen_loss(p):
        return float(gen_batch_loss_graph(tape_gan, Tensor(p), z).data)

    def disc_loss(p):
        return float(disc_batch_loss_graph(tape_gan, Tensor(p), z, x).data)

    eps = 1e-5
    fd = np.zeros_like(params)
    for i in range(len(params)):
        pp, pm = params.copy(), params.copy()
        pp[i] += eps
        pm[i] -= eps
        fn = gen_loss if i < small_gan.dim_gen else disc_loss
        fd[i] = (fn(pp) - fn(pm)) / (2 * eps)
    assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)


def test_empty_batch_rejected(small_gan):
    with pytest.raises(ValueError, match="empty"):
        joint_gradient(small_gan, np.zeros(small_gan.dim_params),
                       np.zeros((0, 3)), np.zeros((0, 2)))


def test_data_term_gradient_has_no_generator_component(tape_gan):
    rng = np.random.default_rng(9)
    params = tape_gan.init_params(rng)
    x = rng.standard_normal(2)
    theta = Tensor(params)
    loss = tape_gan.disc_real_terms_graph(theta, x[None, :]).sum()
    (full,) = backward(loss, [theta])
    assert np.array_equal(full.data[:tape_gan.dim_gen], np.zeros(tape_gan.dim_gen))
    assert data_term_gradient(tape_gan, params, x).shape == (tape_gan.dim_disc,)


def test_data_term_gradient_hand_derived_one_parameter():
    # D(x) = sigmoid(w x); the data loss -log D has gradient -(1 - D) x,
    # which at w = 0 equals -(1 / D) dD/dw = -2 * 0.25 x = -0.5 x.
    problem = TinyDiscriminatorProblem()
    params = np.zeros(2)
    for x in (0.7, -1.3, 2.0):
        grad = data_term_gradient(problem, params, np.array([x]))
        assert grad[0] == pytest.approx(-0.5 * x, rel=1e-12)


def test_data_term_gradient_finite_under_saturation(tape_gan):
    # A huge output bias saturates D.  The loss -log D = softplus(-x) has
    # logit derivative D - 1, which stays finite however large the logit,
    # and which no clamp zeroes: at bias 20, where 1 - D is about 2e-9, the
    # output bias's gradient is D - 1, and from bias 60 D rounds to 1.0.
    params = np.zeros(tape_gan.dim_params)
    for output_bias in (20.0, 60.0, 800.0):
        params[-1] = output_bias  # discriminator output bias
        p = _logistic(disc_logits(tape_gan, params, np.array([0.3, -0.3])))[0]
        grad = data_term_gradient(tape_gan, params, np.array([0.3, -0.3]))
        assert np.all(np.isfinite(grad))
        assert grad[-1] == pytest.approx(p - 1.0, rel=1e-12, abs=0.0)
        assert (grad[-1] != 0.0) == (output_bias == 20.0)


def test_data_term_gradient_deterministic(tape_gan):
    rng = np.random.default_rng(10)
    params = tape_gan.init_params(rng)
    x = rng.standard_normal(2)
    assert np.array_equal(data_term_gradient(tape_gan, params, x),
                          data_term_gradient(tape_gan, params, x))


def test_data_term_scores_match_per_row_loop(small_gan, tape_gan):
    rng = np.random.default_rng(11)
    params = small_gan.init_params(rng)
    rows = rng.standard_normal((6, 2))
    query = rng.standard_normal(small_gan.dim_disc)
    scores = data_term_scores(small_gan, query, params, rows)
    loop = np.array([query @ data_term_gradient(tape_gan, params, row) for row in rows])
    assert np.allclose(scores, loop, rtol=1e-12, atol=1e-15)


def test_regularizer_touches_kernels_only(tape_gan):
    # Gradient of the penalty alone: zero on every bias coordinate.
    theta = Tensor(np.ones(tape_gan.dim_params))
    (g_gen,) = backward(tape_gan.gen_reg_graph(theta), [theta])
    (g_disc,) = backward(tape_gan.disc_reg_graph(theta), [theta])
    grad = g_gen.data + g_disc.data
    for net, block in ((tape_gan.gen_net, grad[:tape_gan.dim_gen]),
                       (tape_gan.disc_net, grad[tape_gan.dim_gen:])):
        for layer in net.layers(block):
            assert np.all(layer[:-1] != 0)
            assert np.all(layer[-1] == 0)


def test_logistic_matches_scipy_expit_without_overflow():
    x = np.concatenate([np.linspace(-745.0, 745.0, 200001),
                        np.random.default_rng(7).standard_normal(100000) * 20.0])
    # Underflow is the true result below about -708, where the logistic is
    # subnormal; every other floating-point error raises.
    with np.errstate(all="raise", under="ignore"):
        got = _logistic(x)
        ends = _logistic(np.array([0.0, np.inf, -np.inf]))
    assert np.array_equal(ends, [0.5, 1.0, 0.0])
    # expit returns 0 below about -709.78, where the logistic is subnormal.
    np.testing.assert_allclose(got, expit(x), rtol=2e-15, atol=np.finfo(float).tiny)
    inner = np.linspace(-708.0, 708.0, 20001)
    with np.errstate(all="raise"):
        got = _logistic(inner)
    np.testing.assert_allclose(got, expit(inner), rtol=2e-15, atol=0.0)


def test_logistic_is_the_seven_pass_form_bit_for_bit():
    # The form its docstring names, written out here rather than kept as a
    # frozen copy: unlike the pinned digest, this holds on any NumPy build.
    x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 36.7, 745.0, -745.0],
                        np.linspace(-750.0, 750.0, 30001),
                        np.random.default_rng(8).standard_normal(10000) * 20.0])
    got = _logistic(x)
    e = np.exp(-np.abs(x))
    assert got.tobytes() == (np.where(x >= 0, 1.0, e) / (1.0 + e)).tobytes()
    assert not np.shares_memory(got, x)
