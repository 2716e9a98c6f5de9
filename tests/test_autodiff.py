import numpy as np
import pytest

import gantrace.autodiff
from gantrace.models import MlpLayout, NonFiniteError
from tape import Tensor, backward, concat_vec, constant, logsumexp, vjp_of_gradient
from toys import bilinear_game, mlp_graph


def numerical_gradient(fn, x, eps=1e-5):
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xf = x.ravel()
    for i in range(x.size):
        xp, xm = xf.copy(), xf.copy()
        xp[i] += eps
        xm[i] -= eps
        flat[i] = (fn(xp.reshape(x.shape)) - fn(xm.reshape(x.shape))) / (2 * eps)
    return grad


def test_forward_scalar_product():
    x, y = Tensor(2.0), Tensor(3.0)
    assert (x * y).item() == 6.0


def test_sigmoid_at_zero():
    assert Tensor(0.0).sigmoid().item() == 0.5


def test_zero_mlp_with_tanh_head_outputs_zero():
    layout = MlpLayout((3, 4, 2), ("relu", "tanh"))
    theta = Tensor(np.zeros(layout.n_params))
    out = mlp_graph(layout, theta, 0, np.array([[0.3, -1.2, 0.7]]))
    assert np.array_equal(out.data, np.zeros((1, 2)))


def test_square_gradient():
    x = Tensor(3.0)
    (g,) = backward(x.square(), [x])
    assert g.item() == 6.0


def test_constant_wrt_leaf_gets_zero_gradient():
    x = Tensor(np.array([1.0, 2.0]))
    c = Tensor(5.0)
    (g,) = backward(c * 2.0, [x])
    assert np.array_equal(g.data, np.zeros(2))


def test_backward_rejects_nonscalar_output():
    x = Tensor(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="scalar"):
        backward(x * 2.0, [x])


def test_backward_rejects_nonleaf_target():
    x = Tensor(np.array([1.0, 2.0]))
    y = x * 2.0
    with pytest.raises(ValueError, match="leaf"):
        backward(y.sum(), [y])


def test_nonfinite_forward_names_the_op():
    with pytest.raises(NonFiniteError, match="log"):
        Tensor(np.array([1.0, -1.0])).log()


def test_matmul_shape_mismatch():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError, match="matmul"):
        a @ b


@pytest.mark.parametrize("name,builder,domain", [
    ("sigmoid", lambda t: t.sigmoid(), (-1, 1)),
    ("tanh", lambda t: t.tanh(), (-1, 1)),
    ("exp", lambda t: t.exp(), (-1, 1)),
    ("log", lambda t: t.log(), (0.5, 1.5)),
    ("square", lambda t: t.square(), (-1, 1)),
    ("reciprocal", lambda t: t.reciprocal(), (0.5, 1.5)),
    ("relu", lambda t: t.relu(), (0.2, 1.0)),
    ("clamp", lambda t: t.clamp(-0.9, 0.9), (-0.5, 0.5)),
    ("scale", lambda t: t.scale(-2.5), (-1, 1)),
    ("slice", lambda t: t[1:5], (-1, 1)),
])
def test_elementwise_gradients_match_finite_differences(name, builder, domain):
    rng = np.random.default_rng(hash(name) % 2**32)
    x = rng.uniform(*domain, size=8)
    weights = rng.standard_normal(0) if False else rng.standard_normal

    def value(v):
        out = builder(Tensor(v))
        return float((out * out).sum().data)

    leaf = Tensor(x)
    (g,) = backward((builder(leaf) * builder(leaf)).sum(), [leaf])
    fd = numerical_gradient(value, x)
    assert np.linalg.norm(g.data - fd) <= 1e-6 * max(np.linalg.norm(fd), 1.0)


@pytest.mark.parametrize("shapes", [((3, 4), (4,)), ((3, 4), (3, 1)), ((3, 4), (1, 4)), ((3, 4), ())])
def test_broadcast_add_mul_gradients(shapes):
    rng = np.random.default_rng(5)
    a = rng.standard_normal(shapes[0])
    b = rng.standard_normal(shapes[1])
    for op in ("add", "mul"):
        def value(pair):
            ta, tb = Tensor(pair[:a.size].reshape(a.shape)), Tensor(pair[a.size:].reshape(b.shape))
            out = ta + tb if op == "add" else ta * tb
            return float(out.square().sum().data)

        ta, tb = Tensor(a), Tensor(b)
        out = ta + tb if op == "add" else ta * tb
        ga, gb = backward(out.square().sum(), [ta, tb])
        packed = np.concatenate([a.ravel(), b.ravel()])
        fd = numerical_gradient(value, packed)
        got = np.concatenate([ga.data.ravel(), gb.data.ravel()])
        assert np.linalg.norm(got - fd) <= 1e-6 * max(np.linalg.norm(fd), 1.0)


def test_matmul_sum_reshape_concat_gradients():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))

    def value(flat):
        ta = Tensor(flat[:12].reshape(3, 4))
        tb = Tensor(flat[12:].reshape(4, 2))
        prod = (ta @ tb).tanh()
        vec = prod.reshape((6,))
        out = concat_vec([vec[0:3], vec[3:6].scale(2.0)])
        return float(out.square().sum(axis=0).data)

    flat = np.concatenate([a.ravel(), b.ravel()])
    ta, tb = Tensor(a), Tensor(b)
    prod = (ta @ tb).tanh()
    vec = prod.reshape((6,))
    out = concat_vec([vec[0:3], vec[3:6].scale(2.0)])
    ga, gb = backward(out.square().sum(axis=0), [ta, tb])
    fd = numerical_gradient(value, flat)
    got = np.concatenate([ga.data.ravel(), gb.data.ravel()])
    assert np.linalg.norm(got - fd) <= 1e-6 * np.linalg.norm(fd)


def test_logsumexp_matches_numpy_and_gradient_is_softmax():
    from scipy.special import logsumexp as np_lse, softmax

    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 3)) * 4
    leaf = Tensor(x)
    out = logsumexp(leaf, axis=1)
    assert np.allclose(out.data, np_lse(x, axis=1), rtol=1e-14)
    (g,) = backward(out.sum(), [leaf])
    assert np.allclose(g.data, softmax(x, axis=1), rtol=1e-12)


def test_random_mlp_gradient_matches_finite_differences():
    layout = MlpLayout((2, 8, 1), ("tanh", "sigmoid"))
    rng = np.random.default_rng(8)
    params = layout.init_params(rng) + rng.normal(0, 0.1, layout.n_params)
    x = rng.standard_normal((5, 2))

    def value(p):
        return float(mlp_graph(layout, Tensor(p), 0, x).sum().data)

    theta = Tensor(params)
    (g,) = backward(mlp_graph(layout, theta, 0, x).sum(), [theta])
    fd = numerical_gradient(value, params)
    assert np.linalg.norm(g.data - fd) <= 1e-6 * np.linalg.norm(fd)


def test_determinism_bit_identical():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 4))

    def run():
        leaf = Tensor(x)
        out = (leaf @ leaf).sigmoid().sum()
        (g,) = backward(out, [leaf])
        return out.data.copy(), g.data.copy()

    (v1, g1), (v2, g2) = run(), run()
    assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


# -- second-order use ---------------------------------------------------------

def test_vjp_of_explicit_linear_map_recovers_rows():
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])

    def linear_map(theta):
        return (constant(a) @ theta.reshape((3, 1))).reshape((3,))

    for i in range(3):
        unit = np.zeros(3)
        unit[i] = 1.0
        row = vjp_of_gradient(unit, linear_map, np.array([0.3, -0.2, 0.9]))
        assert np.allclose(row, a[i], rtol=1e-14)


def test_vjp_of_identity_jacobian_returns_query():
    def gradient_map(theta):
        (g,) = backward(theta.square().sum() * 0.5, [theta])
        return g

    rng = np.random.default_rng(10)
    u = rng.standard_normal(6)
    out = vjp_of_gradient(u, gradient_map, rng.standard_normal(6))
    assert np.allclose(out, u, rtol=1e-14)


def test_vjp_counts_calls():
    # The count is kept by the package's one counted product, not by the
    # problem's own ``joint_gradient_vjp``, which it returns unchanged.
    problem = bilinear_game()
    vector, params = np.array([0.5, -1.0]), np.array([0.3, -0.2])
    latents, rows = np.zeros((2, 1)), np.ones((2, 1))
    before = gantrace.autodiff.vjp_gradient_call_count()
    for _ in range(3):
        product, scores = gantrace.autodiff.vjp_of_gradient(problem, vector, params, latents,
                                                            rows, 2)
    assert gantrace.autodiff.vjp_gradient_call_count() - before == 3
    direct_product, direct_scores = problem.joint_gradient_vjp(vector, params, latents, rows, 2)
    assert np.array_equal(product, direct_product)
    assert np.array_equal(scores, direct_scores)
    assert gantrace.autodiff.vjp_gradient_call_count() - before == 3


def test_vjp_length_mismatch_raises():
    def gradient_map(theta):
        (g,) = backward(theta.square().sum(), [theta])
        return g

    with pytest.raises(ValueError, match="length"):
        vjp_of_gradient(np.ones(3), gradient_map, np.zeros(2))


def test_vjp_linearity():
    layout = MlpLayout((2, 5, 2), ("tanh", "linear"))
    rng = np.random.default_rng(11)
    params = layout.init_params(rng) + rng.normal(0, 0.1, layout.n_params)
    x = rng.standard_normal((3, 2))

    def gradient_map(theta):
        out = mlp_graph(layout, theta, 0, x)
        (g,) = backward(out.square().sum(), [theta])
        return g

    u = rng.standard_normal(layout.n_params)
    v = rng.standard_normal(layout.n_params)
    alpha, beta = 0.7, -1.3
    combined = vjp_of_gradient(alpha * u + beta * v, gradient_map, params)
    separate = alpha * vjp_of_gradient(u, gradient_map, params) \
        + beta * vjp_of_gradient(v, gradient_map, params)
    assert np.abs(combined - separate).max() <= 1e-12


def test_vjp_matches_fd_hessian_on_smooth_net():
    # The map is a gradient, so its Jacobian is a Hessian; compare u^T H
    # against central finite differences of the gradient itself.
    layout = MlpLayout((2, 6, 1), ("tanh", "sigmoid"))
    rng = np.random.default_rng(12)
    params = layout.init_params(rng) + rng.normal(0, 0.2, layout.n_params)
    x = rng.standard_normal((4, 2))

    def loss_graph(theta):
        return mlp_graph(layout, theta, 0, x).square().sum()

    def gradient_map(theta):
        (g,) = backward(loss_graph(theta), [theta])
        return g

    def gradient_np(p):
        return gradient_map(Tensor(p)).data

    u = rng.standard_normal(layout.n_params)
    got = vjp_of_gradient(u, gradient_map, params)
    eps = 1e-5
    fd = np.zeros_like(params)
    for i in range(len(params)):
        pp, pm = params.copy(), params.copy()
        pp[i] += eps
        pm[i] -= eps
        fd[i] = u @ (gradient_np(pp) - gradient_np(pm)) / (2 * eps)
    assert np.linalg.norm(got - fd) <= 1e-6 * np.linalg.norm(fd)


def test_double_backward_closure_over_all_nonlinearities():
    # A scalar touching every nonlinear op; two stacked backward passes
    # must stay inside the supported op set and agree with finite
    # differences of the first gradient.
    rng = np.random.default_rng(13)
    x = rng.uniform(0.3, 1.2, size=5)

    def loss_graph(theta):
        return (theta.sigmoid() + theta.tanh() + theta.exp().scale(0.1)
                + theta.log() + theta.square() + theta.reciprocal()
                + theta.relu() + theta.clamp(0.0, 2.0)).square().sum()

    def gradient_map(theta):
        (g,) = backward(loss_graph(theta), [theta])
        return g

    u = rng.standard_normal(5)
    got = vjp_of_gradient(u, gradient_map, x)
    eps = 1e-6
    fd = np.zeros_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        fd[i] = u @ (gradient_map(Tensor(xp)).data - gradient_map(Tensor(xm)).data) / (2 * eps)
    assert np.linalg.norm(got - fd) <= 1e-5 * np.linalg.norm(fd)
