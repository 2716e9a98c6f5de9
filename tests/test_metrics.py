import numpy as np
import pytest

from gantrace.metrics import (
    Classifier,
    ClassifierSettings,
    GeneratedSet,
    MetricContext,
    MetricSpec,
    average_log_likelihood,
    build_query_vector,
    classifier_key,
    generator_pullback,
    inception_score_from_posteriors,
    load_classifier,
    metric_value,
    save_classifier,
    train_classifier,
)
from gantrace.models import FcGan, GanArchitecture
from toys import fid, inception_score, kink_safe_params, sample_adjoint, sample_set

GAUSS_CONST = -0.5 * np.log(2.0 * np.pi)  # log N(0; 0, 1) in one dimension


def brute_force_all(real, generated, bandwidth):
    """Direct double loop without log-sum-exp stabilization."""
    real = np.atleast_2d(real)
    generated = np.atleast_2d(generated)
    d = real.shape[1]
    norm = (2.0 * np.pi * bandwidth ** 2) ** (d / 2.0)
    total = 0.0
    for x in real:
        density = 0.0
        for g in generated:
            density += np.exp(-np.sum((x - g) ** 2) / (2.0 * bandwidth ** 2)) / norm
        total += np.log(density / len(generated))
    return total / len(real)


def brute_force_is(posteriors):
    posteriors = np.atleast_2d(posteriors)
    marginal = posteriors.mean(axis=0)
    total = 0.0
    for p in posteriors:
        kl = 0.0
        for py, my in zip(p, marginal):
            if py > 0:
                kl += py * np.log(py / my)
        total += kl
    return np.exp(total / len(posteriors))


def with_exact_moments(n, mean, cov, seed):
    """Sample set whose empirical mean and ddof-1 covariance match exactly."""
    rng = np.random.default_rng(seed)
    mean = np.asarray(mean, dtype=np.float64)
    raw = rng.standard_normal((n, len(mean)))
    centered = raw - raw.mean(axis=0)
    sample_cov = np.cov(centered, rowvar=False, ddof=1)
    eigvals, eigvecs = np.linalg.eigh(sample_cov)
    whitened = centered @ eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ eigvecs.T
    return whitened @ np.linalg.cholesky(np.asarray(cov, dtype=np.float64)).T + mean


# -- average log-likelihood -----------------------------------------------------

def test_all_single_standard_kernel_at_center():
    value = average_log_likelihood(np.zeros((1, 1)), np.zeros((1, 1)), bandwidth=1.0)
    assert value == pytest.approx(GAUSS_CONST, abs=1e-12)


def test_all_point_at_one_bandwidth():
    value = average_log_likelihood(np.array([[1.0]]), np.array([[0.0]]), bandwidth=1.0)
    assert value == pytest.approx(GAUSS_CONST - 0.5, abs=1e-12)


def test_all_matches_brute_force_double_loop():
    rng = np.random.default_rng(0)
    real = rng.standard_normal((8, 2))
    generated = rng.standard_normal((8, 2))
    fast = average_log_likelihood(real, generated, bandwidth=1.0)
    slow = brute_force_all(real, generated, bandwidth=1.0)
    assert fast == pytest.approx(slow, rel=1e-10)


def test_all_rejects_empty_sets():
    with pytest.raises(ValueError, match="non-empty"):
        average_log_likelihood(np.zeros((0, 2)), np.zeros((3, 2)), 1.0)


def test_all_gradient_rejects_empty_sets():
    for real, generated in [(np.zeros((0, 2)), np.zeros((3, 2))),
                            (np.zeros((3, 2)), np.zeros((0, 2)))]:
        with pytest.raises(ValueError, match="non-empty"):
            sample_adjoint(MetricSpec("all"), sample_set(generated),
                           MetricContext(real_data=real))


def test_all_gradient_negligible_for_far_generated_point():
    rng = np.random.default_rng(1)
    real = rng.standard_normal((6, 2)) * 0.3
    generated = np.vstack([rng.standard_normal((3, 2)) * 0.3, [[80.0, 80.0]]])
    grads = sample_adjoint(MetricSpec("all"), sample_set(generated),
                           MetricContext(real_data=real))
    assert np.linalg.norm(grads[-1]) <= 1e-6


def test_all_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    real = rng.standard_normal((5, 2))
    generated = rng.standard_normal((4, 2))
    spec = MetricSpec("all", bandwidth=0.8)
    grads = sample_adjoint(spec, sample_set(generated),
                           MetricContext(real_data=real))
    eps = 1e-6
    fd = np.zeros_like(generated)
    for m in range(generated.shape[0]):
        for d in range(generated.shape[1]):
            plus, minus = generated.copy(), generated.copy()
            plus[m, d] += eps
            minus[m, d] -= eps
            fd[m, d] = (average_log_likelihood(real, plus, 0.8)
                        - average_log_likelihood(real, minus, 0.8)) / (2 * eps)
    assert np.linalg.norm(grads - fd) <= 1e-6 * np.linalg.norm(fd)


# -- inception score --------------------------------------------------------------

def test_is_uniform_posteriors_score_one():
    posteriors = np.full((12, 10), 0.1)
    assert inception_score_from_posteriors(posteriors) == pytest.approx(1.0, abs=1e-12)


def test_is_balanced_one_hot_posteriors_score_class_count():
    posteriors = np.tile(np.eye(10), (3, 1))
    assert inception_score_from_posteriors(posteriors) == pytest.approx(10.0, abs=1e-9)


def test_is_matches_brute_force_kl():
    rng = np.random.default_rng(3)
    raw = rng.uniform(0.05, 1.0, size=(9, 4))
    posteriors = raw / raw.sum(axis=1, keepdims=True)
    assert inception_score_from_posteriors(posteriors) == pytest.approx(
        brute_force_is(posteriors), rel=1e-12)


def test_is_within_one_and_class_count():
    rng = np.random.default_rng(4)
    for _ in range(10):
        raw = rng.uniform(0, 1, size=(20, 6)) ** 3
        posteriors = raw / raw.sum(axis=1, keepdims=True)
        score = inception_score_from_posteriors(posteriors)
        assert 1.0 <= score <= 6.0 + 1e-12


def test_is_gradient_zero_for_constant_head():
    # All-zero classifier parameters: uniform posteriors whatever the
    # input, so the score is constant and its gradient vanishes exactly.
    layout_clf = train_classifier(np.zeros((4, 3)), np.array([0, 1, 0, 1]),
                                  ClassifierSettings(hidden=(5, 4), epochs=0), seed=0)
    clf = Classifier(layout_clf.layout, np.zeros_like(layout_clf.params),
                     layout_clf.n_classes, layout_clf.feature_layer)
    generated = np.random.default_rng(5).standard_normal((6, 3))
    grads = sample_adjoint(MetricSpec("is"), sample_set(generated, clf),
                           MetricContext(classifier=clf))
    assert np.array_equal(grads, np.zeros_like(generated))


def test_is_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    data = rng.standard_normal((40, 3))
    labels = (data[:, 0] > 0).astype(int)
    clf = train_classifier(data, labels, ClassifierSettings(hidden=(6, 5), epochs=10), seed=1)
    generated = rng.standard_normal((5, 3))
    context = MetricContext(classifier=clf)
    grads = sample_adjoint(MetricSpec("is"), sample_set(generated, clf), context)
    eps = 1e-6
    fd = np.zeros_like(generated)
    for m in range(generated.shape[0]):
        for d in range(generated.shape[1]):
            plus, minus = generated.copy(), generated.copy()
            plus[m, d] += eps
            minus[m, d] -= eps
            fd[m, d] = (inception_score(plus, clf) - inception_score(minus, clf)) / (2 * eps)
    assert np.linalg.norm(grads - fd) <= 1e-5 * np.linalg.norm(fd)


# -- Frechet distance ---------------------------------------------------------------

def test_fid_identical_sets_is_zero():
    feats = np.random.default_rng(7).standard_normal((30, 4))
    assert fid(feats, feats) <= 1e-8


def test_fid_identity_covariances_reduce_to_mean_distance():
    a = with_exact_moments(40, [0.0, 0.0], np.eye(2), seed=8)
    b = with_exact_moments(40, [3.0, -1.0], np.eye(2), seed=9)
    assert fid(a, b) == pytest.approx(np.array([3.0, -1.0]) @ np.array([3.0, -1.0]), rel=1e-10)


def test_fid_matches_closed_form_for_diagonal_gaussians():
    mean_a, mean_b = np.array([0.5, -0.2]), np.array([-1.0, 0.4])
    var_a, var_b = np.array([1.5, 0.5]), np.array([0.7, 2.0])
    a = with_exact_moments(50, mean_a, np.diag(var_a), seed=10)
    b = with_exact_moments(50, mean_b, np.diag(var_b), seed=11)
    diff = mean_a - mean_b
    closed_form = diff @ diff + np.sum((np.sqrt(var_a) - np.sqrt(var_b)) ** 2)
    assert fid(a, b) == pytest.approx(closed_form, abs=1e-6)


def test_fid_monotone_in_shift():
    base = with_exact_moments(60, [0.0, 0.0], np.eye(2), seed=12)
    values = [fid(base, base + delta) for delta in
              (np.array([0.2, 0.0]), np.array([0.5, 0.0]), np.array([1.0, 0.0]))]
    assert values[0] < values[1] < values[2]


def test_fid_needs_two_samples_per_side():
    with pytest.raises(ValueError, match="two samples"):
        fid(np.zeros((1, 2)), np.zeros((5, 2)))


def test_fid_gradient_matches_finite_differences():
    # The finite-difference oracle needs both feature covariances to be
    # well-conditioned: at a singular covariance the matrix square root is
    # not differentiable and the implementation falls back to clipping.
    rng = np.random.default_rng(13)
    data = rng.standard_normal((60, 3))
    labels = (data[:, 1] > 0).astype(int)
    clf = train_classifier(data, labels, ClassifierSettings(hidden=(6, 4), epochs=10), seed=2)
    for attempt in range(50):
        real = rng.standard_normal((40, 3)) * 1.5
        generated = rng.standard_normal((40, 3)) * 1.5 + 0.3
        eig_real = np.linalg.eigvalsh(np.cov(clf.features(real), rowvar=False, ddof=1))
        eig_gen = np.linalg.eigvalsh(np.cov(clf.features(generated), rowvar=False, ddof=1))
        if min(eig_real.min(), eig_gen.min()) > 1e-3:
            break
    else:
        pytest.skip("no well-conditioned feature sets found")
    context = MetricContext(real_data=real, classifier=clf)
    spec = MetricSpec("fid")
    grads = sample_adjoint(spec, sample_set(generated, clf), context)

    def value(points):
        return fid(clf.features(real), clf.features(points))

    eps = 1e-5
    fd = np.zeros_like(generated)
    for m in range(generated.shape[0]):
        for d in range(generated.shape[1]):
            plus, minus = generated.copy(), generated.copy()
            plus[m, d] += eps
            minus[m, d] -= eps
            fd[m, d] = (value(plus) - value(minus)) / (2 * eps)
    kinked = np.abs(fd - grads).max(axis=1) > 50 * np.abs(fd).max() * eps
    assert kinked.mean() < 0.2  # isolated relu-kink crossings at most
    clean = ~kinked
    assert np.linalg.norm((grads - fd)[clean]) <= 1e-4 * np.linalg.norm(fd[clean])


def test_fid_gradient_at_identical_sets_is_tiny():
    rng = np.random.default_rng(14)
    data = rng.standard_normal((60, 3))
    labels = (data[:, 2] > 0).astype(int)
    clf = train_classifier(data, labels, ClassifierSettings(hidden=(6, 4), epochs=8), seed=3)
    points = rng.standard_normal((15, 3))
    context = MetricContext(real_data=points, classifier=clf)
    grads = sample_adjoint(MetricSpec("fid"), sample_set(points, clf), context)
    # The distance is minimized here, so both the analytic gradient and
    # finite differences sit at numerical noise.
    assert np.linalg.norm(grads) <= 1e-6


# -- classifier ------------------------------------------------------------------

def test_classifier_learns_separable_toy():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((40, 2)) * 0.4 + np.array([2.0, 2.0])
    b = rng.standard_normal((40, 2)) * 0.4 - np.array([2.0, 2.0])
    data = np.vstack([a, b])
    labels = np.array([0] * 40 + [1] * 40)
    clf = train_classifier(data, labels, ClassifierSettings(hidden=(8, 6), epochs=20), seed=4)
    assert clf.train_accuracy > 0.95


def test_untrained_classifier_posteriors_near_uniform():
    rng = np.random.default_rng(16)
    data = rng.standard_normal((30, 4))
    labels = rng.integers(0, 3, size=30)
    clf = train_classifier(data, labels, ClassifierSettings(hidden=(8, 6), epochs=0), seed=5)
    posteriors = sample_set(data, clf).posteriors
    # Initialization-scale logits: no confident class, small mean deviation
    # from the uniform distribution.
    assert posteriors.max() < 0.9
    assert np.abs(posteriors - 1.0 / 3.0).mean() < 0.2
    assert np.abs(posteriors.sum(axis=1) - 1.0).max() <= 1e-12


def test_classifier_training_is_deterministic():
    rng = np.random.default_rng(17)
    data = rng.standard_normal((30, 3))
    labels = rng.integers(0, 2, size=30)
    settings = ClassifierSettings(hidden=(6, 5), epochs=5)
    a = train_classifier(data, labels, settings, seed=6)
    b = train_classifier(data, labels, settings, seed=6)
    assert np.array_equal(a.params, b.params)


def test_classifier_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(18)
    data = rng.standard_normal((20, 3))
    labels = rng.integers(0, 2, size=20)
    clf = train_classifier(data, labels, ClassifierSettings(hidden=(5, 4), epochs=3), seed=7)
    save_classifier(clf, tmp_path / "clf")
    loaded = load_classifier(tmp_path / "clf")
    assert np.array_equal(loaded.params, clf.params)
    assert loaded.n_classes == clf.n_classes
    assert loaded.feature_layer == clf.feature_layer
    assert loaded.train_accuracy == clf.train_accuracy
    assert loaded.key == clf.key
    assert np.array_equal(loaded.features(data), clf.features(data))


def test_classifier_key_covers_every_training_input():
    rng = np.random.default_rng(19)
    data = rng.standard_normal((12, 3))
    labels = rng.integers(0, 2, size=12)
    settings = ClassifierSettings(hidden=(5, 4), epochs=3)
    key = classifier_key(data, labels, settings, 7)
    assert train_classifier(data, labels, settings, seed=7).key == key
    flipped = labels.copy()
    flipped[0] = 1 - flipped[0]
    changed = [
        classifier_key(data + 1e-12, labels, settings, 7),
        classifier_key(data.reshape(9, 4), labels, settings, 7),
        classifier_key(data, flipped, settings, 7),
        classifier_key(data, labels, ClassifierSettings(hidden=(5, 4), epochs=4), 7),
        classifier_key(data, labels, ClassifierSettings(hidden=(5, 4), epochs=3, lr=0.04), 7),
        classifier_key(data, labels, settings, 8),
    ]
    assert len(set(changed)) == len(changed) and key not in changed


# -- query vectors -----------------------------------------------------------------

@pytest.fixture
def gan():
    return FcGan(GanArchitecture(latent_dim=3, data_dim=2, hidden_gen=5,
                                 hidden_disc=6, l2_rate=1e-3))


def test_query_vector_disc_block_exactly_zero(gan):
    rng = np.random.default_rng(19)
    params = gan.init_params(rng)
    latents = rng.standard_normal((30, 3))
    real = rng.standard_normal((30, 2))
    query = build_query_vector(MetricSpec("all"), gan, params, latents,
                               MetricContext(real_data=real))
    assert np.array_equal(query.data[gan.dim_gen:], np.zeros(gan.dim_disc))
    assert np.any(query.data[:gan.dim_gen] != 0)


def test_constant_metric_gives_zero_query(gan):
    rng = np.random.default_rng(20)
    params = gan.init_params(rng)
    latents = rng.standard_normal((8, 3))
    generated = GeneratedSet(gan.generator_forward(params, latents), None)
    query = generator_pullback(gan, generated, np.zeros((8, 2)))
    assert np.array_equal(query.data, np.zeros(gan.dim_params))


def test_query_scales_linearly_with_metric(gan):
    rng = np.random.default_rng(21)
    params = gan.init_params(rng)
    latents = rng.standard_normal((8, 3))
    grads = rng.standard_normal((8, 2))
    generated = GeneratedSet(gan.generator_forward(params, latents), None)
    base = generator_pullback(gan, generated, grads)
    scaled = generator_pullback(gan, generated, 3.5 * grads)
    assert np.allclose(scaled.data, 3.5 * base.data, rtol=1e-12)


def test_all_query_matches_finite_differences_in_parameters(gan):
    rng = np.random.default_rng(22)
    latents = rng.standard_normal((60, 3))
    real = rng.standard_normal((60, 2)) * 0.8 + 1.0
    params = kink_safe_params(gan, latents, real, rng)
    context = MetricContext(real_data=real)
    spec = MetricSpec("all")
    query = build_query_vector(spec, gan, params, latents, context)

    def value(p):
        return average_log_likelihood(real, gan.generator_forward(p, latents).output, 1.0)

    eps = 1e-5
    coords = rng.choice(gan.dim_gen, size=8, replace=False)
    for i in coords:
        plus, minus = params.copy(), params.copy()
        plus[i] += eps
        minus[i] -= eps
        fd = (value(plus) - value(minus)) / (2 * eps)
        assert query.data[i] == pytest.approx(fd, rel=1e-4, abs=1e-10)


def test_disc_loss_query_matches_finite_differences(gan):
    rng = np.random.default_rng(23)
    latents = rng.standard_normal((20, 3))
    real = rng.standard_normal((20, 2)) * 0.8
    params = kink_safe_params(gan, latents, real, rng)
    context = MetricContext(real_data=real)
    query = build_query_vector(MetricSpec("disc_loss"), gan, params, latents, context)
    assert np.any(query.data[:gan.dim_gen] != 0) and np.any(query.data[gan.dim_gen:] != 0)

    def value(p):
        return gan.expected_disc_loss(p, gan.generator_forward(p, latents).output, real)

    eps = 1e-5
    coords = rng.choice(gan.dim_params, size=10, replace=False)
    for i in coords:
        plus, minus = params.copy(), params.copy()
        plus[i] += eps
        minus[i] -= eps
        fd = (value(plus) - value(minus)) / (2 * eps)
        assert query.data[i] == pytest.approx(fd, rel=1e-5, abs=1e-11)


def test_metric_value_dispatch(gan):
    rng = np.random.default_rng(24)
    params = gan.init_params(rng)
    latents = rng.standard_normal((25, 3))
    real = rng.standard_normal((25, 2))
    context = MetricContext(real_data=real)
    samples = gan.generator_forward(params, latents).output
    direct = average_log_likelihood(real, samples, 1.0)
    assert metric_value(MetricSpec("all"), gan, params, latents, context) == direct
    assert metric_value(MetricSpec("disc_loss"), gan, params, latents, context) == \
        gan.expected_disc_loss(params, samples, real)


def test_harmful_sign_convention():
    assert MetricSpec("all").harmful_sign == 1.0
    assert MetricSpec("is").harmful_sign == 1.0
    assert MetricSpec("fid").harmful_sign == -1.0
    assert MetricSpec("disc_loss").harmful_sign == -1.0


def test_metric_spec_validation():
    with pytest.raises(ValueError):
        MetricSpec("nope")
    with pytest.raises(ValueError):
        MetricSpec("all", bandwidth=0.0)
