"""Tiny hand-analyzable adversarial problems and the autodiff reference.

Each toy exposes the same surface the trainer, oracle and influence engine
use on the real models: dimensions, the five graph builders and the
gradient methods, which ``TapeGradients`` derives from the graph builders
on the tape of ``tape.py``.  Their losses are low-order polynomials, so
Jacobians and update maps have closed forms the tests can write down
explicitly.

``TapeFcGan`` is the autodiff reference for ``FcGan``: the same mixin over
the model, plus its graph builders (``mlp_graph`` and ``kernel_sq_norm_graph``
express a dense stack on the tape) and the single-sample losses
``gen_loss``, ``disc_fake_loss`` and ``disc_real_loss``.  The closed-form
kernels are checked against it, and ``data_term_gradient`` differentiates
one row's data-term loss on it or on a toy.  The validation-only
estimators live here as well: ``jacobian_vector_product_fd``, the forward
``estimate_influence_vector`` built on it, and ``cross_block_transfer_check``.
The ``tape_*`` functions are the references for the closed-form dense-stack
backward and the classifier built on it.  ``loop_permutation_test_tau`` is
the per-permutation reference for the vectorized permutation test, and the
``dense_*`` KDE functions, which build the whole n_ref x n_gen matrix, are
the reference for the blocked KDE.  ``full_window_retrain`` is the oracle
that replays the whole window whatever it excludes, the reference for the
replay that starts at the first excluded step; ``uncached_fid_gradient``
refits the FID reference side on every call, the reference for the fit a
``MetricContext`` keeps, and ``fid`` does the same for its value;
``inception_score`` reads the score of a sample set on a classifier;
``sample_adjoint`` reads a sample-based kind's gradient over the samples; and
``true_influence_on_metric`` reads one metric change from two parameter
vectors.  Nothing here keeps a frozen copy of the package's arithmetic:
the digests of ``test_kernels.py`` pin its bits.
"""

from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.special import logsumexp as np_logsumexp
from scipy.special import softmax as np_softmax

from gantrace.experiments import PermutationResult
from gantrace.influence import window_start
from gantrace.metrics import (
    _KINDS,
    Classifier,
    GeneratedSet,
    _fid_from_fit,
    _fit_features,
    _psd_pinv,
    _psd_sqrt,
    inception_score_from_posteriors,
    metric_value,
)
from gantrace.models import DenseRecord, FcGan, MlpLayout, joint_gradient
from gantrace.training import (
    DivergenceError,
    StepRecord,
    TrainingTrace,
    asgd_step,
    latents_from_seed,
    step_records,
)
from tape import Tensor, backward, concat_vec, constant, logsumexp, vjp_of_gradient

_GRAPH_ACTS = {
    "relu": lambda t: t.relu(),
    "tanh": lambda t: t.tanh(),
    "sigmoid": lambda t: t.sigmoid(),
    "linear": lambda t: t,
}


def mlp_graph(layout, theta, base, x, upto_layer=None):
    """``layout.forward`` on the tape, cut after layer ``upto_layer`` when
    one is given, reading the stack's parameters from ``theta`` at offset
    ``base``; ``x`` is an array or a tensor."""
    h = x if isinstance(x, Tensor) else constant(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    for i in range(0, len(layout.spans), 2):
        k_off, k_shape = layout.spans[i]
        b_off, b_shape = layout.spans[i + 1]
        kernel = theta[base + k_off:base + k_off + k_shape[0] * k_shape[1]].reshape(k_shape)
        bias = theta[base + b_off:base + b_off + b_shape[0]]
        h = _GRAPH_ACTS[layout.activations[i // 2]](h @ kernel + bias)
        if upto_layer is not None and i // 2 == upto_layer:
            return h
    return h


def kernel_sq_norm_graph(layout, theta, base):
    """Sum of the squared kernel entries of a dense stack, biases left out."""
    total = None
    for i in range(0, len(layout.spans), 2):
        k_off, k_shape = layout.spans[i]
        term = theta[base + k_off:base + k_off + k_shape[0] * k_shape[1]].square().sum()
        total = term if total is None else total + term
    return total


def gen_batch_loss_graph(problem, theta, latents):
    if len(latents) == 0:
        raise ValueError("empty latent batch")
    return problem.gen_terms_graph(theta, latents).mean() + problem.gen_reg_graph(theta)


def disc_batch_loss_graph(problem, theta, latents, data_rows, denom=None):
    """Discriminator batch loss with an explicit normalizer (default: latent count)."""
    if len(latents) == 0:
        raise ValueError("empty latent batch")
    denom = int(len(latents) if denom is None else denom)
    total = problem.disc_fake_terms_graph(theta, latents).sum()
    if len(data_rows):
        total = total + problem.disc_real_terms_graph(theta, data_rows).sum()
    return total * (1.0 / denom) + problem.disc_reg_graph(theta)


def joint_gradient_graph(problem, theta, latents, data_rows, denom=None):
    """Differentiable two-block batch gradient, shape (dim_params,).

    The generator block differentiates the generator batch loss, the
    discriminator block the discriminator batch loss.
    """
    gen_loss = gen_batch_loss_graph(problem, theta, latents)
    disc_loss = disc_batch_loss_graph(problem, theta, latents, data_rows, denom)
    (gen_grad,) = backward(gen_loss, [theta])
    (disc_grad,) = backward(disc_loss, [theta])
    d = problem.dim_gen
    return concat_vec([gen_grad[:d], disc_grad[d:]])


class TapeGradients:
    """The gradient methods of a problem, derived from its graph builders."""

    def joint_gradient(self, params, latents, data_rows, denom, out=None):
        theta = Tensor(np.asarray(params, dtype=np.float64))
        grad = joint_gradient_graph(self, theta, latents, data_rows, denom).data
        if out is None:
            return grad.copy()
        out[...] = grad
        return out

    def joint_gradient_vjp(self, vector, params, latents, data_rows, denom):
        """The product on the tape, and the data rows' scores along the
        vector's discriminator block over ``denom`` from ``data_term_scores``."""
        def gradient_map(theta):
            return joint_gradient_graph(self, theta, latents, data_rows, denom)

        vector = np.asarray(vector, dtype=np.float64)
        scores = (self.data_term_scores(vector[self.dim_gen:], params, data_rows) / denom
                  if len(data_rows) else np.zeros(0))
        return vjp_of_gradient(vector, gradient_map, params), scores

    def data_term_scores(self, disc_query, params, rows):
        """All per-row inner products from one batched double backward.

        Weighting the per-row losses by auxiliary coefficients and
        differentiating the query inner product with respect to those
        coefficients yields every per-row inner product at once.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        theta = Tensor(np.asarray(params, dtype=np.float64))
        weights = Tensor(np.ones(len(rows)))
        weighted = weights.dot(self.disc_real_terms_graph(theta, rows))
        (grad,) = backward(weighted, [theta])
        inner = constant(np.asarray(disc_query, dtype=np.float64)).dot(grad[self.dim_gen:])
        (per_row,) = backward(inner, [weights])
        return per_row.data.copy()

    # The metric queries on the tape take latents where ``FcGan``'s take a
    # generator pass or its samples, so they keep names of their own.

    def generator_vjp_from_latents(self, params, latents, sample_grads):
        theta = Tensor(np.asarray(params, dtype=np.float64))
        samples = self.generator_graph(theta, latents)
        inner = (constant(np.asarray(sample_grads, dtype=np.float64)) * samples).sum()
        (grad,) = backward(inner, [theta])
        return grad.data.copy()

    def _expected_disc_loss_graph(self, theta, latents, rows):
        return self.disc_fake_terms_graph(theta, latents).mean() \
            + self.disc_real_terms_graph(theta, rows).mean()

    def expected_disc_loss_from_latents(self, params, latents, rows):
        theta = Tensor(np.asarray(params, dtype=np.float64))
        return float(self._expected_disc_loss_graph(theta, latents, rows).data)

    def expected_disc_loss_gradient_from_latents(self, params, latents, rows):
        theta = Tensor(np.asarray(params, dtype=np.float64))
        (grad,) = backward(self._expected_disc_loss_graph(theta, latents, rows), [theta])
        return grad.data.copy()


class TapeFcGan(TapeGradients, FcGan):
    """``FcGan`` whose gradient methods run on the autodiff tape.

    The graph builders express ``FcGan``'s losses on the discriminator's
    logit x: the non-saturating generator loss -sigmoid(x) or the minimax
    log(1 - D) = -softplus(x), the discriminator's -log(1 - D) =
    softplus(x) on generated samples and -log D on data rows, and each
    network's L2 penalty on its kernels.  -log D is written softplus(x) - x,
    whose derivative on the tape is sigmoid(x) - 1, the kernels' p - 1: at
    a saturated discriminator both round to 0 where -sigmoid(-x) would not.
    """

    def generator_graph(self, theta, latents):
        return mlp_graph(self.gen_net, theta, 0, latents)

    def discriminator_graph(self, theta, x):
        """The discriminator's logits, shape (n, 1)."""
        return mlp_graph(self.disc_net, theta, self.dim_gen, x)

    def gen_terms_graph(self, theta, latents):
        """Per-latent generator loss, shape (n_latents,)."""
        logits = self.discriminator_graph(theta, self.generator_graph(theta, latents))
        n = logits.shape[0]
        if self.arch.objective == "nonsaturating":
            terms = -logits.sigmoid()
        else:
            terms = -logits.softplus()
        return terms.reshape((n,))

    def disc_fake_terms_graph(self, theta, latents):
        """Per-latent discriminator loss on generated samples, shape (n_latents,)."""
        logits = self.discriminator_graph(theta, self.generator_graph(theta, latents))
        return logits.softplus().reshape((logits.shape[0],))

    def disc_real_terms_graph(self, theta, rows):
        """Per-instance discriminator loss on real data, shape (n_rows,)."""
        logits = self.discriminator_graph(theta, rows)
        return (logits.softplus() - logits).reshape((logits.shape[0],))

    def gen_reg_graph(self, theta):
        return kernel_sq_norm_graph(self.gen_net, theta, 0) * self.arch.l2_rate

    def disc_reg_graph(self, theta):
        return kernel_sq_norm_graph(self.disc_net, theta, self.dim_gen) * self.arch.l2_rate

    def gen_loss(self, params, latent):
        return float(self.gen_terms_graph(Tensor(params), np.atleast_2d(latent)).data[0])

    def disc_fake_loss(self, params, latent):
        return float(self.disc_fake_terms_graph(Tensor(params), np.atleast_2d(latent)).data[0])

    def disc_real_loss(self, params, x):
        return float(self.disc_real_terms_graph(Tensor(params), np.atleast_2d(x)).data[0])


def data_term_gradient(problem, params, row):
    """Gradient of one instance's data-term loss, discriminator block only.

    Neither the L2 penalty nor the generated-sample terms depend on the
    instance, so this is the entire per-step effect of removing it.
    ``problem`` needs the graph builders: a toy or a ``TapeFcGan``.
    """
    theta = Tensor(np.asarray(params, dtype=np.float64))
    loss = problem.disc_real_terms_graph(theta, np.atleast_2d(row)).sum()
    (grad,) = backward(loss, [theta])
    return grad.data[problem.dim_gen:].copy()


# -- validation-only estimators ----------------------------------------------------

def jacobian_vector_product_fd(problem, params, direction, latents, data_rows,
                               denom=None, step_scale=1e-4):
    """J·v by central finite differences of the joint gradient.

    The evaluation points sit at ``params +- eps * v_hat`` with
    ``eps = step_scale * (1 + |v|)``, so the perturbation magnitude stays
    near ``step_scale`` regardless of the direction's length.
    """
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        return np.zeros_like(params)
    eps = step_scale * (1.0 + norm)
    offset = (eps / norm) * direction
    plus = joint_gradient(problem, params + offset, latents, data_rows, denom)
    minus = joint_gradient(problem, params - offset, latents, data_rows, denom)
    return (plus - minus) * (norm / (2.0 * eps))


def estimate_influence_vector(problem, trace, dataset, target, k_epochs=None, dim_cap=2000):
    """Forward-accumulated estimate of the full parameter shift for one instance.

    Each step multiplies the running shift by the step's update map using a
    finite-difference Jacobian-vector product, then injects the instance's
    scaled data-term gradient at its occurrences.  ``problem`` needs the
    graph builders for ``data_term_gradient``.  Refuses parameter counts
    above ``dim_cap``.
    """
    if problem.dim_params > dim_cap:
        raise ValueError(
            f"parameter count {problem.dim_params} exceeds the cap {dim_cap} "
            "for the forward influence estimate")
    dataset = np.asarray(dataset, dtype=np.float64)
    start = window_start(trace, k_epochs)
    target = int(target)
    d = problem.dim_gen
    shift = np.zeros(problem.dim_params)
    for record in trace.records[start:]:
        idx = record.batch_indices
        latents = record.latents(problem.latent_dim)
        if np.any(shift):
            jv = jacobian_vector_product_fd(problem, record.params, shift, latents,
                                            dataset[idx], denom=len(latents))
            shift = shift - np.concatenate([record.lr_gen * jv[:d], record.lr_disc * jv[d:]])
        if record.lr_disc != 0.0 and target in set(int(j) for j in idx):
            grad = data_term_gradient(problem, record.params, dataset[target])
            shift = shift.copy()
            shift[d:] += (record.lr_disc / len(idx)) * grad
    return shift


@dataclass
class CrossBlockReport:
    """Cross-block image of a probe under one step's update map.

    ``gen_image`` is what the probe's discriminator block contributes to
    the generator block after the step; ``disc_image`` the converse.  A
    nonzero ``gen_image`` is exactly the coupling that carries an
    instance's removal from the discriminator into the generator.
    """

    step: int
    output: np.ndarray
    gen_image: np.ndarray
    disc_image: np.ndarray

    @property
    def gen_transfer_norm(self):
        return float(np.linalg.norm(self.gen_image))

    @property
    def disc_transfer_norm(self):
        return float(np.linalg.norm(self.disc_image))


def cross_block_transfer_check(problem, trace, dataset, step_index, probe=None, rng=None):
    """Measure how a probe crosses the generator/discriminator block boundary.

    The output applies only the off-diagonal Jacobian blocks: the generator
    part is ``probe_gen - lr_gen * (J (0, probe_disc))_gen`` and the
    discriminator part the mirror image.  With a probe confined to the
    discriminator block, a nonzero generator image certifies the transfer.
    """
    dataset = np.asarray(dataset, dtype=np.float64)
    record = trace.records[step_index]
    d = problem.dim_gen
    if probe is None:
        rng = rng or np.random.default_rng(0)
        probe = np.concatenate([np.zeros(d), rng.standard_normal(problem.dim_disc)])
        probe /= np.linalg.norm(probe)
    probe = np.asarray(probe, dtype=np.float64)
    latents = record.latents(problem.latent_dim)
    rows = dataset[record.batch_indices]

    disc_only = np.concatenate([np.zeros(d), probe[d:]])
    gen_only = np.concatenate([probe[:d], np.zeros(problem.dim_disc)])
    gen_image = np.zeros(d)
    if np.any(disc_only):
        gen_image = -record.lr_gen * jacobian_vector_product_fd(
            problem, record.params, disc_only, latents, rows, denom=len(latents))[:d]
    disc_image = np.zeros(problem.dim_disc)
    if np.any(gen_only):
        disc_image = -record.lr_disc * jacobian_vector_product_fd(
            problem, record.params, gen_only, latents, rows, denom=len(latents))[d:]
    output = probe + np.concatenate([gen_image, disc_image])
    return CrossBlockReport(step=step_index, output=output,
                            gen_image=gen_image, disc_image=disc_image)


def tape_mlp_vjp(layout, flat, x, output_adjoint, upto_layer=None):
    """Parameter and input gradients of ``<output_adjoint, forward>`` on the tape."""
    theta = Tensor(np.asarray(flat, dtype=np.float64))
    leaf = Tensor(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    out = mlp_graph(layout, theta, 0, leaf, upto_layer=upto_layer)
    inner = (constant(output_adjoint) * out).sum()
    param_grad, input_grad = backward(inner, [theta, leaf])
    return param_grad.data.copy(), input_grad.data.copy()


def tape_input_pullback(classifier, x, output_grads, layer):
    upto = None if layer == "logits" else classifier.feature_layer
    return tape_mlp_vjp(classifier.layout, classifier.params, x, output_grads, upto)[1]


def tape_train_classifier(data, labels, settings, seed=0):
    """``metrics.train_classifier`` with every gradient taken on the tape."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = int(labels.max()) + 1
    layout = MlpLayout((data.shape[1], *settings.hidden, n_classes),
                       (settings.activation,) * len(settings.hidden) + ("linear",))
    init_seq, shuffle_seq = np.random.SeedSequence(seed).spawn(2)
    params = layout.init_params(np.random.default_rng(init_seq))
    shuffle_rng = np.random.default_rng(shuffle_seq)
    onehot = np.eye(n_classes)[labels]
    for _ in range(settings.epochs):
        order = shuffle_rng.permutation(len(data))
        for start in range(0, len(data), settings.batch_size):
            batch = order[start:start + settings.batch_size]
            theta = Tensor(params)
            logits = mlp_graph(layout, theta, 0, data[batch])
            logp = logits - logsumexp(logits, axis=1, keepdims=True)
            loss = -(constant(onehot[batch]) * logp).sum(axis=1).mean()
            (grad,) = backward(loss, [theta])
            params = params - settings.lr * grad.data
            peak = np.max(np.abs(params))
            if not np.isfinite(peak) or peak > 1e6:
                raise DivergenceError("classifier training diverged")
    clf = Classifier(layout, params, n_classes, settings.feature_layer)
    clf.train_accuracy = float((clf.record(data).output.argmax(axis=1) == labels).mean())
    return clf


def loop_permutation_test_tau(estimated, true, n_permutations=1000, rng=None):
    """The permutation test with one ``scipy.stats.kendalltau`` call per permutation."""
    rng = rng or np.random.default_rng(0)
    estimated = np.asarray(estimated, dtype=np.float64)
    observed = float(stats.kendalltau(estimated, true).statistic)
    null = np.empty(n_permutations)
    for i in range(n_permutations):
        null[i] = stats.kendalltau(estimated[rng.permutation(len(estimated))], true).statistic
    threshold = float(np.quantile(null, 0.975))
    p_value = float((np.sum(null >= observed) + 1) / (n_permutations + 1))
    return PermutationResult(observed, threshold, p_value, n_permutations)


def _pairwise_sq_dists(a, b):
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(sq, 0.0)


def dense_average_log_likelihood(real, generated, bandwidth):
    """``metrics.average_log_likelihood`` over the whole n_ref x n_gen matrix at once."""
    real = np.atleast_2d(np.asarray(real, dtype=np.float64))
    generated = np.atleast_2d(np.asarray(generated, dtype=np.float64))
    h2 = bandwidth * bandwidth
    log_kernels = -_pairwise_sq_dists(real, generated) / (2.0 * h2)
    log_density = (np_logsumexp(log_kernels, axis=1) - np.log(generated.shape[0])
                   - 0.5 * real.shape[1] * np.log(2.0 * np.pi * h2))
    return float(log_density.mean())


def dense_all_gradient(real, generated, bandwidth):
    """``metrics._all_gradient`` over the whole n_ref x n_gen matrix at once."""
    real = np.atleast_2d(np.asarray(real, dtype=np.float64))
    generated = np.atleast_2d(np.asarray(generated, dtype=np.float64))
    h2 = bandwidth * bandwidth
    weights = np_softmax(-_pairwise_sq_dists(real, generated) / (2.0 * h2), axis=1)
    pulled = weights.T @ real - weights.sum(axis=0)[:, None] * generated
    return pulled / (real.shape[0] * h2)


def full_window_retrain(problem, trace, dataset, excluded, k_epochs=None):
    """Counterfactual parameters from a replay of the whole window."""
    dataset = np.asarray(dataset, dtype=np.float64)
    exclusion = {int(excluded)} if np.isscalar(excluded) else {int(j) for j in excluded}
    start = window_start(trace, k_epochs)
    params = trace.records[start].params.copy()
    for record in trace.records[start:]:
        idx = record.batch_indices
        keep = np.fromiter((int(j) not in exclusion for j in idx), dtype=bool, count=len(idx))
        latents = latents_from_seed(record.latent_seed, len(idx), problem.latent_dim)
        params = asgd_step(problem, params, dataset[idx[keep]], latents,
                           record.lr_gen, record.lr_disc, denom=len(idx))
    return params


def true_influence_on_metric(problem, base_params, cf_params, spec, eval_latents, context):
    """Signed metric change caused by the exclusion, on shared evaluation latents."""
    before = metric_value(spec, problem, base_params, eval_latents, context)
    after = metric_value(spec, problem, cf_params, eval_latents, context)
    return after - before


def fid(real_feats, gen_feats):
    """Frechet distance between Gaussian fits of two feature sets, the
    reference side fitted afresh."""
    return _fid_from_fit(_fit_features(real_feats), gen_feats)


def sample_set(points, classifier=None):
    """A ``GeneratedSet`` of given points: the pass of an empty stack, whose
    output is its input."""
    return GeneratedSet(DenseRecord((), [np.atleast_2d(np.asarray(points, dtype=np.float64))]),
                        classifier)


def sample_adjoint(spec, generated, context):
    """The samples' adjoint of a sample-based kind's query, read off the
    kinds table; such a query uses neither the problem nor the parameters."""
    return _KINDS[spec.kind].query(spec, None, None, generated, context)[1]


def disc_logits(gan, params, x):
    """The discriminator's logits on the rows of ``x``, one pass."""
    net = gan.disc_net
    return net.forward(net.unpack(params[gan.dim_gen:]), np.atleast_2d(x)).output[:, 0]


def inception_score(generated, classifier):
    """Inception score of a sample set, read as a ``GeneratedSet`` reads it."""
    return inception_score_from_posteriors(sample_set(generated, classifier).posteriors)


def uncached_fid_gradient(generated, classifier, real_data):
    """The FID's per-sample input gradient with the reference side fitted afresh."""
    generated = np.atleast_2d(np.asarray(generated, dtype=np.float64))
    real_feats = classifier.features(real_data)
    gen_feats = classifier.features(generated)
    n = len(gen_feats)
    mu1, mu2 = real_feats.mean(axis=0), gen_feats.mean(axis=0)
    sigma1 = np.atleast_2d(np.cov(real_feats, rowvar=False, ddof=1))
    sigma2 = np.atleast_2d(np.cov(gen_feats, rowvar=False, ddof=1))
    root1, _ = _psd_sqrt(sigma1)
    cross, _ = _psd_sqrt(root1 @ sigma2 @ root1)
    sigma_grad = np.eye(len(sigma2)) - root1 @ _psd_pinv(cross) @ root1
    sigma_grad = 0.5 * (sigma_grad + sigma_grad.T)
    mean_part = (2.0 / n) * (mu2 - mu1)[None, :]
    cov_part = (2.0 / (n - 1)) * (gen_feats - mu2) @ sigma_grad
    return classifier.input_pullback(classifier.record(generated), mean_part + cov_part,
                                     layer="features")


class QuadraticGameProblem(TapeGradients):
    """Both losses quadratic in the coupled vector; data terms linear.

    gen loss per latent:  0.5 * theta^T A theta   (A symmetric)
    disc fake per latent: 0.5 * theta^T C theta   (C symmetric)
    disc data term per row x: <x, M theta_disc>   (linear: no curvature)

    The joint-gradient Jacobian is constant:
        J = [[A_gg, A_gd], [C_dg, C_dd]]
    and the data-term gradient for row x is M^T x.
    """

    def __init__(self, dim_gen, dim_disc, gen_quad, disc_quad, data_map, latent_dim=2):
        self.dim_gen = int(dim_gen)
        self.dim_disc = int(dim_disc)
        self.dim_params = self.dim_gen + self.dim_disc
        self.latent_dim = int(latent_dim)
        self.gen_quad = np.asarray(gen_quad, dtype=np.float64)
        self.disc_quad = np.asarray(disc_quad, dtype=np.float64)
        self.data_map = np.atleast_2d(np.asarray(data_map, dtype=np.float64))
        assert self.gen_quad.shape == (self.dim_params, self.dim_params)
        assert np.allclose(self.gen_quad, self.gen_quad.T)
        assert np.allclose(self.disc_quad, self.disc_quad.T)
        assert self.data_map.shape[1] == self.dim_disc

    @property
    def data_dim(self):
        return self.data_map.shape[0]

    def init_params(self, rng):
        return rng.uniform(-0.5, 0.5, self.dim_params)

    def expected_jacobian(self):
        d = self.dim_gen
        top = self.gen_quad[:d, :]
        bottom = self.disc_quad[d:, :]
        return np.vstack([top, bottom])

    def _quad_terms(self, theta, matrix, count):
        half = constant(0.5 * matrix)
        col = theta.reshape((self.dim_params, 1))
        value = (col.T @ (half @ col)).reshape(())
        return constant(np.ones(count)) * value

    def gen_terms_graph(self, theta, latents):
        return self._quad_terms(theta, self.gen_quad, len(latents))

    def disc_fake_terms_graph(self, theta, latents):
        return self._quad_terms(theta, self.disc_quad, len(latents))

    def disc_real_terms_graph(self, theta, rows):
        rows = np.atleast_2d(rows)
        mapped = constant(rows @ self.data_map)  # (n, dim_disc)
        disc = theta[self.dim_gen:].reshape((self.dim_disc, 1))
        return (mapped @ disc).reshape((len(rows),))

    def gen_reg_graph(self, theta):
        return constant(0.0)

    def disc_reg_graph(self, theta):
        return constant(0.0)


def bilinear_game(coupling_gen=1.0, coupling_disc=1.0):
    """One generator and one discriminator parameter, bilinear coupling.

    gen loss = coupling_gen * a * b, disc fake loss = coupling_disc * a * b,
    data term per scalar row x = x * b.  The Jacobian of the joint gradient
    is the constant [[0, cg], [cd, 0]].
    """
    cg, cd = float(coupling_gen), float(coupling_disc)
    gen_quad = np.array([[0.0, cg], [cg, 0.0]])
    disc_quad = np.array([[0.0, cd], [cd, 0.0]])
    data_map = np.array([[1.0]])
    return QuadraticGameProblem(1, 1, gen_quad, disc_quad, data_map, latent_dim=1)


def decoupled_game(dim_gen=2, dim_disc=2):
    """Block-diagonal losses: no cross-block Jacobian, so no transfer."""
    rng = np.random.default_rng(99)
    a = rng.standard_normal((dim_gen, dim_gen))
    c = rng.standard_normal((dim_disc, dim_disc))
    gen_quad = np.zeros((dim_gen + dim_disc,) * 2)
    disc_quad = np.zeros_like(gen_quad)
    gen_quad[:dim_gen, :dim_gen] = a @ a.T
    disc_quad[dim_gen:, dim_gen:] = c @ c.T
    data_map = np.eye(dim_disc)
    return QuadraticGameProblem(dim_gen, dim_disc, gen_quad, disc_quad, data_map)


class TinyDiscriminatorProblem(TapeGradients):
    """Single-parameter discriminator D(x) = sigmoid(w * x), no generator net.

    The generator block is one inert parameter so the coupled layout is
    still two blocks.  Used for hand-derived data-term gradients.
    """

    dim_gen = 1
    dim_disc = 1
    dim_params = 2
    latent_dim = 1
    data_dim = 1

    def init_params(self, rng):
        return np.zeros(2)

    def gen_terms_graph(self, theta, latents):
        return constant(np.zeros(len(latents)))

    def disc_fake_terms_graph(self, theta, latents):
        return constant(np.zeros(len(latents)))

    def disc_real_terms_graph(self, theta, rows):
        rows = np.atleast_2d(rows)
        w = theta[1:2].reshape((1, 1))
        logits = constant(rows) @ w
        return (logits.softplus() - logits).reshape((len(rows),))

    def gen_reg_graph(self, theta):
        return constant(0.0)

    def disc_reg_graph(self, theta):
        return constant(0.0)


def build_trace(problem, dataset, schedule, rates, theta0, epoch_starts=None, seed0=1000):
    """Hand-built trace from an explicit schedule, for targeted scenarios,
    stepped through the package's loop as ``run_training`` steps it."""
    records = [StepRecord(t, np.asarray(idx, dtype=np.int64), *rates[t], None, seed0 + t)
               for t, idx in enumerate(schedule)]
    theta0 = np.asarray(theta0, dtype=np.float64).copy()
    return TrainingTrace(
        records=records,
        final_params=step_records(problem, theta0, records, np.asarray(dataset, dtype=np.float64),
                                  keep=True),
        fingerprint="toy",
        epoch_starts=list(epoch_starts) if epoch_starts is not None else [0],
        n_train=len(dataset),
        epochs=len(epoch_starts) if epoch_starts is not None else 1,
        latent_dim=problem.latent_dim,
        dim_gen=problem.dim_gen,
        dim_disc=problem.dim_disc,
    )


def min_abs_preactivation(gan, params, latents, rows):
    """Smallest |relu preactivation| across both networks of an FcGan.

    Finite-difference oracles are only valid away from the relu kinks;
    tests resample parameter points until this clears a margin.
    """
    gen_kernel, gen_bias = gan.gen_net.unpack(params[:gan.dim_gen])[0]
    gen_pre = np.atleast_2d(latents) @ gen_kernel + gen_bias
    generated = gan.generator_forward(params, latents).output
    disc_kernel, disc_bias = gan.disc_net.unpack(params[gan.dim_gen:])[0]
    disc_inputs = np.vstack([generated, np.atleast_2d(rows)]) if len(rows) else generated
    disc_pre = disc_inputs @ disc_kernel + disc_bias
    return min(np.abs(gen_pre).min(), np.abs(disc_pre).min())


def kink_safe_params(gan, latents, rows, rng, margin=1e-3, jitter=0.05):
    """Initialization plus bias jitter, resampled until clear of relu kinks."""
    for _ in range(200):
        params = gan.init_params(rng) + rng.normal(0.0, jitter, gan.dim_params)
        if min_abs_preactivation(gan, params, latents, rows) > margin:
            return params
    raise AssertionError("could not find a kink-safe parameter point")
