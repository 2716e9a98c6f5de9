"""Generative-quality metrics, their sample gradients, and query vectors.

Three metrics over a generated sample set: average log-likelihood under a
Gaussian kernel density estimate of the generated set (``all``), the
classifier-based inception score (``is``), and the Frechet distance between
classifier feature distributions (``fid``).  A fourth kind, ``disc_loss``,
scores the discriminator's expected loss and serves as a baseline selector.

The KDE never holds the n_ref x n_gen kernel matrix: its value and its
gradient each stream one pass over blocks of reference rows in one reused
buffer of about ``_KDE_BLOCK_ENTRIES`` entries, so memory is
O(block x n_generated) beside the two point sets.  Each block's log
kernels come from one matmul of operands augmented with the squared norms,
the power-of-two part of the kernel scale multiplied exactly into the
generated side; a block is multiplied by the scale's mantissa only when
that is not 1, and clamped at 0 only when a squared distance rounded below
zero.  Kernels are summed unshifted; only a row whose plain sum falls
below ``_KDE_UNDERFLOW_SUM`` is recomputed with its log-sum-exp shifted by
its largest log kernel.
The FID's reference side (the mean, covariance and covariance square root
of the reference set's classifier features) is fitted once per frozen
``MetricContext`` and shared by every FID value and gradient read from it.
A ``GeneratedSet`` holds one generated sample set and the classifier's
record of it, so the readings and queries of several metrics share one pass;
``metric_reader`` and ``build_query_vector`` read and chain through one such set.

Each metric's gradient with respect to the generated samples is analytic at
the outer level; where samples pass through a network (classifier features
or posteriors), the pullback to the inputs is the closed-form dense-stack
backward pass, ``MlpLayout.backward``, the same pass that trains the
classifier.  Chaining those
sample gradients through the generator produces the query vector whose
backward propagation estimates per-instance influence: the discriminator
block of such a query is exactly zero because real data never passes
through the generator.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .influence import QueryVector
from .models import DenseRecord, MlpLayout, _checked
from .training import DivergenceError, load_checked, save_checked

METRIC_KINDS = ("all", "is", "fid", "disc_loss")

# Sign convention for data cleansing: +1 means instances with positive
# estimated influence are harmful (their removal raises a
# larger-is-better metric); -1 the opposite.
_HARMFUL_SIGNS = {"all": 1.0, "is": 1.0, "fid": -1.0, "disc_loss": -1.0}


@dataclass(frozen=True)
class MetricSpec:
    kind: str
    bandwidth: float = 1.0

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    @property
    def harmful_sign(self) -> float:
        return _HARMFUL_SIGNS[self.kind]


@dataclass(frozen=True)
class MetricContext:
    """Auxiliary data the metrics draw on: reference set and classifier.

    Frozen, so that the FID reference fit, computed on first use, always
    describes the context's own reference set and classifier.
    """

    real_data: np.ndarray | None = None
    classifier: "Classifier | None" = None

    @cached_property
    def fid_reference(self) -> "FeatureFit":
        """Gaussian fit of the reference set's classifier features."""
        return _fit_features(self.classifier.features(self.real_data))


# -- average log-likelihood ---------------------------------------------------

# Reference rows per KDE block are chosen so that one block holds this many
# kernel entries (1 MB of float64) whatever the size of the generated set.
_KDE_BLOCK_ENTRIES = 2 ** 17

# A row whose plain kernel sum falls below this may have lost its sum to
# underflow; only such rows are recomputed with a row-max shift.  Above it,
# each kernel lost to underflow (below about 1e-308) is less than 1e-58 of
# the row's sum.
_KDE_UNDERFLOW_SUM = 1e-250


def _kde_point_sets(real, generated) -> tuple[np.ndarray, np.ndarray]:
    real = np.atleast_2d(np.asarray(real, dtype=np.float64))
    generated = np.atleast_2d(np.asarray(generated, dtype=np.float64))
    if real.size == 0 or generated.size == 0:
        raise ValueError("both point sets must be non-empty")
    return real, generated


def _log_kernels(left_rows: np.ndarray, right: np.ndarray, mantissa: float,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Log kernels of reference rows: the augmented matmul, times the scale's
    mantissa unless that is 1, clamped at 0 only when some squared distance
    rounded below zero."""
    log_kernels = np.matmul(left_rows, right, out=out)
    if mantissa != 1.0:
        np.multiply(log_kernels, mantissa, out=log_kernels)
    if log_kernels.max() > 0.0:
        np.minimum(log_kernels, 0.0, out=log_kernels)
    return log_kernels


def _shifted_kernels(left_rows: np.ndarray, right: np.ndarray, mantissa: float):
    """Kernels of reference rows whose plain sums underflow, each row divided
    by its largest kernel, and each row's largest log kernel."""
    log_kernels = _log_kernels(left_rows, right, mantissa)
    row_max = log_kernels.max(axis=1)
    log_kernels -= row_max[:, None]
    return np.exp(log_kernels, out=log_kernels), row_max


def _kde_blocks(real: np.ndarray, generated: np.ndarray, h2: float):
    """Stream the Gaussian kernel matrix over blocks of reference rows.

    Yields ``(rows, kernels, sums, shift)`` per block: the slice of reference
    rows, ``exp(log kernel - shift)`` for those rows, their row sums, and each
    row's shift.  The shift is 0 except on rows whose plain sum falls below
    ``_KDE_UNDERFLOW_SUM``; those are recomputed shifted by their largest log
    kernel.  ``kernels`` is a view of one buffer that the next block
    overwrites, so a caller must not keep it.
    """
    n_gen = len(generated)
    step = max(1, _KDE_BLOCK_ENTRIES // n_gen)
    # Squared distances |r|^2 - 2 r.g + |g|^2 as one matmul of augmented
    # operands [r, |r|^2, 1] and [-2 g; 1; |g|^2], built once per call.
    # The scale -1/(2 h^2) splits into a signed power of two, which moves
    # into ``right``, and a mantissa in [1, 2), which stays out.  Short of
    # overflow or subnormal results, scaling by a power of two is exact for
    # every product and partial sum of the matmul, so the block equals the
    # scaled distances of an unscaled matmul bit for bit.  The mantissa is
    # not: applied to each term before they cancel it would add rounding
    # errors of the terms' size, not of the distance's, so it multiplies
    # the finished block, and only when it is not 1, as it is at every
    # bandwidth that is a power of two.
    fraction, exponent = math.frexp(-0.5 / h2)
    power = math.ldexp(-1.0, exponent - 1)
    mantissa = 2.0 * abs(fraction)
    left = np.hstack([real, (real * real).sum(axis=1, keepdims=True),
                      np.ones((len(real), 1))])
    right = np.vstack([-2.0 * generated.T, np.ones((1, n_gen)),
                       (generated * generated).sum(axis=1)[None, :]])
    right *= power
    ones = np.ones(n_gen)
    buffer = np.empty((min(step, len(real)), n_gen))
    for start in range(0, len(real), step):
        rows = slice(start, min(start + step, len(real)))
        block = _log_kernels(left[rows], right, mantissa, out=buffer[:rows.stop - start])
        np.exp(block, out=block)
        sums = block @ ones
        shift = np.zeros(len(sums))
        low = np.flatnonzero(sums < _KDE_UNDERFLOW_SUM)
        if low.size:
            kernels, row_max = _shifted_kernels(left[start + low], right, mantissa)
            block[low] = kernels
            sums[low] = kernels @ ones
            shift[low] = row_max
        yield rows, block, sums, shift


def average_log_likelihood(real: np.ndarray, generated: np.ndarray, bandwidth: float) -> float:
    """Mean log density of the real points under a Gaussian KDE of the generated set.

    The kernel includes the full normalizing constant.  A reference row's
    kernels are summed unshifted unless that sum underflows; then its
    log-sum-exp is stabilized by its own largest log kernel.
    """
    real, generated = _kde_point_sets(real, generated)
    h2 = bandwidth * bandwidth
    total = 0.0
    for _, _, sums, shift in _kde_blocks(real, generated, h2):
        total += float((np.log(sums) + shift).sum())
    return float(total / len(real) - np.log(len(generated))
                 - 0.5 * real.shape[1] * np.log(2.0 * np.pi * h2))


def _all_gradient(real: np.ndarray, generated: np.ndarray, bandwidth: float) -> np.ndarray:
    """Per-sample gradient of the KDE log-likelihood, shape (n_generated, dim).

    Each reference row's kernels are normalised by its sum through the
    weights ``1 / sums`` inside the two products, not by a divide of the block.
    """
    real, generated = _kde_point_sets(real, generated)
    h2 = bandwidth * bandwidth
    pulled = np.zeros_like(generated)
    mass = np.zeros(len(generated))
    for rows, kernels, sums, _ in _kde_blocks(real, generated, h2):
        weights = 1.0 / sums
        pulled += kernels.T @ (real[rows] * weights[:, None])
        mass += weights @ kernels
    pulled -= mass[:, None] * generated
    return pulled / (len(real) * h2)


# -- inception score ----------------------------------------------------------

def _kl_to_marginal(posteriors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each posterior's log ratio to the marginal, entry by entry, and its
    KL divergence from the marginal; a zero probability contributes 0."""
    marginal = posteriors.mean(axis=0)
    ratio = np.log(np.where(posteriors > 0, posteriors, 1.0)) \
        - np.log(np.where(marginal > 0, marginal, 1.0))[None, :]
    return ratio, (posteriors * ratio).sum(axis=1)


def inception_score_from_posteriors(posteriors: np.ndarray) -> float:
    """exp of the mean KL divergence from each posterior to the marginal."""
    posteriors = np.atleast_2d(np.asarray(posteriors, dtype=np.float64))
    if posteriors.size == 0:
        raise ValueError("posterior set must be non-empty")
    return float(np.exp(_kl_to_marginal(posteriors)[1].mean()))


def _is_gradient(generated: "GeneratedSet") -> np.ndarray:
    """Gradient of the inception score through the classifier, per sample.

    The outer derivative with respect to the logits collapses to
    (score / n) * p * (r - <p, r>) with r the per-sample log ratio to the
    marginal, whose inner products <p, r> are the KL terms of the score;
    the pullback from logits to inputs is the classifier's.
    """
    posteriors = generated.posteriors
    ratio, kl = _kl_to_marginal(posteriors)
    score = float(np.exp(kl.mean()))
    grad_logits = (score / len(posteriors)) * posteriors * (ratio - kl[:, None])
    return generated.classifier.input_pullback(generated.record, grad_logits, layer="logits")


# -- Frechet distance ---------------------------------------------------------

def _psd_sqrt(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Symmetric square root by eigendecomposition, negatives clipped at zero."""
    sym = 0.5 * (matrix + matrix.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    most_negative = float(eigvals.min())
    clipped = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(clipped)) @ eigvecs.T, most_negative


def _psd_pinv(matrix: np.ndarray) -> np.ndarray:
    sym = 0.5 * (matrix + matrix.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    cutoff = max(eigvals.max(), 0.0) * 1e-12
    inv = np.where(eigvals > cutoff, 1.0 / np.where(eigvals > cutoff, eigvals, 1.0), 0.0)
    return (eigvecs * inv) @ eigvecs.T


class FeatureFit(NamedTuple):
    """Gaussian fit of one feature set, with the square root of its covariance."""

    mean: np.ndarray
    cov: np.ndarray
    root: np.ndarray
    most_negative: float


def _fit_features(feats: np.ndarray) -> FeatureFit:
    """Mean and unbiased (n - 1) covariance of a feature set, plus its root."""
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    if len(feats) < 2:
        raise ValueError("need at least two samples per side for covariances")
    cov = np.atleast_2d(np.cov(feats, rowvar=False, ddof=1))
    root, most_negative = _psd_sqrt(cov)
    return FeatureFit(feats.mean(axis=0), cov, root, most_negative)


def _cross_root(reference: FeatureFit, gen_feats: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Generated mean and covariance, and the root of B S2 B with B the reference root."""
    gen_feats = np.atleast_2d(np.asarray(gen_feats, dtype=np.float64))
    if len(gen_feats) < 2:
        raise ValueError("need at least two samples per side for covariances")
    sigma2 = np.atleast_2d(np.cov(gen_feats, rowvar=False, ddof=1))
    cross, most_negative = _psd_sqrt(reference.root @ sigma2 @ reference.root)
    return gen_feats.mean(axis=0), sigma2, cross, most_negative


def _fid_from_fit(reference: FeatureFit, gen_feats: np.ndarray) -> float:
    """Frechet distance from a fitted reference side to a generated feature set.

    Covariances use the unbiased (n - 1) denominator.  The trace of the
    product square root is computed through the symmetric similarity form,
    so a single eigendecomposition of a symmetric matrix suffices.
    """
    mu2, sigma2, cross, neg_cross = _cross_root(reference, gen_feats)
    worst = min(reference.most_negative, neg_cross)
    if worst < -1e-6:
        warnings.warn(f"clipped eigenvalue {worst:.3e} in the Frechet distance",
                      RuntimeWarning, stacklevel=3)
    diff = reference.mean - mu2
    value = float(diff @ diff + np.trace(reference.cov) + np.trace(sigma2)
                  - 2.0 * np.trace(cross))
    return max(value, 0.0)


def _fid_gradient_wrt_features(reference: FeatureFit, gen_feats: np.ndarray) -> np.ndarray:
    """Per-sample gradient of the Frechet distance in generated feature space.

    The covariance term uses d tr((S1 S2)^(1/2)) / d S2
    = (1/2) B (B S2 B)^(-1/2) B with B the square root of S1.
    """
    gen_feats = np.atleast_2d(np.asarray(gen_feats, dtype=np.float64))
    n = len(gen_feats)
    mu2, sigma2, cross, _ = _cross_root(reference, gen_feats)
    root1 = reference.root
    sigma_grad = np.eye(len(sigma2)) - root1 @ _psd_pinv(cross) @ root1
    sigma_grad = 0.5 * (sigma_grad + sigma_grad.T)
    mean_part = (2.0 / n) * (mu2 - reference.mean)[None, :]
    cov_part = (2.0 / (n - 1)) * (gen_feats - mu2) @ sigma_grad
    return mean_part + cov_part


def _fid_gradient(generated: "GeneratedSet", context: MetricContext) -> np.ndarray:
    feat_grad = _fid_gradient_wrt_features(context.fid_reference, generated.features)
    return generated.classifier.input_pullback(generated.record, feat_grad, layer="features")


# -- classifier ----------------------------------------------------------------

@dataclass
class ClassifierSettings:
    hidden: tuple[int, int] = (64, 32)
    epochs: int = 30
    batch_size: int = 32
    lr: float = 0.05
    feature_layer: int = 1
    # Saturating hidden units keep the feature map smooth, so the metric
    # gradients that chain through it stay informative even for generated
    # samples far from the training manifold.
    activation: str = "tanh"

    def __post_init__(self):
        if not self.hidden:
            raise ValueError("classifier_hidden must not be empty")
        _check_feature_layer(self.feature_layer, len(self.hidden))


def _check_feature_layer(feature_layer: int, n_hidden: int) -> None:
    if not 0 <= feature_layer < n_hidden:
        raise ValueError(f"feature_layer {feature_layer} is not a hidden layer "
                         f"(0 to {n_hidden - 1})")


class Classifier:
    """Small dense classifier whose forward pass yields logits and features.

    The feature layer is the post-activation output of the configured
    hidden layer; the head is linear with a softmax readout.  ``key`` is
    the ``classifier_key`` of what it was trained from.
    """

    def __init__(self, layout: MlpLayout, params: np.ndarray, n_classes: int,
                 feature_layer: int, train_accuracy: float = float("nan"),
                 key: str | None = None):
        _check_feature_layer(feature_layer, len(layout.sizes) - 2)
        self.layout = layout
        self.params = np.asarray(params, dtype=np.float64)
        self.n_classes = n_classes
        self.feature_layer = feature_layer
        self.train_accuracy = train_accuracy
        self.key = key

    def record(self, x: np.ndarray) -> DenseRecord:
        """The forward pass over ``x``, logits last; ``NonFiniteError`` when
        the parameters hold a NaN or infinity."""
        return self.layout.forward(self.layout.unpack(_checked(self.params, "parameters")), x)

    def features(self, x: np.ndarray) -> np.ndarray:
        return self.record(x).activations[self.feature_layer + 1]

    def input_pullback(self, record: DenseRecord, output_grads: np.ndarray,
                       layer: str) -> np.ndarray:
        """Chain per-sample gradients of the ``"logits"`` or ``"features"`` back
        to the inputs of ``record``, a pass of this classifier; no parameter gradient."""
        if layer != "logits":
            record = record.upto(self.feature_layer)
        return self.layout.backward(record, output_grads, input_adjoint=True)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, ``exp(x - max) / sum``: the same operations in the
    same order as ``scipy.special.softmax(logits, axis=1)``, so the same bits."""
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def classifier_key(data: np.ndarray, labels: np.ndarray,
                   settings: ClassifierSettings, seed: int) -> str:
    """SHA-256 of exactly what ``train_classifier`` trains from: the data's
    shape and little-endian f8 bytes, the labels, the settings and the seed."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    digest = hashlib.sha256()
    digest.update(json.dumps({"shape": list(data.shape), "settings": asdict(settings),
                              "seed": int(seed)}, sort_keys=True).encode())
    digest.update(data.astype("<f8", copy=False).tobytes())
    digest.update(labels.astype("<i8", copy=False).tobytes())
    return digest.hexdigest()


def train_classifier(data: np.ndarray, labels: np.ndarray,
                     settings: ClassifierSettings, seed: int = 0) -> Classifier:
    """Deterministic mini-batch SGD on the softmax cross-entropy.

    Each epoch gathers its shuffled rows and one-hot labels once and takes
    its batches as slices of them.  Layer views of the parameters and of
    one gradient buffer are made once for the whole run: every step writes
    its gradient through the buffer's views and updates ``params`` in
    place, which keeps the parameter views current.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = int(labels.max()) + 1
    if labels.min() < 0:
        raise ValueError("labels must be non-negative class indices")
    layout = MlpLayout((data.shape[1], *settings.hidden, n_classes),
                       (settings.activation,) * len(settings.hidden) + ("linear",))
    root = np.random.SeedSequence(seed)
    init_seq, shuffle_seq = root.spawn(2)
    params = layout.init_params(np.random.default_rng(init_seq))
    shuffle_rng = np.random.default_rng(shuffle_seq)

    grad = np.empty_like(params)
    layers, grads = layout.unpack(params), layout.unpack(grad)
    onehot = np.eye(n_classes)[labels]
    for _ in range(settings.epochs):
        order = shuffle_rng.permutation(len(data))
        rows, targets = data[order], onehot[order]
        for start in range(0, len(data), settings.batch_size):
            batch = slice(start, start + settings.batch_size)
            record = layout.forward(layers, rows[batch])
            # Mean cross-entropy's logit adjoint: (softmax - onehot) / batch.
            adjoint = (_softmax(record.output) - targets[batch]) / len(record.output)
            layout.backward(record, adjoint, grads)
            _checked(grad, "classifier gradient")
            grad *= settings.lr
            params -= grad
            peak = np.abs(params).max()
            if not np.isfinite(peak) or peak > 1e6:
                raise DivergenceError("classifier training diverged")

    clf = Classifier(layout, params, n_classes, settings.feature_layer,
                     key=classifier_key(data, labels, settings, seed))
    clf.train_accuracy = float((clf.record(data).output.argmax(axis=1) == labels).mean())
    return clf


@dataclass(frozen=True)
class ClassifierHeader:
    """A stored classifier's manifest fields beside its one array, ``params``."""

    sizes: list[int]
    activations: list[str]
    n_classes: int
    feature_layer: int
    train_accuracy: float
    key: str | None


def save_classifier(classifier: Classifier, directory) -> None:
    """Store ``params.npy`` and a checked manifest (``training.save_checked``)
    whose header is the classifier's ``ClassifierHeader``."""
    layout = classifier.layout
    header = ClassifierHeader(list(layout.sizes), list(layout.activations), classifier.n_classes,
                              classifier.feature_layer, classifier.train_accuracy, classifier.key)
    save_checked(directory, asdict(header),
                 {"params": ("<f8", (layout.n_params,), [classifier.params])})


def load_classifier(directory) -> Classifier:
    """Read a classifier saved by ``save_classifier``, verified by
    ``training.load_checked``."""
    header, arrays = load_checked(directory, ClassifierHeader, {"params": "<f8"})
    return Classifier(MlpLayout(header.sizes, header.activations), arrays["params"],
                      header.n_classes, header.feature_layer, header.train_accuracy, header.key)


# -- metric dispatch ------------------------------------------------------------

class GeneratedSet:
    """One generated sample set and the classifier's record of it, made at
    most once: the FID reads the feature layer's activation, the inception
    score the softmax of the output, and both queries pull back on it."""

    def __init__(self, samples: np.ndarray, classifier: "Classifier | None"):
        self.samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        self.classifier = classifier

    @cached_property
    def record(self) -> DenseRecord:
        return self.classifier.record(self.samples)

    @cached_property
    def features(self) -> np.ndarray:
        return self.record.activations[self.classifier.feature_layer + 1]

    @cached_property
    def posteriors(self) -> np.ndarray:
        return _softmax(self.record.output)


_METRIC_VALUES = {
    "all": lambda spec, gen, ctx: average_log_likelihood(ctx.real_data, gen.samples,
                                                         spec.bandwidth),
    "is": lambda spec, gen, ctx: inception_score_from_posteriors(gen.posteriors),
    "fid": lambda spec, gen, ctx: _fid_from_fit(ctx.fid_reference, gen.features),
}

_METRIC_GRADS = {
    "all": lambda spec, gen, ctx: _all_gradient(ctx.real_data, gen.samples, spec.bandwidth),
    "is": lambda spec, gen, ctx: _is_gradient(gen),
    "fid": lambda spec, gen, ctx: _fid_gradient(gen, ctx),
}


def metric_gradient_wrt_generated(spec: MetricSpec, generated: GeneratedSet,
                                  context: MetricContext) -> np.ndarray:
    """One gradient vector per sample of ``generated``, shape (n_generated, data_dim)."""
    if spec.kind not in _METRIC_GRADS:
        raise ValueError(f"metric {spec.kind!r} is not sample-based")
    return _METRIC_GRADS[spec.kind](spec, generated, context)


def metric_value(spec: MetricSpec, problem, params: np.ndarray,
                 eval_latents: np.ndarray, context: MetricContext,
                 generated: GeneratedSet | None = None) -> float:
    """Metric reading for a parameter vector on a fixed latent set.

    ``generated``, when given, must be a ``GeneratedSet`` of
    ``problem.generator_forward(params, eval_latents)`` on the context's
    classifier: a caller reading several sample-based metrics at one
    parameter vector generates the samples once and runs the classifier on
    them once.  ``disc_loss`` ignores it.
    """
    if spec.kind == "disc_loss":
        return problem.expected_disc_loss(params, eval_latents, context.real_data)
    if generated is None:
        generated = GeneratedSet(problem.generator_forward(params, eval_latents),
                                 context.classifier)
    return _METRIC_VALUES[spec.kind](spec, generated, context)


def metric_reader(problem, params: np.ndarray, specs, eval_latents: np.ndarray,
                  context: MetricContext, generated: GeneratedSet | None = None):
    """A function from a spec of ``specs`` to its ``metric_value`` at ``params``.

    Every reading comes from one generated sample set, ``generated`` when
    given, and at most one classifier pass over it; ``disc_loss`` reads no
    samples, so a reader for it alone generates none.
    """
    if generated is None and any(spec.kind != "disc_loss" for spec in specs):
        generated = GeneratedSet(problem.generator_forward(params, eval_latents),
                                 context.classifier)
    return lambda spec: metric_value(spec, problem, params, eval_latents, context, generated)


# -- query vectors ----------------------------------------------------------------

def generator_pullback(problem, params: np.ndarray, latents: np.ndarray,
                       sample_grads: np.ndarray, label: str = "") -> QueryVector:
    """Chain per-sample gradients through the generator into parameter space.

    The discriminator block of the result is exactly zero: the generated
    samples depend only on generator parameters.
    """
    return QueryVector(problem.generator_vjp(params, latents, sample_grads),
                       problem.dim_gen, label=label)


def build_query_vector(spec: MetricSpec, problem, params: np.ndarray,
                       eval_latents: np.ndarray, context: MetricContext,
                       generated: GeneratedSet | None = None) -> QueryVector:
    """Gradient of the metric with respect to the coupled parameters.

    For sample-based metrics this is the chain rule through the generator;
    for ``disc_loss`` it is the full gradient of the expected loss, which
    generally has both blocks nonzero.  ``generated`` is as for ``metric_value``.
    """
    params = np.asarray(params, dtype=np.float64)
    if spec.kind == "disc_loss":
        return QueryVector(problem.expected_disc_loss_gradient(params, eval_latents,
                                                               context.real_data),
                           problem.dim_gen, label=spec.kind)
    if generated is None:
        generated = GeneratedSet(problem.generator_forward(params, eval_latents),
                                 context.classifier)
    sample_grads = metric_gradient_wrt_generated(spec, generated, context)
    return generator_pullback(problem, params, eval_latents, sample_grads, label=spec.kind)
