"""Fully connected generator/discriminator pair over one flat parameter vector.

The coupled parameter layout puts all generator parameters first and all
discriminator parameters second.  Losses follow the non-saturating form by
default (generator minimizes -D(G(z))), with the minimax form available as
a configuration switch.  Batch means fix the summation order so repeated
evaluation is bit-reproducible.

A "problem" is anything exposing dim_gen / dim_disc / dim_params /
latent_dim, three gradient methods and the graph builders.  The gradient
methods serve training, counterfactual replay and influence inference
through the module-level functions of the same names:

- ``joint_gradient``: the two-block batch gradient;
- ``joint_gradient_vjp``: a vector-Jacobian product against it;
- ``data_term_scores``: a discriminator query's inner product with every
  row's data-term gradient.

The metrics' query vectors use three more: ``generator_vjp`` pulls
per-sample gradients back through the generator, and
``expected_disc_loss`` with ``expected_disc_loss_gradient`` give the
``disc_loss`` metric and its gradient.

``FcGan`` computes all of these in closed form with NumPy, the product by
Pearlmutter's R-operator and the rest by ``MlpLayout.vjp_np``, the one
hand-written backward pass of a dense stack, which the classifier shares.
No metric or hot-path caller builds a tape.  The ``*_graph`` builders
express the same losses on the autodiff tape; ``data_term_gradient`` uses
them, and the tests take them as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .autodiff import NonFiniteError, Tensor, backward, constant, count_vjp_of_gradient

# Discriminator probabilities are clamped away from {0, 1} before any log so
# the losses and every influence quantity stay finite even when the
# discriminator saturates.
PROB_FLOOR = 1e-7

_NP_ACTS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "tanh": np.tanh,
    "sigmoid": expit,
    "linear": lambda x: x,
}

# Each activation's derivative from its pre-activation and its output.
_NP_SLOPES = {
    "relu": lambda pre, out: pre > 0,   # derivative 0 at the kink, as on the tape
    "tanh": lambda pre, out: 1.0 - out * out,
    "sigmoid": lambda pre, out: out * (1.0 - out),
    "linear": lambda pre, out: 1.0,
}

_GRAPH_ACTS = {
    "relu": lambda t: t.relu(),
    "tanh": lambda t: t.tanh(),
    "sigmoid": lambda t: t.sigmoid(),
    "linear": lambda t: t,
}


class MlpLayout:
    """Index map packing the kernels and biases of a dense stack into a flat vector.

    ``pack(unpack(v))`` reproduces ``v`` bit-exactly.
    """

    def __init__(self, sizes, activations):
        if len(activations) != len(sizes) - 1:
            raise ValueError("need one activation per layer")
        unknown = set(activations) - set(_NP_ACTS)
        if unknown:
            raise ValueError(f"unknown activations: {sorted(unknown)}")
        self.sizes = tuple(int(s) for s in sizes)
        self.activations = tuple(activations)
        spans = []
        offset = 0
        for fan_in, fan_out in zip(self.sizes, self.sizes[1:]):
            spans.append((offset, (fan_in, fan_out)))
            offset += fan_in * fan_out
            spans.append((offset, (fan_out,)))
            offset += fan_out
        self.spans = tuple(spans)
        self.n_params = offset

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform(-a, a) kernels with a = sqrt(6 / (fan_in + fan_out)), zero biases."""
        chunks = []
        for fan_in, fan_out in zip(self.sizes, self.sizes[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            chunks.append(rng.uniform(-bound, bound, fan_in * fan_out))
            chunks.append(np.zeros(fan_out))
        return np.concatenate(chunks)

    def unpack(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        flat = np.asarray(flat)
        layers = []
        for i in range(0, len(self.spans), 2):
            k_off, k_shape = self.spans[i]
            b_off, b_shape = self.spans[i + 1]
            kernel = flat[k_off:k_off + k_shape[0] * k_shape[1]].reshape(k_shape)
            bias = flat[b_off:b_off + b_shape[0]]
            layers.append((kernel, bias))
        return layers

    def pack(self, layers) -> np.ndarray:
        return np.concatenate([np.concatenate([k.ravel(), b]) for k, b in layers])

    def forward_np(self, flat: np.ndarray, x: np.ndarray, upto_layer: int | None = None) -> np.ndarray:
        """Plain numpy forward pass; ``upto_layer`` returns that layer's activation."""
        h = np.atleast_2d(np.asarray(x, dtype=np.float64))
        for i, (kernel, bias) in enumerate(self.unpack(flat)):
            h = _NP_ACTS[self.activations[i]](h @ kernel + bias)
            if upto_layer is not None and i == upto_layer:
                return h
        return h

    def vjp_np(self, flat: np.ndarray, x: np.ndarray, upto_layer: int | None = None):
        """Forward pass and its closed-form pullback.

        Returns the output of ``forward_np(flat, x, upto_layer)`` and a
        function that maps an output adjoint ``g`` to the gradients of
        ``<g, output>``: the parameter gradient, shape (n_params,) and zero
        for the layers past ``upto_layer``, and the input gradient, shaped
        like the two-dimensional inputs.
        """
        flat = _checked(np.asarray(flat, dtype=np.float64), "parameters")
        layers = self.unpack(flat)
        if upto_layer is not None:
            layers = layers[:upto_layer + 1]
        h = np.atleast_2d(np.asarray(x, dtype=np.float64))
        inputs, slopes = [], []
        for (kernel, bias), activation in zip(layers, self.activations):
            inputs.append(h)
            pre = h @ kernel + bias
            h = _NP_ACTS[activation](pre)
            slopes.append(_NP_SLOPES[activation](pre, h))
        output = h

        def pullback(output_adjoint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            adj = np.asarray(output_adjoint, dtype=np.float64)
            if adj.shape != output.shape:
                raise ValueError(f"adjoint of shape {adj.shape} does not match "
                                 f"the output's {output.shape}")
            grad = np.zeros(self.n_params)
            for i in reversed(range(len(layers))):
                adj = adj * slopes[i]
                k_off, b_off = self.spans[2 * i][0], self.spans[2 * i + 1][0]
                grad[k_off:b_off] = (inputs[i].T @ adj).ravel()
                grad[b_off:b_off + adj.shape[1]] = adj.sum(axis=0)
                adj = adj @ layers[i][0].T
            return _checked(grad, "parameter gradient"), _checked(adj, "input gradient")

        return output, pullback

    def forward_graph(self, theta: Tensor, base: int, x, upto_layer: int | None = None) -> Tensor:
        h = x if isinstance(x, Tensor) else constant(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        for i in range(0, len(self.spans), 2):
            k_off, k_shape = self.spans[i]
            b_off, b_shape = self.spans[i + 1]
            kernel = theta[base + k_off:base + k_off + k_shape[0] * k_shape[1]].reshape(k_shape)
            bias = theta[base + b_off:base + b_off + b_shape[0]]
            h = _GRAPH_ACTS[self.activations[i // 2]](h @ kernel + bias)
            if upto_layer is not None and i // 2 == upto_layer:
                return h
        return h

    def kernel_sq_norm_graph(self, theta: Tensor, base: int) -> Tensor:
        total = None
        for i in range(0, len(self.spans), 2):
            k_off, k_shape = self.spans[i]
            kernel = theta[base + k_off:base + k_off + k_shape[0] * k_shape[1]]
            term = kernel.square().sum()
            total = term if total is None else total + term
        return total


@dataclass(frozen=True)
class GanArchitecture:
    """Shape and objective of the fully connected adversarial pair."""

    latent_dim: int
    data_dim: int
    hidden_gen: int
    hidden_disc: int
    l2_rate: float = 0.0
    objective: str = "nonsaturating"

    def __post_init__(self):
        if min(self.latent_dim, self.data_dim, self.hidden_gen, self.hidden_disc) <= 0:
            raise ValueError("all architecture dimensions must be positive")
        if self.l2_rate < 0:
            raise ValueError("l2_rate must be non-negative")
        if self.objective not in ("nonsaturating", "minimax"):
            raise ValueError(f"unknown objective {self.objective!r}")


class FcGan:
    """Generator and discriminator as one-hidden-layer MLPs.

    Generator: latent -> relu hidden -> tanh output in (-1, 1)^data_dim.
    Discriminator: data -> relu hidden -> sigmoid scalar in (0, 1).
    The L2 penalty applies to kernels only, never to biases, and each
    network's penalty enters its own loss.
    """

    def __init__(self, arch: GanArchitecture):
        self.arch = arch
        self.gen_net = MlpLayout((arch.latent_dim, arch.hidden_gen, arch.data_dim), ("relu", "tanh"))
        self.disc_net = MlpLayout((arch.data_dim, arch.hidden_disc, 1), ("relu", "sigmoid"))
        self.dim_gen = self.gen_net.n_params
        self.dim_disc = self.disc_net.n_params
        self.dim_params = self.dim_gen + self.dim_disc
        self.latent_dim = arch.latent_dim
        self.data_dim = arch.data_dim

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return np.concatenate([self.gen_net.init_params(rng), self.disc_net.init_params(rng)])

    def split(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return flat[:self.dim_gen], flat[self.dim_gen:]

    # -- numpy forward passes ------------------------------------------

    def generator_forward(self, params: np.ndarray, latents: np.ndarray) -> np.ndarray:
        latents = np.atleast_2d(np.asarray(latents, dtype=np.float64))
        if latents.shape[1] != self.latent_dim:
            raise ValueError(f"latent dimension mismatch: {latents.shape[1]} != {self.latent_dim}")
        if not np.all(np.isfinite(latents)):
            raise ValueError("latents must be finite")
        return self.gen_net.forward_np(params[:self.dim_gen], latents)

    def discriminator_forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.data_dim:
            raise ValueError(f"data dimension mismatch: {x.shape[1]} != {self.data_dim}")
        return self.disc_net.forward_np(params[self.dim_gen:], x)[:, 0]

    # -- graph pieces ----------------------------------------------------

    def generator_graph(self, theta: Tensor, latents: np.ndarray) -> Tensor:
        return self.gen_net.forward_graph(theta, 0, latents)

    def discriminator_graph(self, theta: Tensor, x) -> Tensor:
        return self.disc_net.forward_graph(theta, self.dim_gen, x)

    def gen_terms_graph(self, theta: Tensor, latents: np.ndarray) -> Tensor:
        """Per-latent generator loss, shape (n_latents,)."""
        probs = self.discriminator_graph(theta, self.generator_graph(theta, latents))
        n = probs.shape[0]
        if self.arch.objective == "nonsaturating":
            terms = -probs
        else:
            terms = (1.0 - probs).clamp(PROB_FLOOR, 1.0 - PROB_FLOOR).log()
        return terms.reshape((n,))

    def disc_fake_terms_graph(self, theta: Tensor, latents: np.ndarray) -> Tensor:
        """Per-latent discriminator loss on generated samples, shape (n_latents,)."""
        probs = self.discriminator_graph(theta, self.generator_graph(theta, latents))
        n = probs.shape[0]
        return -((1.0 - probs).clamp(PROB_FLOOR, 1.0 - PROB_FLOOR).log()).reshape((n,))

    def disc_real_terms_graph(self, theta: Tensor, rows: np.ndarray) -> Tensor:
        """Per-instance discriminator loss on real data, shape (n_rows,)."""
        probs = self.discriminator_graph(theta, rows)
        n = probs.shape[0]
        return -(probs.clamp(PROB_FLOOR, 1.0 - PROB_FLOOR).log()).reshape((n,))

    def gen_reg_graph(self, theta: Tensor) -> Tensor:
        return self.gen_net.kernel_sq_norm_graph(theta, 0) * self.arch.l2_rate

    def disc_reg_graph(self, theta: Tensor) -> Tensor:
        return self.disc_net.kernel_sq_norm_graph(theta, self.dim_gen) * self.arch.l2_rate

    # -- scalar conveniences ----------------------------------------------

    def gen_loss(self, params: np.ndarray, latent: np.ndarray) -> float:
        return float(self.gen_terms_graph(Tensor(params), np.atleast_2d(latent)).data[0])

    def disc_fake_loss(self, params: np.ndarray, latent: np.ndarray) -> float:
        return float(self.disc_fake_terms_graph(Tensor(params), np.atleast_2d(latent)).data[0])

    def disc_real_loss(self, params: np.ndarray, x: np.ndarray) -> float:
        return float(self.disc_real_terms_graph(Tensor(params), np.atleast_2d(x)).data[0])

    # -- closed-form gradient kernels ---------------------------------------
    #
    # Each kernel runs one forward pass (``_Activations``) and then the
    # backward pass, or its R-operator derivative, by hand.  The per-logit
    # derivatives follow the tape's conventions: the clamp at PROB_FLOOR has
    # zero derivative at and beyond its bounds, relu has derivative 0 at the
    # kink and no curvature, and the L2 penalty covers kernels only.

    def joint_gradient(self, params: np.ndarray, latents: np.ndarray,
                       data_rows: np.ndarray, denom: int) -> np.ndarray:
        """Generator-loss gradient over the generator block, then the
        discriminator-loss gradient over the discriminator block."""
        f = self._forward(params, latents, data_rows)
        n = len(f.latents)
        gen_first, _ = self._gen_logit_derivatives(f.probs[:n])
        disc_first, _ = _disc_logit_derivatives(f.probs, n)
        disc_logit_adj = disc_first / denom
        (w1, _), (w2, _) = f.gen_layers
        (v1, _), (v2, _) = f.disc_layers
        disc_adj = disc_logit_adj[:, None] * v2 * f.disc_mask
        g_w1, g_b1, g_w2, g_b2 = _gen_grads(f, _fake_adjoint(f, gen_first / n))
        lam = 2.0 * self.arch.l2_rate
        return _checked(_flat(
            g_w1 + lam * w1, g_b1, g_w2 + lam * w2, g_b2,
            f.inputs.T @ disc_adj + lam * v1, disc_adj.sum(axis=0),
            f.disc_hidden.T @ disc_logit_adj + lam * v2, disc_logit_adj.sum(keepdims=True),
        ), "joint_gradient")

    def joint_gradient_vjp(self, vector: np.ndarray, params: np.ndarray, latents: np.ndarray,
                           data_rows: np.ndarray, denom: int) -> np.ndarray:
        """``vector^T J`` for the Jacobian ``J`` of ``joint_gradient``.

        The generator rows of ``J`` are rows of the generator loss's
        Hessian and the discriminator rows rows of the discriminator
        loss's, so with ``vector = (u_gen, u_disc)`` the product is
        ``H_G (u_gen, 0) + H_D (0, u_disc)``: one R-operator pass each.
        """
        f = self._forward(params, latents, data_rows)
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim_params,):
            raise ValueError(f"vector of shape {vector.shape} does not match "
                             f"{self.dim_params} parameters")
        product = _checked(self._gen_loss_hvp(f, vector[:self.dim_gen])
                           + self._disc_loss_hvp(f, vector[self.dim_gen:], denom),
                           "joint_gradient_vjp")
        count_vjp_of_gradient()
        return product

    def data_term_scores(self, disc_query: np.ndarray, params: np.ndarray,
                         rows: np.ndarray) -> np.ndarray:
        """<disc_query, gradient of one row's data-term loss> for every row.

        A row's loss depends on the discriminator only through its logit, so
        its score is the loss's logit derivative times the derivative of the
        logit along the query.
        """
        f = self._forward(params, np.empty((0, self.latent_dim)), rows)
        (qv1, qd1), (qv2, qd2) = self.disc_net.unpack(np.asarray(disc_query, dtype=np.float64))
        first, _ = _disc_logit_derivatives(f.probs, 0)
        v2 = f.disc_layers[1][0]
        along = ((f.inputs @ qv1 + qd1) * f.disc_mask) @ v2 + f.disc_hidden @ qv2[:, 0] + qd2[0]
        return _checked(first * along, "data_term_scores")

    # -- closed-form metric queries ------------------------------------------

    def generator_vjp(self, params: np.ndarray, latents: np.ndarray,
                      sample_grads: np.ndarray) -> np.ndarray:
        """Gradient of ``<sample_grads, generator_forward(params, latents)>``
        over all parameters; the discriminator block is exactly zero."""
        params = _checked(np.asarray(params, dtype=np.float64), "parameters")
        _, pullback = self.gen_net.vjp_np(params[:self.dim_gen], latents)
        gen_grad, _ = pullback(sample_grads)
        return np.concatenate([gen_grad, np.zeros(self.dim_disc)])

    def expected_disc_loss(self, params: np.ndarray, latents: np.ndarray,
                           rows: np.ndarray) -> float:
        """Mean discriminator loss on the generated samples plus its mean on ``rows``."""
        params = _checked(np.asarray(params, dtype=np.float64), "parameters")
        fake_probs = self.discriminator_forward(params, self.generator_forward(params, latents))
        real_probs = self.discriminator_forward(params, rows)
        value = -np.log(_clamped(1.0 - fake_probs)).mean() - np.log(_clamped(real_probs)).mean()
        return float(_checked(value, "expected_disc_loss"))

    def expected_disc_loss_gradient(self, params: np.ndarray, latents: np.ndarray,
                                    rows: np.ndarray) -> np.ndarray:
        """Gradient of ``expected_disc_loss`` over both blocks.

        One discriminator pullback over the generated and data rows
        together, then a generator pullback of the generated rows' input
        adjoint.
        """
        params = _checked(np.asarray(params, dtype=np.float64), "parameters")
        gen_params, disc_params = self.split(params)
        fake, gen_pullback = self.gen_net.vjp_np(gen_params, latents)
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        probs, disc_pullback = self.disc_net.vjp_np(disc_params, np.concatenate([fake, rows]))
        n = len(fake)
        fake_probs, real_probs = probs[:n, 0], probs[n:, 0]
        # Probability derivatives of -log clamp(1 - p) and -log clamp(p),
        # zero where the clamp binds.
        prob_adj = np.concatenate([
            _clamp_mask(1.0 - fake_probs) / _clamped(1.0 - fake_probs) / n,
            -(_clamp_mask(real_probs) / _clamped(real_probs)) / len(rows),
        ])
        disc_grad, input_adj = disc_pullback(prob_adj[:, None])
        gen_grad, _ = gen_pullback(input_adj[:n])
        return np.concatenate([gen_grad, disc_grad])

    def _forward(self, params, latents, data_rows) -> _Activations:
        params = _checked(np.asarray(params, dtype=np.float64), "parameters")
        (w1, b1), (w2, b2) = self.gen_net.unpack(params[:self.dim_gen])
        (v1, d1), (v2, d2) = self.disc_net.unpack(params[self.dim_gen:])
        z = np.asarray(latents, dtype=np.float64).reshape(-1, self.latent_dim)
        rows = np.asarray(data_rows, dtype=np.float64).reshape(-1, self.data_dim)
        gen_pre = z @ w1 + b1
        gen_hidden = np.maximum(gen_pre, 0.0)
        fake = np.tanh(gen_hidden @ w2 + b2)
        inputs = np.concatenate([fake, rows])
        disc_pre = inputs @ v1 + d1
        disc_hidden = np.maximum(disc_pre, 0.0)
        return _Activations(
            gen_layers=((w1, b1), (w2, b2)),
            disc_layers=((v1, d1), (v2[:, 0], d2)),
            latents=z, gen_mask=gen_pre > 0, gen_hidden=gen_hidden,
            fake=fake, tanh_slope=1.0 - fake * fake,
            inputs=inputs, disc_mask=disc_pre > 0, disc_hidden=disc_hidden,
            probs=expit(disc_hidden @ v2[:, 0] + d2[0]),
        )

    def _gen_logit_derivatives(self, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First and second logit derivatives of the per-latent generator loss."""
        slope = probs * (1.0 - probs)
        if self.arch.objective == "nonsaturating":   # -p
            return -slope, -slope * (1.0 - 2.0 * probs)
        keep = _clamp_mask(1.0 - probs)              # log clamp(1 - p)
        return -(keep * probs), -(keep * slope)

    def _gen_loss_hvp(self, f: _Activations, u_gen: np.ndarray) -> np.ndarray:
        """Hessian of the generator batch loss times ``(u_gen, 0)``."""
        (uw1, ub1), (uw2, ub2) = self.gen_net.unpack(u_gen)
        (w1, _), (w2, _) = f.gen_layers
        (v1, _), (v2, _) = f.disc_layers
        n = len(f.latents)
        fake_mask, fake_hidden = f.disc_mask[:n], f.disc_hidden[:n]
        # Forward R pass: directional derivatives R{.} of the activations.
        r_gen_hidden = (f.latents @ uw1 + ub1) * f.gen_mask
        r_fake = (r_gen_hidden @ w2 + f.gen_hidden @ uw2 + ub2) * f.tanh_slope
        r_disc_hidden = (r_fake @ v1) * fake_mask
        r_logit = r_disc_hidden @ v2
        # Backward pass and its R derivative.
        first, second = self._gen_logit_derivatives(f.probs[:n])
        logit_adj, r_logit_adj = first / n, second / n * r_logit
        disc_adj = logit_adj[:, None] * v2 * fake_mask
        r_disc_adj = r_logit_adj[:, None] * v2 * fake_mask
        fake_adj = disc_adj @ v1.T
        r_fake_adj = r_disc_adj @ v1.T
        out_adj = fake_adj * f.tanh_slope
        r_out_adj = r_fake_adj * f.tanh_slope - 2.0 * fake_adj * f.fake * r_fake
        r_w1, r_b1, r_w2, r_b2 = _gen_grads(f, r_out_adj)
        r_hidden_adj = (out_adj @ uw2.T) * f.gen_mask
        lam = 2.0 * self.arch.l2_rate
        return _flat(
            r_w1 + f.latents.T @ r_hidden_adj + lam * uw1, r_b1 + r_hidden_adj.sum(axis=0),
            r_w2 + r_gen_hidden.T @ out_adj + lam * uw2, r_b2,
            r_fake.T @ disc_adj + f.fake.T @ r_disc_adj, r_disc_adj.sum(axis=0),
            r_disc_hidden.T @ logit_adj + fake_hidden.T @ r_logit_adj,
            r_logit_adj.sum(keepdims=True),
        )

    def _disc_loss_hvp(self, f: _Activations, u_disc: np.ndarray, denom: int) -> np.ndarray:
        """Hessian of the discriminator batch loss times ``(0, u_disc)``."""
        (uv1, ud1), (uv2, ud2) = self.disc_net.unpack(u_disc)
        uv2 = uv2[:, 0]
        (v1, _), (v2, _) = f.disc_layers
        n = len(f.latents)
        # Forward R pass; the discriminator's inputs do not move.
        r_disc_hidden = (f.inputs @ uv1 + ud1) * f.disc_mask
        r_logit = r_disc_hidden @ v2 + f.disc_hidden @ uv2 + ud2[0]
        # Backward pass and its R derivative.
        first, second = _disc_logit_derivatives(f.probs, n)
        logit_adj, r_logit_adj = first / denom, second / denom * r_logit
        disc_adj = logit_adj[:, None] * v2 * f.disc_mask
        r_disc_adj = (r_logit_adj[:, None] * v2 + logit_adj[:, None] * uv2) * f.disc_mask
        r_out_adj = (r_disc_adj[:n] @ v1.T + disc_adj[:n] @ uv1.T) * f.tanh_slope
        lam = 2.0 * self.arch.l2_rate
        return _flat(
            *_gen_grads(f, r_out_adj),
            f.inputs.T @ r_disc_adj + lam * uv1, r_disc_adj.sum(axis=0),
            r_disc_hidden.T @ logit_adj + f.disc_hidden.T @ r_logit_adj + lam * uv2,
            r_logit_adj.sum(keepdims=True),
        )


@dataclass
class _Activations:
    """One batch's forward pass, kept for the backward and R-operator passes.

    generator on latents z:        a = z W1 + b1,  h = relu(a),  x = tanh(h W2 + b2)
    discriminator on inputs v:     c = v V1 + d1,  r = relu(c),  p = sigmoid(r V2 + d2)

    The discriminator's inputs stack the generated rows first, then the
    data rows.  Masks are ``a > 0`` and ``c > 0``; ``tanh_slope`` is
    ``1 - x**2``; the output kernel ``V2`` is kept as a vector.
    """

    gen_layers: tuple
    disc_layers: tuple
    latents: np.ndarray
    gen_mask: np.ndarray
    gen_hidden: np.ndarray
    fake: np.ndarray
    tanh_slope: np.ndarray
    inputs: np.ndarray
    disc_mask: np.ndarray
    disc_hidden: np.ndarray
    probs: np.ndarray


def _clamped(values: np.ndarray) -> np.ndarray:
    return np.clip(values, PROB_FLOOR, 1.0 - PROB_FLOOR)


def _clamp_mask(values: np.ndarray) -> np.ndarray:
    """Where ``clamp(values, PROB_FLOOR, 1 - PROB_FLOOR)`` passes a derivative."""
    return (values > PROB_FLOOR) & (values < 1.0 - PROB_FLOOR)


def _disc_logit_derivatives(probs: np.ndarray, n_fake: int) -> tuple[np.ndarray, np.ndarray]:
    """First and second logit derivatives of the discriminator's per-input loss.

    The first ``n_fake`` inputs are generated, with loss -log clamp(1 - p);
    the rest are data rows, with loss -log clamp(p).
    """
    fake, real = probs[:n_fake], probs[n_fake:]
    keep = np.concatenate([_clamp_mask(1.0 - fake), _clamp_mask(real)])
    first = keep * np.concatenate([fake, real - 1.0])
    return first, keep * probs * (1.0 - probs)


def _fake_adjoint(f: _Activations, logit_adj: np.ndarray) -> np.ndarray:
    """Adjoint of the generator's pre-tanh output from fake-logit adjoints."""
    (v1, _), (v2, _) = f.disc_layers
    fake_mask = f.disc_mask[:len(logit_adj)]
    return ((logit_adj[:, None] * v2 * fake_mask) @ v1.T) * f.tanh_slope


def _gen_grads(f: _Activations, out_adj: np.ndarray) -> list[np.ndarray]:
    """Generator parameter gradients from the adjoint of its pre-tanh output."""
    hidden_adj = (out_adj @ f.gen_layers[1][0].T) * f.gen_mask
    return [f.latents.T @ hidden_adj, hidden_adj.sum(axis=0),
            f.gen_hidden.T @ out_adj, out_adj.sum(axis=0)]


def _flat(*pieces: np.ndarray) -> np.ndarray:
    return np.concatenate([piece.ravel() for piece in pieces])


def _checked(values: np.ndarray, what: str) -> np.ndarray:
    # Any NaN or infinity contaminates the sum, so one reduction checks the
    # whole array, as the tape does.
    if not math.isfinite(values.sum()):
        raise NonFiniteError(f"non-finite values in {what}")
    return values


# -- entry points over any problem -------------------------------------------
#
# Training, replay and the oracle all take their steps through
# ``joint_gradient``, so their arithmetic is identical, which is what makes
# bit-exact replay possible.


def joint_gradient(problem, params: np.ndarray, latents: np.ndarray,
                   data_rows: np.ndarray, denom: int | None = None) -> np.ndarray:
    """Two-block batch gradient, shape (dim_params,).

    The top block is the gradient of the generator batch loss with respect
    to generator parameters only; the bottom block the discriminator batch
    loss gradient with respect to discriminator parameters only.  ``denom``
    normalizes the discriminator loss and defaults to the latent count.
    Counterfactual replays drop data rows while keeping the original
    denominator, so removing one instance removes exactly one summand.
    """
    if len(latents) == 0:
        raise ValueError("empty latent batch")
    return problem.joint_gradient(params, latents, data_rows,
                                  len(latents) if denom is None else int(denom))


def data_term_gradient(problem, params: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Gradient of one instance's data-term loss, discriminator block only.

    Neither the L2 penalty nor the generated-sample terms depend on the
    instance, so this is the entire per-step effect of removing it.
    """
    theta = Tensor(np.asarray(params, dtype=np.float64))
    loss = problem.disc_real_terms_graph(theta, np.atleast_2d(row)).sum()
    (grad,) = backward(loss, [theta])
    return grad.data[problem.dim_gen:].copy()


def data_term_scores(problem, disc_query: np.ndarray, params: np.ndarray,
                     rows: np.ndarray) -> np.ndarray:
    """<query, data-term gradient> for every row, without per-row gradients."""
    return problem.data_term_scores(disc_query, params, rows)
