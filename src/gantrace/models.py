"""Fully connected generator/discriminator pair over one flat parameter vector.

The coupled parameter layout puts all generator parameters first and all
discriminator parameters second.  Losses follow the non-saturating form by
default (generator minimizes -D(G(z))), with the minimax form available as
a configuration switch.  The discriminator's losses are binary cross-entropy
on its logit x, with D = sigmoid(x): softplus(x) = -log(1 - D) on a
generated sample and softplus(-x) = -log D on a data row, so no log ever
sees a probability and nothing is clamped.  Batch means fix the summation
order so repeated evaluation is bit-reproducible.

A "problem" is anything exposing dim_gen / dim_disc / dim_params /
latent_dim and the gradient methods below.  Two of them, the gradient
kernels, serve training, counterfactual replay and influence inference:

- ``joint_gradient``: the two-block batch gradient, through the
  module-level function of the same name, written into the caller's
  ``out`` buffer when one is given and into a fresh array otherwise;
- ``joint_gradient_vjp``: a vector-Jacobian product against it, returned
  with every data row's score along the direction's discriminator block,
  its inner product with the row's data-term gradient over the batch
  normalizer.  The module-level ``data_term_scores`` reads a query's scores
  off it.

The metrics use four more.  ``generator_forward`` returns the generator's
pass over a latent set, a ``DenseRecord`` whose output is the samples, and
``generator_vjp`` pulls per-sample gradients back through it by the backward
pass alone.  ``expected_disc_loss`` and ``expected_disc_loss_gradient`` read
the ``disc_loss`` value, and its discriminator block and samples' adjoint,
off those samples and the data rows in one discriminator pass each.  The
discriminator's probabilities exist only inside the kernels and the
``disc_loss`` gradient, as ``_logistic`` of the logits.

``FcGan`` computes all of these in closed form with NumPy.  Each gradient
kernel runs one forward pass, and the product is Pearlmutter's
R-operator, whose R pass yields the row scores as well.  The kernels
use the discriminator's scalar output: the adjoint of
its hidden layer is rank one in the gradient and rank two in the R pass,
so every product with it is reassociated through the relu mask, kept as a
float64 array, and no batch x hidden adjoint is ever formed.  Layers enter
as augmented operands [W; b] against inputs with a ones column, so bias
adds and bias gradients ride inside the matmuls.

Each ``FcGan`` keeps one workspace for its gradient kernels, made on the
first call and grown to the largest batch seen: the operands that carry a
ones column, written once, the generator's output, kept contiguous and
copied into the discriminator's inputs, the VJP's stacked operands and the
discriminator's widest arrays.  A call copies its latents and rows into
leading rows of it, so it builds no operand afresh, and reads the layers
of a flat vector through spans fixed at construction.  The layer views of
the last two parameter or gradient buffers a gradient used are kept, so a
replay that steps between two buffers makes them once.  The gradient goes
into the caller's buffer or a fresh array, never into the workspace, and
no returned array aliases the workspace.  The arithmetic is that of fresh
operands, bit for bit, but two threads must not call the kernels of one
instance at the same time.

``MlpLayout`` lays a dense stack out as one [W; b] block per layer, the
kernel's rows and then the bias row, and ``MlpLayout.layers`` views them;
``FcGan``'s kernels and L2 mask read the same spans.  A stack has one
forward pass, ``MlpLayout.forward``, which keeps every layer's activation
in a ``DenseRecord``, and one hand-written backward pass,
``MlpLayout.backward``, which reads each layer's derivative from its
output, writes each layer's gradient into a [W; b] view of its caller's
buffer, and forms the input adjoint only when asked.  Readings, the metric
queries, the classifier's trainer and its input pullback all run this
pair; the tests check it against the same losses differentiated on a tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class NonFiniteError(FloatingPointError):
    """A computation produced NaN or infinity."""


def _logistic(x):
    """1 / (1 + exp(-x)) through exp(-|x|), which cannot overflow.

    -|x| is one copysign, and the exponential and the denominator reuse
    its array: six array passes, bit for bit the seven of
    ``where(x >= 0, 1, e) / (1 + e)`` with ``e = exp(-abs(x))``.
    """
    e = np.copysign(x, -1.0)
    np.exp(e, out=e)
    numerator = np.where(x >= 0, 1.0, e)
    np.add(e, 1.0, out=e)
    return np.divide(numerator, e, out=numerator)


def _softplus(x):
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)), which cannot overflow."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


_NP_ACTS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "tanh": np.tanh,
    "sigmoid": _logistic,
    "linear": lambda x: x,
}

# Each activation's derivative from its output: relu's output is > 0
# exactly where its input is, so its derivative is 0 at the kink.
_NP_DERIVATIVES = {
    "relu": lambda out: out > 0,
    "tanh": lambda out: 1.0 - out * out,
    "sigmoid": lambda out: out * (1.0 - out),
    "linear": lambda out: 1.0,
}


class MlpLayout:
    """Where each layer of a dense stack lies in a flat vector: layer by
    layer, one [W; b] block, the kernel's fan_in rows and then the bias
    row, spanning ``(start, stop, (fan_in + 1, fan_out))``.  ``layers``
    views every block without a copy."""

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
            spans.append((offset, offset + (fan_in + 1) * fan_out, (fan_in + 1, fan_out)))
            offset = spans[-1][1]
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

    def layers(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Each layer's [W; b] as a view of ``flat``: the kernel is
        ``layer[:-1]`` and the bias ``layer[-1]``."""
        flat = np.asarray(flat)
        return tuple(flat[start:stop].reshape(shape) for start, stop, shape in self.spans)

    def forward(self, layers, x: np.ndarray) -> DenseRecord:
        """Forward pass through ``layers``, [W; b] views as from ``layers``,
        keeping every layer's activation for ``backward``."""
        h = np.atleast_2d(np.asarray(x, dtype=np.float64))
        activations = [h]
        for layer, activation in zip(layers, self.activations):
            pre = h @ layer[:-1]
            pre += layer[-1]
            h = _NP_ACTS[activation](pre)
            activations.append(h)
        return DenseRecord(tuple(layers), activations)

    def backward(self, record: DenseRecord, output_adjoint: np.ndarray, grads=None,
                 input_adjoint: bool = False) -> np.ndarray | None:
        """Pull ``output_adjoint`` back through a recorded forward pass.

        Each layer's derivative is read from its output.  With ``grads``,
        [W; b] views as from ``layers`` of the caller's buffer, each
        recorded layer's gradient of ``<output_adjoint, output>`` is written
        into its view, the kernel's into ``[:-1]`` and the bias's into
        ``[-1]``; the views of layers past the record are left as they are.
        The adjoint of the inputs is computed and returned, checked finite,
        only with ``input_adjoint``.
        """
        adj = np.asarray(output_adjoint, dtype=np.float64)
        if adj.shape != record.output.shape:
            raise ValueError(f"adjoint of shape {adj.shape} does not match "
                             f"the output's {record.output.shape}")
        for i in reversed(range(len(record.layers))):
            adj = adj * _NP_DERIVATIVES[self.activations[i]](record.activations[i + 1])
            if grads is not None:
                np.matmul(record.activations[i].T, adj, out=grads[i][:-1])
                adj.sum(axis=0, out=grads[i][-1])
            if i or input_adjoint:
                adj = adj @ record.layers[i][:-1].T
        return _checked(adj, "input gradient") if input_adjoint else None


class DenseRecord(NamedTuple):
    """One forward pass of a dense stack, as ``MlpLayout.backward`` reads it:
    the layers' [W; b] views and the activations, the inputs first and the
    output last."""

    layers: tuple
    activations: list

    @property
    def output(self) -> np.ndarray:
        return self.activations[-1]

    def upto(self, layer: int) -> DenseRecord:
        """The pass cut after layer ``layer``, whose activation is its output."""
        return DenseRecord(self.layers[:layer + 1], self.activations[:layer + 2])


@dataclass(frozen=True, kw_only=True)
class GanArchitecture:
    """Shape and objective of the fully connected adversarial pair."""

    latent_dim: int = 10
    data_dim: int
    hidden_gen: int = 32
    hidden_disc: int = 64
    l2_rate: float = 1e-3
    objective: str = "nonsaturating"

    def __post_init__(self):
        if min(self.latent_dim, self.data_dim, self.hidden_gen, self.hidden_disc) <= 0:
            raise ValueError("all architecture dimensions must be positive")
        if not 0 <= self.l2_rate < math.inf:
            raise ValueError("l2_rate must be finite and non-negative")
        if self.objective not in ("nonsaturating", "minimax"):
            raise ValueError(f"unknown objective {self.objective!r}")


class FcGan:
    """Generator and discriminator as one-hidden-layer MLPs.

    Generator: latent -> relu hidden -> tanh output in (-1, 1)^data_dim.
    Discriminator: data -> relu hidden -> scalar logit x, and D = sigmoid(x)
    in (0, 1); ``disc_net`` is the dense stack up to the logit.
    The L2 penalty applies to kernels only, never to biases, and each
    network's penalty enters its own loss.
    """

    def __init__(self, arch: GanArchitecture):
        self.arch = arch
        self.gen_net = MlpLayout((arch.latent_dim, arch.hidden_gen, arch.data_dim), ("relu", "tanh"))
        self.disc_net = MlpLayout((arch.data_dim, arch.hidden_disc, 1), ("relu", "linear"))
        self.dim_gen = self.gen_net.n_params
        self.dim_disc = self.disc_net.n_params
        self.dim_params = self.dim_gen + self.dim_disc
        self.latent_dim = arch.latent_dim
        self.data_dim = arch.data_dim
        # The four layers' spans in a coupled vector, the discriminator's
        # offset by the generator block.
        self._layer_spans = tuple(
            (base + start, base + stop, shape)
            for net, base in ((self.gen_net, 0), (self.disc_net, self.dim_gen))
            for start, stop, shape in net.spans)
        # The L2 penalty's gradient is this vector times the parameters:
        # 2 * l2_rate on every kernel entry, zero on each layer's bias row.
        rates = np.ones(self.dim_params)
        for layer in self._layers(rates):
            layer[-1] = 0.0
        self._penalty_rates = 2.0 * arch.l2_rate * rates
        self._workspace: _Workspace | None = None
        # (vector, its _layers views) for _kept_layers, newest first.
        self._views: tuple = ((None, None), (None, None))

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return np.concatenate([self.gen_net.init_params(rng), self.disc_net.init_params(rng)])

    # -- numpy forward passes ------------------------------------------

    def generator_forward(self, params: np.ndarray, latents: np.ndarray) -> DenseRecord:
        """The generator's pass over ``latents``, whose output is the samples;
        ``NonFiniteError`` when the generator's parameters hold a NaN or infinity."""
        gen_params = _checked(np.asarray(params, dtype=np.float64)[:self.dim_gen], "parameters")
        latents = _rows_of(latents, self.latent_dim, "latents")
        if not np.all(np.isfinite(latents)):
            raise ValueError("latents must be finite")
        return self.gen_net.forward(self.gen_net.layers(gen_params), latents)

    # -- closed-form gradient kernels ---------------------------------------
    #
    # Each kernel runs one forward pass (``_Activations``) and then the
    # backward pass, or its R-operator derivative, by hand.  Each loss is
    # differentiated at its logit, from the probabilities p: softplus(x) on a
    # generated sample has derivatives p and p (1 - p), softplus(-x) on a
    # data row p - 1 and p (1 - p), and so no loss stops passing a
    # derivative when the discriminator saturates.  Relu has derivative 0 at
    # the kink and no curvature, and the L2 penalty covers kernels only.
    #
    # The discriminator's output is a scalar, so the adjoint of its hidden
    # pre-activations is rank one, (logit adjoint) x V2 masked by the relu,
    # and its R derivative rank two.  No kernel forms it: every product with
    # it is reassociated through the float mask M, as ((w * inputs)^T M) * V2
    # for row weights w (two weight columns at once in ``_masked_grams``), and
    # the fake inputs' adjoint is (logit adjoint) x P, with P = M V2 V1^T
    # the gradient of each fake logit with respect to its input.  Layers are
    # read as augmented operands [W; b] against inputs that carry a ones
    # column, so each bias add happens inside its matmul and each bias
    # gradient is the last row of its kernel's gradient product.  Those
    # operands, and the VJP's stacked ones, live in the instance's
    # ``_Workspace``; no returned array is a view of it.

    def joint_gradient(self, params: np.ndarray, latents: np.ndarray,
                       data_rows: np.ndarray, denom: int,
                       out: np.ndarray | None = None) -> np.ndarray:
        """Generator-loss gradient over the generator block, then the
        discriminator-loss gradient over the discriminator block.

        Written into ``out``, a float64 vector of ``dim_params`` entries
        that shares no memory with ``params``, when given, and into a fresh
        array otherwise; either is returned.
        """
        params = np.asarray(params, dtype=np.float64)
        if out is None:
            grad = np.empty(self.dim_params)
        elif out.shape != (self.dim_params,) or out.dtype != np.float64:
            raise ValueError(f"out of shape {out.shape} and dtype {out.dtype} is not "
                             f"a float64 vector of {self.dim_params} parameters")
        elif np.may_share_memory(out, params):
            raise ValueError("out must not share memory with params")
        else:
            grad = out
        f = self._forward(params, latents, data_rows)
        n = len(f.latents)
        fake_probs = f.probs[:n]
        gen_adj = self._gen_logit_first(fake_probs, fake_probs * (1.0 - fake_probs), n)
        disc_adj = _disc_logit_first(f.probs, n, denom)
        v2 = f.v2[:-1]
        gw1, gw2, gv1, gv2 = self._kept_layers(grad)
        logit_grad = f.disc_mask[:n] @ (v2[:, None] * f.v1[:-1].T)
        out_adj = gen_adj[:, None] * logit_grad * f.tanh_slope
        np.matmul(f.gen_hidden.T, out_adj, out=gw2)
        np.matmul(f.latents.T, (out_adj @ f.w2[:-1].T) * f.gen_mask, out=gw1)
        np.multiply((disc_adj[:, None] * f.inputs).T @ f.disc_mask, v2, out=gv1)
        np.matmul(f.disc_hidden.T, disc_adj, out=gv2[:-1])
        gv2[-1] = disc_adj.sum()
        grad += self._penalty_rates * params
        return _checked(grad, "joint_gradient")

    def joint_gradient_vjp(self, vector: np.ndarray, params: np.ndarray, latents: np.ndarray,
                           data_rows: np.ndarray, denom: int) -> tuple[np.ndarray, np.ndarray]:
        """``vector^T J`` for the Jacobian ``J`` of ``joint_gradient``, and
        the data rows' scores along ``u_disc``.

        The generator rows of ``J`` are rows of the generator loss's
        Hessian and the discriminator rows rows of the discriminator
        loss's, so with ``vector = (u_gen, u_disc)`` the product is
        ``H_G (u_gen, 0) + H_D (0, u_disc)``: Pearlmutter's R-operator
        along each direction, with one shared backward pass.

        A data row's loss depends on the discriminator only through its
        logit, and the R pass differentiates every logit along ``u_disc``.
        So row i's score, ``<u_disc, gradient of row i's data-term loss> /
        denom``, is its logit adjoint times that derivative, one entry of
        the second array.
        """
        f = self._forward(params, latents, data_rows)
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim_params,):
            raise ValueError(f"vector of shape {vector.shape} does not match "
                             f"{self.dim_params} parameters")
        uw1, uw2, uv1, uv2 = self._layers(vector)
        n = len(f.latents)
        ws = self._workspace
        # The discriminator's kernels, and the direction's, without bias rows.
        v1, v2, uk1, uk2 = f.v1[:-1], f.v2[:-1], uv1[:-1], uv2[:-1]
        # Forward R pass along u_gen: the fake inputs move.
        r_gen_hidden = (f.latents @ uw1) * f.gen_mask
        r_fake = (r_gen_hidden @ f.w2[:-1] + f.gen_hidden @ uw2) * f.tanh_slope
        # P and its derivative along u_disc, M (u_V2 V1^T + V2 u_V1^T), in one product.
        d = self.data_dim
        directions = ws.directions
        np.multiply(v2[:, None], v1.T, out=directions[:, :d])
        np.multiply(uk2[:, None], v1.T, out=directions[:, d:])
        directions[:, d:] += v2[:, None] * uk1.T
        pulled = f.disc_mask[:n] @ directions
        logit_grad, r_logit_grad = pulled[:, :d], pulled[:, d:]
        # Logit adjoints and their R derivatives; the fake rows' R adjoint
        # sums both directions.
        probs = f.probs
        slope = probs * (1.0 - probs)
        gen_adj = self._gen_logit_first(probs[:n], slope[:n], n)
        disc_adj = _disc_logit_first(probs, n, denom)
        # Every logit's derivative along u_disc: ((v uV1) * M) V2 + r uV2 + u_d2,
        # the first term reassociated through the mask.
        r_disc_logit = (np.einsum("ij,ij->i", f.inputs, f.disc_mask @ (uv1 * v2).T)
                        + f.disc_hidden @ uk2 + uv2[-1])
        r_adj = slope / denom * r_disc_logit
        r_adj[:n] += (self._gen_logit_second(probs[:n], slope[:n], n)
                      * np.einsum("ij,ij->i", r_fake, logit_grad))

        grad = np.empty(self.dim_params)
        gw1, gw2, gv1, gv2 = self._layers(grad)
        # Generator block: one pullback of both passes' output adjoints.
        fake_adj = gen_adj[:, None] * logit_grad
        out_adj = fake_adj * f.tanh_slope
        r_out_adj = ((r_adj[:n, None] * logit_grad + disc_adj[:n, None] * r_logit_grad)
                     * f.tanh_slope - 2.0 * fake_adj * f.fake * r_fake)
        np.matmul(f.gen_hidden.T, r_out_adj, out=gw2)
        gw2[:-1] += r_gen_hidden.T @ out_adj
        np.matmul(f.latents.T, (r_out_adj @ f.w2[:-1].T + out_adj @ uw2[:-1].T) * f.gen_mask,
                  out=gw1)
        # Discriminator block.
        adjoints = ws.adjoints[:len(probs)]
        adjoints[:, 0] = r_adj
        adjoints[:, 1] = disc_adj
        grams = _masked_grams(f.inputs, adjoints, f.disc_mask)
        fake_gram = (gen_adj[:, None] * r_fake).T @ f.disc_mask[:n]
        np.multiply(grams[0], v2, out=gv1)
        gv1 += grams[1] * uk2
        gv1[:-1] += fake_gram * v2
        # V2's part: r^T R{adj} + R{r}^T adj, the second read off the grams
        # of each direction, where R{c} is v uV1 for u_disc and R{x} V1 for u_gen.
        gv2[:-1] = (f.disc_hidden.T @ r_adj + (fake_gram * v1).sum(axis=0)
                    + (grams[1] * uv1).sum(axis=0))
        gv2[-1] = r_adj.sum()
        grad += self._penalty_rates * vector
        return (_checked(grad, "joint_gradient_vjp"),
                _checked(disc_adj[n:] * r_disc_logit[n:], "data_term_scores"))

    # -- closed-form metric queries ------------------------------------------

    def generator_vjp(self, record: DenseRecord, sample_grads: np.ndarray) -> np.ndarray:
        """Gradient of ``<sample_grads, record.output>`` by the backward pass of
        ``record``, a ``generator_forward``; its discriminator block is zero."""
        grad = np.zeros(self.dim_params)
        self.gen_net.backward(record, sample_grads, self.gen_net.layers(grad))
        return _checked(grad, "generator_vjp")

    def expected_disc_loss(self, params: np.ndarray, generated: np.ndarray,
                           rows: np.ndarray) -> float:
        """Mean discriminator loss on the ``generated`` samples, softplus of
        their logits, plus its mean on ``rows``, softplus of minus theirs."""
        logits = self._disc_pass(params, generated, rows).output[:, 0]
        n = len(generated)
        value = _softplus(logits[:n]).mean() + _softplus(-logits[n:]).mean()
        return float(_checked(value, "expected_disc_loss"))

    def expected_disc_loss_gradient(self, params: np.ndarray, generated: np.ndarray,
                                    rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of ``expected_disc_loss`` over the discriminator block,
        and the adjoint of the ``generated`` samples, for the caller to pull
        back through the generator."""
        record = self._disc_pass(params, generated, rows)
        n, m = len(generated), len(record.output) - len(generated)
        # Logit derivatives of the means: p / n on the generated samples
        # and (p - 1) / m on the m rows.
        logit_adj = _logistic(record.output)
        logit_adj[:n] /= n
        logit_adj[n:] -= 1.0
        logit_adj[n:] /= m
        disc = self.disc_net
        grad = np.empty(self.dim_disc)
        input_adj = disc.backward(record, logit_adj, disc.layers(grad), input_adjoint=True)
        return _checked(grad, "expected_disc_loss_gradient"), input_adj[:n]

    def _disc_pass(self, params: np.ndarray, generated: np.ndarray,
                   rows: np.ndarray) -> DenseRecord:
        """The discriminator's pass over the ``generated`` samples, then ``rows``."""
        params = _checked(np.asarray(params, dtype=np.float64), "parameters")
        inputs = np.concatenate([generated, np.atleast_2d(np.asarray(rows, dtype=np.float64))])
        return self.disc_net.forward(self.disc_net.layers(params[self.dim_gen:]), inputs)

    def _layers(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """The four layers of a coupled vector as the nets' [W; b] views,
        the discriminator's output layer flattened to a vector."""
        (a, b, w1), (c, d, w2), (e, g, v1), (h, i, _) = self._layer_spans
        return flat[a:b].reshape(w1), flat[c:d].reshape(w2), flat[e:g].reshape(v1), flat[h:i]

    def _kept_layers(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """``_layers(flat)``, kept with ``flat`` for the last two vectors
        read that own their memory, so that steps between two buffers, as
        a replay takes them, make their views once.  A vector is matched by
        identity, and the views see every later write to it.  A view, such
        as a stored trace's snapshot, is not kept: it would keep the whole
        array it views alive."""
        for vector, views in self._views:
            if vector is flat:
                return views
        views = self._layers(flat)
        if flat.base is None:
            self._views = ((flat, views), self._views[0])
        return views

    def _workspace_for(self, n_latents: int, n_inputs: int) -> _Workspace:
        """The workspace, grown to hold ``n_latents`` latents and
        ``n_inputs`` discriminator inputs if it holds fewer."""
        ws = self._workspace
        if ws is None or n_latents > len(ws.latents) or n_inputs > len(ws.inputs):
            if ws is not None:
                n_latents = max(n_latents, len(ws.latents))
                n_inputs = max(n_inputs, len(ws.inputs))
            ws = self._workspace = _Workspace(self.arch, n_latents, n_inputs)
        return ws

    def _forward(self, params, latents, data_rows) -> _Activations:
        params = _checked(np.asarray(params, dtype=np.float64), "parameters")
        w1, w2, v1, v2 = self._kept_layers(params)
        latents = _rows_of(latents, self.latent_dim, "latents")
        rows = _rows_of(data_rows, self.data_dim, "data rows")
        n = len(latents)
        ws = self._workspace_for(n, n + len(rows))
        augmented = ws.latents[:n]
        augmented[:, :-1] = latents
        gen_pre = augmented @ w1
        gen_mask = (gen_pre > 0.0).astype(np.float64)
        gen_hidden = ws.gen_hidden[:n]
        gen_hidden[:, :-1] = np.maximum(gen_pre, 0.0, out=gen_pre)
        fake = np.matmul(gen_hidden, w2, out=ws.fake[:n])
        np.tanh(fake, out=fake)
        tanh_slope = fake * fake
        np.subtract(1.0, tanh_slope, out=tanh_slope)
        inputs = ws.inputs[:n + len(rows)]
        inputs[:n, :-1] = fake
        inputs[n:, :-1] = rows
        disc_pre = np.matmul(inputs, v1, out=ws.disc_hidden[:len(inputs)])
        disc_mask = np.greater(disc_pre, 0.0, out=ws.disc_mask[:len(inputs)])
        disc_hidden = np.maximum(disc_pre, 0.0, out=disc_pre)
        logits = disc_hidden @ v2[:-1]
        logits += v2[-1]
        return _Activations(
            w2=w2, v1=v1, v2=v2,
            latents=augmented, gen_mask=gen_mask, gen_hidden=gen_hidden,
            fake=fake, tanh_slope=tanh_slope, inputs=inputs,
            disc_mask=disc_mask, disc_hidden=disc_hidden, probs=_logistic(logits),
        )

    # The logit derivatives of the per-latent generator loss over the latent
    # count n, from the probabilities p and their slope p (1 - p).  Each
    # derivative is minus a product, so it divides by -n, which rounds as
    # negating and then dividing by n would.

    def _gen_logit_first(self, probs: np.ndarray, slope: np.ndarray, n: int) -> np.ndarray:
        if self.arch.objective == "nonsaturating":   # loss -p: -p (1 - p)
            return slope / -n
        return probs / -n   # loss log(1 - p) = -softplus(x): -p

    def _gen_logit_second(self, probs: np.ndarray, slope: np.ndarray, n: int) -> np.ndarray:
        if self.arch.objective == "nonsaturating":   # -p (1 - p) (1 - 2p)
            return slope * (1.0 - 2.0 * probs) / -n
        return slope / -n   # -p (1 - p)


class _Workspace:
    """Operands that an ``FcGan``'s kernels write each call's values into.

    ``latents``, ``gen_hidden`` and ``inputs`` are the operands of the
    augmented layers, with their trailing ones column written here once; a
    call with n latents and m data rows writes the other columns of their
    first n, n and n + m rows.  The generator's relu runs in place on its
    pre-activation, a fresh array, which is then copied into
    ``gen_hidden``, and its tanh output goes to ``fake`` and is then copied
    into ``inputs``: the elementwise passes read and write contiguous
    memory, and only the copies are strided.  ``directions`` is the VJP's
    right operand of the mask product, [V2 V1^T | u_V2 V1^T + V2 u_V1^T]
    (hidden_disc x 2 data_dim), and ``adjoints`` its per-input weights of
    the masked grams, [R{adj} | adj].  ``disc_hidden`` holds the discriminator's
    pre-activations and then their relu, and ``disc_mask`` the relu mask:
    the widest arrays of a call, which from about 250 rows per batch would
    otherwise be unmapped when freed and faulted back in on every call.
    No gradient is written here: a kernel returns the caller's ``out`` or
    a fresh array, so no returned array aliases the workspace.

    The matmuls must read the same memory layout as on fresh operands,
    since a BLAS product of a transposed layout can round differently:
    leading rows of the C-contiguous buffers are C-contiguous, and
    ``directions`` is column-major, as the products of ``V1^T`` that fill
    it are.
    """

    def __init__(self, arch: GanArchitecture, n_latents: int, n_inputs: int):
        self.latents = np.ones((n_latents, arch.latent_dim + 1))
        self.gen_hidden = np.ones((n_latents, arch.hidden_gen + 1))
        self.fake = np.empty((n_latents, arch.data_dim))
        self.inputs = np.ones((n_inputs, arch.data_dim + 1))
        self.directions = np.empty((arch.hidden_disc, 2 * arch.data_dim), order="F")
        self.adjoints = np.empty((n_inputs, 2))
        self.disc_hidden = np.empty((n_inputs, arch.hidden_disc))
        self.disc_mask = np.empty((n_inputs, arch.hidden_disc))


@dataclass
class _Activations:
    """One batch's forward pass, kept for the backward and R-operator passes.

    generator on latents z:        a = z W1 + b1,  h = relu(a),  x = tanh(h W2 + b2)
    discriminator on inputs v:     c = v V1 + d1,  r = relu(c),  p = sigmoid(r V2 + d2)

    ``w2`` and ``v1`` are the augmented layers [W2; b2] and [V1; d1] and
    ``v2`` the vector [V2; d2], all views of the parameters.  ``latents``,
    ``gen_hidden`` and ``inputs`` carry a trailing ones column; ``r`` does
    not, since a strided write of the widest array costs more than the
    bias add it would save.  ``inputs`` stacks the generated rows first,
    then the data rows; ``fake`` is the generated rows, contiguous, of which
    the first part of ``inputs`` is a copy.  The masks are ``a > 0`` and
    ``c > 0`` as float64; ``tanh_slope`` is ``1 - x**2``.  ``latents``,
    ``gen_hidden``, ``fake``, ``inputs``, ``disc_mask`` and ``disc_hidden``
    are leading rows of the workspace, valid until the instance's next
    kernel call.
    """

    w2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    latents: np.ndarray
    gen_mask: np.ndarray
    gen_hidden: np.ndarray
    fake: np.ndarray
    tanh_slope: np.ndarray
    inputs: np.ndarray
    disc_mask: np.ndarray
    disc_hidden: np.ndarray
    probs: np.ndarray


def _disc_logit_first(probs: np.ndarray, n_fake: int, denom: int) -> np.ndarray:
    """First logit derivative of the discriminator's per-input loss over
    ``denom``: p on the first ``n_fake`` inputs, which are generated, and
    p - 1 on the data rows after them."""
    first = probs.copy()
    first[n_fake:] -= 1.0
    first /= denom
    return first


def _rows_of(values, width: int, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != width:
        raise ValueError(f"{what} of shape {values.shape} are not (n, {width})")
    return values


def _masked_grams(inputs: np.ndarray, weights: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``inputs.T @ (weights[:, j, None] * mask)`` for each column j of
    ``weights``, stacked along the first axis, from one matmul.

    The row weights scale the inputs, not the mask.
    """
    n, k = weights.shape
    scaled = (weights[:, :, None] * inputs[:, None, :]).reshape(n, k * inputs.shape[1])
    return (scaled.T @ mask).reshape(k, inputs.shape[1], -1)


def _checked(values: np.ndarray, what: str) -> np.ndarray:
    # Any NaN or infinity contaminates the sum, so one reduction checks the
    # whole array.
    if not math.isfinite(values.sum()):
        raise NonFiniteError(f"non-finite values in {what}")
    return values


# -- entry points over any problem -------------------------------------------
#
# Training, replay and the oracle all take their steps through
# ``joint_gradient``, so their arithmetic is identical, which is what makes
# bit-exact replay possible.


def joint_gradient(problem, params: np.ndarray, latents: np.ndarray,
                   data_rows: np.ndarray, denom: int | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Two-block batch gradient, shape (dim_params,).

    The top block is the gradient of the generator batch loss with respect
    to generator parameters only; the bottom block the discriminator batch
    loss gradient with respect to discriminator parameters only.  ``denom``
    normalizes the discriminator loss and defaults to the latent count.
    Counterfactual replays drop data rows while keeping the original
    denominator, so removing one instance removes exactly one summand.
    The gradient is written into ``out`` when given, which must not share
    memory with ``params``, and into a fresh array otherwise.
    """
    if len(latents) == 0:
        raise ValueError("empty latent batch")
    return problem.joint_gradient(params, latents, data_rows,
                                  len(latents) if denom is None else int(denom), out=out)


def data_term_scores(problem, disc_query: np.ndarray, params: np.ndarray,
                     rows: np.ndarray) -> np.ndarray:
    """<query, data-term gradient> for every row, without per-row gradients.

    Read off ``problem.joint_gradient_vjp`` along a zero generator
    direction, with no latents and a normalizer of one.
    """
    vector = np.zeros(problem.dim_params)
    vector[problem.dim_gen:] = disc_query
    _, scores = problem.joint_gradient_vjp(vector, params, np.empty((0, problem.latent_dim)),
                                           rows, 1)
    return scores
