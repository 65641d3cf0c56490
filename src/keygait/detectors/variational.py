"""Variational autoencoder with a small Gaussian latent space.

Softplus hidden layers on both sides, a diagonal-Gaussian latent
(reparameterized as z = mu + exp(logvar/2) * eps), and a Bernoulli
decoder over the [0, 1] feature vector read out through a sigmoid.
Training minimizes reconstruction cross-entropy plus the KL divergence
to the unit Gaussian with Adam on mini-batches, drawing one noise vector
per example per step.

Scoring is deterministic: the query is pushed through at the latent mean
and scored by the negative reconstruction loss alone. The sampling path
keeps its noise as an explicit argument so gradients can be checked with
frozen draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ._nn import (
    Adam,
    StackedParams,
    T,
    as_stack,
    note_failures,
    sigmoid,
    softplus,
    stack_templates,
    width_mask,
    width_matmul,
    xavier_uniform,
)
from .base import Detector, check_training, check_width, shared_settings

Params = dict[str, Any]


def init_params(
    rng: np.random.Generator,
    d_in: int,
    hidden_sizes: tuple[int, ...],
    latent_dim: int,
) -> Params:
    enc_dims = [d_in, *hidden_sizes]
    dec_dims = [latent_dim, *reversed(hidden_sizes)]
    return {
        "enc_W": [xavier_uniform(rng, enc_dims[i + 1], enc_dims[i]) for i in range(len(hidden_sizes))],
        "enc_b": [np.zeros(h) for h in enc_dims[1:]],
        "W_mu": xavier_uniform(rng, latent_dim, enc_dims[-1]),
        "b_mu": np.zeros(latent_dim),
        "W_lv": xavier_uniform(rng, latent_dim, enc_dims[-1]),
        "b_lv": np.zeros(latent_dim),
        "dec_W": [xavier_uniform(rng, dec_dims[i + 1], dec_dims[i]) for i in range(len(hidden_sizes))],
        "dec_b": [np.zeros(h) for h in dec_dims[1:]],
        "W_out": xavier_uniform(rng, d_in, dec_dims[-1]),
        "b_out": np.zeros(d_in),
    }


def kl_divergence(mu: np.ndarray, logvar: np.ndarray) -> np.ndarray:
    """KL(N(mu, exp(logvar)) || N(0, I)), summed over each subject's
    entries (the last two axes)."""
    return -0.5 * (1.0 + logvar - mu**2 - np.exp(logvar)).sum(axis=(-2, -1))


def _affine(h: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    return h @ T(W) + b[:, None]


def _encode(params: Params, X: np.ndarray, widths: list[int]) -> tuple[list, list]:
    """Pre-activations and activations of the encoder, on a stack of
    subjects: X is (subjects, rows, widest d)."""
    pre: list[np.ndarray] = []
    act: list[np.ndarray] = [X]
    for k, (W, b) in enumerate(zip(params["enc_W"], params["enc_b"])):
        v = width_matmul(X, T(W), widths) + b[:, None] if k == 0 else _affine(act[k], W, b)
        pre.append(v)
        act.append(softplus(v))
    return pre, act


def _decode(params: Params, Z: np.ndarray) -> tuple[list, list, np.ndarray]:
    """Pre-activations, activations and output logits of the decoder."""
    pre: list[np.ndarray] = []
    act: list[np.ndarray] = [Z]
    for W, b in zip(params["dec_W"], params["dec_b"]):
        v = _affine(act[-1], W, b)
        pre.append(v)
        act.append(softplus(v))
    return pre, act, _affine(act[-1], params["W_out"], params["b_out"])


def _bce_from_logits(X: np.ndarray, logits: np.ndarray) -> np.ndarray:
    # -sum[x log y + (1-x) log(1-y)] written stably in the logits, per
    # element.
    return softplus(logits) - X * logits


def reconstruction_losses(params: Params, X: np.ndarray) -> np.ndarray:
    """Deterministic reconstruction cross-entropy of each row of X at the
    latent mean."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    stack = as_stack(params)
    _, act = _encode(stack, X[None], [X.shape[1]])
    mu = _affine(act[-1], stack["W_mu"], stack["b_mu"])
    return _bce_from_logits(X, _decode(stack, mu)[2][0]).sum(axis=1)


def _stacked_loss_and_grads(
    params: Params,
    grads: Params,
    X: np.ndarray,
    eps: np.ndarray,
    widths: list[int],
    mask: np.ndarray,
) -> np.ndarray:
    """Each subject's ELBO-style loss (reconstruction + KL, summed over
    its rows); the gradients are written into ``grads``. ``mask`` zeroes
    the padded columns, whose logits are 0 and would otherwise read as
    sigmoid(0) - 0 = 0.5."""
    enc_pre, enc_act = _encode(params, X, widths)
    mu = _affine(enc_act[-1], params["W_mu"], params["b_mu"])
    lv = _affine(enc_act[-1], params["W_lv"], params["b_lv"])
    std = np.exp(0.5 * lv)
    Z = mu + std * eps
    dec_pre, dec_act, logits = _decode(params, Z)

    loss = (_bce_from_logits(X, logits) * mask).sum(axis=(1, 2)) + kl_divergence(mu, lv)

    g = (sigmoid(logits) - X) * mask  # dloss/dlogits
    np.matmul(T(g), dec_act[-1], out=grads["W_out"])
    g.sum(axis=1, out=grads["b_out"])
    g = width_matmul(g, params["W_out"], widths)
    for k in range(len(params["dec_W"]) - 1, -1, -1):
        g = g * sigmoid(dec_pre[k])  # softplus'
        np.matmul(T(g), dec_act[k], out=grads["dec_W"][k])
        g.sum(axis=1, out=grads["dec_b"][k])
        g = g @ params["dec_W"][k]

    g_mu = g + mu  # reconstruction path + KL term
    g_lv = g * eps * 0.5 * std + 0.5 * (np.exp(lv) - 1.0)
    np.matmul(T(g_mu), enc_act[-1], out=grads["W_mu"])
    g_mu.sum(axis=1, out=grads["b_mu"])
    np.matmul(T(g_lv), enc_act[-1], out=grads["W_lv"])
    g_lv.sum(axis=1, out=grads["b_lv"])

    g = g_mu @ params["W_mu"] + g_lv @ params["W_lv"]
    for k in range(len(params["enc_W"]) - 1, -1, -1):
        g = g * sigmoid(enc_pre[k])
        np.matmul(T(g), enc_act[k], out=grads["enc_W"][k])
        g.sum(axis=1, out=grads["enc_b"][k])
        if k > 0:
            g = g @ params["enc_W"][k]
    return loss


def _draws(rngs: list[np.random.Generator], m: int, batch_size: int, latent_dim: int, epochs: int):
    """(epoch, batch rows, noise) of every training step, each subject's
    drawn from its own RNG in the order a fit of that subject alone draws
    them: per epoch a permutation, then per batch the noise."""
    for epoch in range(epochs):
        order = np.stack([rng.permutation(m) for rng in rngs])
        for start in range(0, m, batch_size):
            rows = order[:, start : start + batch_size]
            noise = [rng.standard_normal((rows.shape[1], latent_dim)) for rng in rngs]
            yield epoch, rows, np.stack(noise)


def loss_and_grads(
    params: Params, X: np.ndarray, eps: np.ndarray
) -> tuple[float, Params]:
    """ELBO-style loss (reconstruction + KL, summed over the batch) and
    analytic gradients, with the reparameterization noise passed in."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    eps = np.atleast_2d(np.asarray(eps, dtype=np.float64))
    net = StackedParams([params])
    widths = [X.shape[1]]
    loss = _stacked_loss_and_grads(
        net.params, net.grads, X[None], eps[None], widths, width_mask(widths)
    )
    return float(loss[0]), net.subject_grads(0)


@dataclass(eq=False)
class VariationalAutoencoder(Detector):
    hidden_sizes: tuple[int, ...] = (5, 5)
    latent_dim: int = 3
    learning_rate: float = 0.001
    batch_size: int = 2
    epochs: int = 700
    seed: int = 0
    params_: Params | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.hidden_sizes:
            raise ValueError("hidden_sizes needs at least one hidden layer")
        for k, width in enumerate(self.hidden_sizes):
            check_width(f"hidden_sizes[{k}]", width)
        check_width("latent_dim", self.latent_dim)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        check_training(self.learning_rate, self.epochs)
        self.hidden_sizes = tuple(int(h) for h in self.hidden_sizes)

    @classmethod
    def fit_group(cls, detectors, templates):
        """Train every subject in one stacked mini-batch loop, each from
        its own RNG (see `_draws`). A subject whose loss turns non-finite
        fails alone, at that epoch."""
        shared = shared_settings(detectors)
        X, widths = stack_templates(templates)
        rngs = [np.random.default_rng(d.seed) for d in detectors]
        net = StackedParams([
            init_params(rng, w, shared.hidden_sizes, shared.latent_dim)
            for rng, w in zip(rngs, widths)
        ])
        mask = width_mask(widths)
        opt = Adam(net.flat, learning_rate=shared.learning_rate)
        subjects = np.arange(len(detectors))[:, None]
        errors: list = [None] * len(detectors)
        draws = _draws(rngs, X.shape[1], shared.batch_size, shared.latent_dim, shared.epochs)
        for epoch, rows, eps in draws:
            loss = _stacked_loss_and_grads(
                net.params, net.grads, X[subjects, rows], eps, widths, mask
            )
            if note_failures(errors, loss, epoch):
                break
            opt.step(net.flat, net.grad_flat)
        for detector, params, error in zip(detectors, net.unstack(), errors):
            detector.params_ = params if error is None else None
        return errors

    def score_all(self, queries: np.ndarray) -> np.ndarray:
        if self.params_ is None:
            raise RuntimeError("fit before score")
        return -reconstruction_losses(self.params_, queries)
