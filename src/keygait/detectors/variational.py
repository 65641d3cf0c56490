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

Training runs `_epoch`, which a fit builds once per batch size (a short
last batch gets its own): it allocates every array a step writes,
including the batch rows and noise the loop fills in place, and cuts
every transposed view, bias column and unpadded feature slice before the
first step; Adam's scratch arrays are likewise its own. The public loss
and gradients run the same function once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from ._nn import (
    Adam,
    StackedParams,
    T,
    as_stack,
    logistic,
    softplus,
    stack_templates,
    train,
    width_mask,
    width_matmul,
    xavier_uniform,
)
from .base import Detector, check_hidden_sizes, check_training, check_width, shared_settings

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


def kl_divergence(
    mu: np.ndarray,
    logvar: np.ndarray,
    out: np.ndarray | None = None,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """KL(N(mu, exp(logvar)) || N(0, I)), summed over each subject's
    entries (the last two axes), into ``out`` when given; ``work`` is two
    scratch arrays shaped like ``mu``, fresh ones when None."""
    a, b = (np.empty_like(mu), np.empty_like(mu)) if work is None else work
    np.add(1.0, logvar, out=a)
    a -= np.square(mu, out=b)
    a -= np.exp(logvar, out=b)
    return np.multiply(-0.5, a.sum(axis=(-2, -1), out=out), out=out)


def _softplus_layers(
    x: np.ndarray, Ws: list[np.ndarray], bs: list[np.ndarray], widths: list[int] | None = None
) -> tuple[list[np.ndarray], list[np.ndarray], Callable[[], None]]:
    """Pre-activations and activations of the layers softplus(h W^T + b)
    on a stack of subjects, x (subjects, rows, width) first, and the
    function that computes them from the current values of x and the
    parameters. With ``widths``, x is zero-padded and the first product
    is a `width_matmul`."""
    pre = [np.empty((*x.shape[:2], b.shape[1])) for b in bs]
    act = [x, *(np.empty_like(v) for v in pre)]
    layers = [
        (width_matmul(x, T(W), v, widths) if widths and k == 0 else partial(np.matmul, h, T(W), out=v),
         v, b[:, None], a)
        for k, (h, W, b, v, a) in enumerate(zip(act, Ws, bs, pre, act[1:]))
    ]

    def run() -> None:
        for product, v, bias, a in layers:
            product()
            v += bias
            softplus(v, out=a)

    return pre, act, run


def _softplus_backward(
    pre: list[np.ndarray],
    act: list[np.ndarray],
    Ws: list[np.ndarray],
    grad_Ws: list[np.ndarray],
    grad_bs: list[np.ndarray],
    signals: list,
) -> Callable[[], None]:
    """The function that backpropagates signals[-1] through the layers of
    `_softplus_layers`, last first, writing each layer's gradients and the
    signal at each width into ``signals`` (down to signals[0], unless that
    is None). The sigmoids are written in place of the pre-activations."""
    layers = [
        (signals[k + 1], pre[k], T(signals[k + 1]), act[k], grad_Ws[k], grad_bs[k],
         None if signals[k] is None else partial(np.matmul, signals[k + 1], Ws[k], out=signals[k]))
        for k in range(len(pre) - 1, -1, -1)
    ]

    def run() -> None:
        for g, v, gT, a, gW, gb, back in layers:
            g *= logistic(v, out=v)  # softplus'
            np.matmul(gT, a, out=gW)
            g.sum(axis=1, out=gb)
            if back is not None:
                back()

    return run


def _bce_from_logits(
    X: np.ndarray, logits: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    # -sum[x log y + (1-x) log(1-y)] written stably in the logits, per
    # element, into ``out`` with ``work`` as scratch when given.
    out = softplus(logits, out=out)
    return np.subtract(out, np.multiply(X, logits, out=work), out=out)


def reconstruction_losses(params: Params, X: np.ndarray) -> np.ndarray:
    """Deterministic reconstruction cross-entropy of each row of X at the
    latent mean."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    stack = as_stack(params)
    _, enc_act, encode = _softplus_layers(X[None], stack["enc_W"], stack["enc_b"], [X.shape[1]])
    _, dec_act, decode = _softplus_layers(
        np.empty((1, X.shape[0], stack["b_mu"].shape[1])), stack["dec_W"], stack["dec_b"]
    )
    mu = dec_act[0]  # the decoder runs from the latent mean
    encode()
    np.add(np.matmul(enc_act[-1], T(stack["W_mu"]), out=mu), stack["b_mu"][:, None], out=mu)
    decode()
    logits = dec_act[-1] @ T(stack["W_out"]) + stack["b_out"][:, None]
    return _bce_from_logits(X, logits[0]).sum(axis=1)


def _epoch(
    params: Params,
    grads: Params,
    X: np.ndarray,
    eps: np.ndarray,
    widths: list[int],
    mask: np.ndarray,
) -> Callable[[], np.ndarray]:
    """The loss and gradients of a stack of subjects as a function of no
    arguments, with every array it writes allocated here: each call
    returns each subject's ELBO-style loss (reconstruction + KL, summed
    over its rows) from the current values of the parameters, ``X`` and
    ``eps``, and writes the gradients into ``grads``. A caller refills X
    and eps in place between calls, and ignores overflow (see `logistic`).
    ``mask`` zeroes the padded columns, whose logits are 0 and would
    otherwise read as sigmoid(0) - 0 = 0.5."""
    enc_pre, enc_act, encode = _softplus_layers(X, params["enc_W"], params["enc_b"], widths)
    h = enc_act[-1]
    mu, lv, std, Z, g_mu, g_lv = (np.empty(eps.shape) for _ in range(6))
    dec_pre, dec_act, decode = _softplus_layers(Z, params["dec_W"], params["dec_b"])
    logits, bce, work = (np.empty(X.shape) for _ in range(3))
    loss, kl = np.empty(X.shape[0]), np.empty(X.shape[0])
    kl_work = (np.empty(eps.shape), np.empty(eps.shape))
    W_muT, W_lvT, W_outT = T(params["W_mu"]), T(params["W_lv"]), T(params["W_out"])
    b_mu, b_lv, b_out = (params[k][:, None] for k in ("b_mu", "b_lv", "b_out"))
    # the signal at each width of the decoder and the encoder
    g_dec = [np.empty_like(a) for a in dec_act]
    g_enc = [None, *(np.empty_like(a) for a in enc_act[1:])]
    g_lv_term = np.empty_like(g_enc[-1])
    to_decoder = width_matmul(logits, params["W_out"], g_dec[-1], widths)
    back_decode = _softplus_backward(
        dec_pre, dec_act, params["dec_W"], grads["dec_W"], grads["dec_b"], g_dec
    )
    back_encode = _softplus_backward(
        enc_pre, enc_act, params["enc_W"], grads["enc_W"], grads["enc_b"], g_enc
    )
    g_outT, g_muT, g_lvT = T(logits), T(g_mu), T(g_lv)

    def step() -> np.ndarray:
        encode()
        np.add(np.matmul(h, W_muT, out=mu), b_mu, out=mu)
        np.add(np.matmul(h, W_lvT, out=lv), b_lv, out=lv)
        np.exp(np.multiply(0.5, lv, out=std), out=std)
        np.add(mu, np.multiply(std, eps, out=Z), out=Z)
        decode()
        np.add(np.matmul(dec_act[-1], W_outT, out=logits), b_out, out=logits)

        _bce_from_logits(X, logits, bce, work)
        np.multiply(bce, mask, out=bce).sum(axis=(1, 2), out=loss)
        np.add(loss, kl_divergence(mu, lv, kl, kl_work), out=loss)

        g = logistic(logits, out=logits)  # dloss/dlogits, in place of the logits
        g -= X
        g *= mask
        np.matmul(g_outT, dec_act[-1], out=grads["W_out"])
        g.sum(axis=1, out=grads["b_out"])
        to_decoder()
        back_decode()

        g = g_dec[0]
        np.add(g, mu, out=g_mu)  # reconstruction path + KL term
        np.multiply(np.multiply(np.multiply(g, eps, out=g_lv), 0.5, out=g_lv), std, out=g_lv)
        exp_lv = np.exp(lv, out=kl_work[0])
        np.multiply(0.5, np.subtract(exp_lv, 1.0, out=exp_lv), out=exp_lv)
        np.add(g_lv, exp_lv, out=g_lv)
        np.matmul(g_muT, h, out=grads["W_mu"])
        g_mu.sum(axis=1, out=grads["b_mu"])
        np.matmul(g_lvT, h, out=grads["W_lv"])
        g_lv.sum(axis=1, out=grads["b_lv"])

        np.matmul(g_mu, params["W_mu"], out=g_enc[-1])
        g_enc[-1] += np.matmul(g_lv, params["W_lv"], out=g_lv_term)
        back_encode()
        return loss

    return step


def _draws(
    rngs: list[np.random.Generator],
    X: np.ndarray,
    batch_size: int,
    epochs: int,
    buffers: dict[int, tuple[np.ndarray, np.ndarray]],
):
    """(epoch, rows) of every training step, each subject's batch and
    noise drawn from its own RNG in the order a fit of that subject alone
    draws them: per epoch a permutation, then per batch the noise. A step
    of n rows finds its rows of the template stack X and its noise in
    ``buffers[n]``, refilled in place."""
    n_subjects, m, d = X.shape
    templates = X.reshape(n_subjects * m, d)
    offsets = m * np.arange(n_subjects)[:, None]
    for epoch in range(epochs):
        order = np.stack([rng.permutation(m) for rng in rngs]) + offsets
        for start in range(0, m, batch_size):
            rows = order[:, start : start + batch_size]
            batch, noise = buffers[rows.shape[1]]
            np.take(templates, rows, axis=0, out=batch, mode="clip")
            for rng, e in zip(rngs, noise):
                rng.standard_normal(out=e)
            yield epoch, rows.shape[1]


def loss_and_grads(
    params: Params, X: np.ndarray, eps: np.ndarray
) -> tuple[float, Params]:
    """ELBO-style loss (reconstruction + KL, summed over the batch) and
    analytic gradients, with the reparameterization noise passed in."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    eps = np.atleast_2d(np.asarray(eps, dtype=np.float64))
    net = StackedParams([params])
    widths = [X.shape[1]]
    with np.errstate(over="ignore"):
        loss = _epoch(net.params, net.grads, X[None], eps[None], widths, width_mask(widths))()
    return float(loss[0]), net.subject(0, net.grads)


@dataclass(eq=False)
class VariationalAutoencoder(Detector):
    fit_across_processes = True

    hidden_sizes: tuple[int, ...] = (5, 5)
    latent_dim: int = 3
    learning_rate: float = 0.001
    batch_size: int = 2
    epochs: int = 700
    seed: int = 0
    params_: Params | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.hidden_sizes = check_hidden_sizes(self.hidden_sizes)
        check_width("latent_dim", self.latent_dim)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        check_training(self.learning_rate, self.epochs)

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
        n_subjects, m, d = X.shape
        batch = shared.batch_size
        buffers = {
            n: (np.empty((n_subjects, n, d)), np.empty((n_subjects, n, shared.latent_dim)))
            for n in {min(batch, m - start) for start in range(0, m, batch)}
        }
        steps = {n: _epoch(net.params, net.grads, *b, widths, mask) for n, b in buffers.items()}
        errors = train(
            ((epoch, steps[n]) for epoch, n in _draws(rngs, X, batch, shared.epochs, buffers)),
            partial(opt.step, net.flat, net.grad_flat),
            len(detectors),
        )
        net.unstack(detectors, errors)
        return errors

    def score_all(self, queries: np.ndarray) -> np.ndarray:
        if self.params_ is None:
            raise RuntimeError("fit before score")
        return -reconstruction_losses(self.params_, queries)
