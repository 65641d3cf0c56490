"""Tied-weight tanh autoencoder trained by full-batch gradient descent.

The encoder stacks tanh layers; the decoder reuses the transposed
weights in reverse with its own biases, so a single hidden layer reduces
to h = tanh(Wx + b) and y = tanh(W'h + c). Scoring negates the squared
reconstruction error: queries the network reconstructs well look like
the templates it was trained on.

Gradients are computed analytically by backprop; the test suite checks
them against central finite differences, so the loss/grad path is
exposed as plain functions over a parameter dict. Every one of them runs
`_epoch`, which a fit builds once: it allocates every array an epoch
writes (all activations in one flat buffer, so 1 - a^2 of every layer is
two calls) and cuts every transposed view, bias column and unpadded
feature slice before the first epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import Callable

import numpy as np

from ._nn import (
    StackedParams,
    T,
    as_stack,
    stack_templates,
    train,
    unflatten,
    width_matmul,
    xavier_uniform,
)
from .base import Detector, check_hidden_sizes, check_training, shared_settings

Params = dict[str, list[np.ndarray]]


def init_params(rng: np.random.Generator, dims: list[int]) -> Params:
    """Xavier-uniform weights, zero biases, for layer widths ``dims``
    (input first, deepest code last)."""
    W = [xavier_uniform(rng, dims[k + 1], dims[k]) for k in range(len(dims) - 1)]
    b = [np.zeros(dims[k + 1]) for k in range(len(dims) - 1)]
    c = [np.zeros(dims[k]) for k in range(len(dims) - 1)]
    return {"W": W, "b": b, "c": c}


def _forward(
    params: Params, X: np.ndarray, widths: list[int]
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray, Callable[[], None]]:
    """Encoder and decoder activations of a stack of subjects (X is
    (subjects, m, widest d), every tensor has the subject axis first) and
    the function that computes them from the current parameters. A[k] is
    the encoder activation of width dims[k] (A[0] is X) and O[k] the
    decoder's (O[K] is the code A[K], O[0] the reconstruction); A[1:] and
    O[:K] are views into the one flat buffer returned with them."""
    W, b, c = params["W"], params["b"], params["c"]
    K = len(W)
    dims = [X.shape[2], *(w.shape[1] for w in W)]
    shapes = [(*X.shape[:2], n) for n in dims[1:] + dims[:K]]
    flat = np.empty(sum(int(np.prod(shape)) for shape in shapes))
    views = unflatten(flat, shapes)
    A, O = [X, *views[:K]], [*views[K:], views[K - 1]]
    # (product, activation, bias) of each layer, encoder then decoder
    layers = [(width_matmul(X, T(W[0]), A[1], widths), A[1], b[0][:, None])]
    layers += [
        (partial(np.matmul, A[k], T(W[k]), out=A[k + 1]), A[k + 1], b[k][:, None]) for k in range(1, K)
    ]
    layers += [
        (partial(np.matmul, O[k + 1], W[k], out=O[k]), O[k], c[k][:, None]) for k in range(K - 1, -1, -1)
    ]

    def run() -> None:
        for product, z, bias in layers:
            product()
            np.tanh(np.add(z, bias, out=z), out=z)

    return A, O, flat, run


def _epoch(params: Params, grads: Params, X: np.ndarray, widths: list[int]) -> Callable[[], np.ndarray]:
    """The loss and gradients of a stack of subjects as a function of no
    arguments, with every array it writes allocated here: each call
    returns each subject's summed squared reconstruction error from the
    current parameters and writes the gradients into ``grads``. Padded
    columns reconstruct as 0 = X, so they add nothing to the loss and get
    zero gradients."""
    W = params["W"]
    grad_W, grad_b, grad_c = grads["W"], grads["b"], grads["c"]
    K = len(W)
    A, O, acts, forward = _forward(params, X, widths)
    slopes = np.empty_like(acts)  # 1 - a^2 of every activation, laid out as acts
    views = unflatten(slopes, [a.shape for a in A[1:] + O[:K]])
    dA, dO = [None, *views[:K]], views[K:]
    Y = O[0]
    error, loss = np.empty_like(X), np.empty(X.shape[0])
    g = [np.empty_like(X), *(np.empty_like(a) for a in A[1:])]  # the signal at width dims[k]
    # through the decoder, the signal at width dims[k] becomes dims[k + 1]
    down = [(g[0], dO[0], grad_c[0], T(O[1]), grad_W[0], width_matmul(g[0], T(W[0]), g[1], widths))]
    down += [
        (g[k], dO[k], grad_c[k], T(O[k + 1]), grad_W[k], partial(np.matmul, g[k], T(W[k]), out=g[k + 1]))
        for k in range(1, K)
    ]
    # and back through the encoder, dims[k + 1] becomes dims[k]
    up = [
        (g[k + 1], dA[k + 1], grad_b[k], T(g[k + 1]), A[k], np.empty_like(grad_W[k]), grad_W[k],
         partial(np.matmul, g[k + 1], W[k], out=g[k]) if k else None)
        for k in range(K - 1, -1, -1)
    ]

    def step() -> np.ndarray:
        forward()
        np.subtract(1.0, np.square(acts, out=slopes), out=slopes)
        np.square(np.subtract(X, Y, out=error), out=error).sum(axis=(1, 2), out=loss)
        np.multiply(2.0, np.subtract(Y, X, out=g[0]), out=g[0])
        for gv, slope, gc, OT, gW, product in down:
            gv *= slope
            gv.sum(axis=1, out=gc)
            np.matmul(OT, gv, out=gW)
            product()
        for gz, slope, gb, gzT, a, scratch, gW, back in up:
            gz *= slope
            gz.sum(axis=1, out=gb)
            gW += np.matmul(gzT, a, out=scratch)
            if back is not None:
                back()
        return loss

    return step


def reconstruct(params: Params, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    _, O, _, forward = _forward(as_stack(params), X[None], [X.shape[1]])
    forward()
    return O[0][0]


def loss_and_grads(params: Params, X: np.ndarray) -> tuple[float, Params]:
    """Summed squared reconstruction error over the batch and its
    gradients with respect to every parameter tensor."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    net = StackedParams([params])
    loss = _epoch(net.params, net.grads, X[None], [X.shape[1]])()
    return float(loss[0]), net.subject(0, net.grads)


@dataclass(eq=False)
class TiedAutoencoder(Detector):
    """Detector wrapper: init, train for a fixed number of epochs, score.

    epochs=0 leaves the network at its seeded initialization, which makes
    initialization itself testable.
    """

    fit_across_processes = True

    hidden_sizes: tuple[int, ...] = (5, 4, 3)
    learning_rate: float = 0.5
    epochs: int = 5000
    seed: int = 0
    params_: Params | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.hidden_sizes = check_hidden_sizes(self.hidden_sizes)
        check_training(self.learning_rate, self.epochs)

    @classmethod
    def fit_group(cls, detectors, templates):
        """Train every subject in one stacked full-batch loop. A subject
        whose loss turns non-finite fails alone, at that epoch."""
        shared = shared_settings(detectors)
        X, widths = stack_templates(templates)
        net = StackedParams([
            init_params(np.random.default_rng(d.seed), [w, *shared.hidden_sizes])
            for d, w in zip(detectors, widths)
        ])
        step = _epoch(net.params, net.grads, X, widths)
        errors = train(
            zip(range(shared.epochs), repeat(step)), partial(net.descend, shared.learning_rate), len(detectors)
        )
        net.unstack(detectors, errors)
        return errors

    def score_all(self, queries: np.ndarray) -> np.ndarray:
        if self.params_ is None:
            raise RuntimeError("fit before score")
        q = np.asarray(queries, dtype=np.float64)
        return -((q - reconstruct(self.params_, q)) ** 2).sum(axis=1)
