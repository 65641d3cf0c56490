"""Tied-weight tanh autoencoder trained by full-batch gradient descent.

The encoder stacks tanh layers; the decoder reuses the transposed
weights in reverse with its own biases, so a single hidden layer reduces
to h = tanh(Wx + b) and y = tanh(W'h + c). Scoring negates the squared
reconstruction error: queries the network reconstructs well look like
the templates it was trained on.

Gradients are computed analytically by backprop; the test suite checks
them against central finite differences, so the loss/grad path is
exposed as plain functions over a parameter dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._nn import (
    StackedParams,
    T,
    as_stack,
    note_failures,
    stack_templates,
    width_matmul,
    xavier_uniform,
)
from .base import Detector, check_training, check_width, shared_settings

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
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Encoder and decoder activations of a stack of subjects: X is
    (subjects, m, widest d) and every tensor has the subject axis first."""
    W, b, c = params["W"], params["b"], params["c"]
    K = len(W)
    A = [X]
    for k in range(K):
        Z = width_matmul(X, T(W[0]), widths) if k == 0 else A[k] @ T(W[k])
        A.append(np.tanh(Z + b[k][:, None]))
    # O[k] is the decoder activation of width dims[k]; O[K] is the code.
    O: list[np.ndarray | None] = [None] * (K + 1)
    O[K] = A[K]
    for k in range(K - 1, -1, -1):
        O[k] = np.tanh(O[k + 1] @ W[k] + c[k][:, None])
    return A, O  # type: ignore[return-value]


def _stacked_loss_and_grads(
    params: Params, grads: Params, X: np.ndarray, widths: list[int]
) -> np.ndarray:
    """Each subject's summed squared reconstruction error; the gradients
    are written into ``grads``. Padded columns reconstruct as 0 = X, so
    they add nothing to the loss and get zero gradients."""
    W = params["W"]
    grad_W, grad_b, grad_c = grads["W"], grads["b"], grads["c"]
    K = len(W)
    A, O = _forward(params, X, widths)
    Y = O[0]
    loss = ((X - Y) ** 2).sum(axis=(1, 2))

    g = 2.0 * (Y - X)
    for k in range(K):
        gv = g * (1.0 - O[k] ** 2)
        gv.sum(axis=1, out=grad_c[k])
        np.matmul(T(O[k + 1]), gv, out=grad_W[k])
        g = width_matmul(gv, T(W[0]), widths) if k == 0 else gv @ T(W[k])
    for k in range(K - 1, -1, -1):
        gz = g * (1.0 - A[k + 1] ** 2)
        gz.sum(axis=1, out=grad_b[k])
        grad_W[k] += T(gz) @ A[k]
        if k > 0:
            g = gz @ W[k]
    return loss


def reconstruct(params: Params, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    _, O = _forward(as_stack(params), X[None], [X.shape[1]])
    return O[0][0]


def loss_and_grads(params: Params, X: np.ndarray) -> tuple[float, Params]:
    """Summed squared reconstruction error over the batch and its
    gradients with respect to every parameter tensor."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    net = StackedParams([params])
    loss = _stacked_loss_and_grads(net.params, net.grads, X[None], [X.shape[1]])
    return float(loss[0]), net.subject_grads(0)


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
        if not self.hidden_sizes:
            raise ValueError("hidden_sizes needs at least one hidden layer")
        for k, width in enumerate(self.hidden_sizes):
            check_width(f"hidden_sizes[{k}]", width)
        check_training(self.learning_rate, self.epochs)
        self.hidden_sizes = tuple(int(h) for h in self.hidden_sizes)

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
        errors: list = [None] * len(detectors)
        for epoch in range(shared.epochs):
            loss = _stacked_loss_and_grads(net.params, net.grads, X, widths)
            if note_failures(errors, loss, epoch):
                break
            net.flat -= shared.learning_rate * net.grad_flat
        for detector, params, error in zip(detectors, net.unstack(), errors):
            detector.params_ = params if error is None else None
        return errors

    def score_all(self, queries: np.ndarray) -> np.ndarray:
        if self.params_ is None:
            raise RuntimeError("fit before score")
        q = np.asarray(queries, dtype=np.float64)
        return -((q - reconstruct(self.params_, q)) ** 2).sum(axis=1)
