"""Contractive autoencoder: sigmoid layers, tied weights, Jacobian penalty.

The penalty is the squared Frobenius norm of the encoder Jacobian, which
for a sigmoid layer collapses to the closed form

    sum_i [h_i (1 - h_i)]^2 * sum_j W_ij^2

so no Jacobian is ever materialized. Scoring uses the negative squared
reconstruction error only; the penalty exists to shape training.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError
from . import _nn
from ._nn import xavier_uniform
from .base import Detector, as_matrix

Params = dict[str, np.ndarray]


def init_params(rng: np.random.Generator, d_in: int, d_hidden: int) -> Params:
    return {
        "W": xavier_uniform(rng, d_hidden, d_in),
        "bh": np.zeros(d_hidden),
        "by": np.zeros(d_in),
    }


def encode(params: Params, X: np.ndarray) -> np.ndarray:
    return _nn.sigmoid(np.atleast_2d(X) @ params["W"].T + params["bh"])


def reconstruct(params: Params, X: np.ndarray) -> np.ndarray:
    return _nn.sigmoid(encode(params, X) @ params["W"] + params["by"])


def contractive_penalty(params: Params, X: np.ndarray) -> float:
    """Closed-form ||J_f(x)||_F^2 summed over the batch."""
    H = encode(params, X)
    S = H * (1.0 - H)
    r = (params["W"] ** 2).sum(axis=1)
    return float(((S**2) * r).sum())


def gradient_buffers(params: Params) -> Params:
    """Arrays for `loss_and_grads` to fill: one per parameter, plus two
    (hidden, d) scratch arrays under ``"scratch"``."""
    grads = {k: np.empty_like(v) for k, v in params.items()}
    grads["scratch"] = np.empty((2, *params["W"].shape))
    return grads


def loss_and_grads(
    params: Params, X: np.ndarray, reg_weight: float, grads: Params | None = None
) -> tuple[float, Params]:
    """Loss and gradients over the batch ``X``.

    The gradients are written into ``grads`` (from `gradient_buffers`,
    fresh ones when None). Every (hidden, d) intermediate lands in those
    arrays, so a training loop that passes the same buffers allocates no
    array of that size per epoch: each would otherwise be mapped and
    unmapped, or trimmed off the heap, every epoch.
    """
    if grads is None:
        grads = gradient_buffers(params)
    grad_W, (A, B) = grads["W"], grads["scratch"]
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    W, bh, by = params["W"], params["bh"], params["by"]
    H = _nn.sigmoid(X @ W.T + bh)
    Y = _nn.sigmoid(H @ W + by)
    S = H * (1.0 - H)
    r = np.square(W, out=A).sum(axis=1)

    recon = float(((X - Y) ** 2).sum())
    penalty = float(((S**2) * r).sum())
    loss = recon + reg_weight * penalty

    gv = 2.0 * (Y - X) * Y * (1.0 - Y)
    gv.sum(axis=0, out=grads["by"])
    np.matmul(H.T, gv, out=grad_W)  # decoder use of W
    gz = (gv @ W.T) * S
    gz.sum(axis=0, out=grads["bh"])
    grad_W += np.matmul(gz.T, X, out=A)  # encoder use of W

    # Penalty path: through h (chain rule) and through W directly.
    T = (S**2) * (1.0 - 2.0 * H)
    np.matmul(2.0 * (T * r).T, X, out=A)
    A += np.multiply(2.0 * (S**2).sum(axis=0)[:, None], W, out=B)
    A *= reg_weight
    grad_W += A
    grads["bh"] += reg_weight * 2.0 * (T.sum(axis=0) * r)

    return loss, grads


class ContractiveAutoencoder(Detector):
    def __init__(
        self,
        hidden_dim: int = 400,
        reg_weight: float = 1.5,
        learning_rate: float = 0.01,
        epochs: int = 1000,
        seed: int = 0,
    ) -> None:
        if hidden_dim < 1:
            raise ValueError(f"hidden_dim must be positive, got {hidden_dim}")
        if epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {epochs}")
        self.hidden_dim = hidden_dim
        self.reg_weight = reg_weight
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.seed = seed
        self.params_: Params | None = None

    @classmethod
    def fit_group(cls, detectors, templates):
        """Fit each subject in turn; one whose loss turns non-finite fails alone."""
        errors: list = [None] * len(detectors)
        for s, (detector, X) in enumerate(zip(detectors, map(as_matrix, templates))):
            params = init_params(np.random.default_rng(detector.seed), X.shape[1], detector.hidden_dim)
            grads = gradient_buffers(params)
            for epoch in range(detector.epochs):
                loss, _ = loss_and_grads(params, X, detector.reg_weight, grads)
                if not np.isfinite(loss):
                    errors[s] = TrainingError(f"non-finite loss at epoch {epoch}")
                    break
                for name in params:
                    g = grads[name]
                    g *= detector.learning_rate
                    params[name] -= g
            detector.params_ = params if errors[s] is None else None
        return errors

    def score_all(self, queries: np.ndarray) -> np.ndarray:
        if self.params_ is None:
            raise RuntimeError("fit before score")
        q = np.asarray(queries, dtype=np.float64)
        return -((q - reconstruct(self.params_, q)) ** 2).sum(axis=1)
