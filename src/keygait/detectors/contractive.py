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
from ._nn import sigmoid, xavier_uniform
from .base import Detector, as_matrix

Params = dict[str, np.ndarray]


def init_params(rng: np.random.Generator, d_in: int, d_hidden: int) -> Params:
    return {
        "W": xavier_uniform(rng, d_hidden, d_in),
        "bh": np.zeros(d_hidden),
        "by": np.zeros(d_in),
    }


def encode(params: Params, X: np.ndarray) -> np.ndarray:
    return sigmoid(np.atleast_2d(X) @ params["W"].T + params["bh"])


def reconstruct(params: Params, X: np.ndarray) -> np.ndarray:
    return sigmoid(encode(params, X) @ params["W"] + params["by"])


def contractive_penalty(params: Params, X: np.ndarray) -> float:
    """Closed-form ||J_f(x)||_F^2 summed over the batch."""
    H = encode(params, X)
    S = H * (1.0 - H)
    r = (params["W"] ** 2).sum(axis=1)
    return float(((S**2) * r).sum())


def loss_and_grads(
    params: Params, X: np.ndarray, reg_weight: float
) -> tuple[float, Params]:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    W, bh, by = params["W"], params["bh"], params["by"]
    H = sigmoid(X @ W.T + bh)
    Y = sigmoid(H @ W + by)
    S = H * (1.0 - H)
    r = (W**2).sum(axis=1)

    recon = float(((X - Y) ** 2).sum())
    penalty = float(((S**2) * r).sum())
    loss = recon + reg_weight * penalty

    gv = 2.0 * (Y - X) * Y * (1.0 - Y)
    grad_by = gv.sum(axis=0)
    grad_W = H.T @ gv  # decoder use of W
    gz = (gv @ W.T) * S
    grad_bh = gz.sum(axis=0)
    grad_W += gz.T @ X  # encoder use of W

    # Penalty path: through h (chain rule) and through W directly.
    T = (S**2) * (1.0 - 2.0 * H)
    grad_W += reg_weight * (2.0 * (T * r).T @ X + 2.0 * (S**2).sum(axis=0)[:, None] * W)
    grad_bh += reg_weight * 2.0 * (T.sum(axis=0) * r)

    return loss, {"W": grad_W, "bh": grad_bh, "by": grad_by}


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

    def fit(self, templates: np.ndarray) -> "ContractiveAutoencoder":
        X = as_matrix(templates)
        rng = np.random.default_rng(self.seed)
        params = init_params(rng, X.shape[1], self.hidden_dim)
        for epoch in range(self.epochs):
            loss, grads = loss_and_grads(params, X, self.reg_weight)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            for name in params:
                params[name] -= self.learning_rate * grads[name]
        self.params_ = params
        return self

    def score_all(self, queries: np.ndarray) -> np.ndarray:
        if self.params_ is None:
            raise RuntimeError("fit before score")
        q = np.asarray(queries, dtype=np.float64)
        return -((q - reconstruct(self.params_, q)) ** 2).sum(axis=1)
