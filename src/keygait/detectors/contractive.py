"""Contractive autoencoder: sigmoid layers, tied weights, Jacobian penalty.

The weight W is stored as (d, hidden), the layout every product of an
epoch reads contiguously: the encoder is h = sigmoid(x W + b_h) and the
decoder y = sigmoid(h W^T + b_y). The penalty is the squared Frobenius
norm of the encoder Jacobian, which for a sigmoid layer collapses to the
closed form

    sum_i [h_i (1 - h_i)]^2 * sum_j W_ji^2

so no Jacobian is ever materialized. Scoring uses the negative squared
reconstruction error only; the penalty exists to shape training.

The gradient makes one (d, hidden) product. With S = h(1 - h), r_i =
sum_j W_ji^2 and G_y the output signal, the encoder signal
G = (G_y W) S + 2 lambda S^2 (1 - 2h) r carries the penalty's path
through h, so grad_W = [G_y; X]^T [H; G] + W c with
c_i = 2 lambda (sum_rows S^2)_i scaling each column of W.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TrainingError
from ._nn import sigmoid, xavier_uniform
from .base import Detector, as_matrix, check_training, check_width

Params = dict[str, np.ndarray]


def init_params(rng: np.random.Generator, d_in: int, d_hidden: int) -> Params:
    return {
        "W": np.ascontiguousarray(xavier_uniform(rng, d_hidden, d_in).T),
        "bh": np.zeros(d_hidden),
        "by": np.zeros(d_in),
    }


def encode(params: Params, X: np.ndarray) -> np.ndarray:
    return sigmoid(np.atleast_2d(X) @ params["W"] + params["bh"])


def reconstruct(params: Params, X: np.ndarray) -> np.ndarray:
    return sigmoid(encode(params, X) @ params["W"].T + params["by"])


def contractive_penalty(params: Params, X: np.ndarray) -> float:
    """Closed-form ||J_f(x)||_F^2 summed over the batch."""
    H = encode(params, X)
    S = H * (1.0 - H)
    r = (params["W"] ** 2).sum(axis=0)
    return float(((S**2) * r).sum())


def gradient_buffers(params: Params, n_rows: int) -> Params:
    """Arrays for `loss_and_grads` to fill over a batch of ``n_rows``: one
    per parameter, plus the epoch's working arrays under other keys."""
    d, hidden = params["W"].shape
    shapes = {
        "left": (2 * n_rows, d),  # [G_y; X]
        "right": (2 * n_rows, hidden),  # [H; G]
        "Y": (n_rows, d),
        **dict.fromkeys(("S", "S2", "P"), (n_rows, hidden)),
        "r": hidden,
        "c": hidden,
        "scratch": (d, hidden),
    }
    return {k: np.empty_like(v) for k, v in params.items()} | {
        k: np.empty(shape) for k, shape in shapes.items()
    }


def loss_and_grads(
    params: Params, X: np.ndarray, reg_weight: float, grads: Params | None = None
) -> tuple[float, Params]:
    """Loss and gradients over the batch ``X``.

    Every array of the epoch is written into ``grads`` (from
    `gradient_buffers`, fresh ones when None), so a loop that passes the
    same buffers allocates none of them per epoch.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    m = X.shape[0]
    if grads is None:
        grads = gradient_buffers(params, m)
    W, bh, by = params["W"], params["bh"], params["by"]
    left, right, Y, S, S2, P, r, c = (
        grads[k] for k in ("left", "right", "Y", "S", "S2", "P", "r", "c")
    )
    gv, H, G = left[:m], right[:m], right[m:]
    left[m:] = X
    sigmoid(np.add(np.matmul(X, W, out=H), bh, out=H), out=H)
    sigmoid(np.add(np.matmul(H, W.T, out=Y), by, out=Y), out=Y)
    np.multiply(H, np.subtract(1.0, H, out=S), out=S)
    np.multiply(S, S, out=S2)
    np.einsum("ij,ij->j", W, W, out=r)
    S2.sum(axis=0, out=c)  # the penalty's and the direct term's sum_rows S^2
    np.subtract(Y, X, out=gv)
    loss = float(np.vdot(gv, gv)) + reg_weight * float(c @ r)

    # G_y = 2 (Y - X) Y (1 - Y), in place of Y - X
    gv *= 2.0
    gv *= Y
    gv *= np.subtract(1.0, Y, out=Y)
    gv.sum(axis=0, out=grads["by"])
    # the penalty's path through h, 2 lambda S^2 (1 - 2h) r, joins G
    np.add(np.multiply(H, -2.0, out=P), 1.0, out=P)
    P *= S2
    P *= r
    P *= 2.0 * reg_weight
    np.multiply(np.matmul(gv, W, out=G), S, out=G)
    G += P
    G.sum(axis=0, out=grads["bh"])
    np.matmul(left.T, right, out=grads["W"])
    c *= 2.0 * reg_weight
    grads["W"] += np.multiply(W, c, out=grads["scratch"])
    return loss, grads


@dataclass(eq=False)
class ContractiveAutoencoder(Detector):
    fit_across_processes = True

    hidden_dim: int = 400
    reg_weight: float = 1.5
    learning_rate: float = 0.01
    epochs: int = 1000
    seed: int = 0
    params_: Params | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        check_width("hidden_dim", self.hidden_dim)
        check_training(self.learning_rate, self.epochs)
        if not self.reg_weight >= 0:
            raise ValueError(f"reg_weight must be non-negative, got {self.reg_weight}")

    @classmethod
    def fit_group(cls, detectors, templates):
        """Fit each subject in its own loop, one after another; one whose
        loss turns non-finite fails alone. To use more cores, the pipeline
        deals the subjects into strided shares, one process each
        (``fit_across_processes``)."""
        errors: list = [None] * len(detectors)
        for s, (detector, X) in enumerate(zip(detectors, map(as_matrix, templates))):
            params = init_params(np.random.default_rng(detector.seed), X.shape[1], detector.hidden_dim)
            grads = gradient_buffers(params, X.shape[0])
            for epoch in range(detector.epochs):
                loss, _ = loss_and_grads(params, X, detector.reg_weight, grads)
                if not np.isfinite(loss):
                    errors[s] = TrainingError(f"non-finite loss at epoch {epoch}")
                    break
                for name, p in params.items():
                    p -= np.multiply(grads[name], detector.learning_rate, out=grads[name])
            detector.params_ = params if errors[s] is None else None
        return errors

    def score_all(self, queries: np.ndarray) -> np.ndarray:
        if self.params_ is None:
            raise RuntimeError("fit before score")
        q = np.asarray(queries, dtype=np.float64)
        return -((q - reconstruct(self.params_, q)) ** 2).sum(axis=1)
