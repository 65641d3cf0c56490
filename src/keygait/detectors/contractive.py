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

Every array of an epoch is one of `gradient_buffers`, made once per
subject's fit; `_epoch` unpacks them and copies X into ``left`` once,
and ``fit_group`` enters ``np.errstate`` once, ignoring every
floating-point warning: a subject that diverges is reported by its
``TrainingError`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import TrainingError
from ._nn import logistic, sigmoid, xavier_uniform
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


def _epoch(params: Params, X: np.ndarray, reg_weight: float, grads: Params) -> Callable[[], float]:
    """The loss and gradients over the batch ``X`` as a function of no
    arguments: each call returns the loss from the current parameters and
    writes every array of the epoch into ``grads`` (from
    `gradient_buffers`), which are unpacked once, here, as is the copy of
    X into ``left``. The caller ignores overflow (see `logistic`)."""
    m = X.shape[0]
    W, bh, by = params["W"], params["bh"], params["by"]
    left, right, Y, S, S2, P, r, c, scratch = (
        grads[k] for k in ("left", "right", "Y", "S", "S2", "P", "r", "c", "scratch")
    )
    grad_W, grad_bh, grad_by = grads["W"], grads["bh"], grads["by"]
    gv, H, G = left[:m], right[:m], right[m:]
    left[m:] = X
    leftT, WT = left.T, W.T
    penalty = 2.0 * reg_weight

    def step() -> float:
        logistic(np.add(np.matmul(X, W, out=H), bh, out=H), out=H)
        logistic(np.add(np.matmul(H, WT, out=Y), by, out=Y), out=Y)
        np.multiply(H, np.subtract(1.0, H, out=S), out=S)
        np.multiply(S, S, out=S2)
        np.einsum("ij,ij->j", W, W, out=r)
        S2.sum(axis=0, out=c)  # the penalty's and the direct term's sum_rows S^2
        np.subtract(Y, X, out=gv)
        loss = float(np.vdot(gv, gv)) + reg_weight * float(c @ r)

        # G_y = 2 (Y - X) Y (1 - Y), in place of Y - X
        np.multiply(gv, 2.0, out=gv)
        np.multiply(gv, Y, out=gv)
        np.multiply(gv, np.subtract(1.0, Y, out=Y), out=gv)
        gv.sum(axis=0, out=grad_by)
        # the penalty's path through h, 2 lambda S^2 (1 - 2h) r, joins G
        np.add(np.multiply(H, -2.0, out=P), 1.0, out=P)
        np.multiply(P, S2, out=P)
        np.multiply(P, r, out=P)
        np.multiply(P, penalty, out=P)
        np.multiply(np.matmul(gv, W, out=G), S, out=G)
        np.add(G, P, out=G).sum(axis=0, out=grad_bh)
        np.matmul(leftT, right, out=grad_W)
        np.multiply(c, penalty, out=c)
        np.add(grad_W, np.multiply(W, c, out=scratch), out=grad_W)
        return loss

    return step


def loss_and_grads(
    params: Params, X: np.ndarray, reg_weight: float, grads: Params | None = None
) -> tuple[float, Params]:
    """Loss and gradients over the batch ``X``, written into ``grads``
    (from `gradient_buffers`, fresh ones when None): the first call of an
    `_epoch`, which a fit builds once and calls every epoch."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if grads is None:
        grads = gradient_buffers(params, X.shape[0])
    with np.errstate(over="ignore"):
        return _epoch(params, X, reg_weight, grads)(), grads


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
        with np.errstate(all="ignore"):
            for s, (detector, X) in enumerate(zip(detectors, map(as_matrix, templates))):
                params = init_params(np.random.default_rng(detector.seed), X.shape[1], detector.hidden_dim)
                grads = gradient_buffers(params, X.shape[0])
                step = _epoch(params, X, detector.reg_weight, grads)
                updates = [(p, grads[name]) for name, p in params.items()]
                for epoch in range(detector.epochs):
                    if not math.isfinite(step()):
                        errors[s] = TrainingError(f"non-finite loss at epoch {epoch}")
                        break
                    for p, g in updates:
                        p -= np.multiply(g, detector.learning_rate, out=g)
                detector.params_ = params if errors[s] is None else None
        return errors

    def score_all(self, queries: np.ndarray) -> np.ndarray:
        if self.params_ is None:
            raise RuntimeError("fit before score")
        q = np.asarray(queries, dtype=np.float64)
        return -((q - reconstruct(self.params_, q)) ** 2).sum(axis=1)
