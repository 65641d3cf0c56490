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

Each subject fits as a stack of one in `_nn.StackedParams`, the one
parameter store of the three networks: `_epoch` allocates its working
arrays and copies X into ``left`` once per fit, `StackedParams.descend`
takes each gradient step and `StackedParams.unstack` hands back
``params_``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import Callable

import numpy as np

from ._nn import StackedParams, logistic, sigmoid, train, xavier_uniform
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


def _epoch(
    params: Params, grads: Params, X: np.ndarray, reg_weight: float
) -> Callable[[], tuple[float]]:
    """The loss and gradients over the batch ``X`` as a function of no
    arguments, for the stacks of one ``params`` and ``grads`` of a
    `StackedParams`: each call returns the loss from the current
    parameters, as the 1-tuple of a group of one (see `_nn.train`), and
    writes the gradients into ``grads``. Every working array is allocated,
    and X copied into ``left``, once, here. The caller ignores overflow
    (see `logistic`)."""
    m = X.shape[0]
    W, bh, by = (params[k][0] for k in ("W", "bh", "by"))
    grad_W, grad_bh, grad_by = (grads[k][0] for k in ("W", "bh", "by"))
    d, hidden = W.shape
    left, right = np.empty((2 * m, d)), np.empty((2 * m, hidden))  # [G_y; X], [H; G]
    Y, scratch = np.empty((m, d)), np.empty((d, hidden))
    S, S2, P = (np.empty((m, hidden)) for _ in range(3))
    r, c = np.empty(hidden), np.empty(hidden)
    gv, H, G = left[:m], right[:m], right[m:]
    left[m:] = X
    leftT, WT = left.T, W.T
    penalty = 2.0 * reg_weight

    def step() -> tuple[float]:
        logistic(np.add(np.matmul(X, W, out=H), bh, out=H), out=H)
        logistic(np.add(np.matmul(H, WT, out=Y), by, out=Y), out=Y)
        np.multiply(H, np.subtract(1.0, H, out=S), out=S)
        np.multiply(S, S, out=S2)
        np.einsum("ij,ij->j", W, W, out=r)
        S2.sum(axis=0, out=c)  # the penalty's and the direct term's sum_rows S^2
        np.subtract(Y, X, out=gv)
        loss = (float(np.vdot(gv, gv)) + reg_weight * float(c @ r),)

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


def loss_and_grads(params: Params, X: np.ndarray, reg_weight: float) -> tuple[float, Params]:
    """Loss over the batch ``X`` and its gradients with respect to every
    parameter: the first call of an `_epoch`, which a fit builds once and
    calls every epoch."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    net = StackedParams([params])
    with np.errstate(over="ignore"):
        [loss] = _epoch(net.params, net.grads, X, reg_weight)()
    return loss, net.subject(0, net.grads)


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
        """Fit each subject through `_nn.train` as a stack of one, one after
        another; one whose loss turns non-finite fails alone. To use more
        cores, the pipeline spreads the subjects across processes
        (``fit_across_processes``)."""
        errors = []
        for detector, X in zip(detectors, map(as_matrix, templates)):
            net = StackedParams([
                init_params(np.random.default_rng(detector.seed), X.shape[1], detector.hidden_dim)
            ])
            step = _epoch(net.params, net.grads, X, detector.reg_weight)
            errors += train(
                zip(range(detector.epochs), repeat(step)), partial(net.descend, detector.learning_rate), 1
            )
            net.unstack([detector], errors[-1:])
        return errors

    def score_all(self, queries: np.ndarray) -> np.ndarray:
        if self.params_ is None:
            raise RuntimeError("fit before score")
        q = np.asarray(queries, dtype=np.float64)
        return -((q - reconstruct(self.params_, q)) ** 2).sum(axis=1)
