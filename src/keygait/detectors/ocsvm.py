"""One-class SVM trained by solving the dual directly.

The dual is min 0.5 a'Ka subject to 0 <= a_i <= 1/(nu*n) and sum(a) = 1,
with an RBF kernel. A projected-gradient loop with a fixed 1/L step
(L = largest kernel eigenvalue) drives the projected-gradient residual
below tolerance; projection onto the capped simplex is exact. The offset
rho comes from an interior support vector, which scores 0 by definition.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError
from .base import Detector, as_matrix


def rbf_kernel(X: np.ndarray, Y: np.ndarray, gamma: float) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    sq = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-gamma * sq)


def project_capped_simplex(v: np.ndarray, cap: float) -> np.ndarray:
    """Euclidean projection of v onto {0 <= a <= cap, sum(a) = 1}.

    The projection is a_i = clip(v_i - tau, 0, cap), and s(tau) = sum(a)
    falls piecewise linearly in tau, bending where an entry leaves 0
    (tau = v_i) or reaches cap (tau = v_i - cap). Following Wang & Lu,
    "Projection onto the capped simplex" (arXiv:1503.01002), s is
    evaluated at every breakpoint from sorted prefix sums; the interval
    where s crosses 1 fixes the free set, on which tau is then solved
    exactly so the sum constraint holds to machine precision.
    """
    v = np.asarray(v, dtype=np.float64)
    n = v.size
    if n * cap < 1.0 - 1e-12:
        raise TrainingError(f"infeasible projection: n*cap = {n * cap} < 1")
    points = np.unique(np.concatenate([v - cap, v]))
    ascending = np.sort(v)
    prefix = np.concatenate([[0.0], np.cumsum(ascending)])
    zero = np.searchsorted(ascending, points, side="right")  # v_i <= tau
    free_end = np.searchsorted(ascending, points + cap, side="left")  # v_i < tau + cap
    s = cap * (n - free_end) + prefix[free_end] - prefix[zero] - points * (free_end - zero)
    reached = np.flatnonzero(s >= 1.0)
    if reached.size == 0:  # n * cap within rounding below 1: everything capped
        return np.full(n, cap)
    k = reached[-1]  # s(max v) = 0, so the crossing lies in [points[k], points[k + 1]]
    tau = 0.5 * (points[k] + points[k + 1])
    a = np.clip(v - tau, 0.0, cap)
    free = (a > 0.0) & (a < cap)
    n_free = int(free.sum())
    if n_free > 0:
        capped = float(cap * (a >= cap).sum())
        tau = (v[free].sum() - (1.0 - capped)) / n_free
        a = np.clip(v - tau, 0.0, cap)
    return a


class OneClassSvm(Detector):
    def __init__(
        self,
        nu: float = 0.5,
        gamma: float = 0.9,
        max_iter: int = 10000,
        tol: float = 1e-10,
    ) -> None:
        if not 0.0 < nu <= 1.0:
            raise ValueError(f"nu must be in (0, 1], got {nu}")
        if not gamma > 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {max_iter}")
        self.nu = nu
        self.gamma = gamma
        self.max_iter = max_iter
        self.tol = tol
        self.templates_: np.ndarray | None = None
        self.alpha_: np.ndarray | None = None
        self.rho_: float | None = None
        self.n_iter_: int = 0

    @classmethod
    def fit_group(cls, detectors, templates):
        for detector, X in zip(detectors, map(as_matrix, templates)):
            n = X.shape[0]
            cap = 1.0 / (detector.nu * n)
            K = rbf_kernel(X, X, detector.gamma)
            step = 1.0 / max(float(np.linalg.eigvalsh(K)[-1]), 1e-12)
            alpha = project_capped_simplex(np.full(n, 1.0 / n), cap)
            for it in range(detector.max_iter):
                grad = K @ alpha
                new = project_capped_simplex(alpha - step * grad, cap)
                residual = np.abs(alpha - project_capped_simplex(alpha - grad, cap)).max()
                alpha = new
                if residual < detector.tol:
                    break
            detector.n_iter_ = it + 1
            detector.templates_ = X
            detector.alpha_ = alpha
            detector.rho_ = cls._compute_rho(K, alpha, cap)
        return [None] * len(detectors)

    @staticmethod
    def _compute_rho(K: np.ndarray, alpha: np.ndarray, cap: float) -> float:
        g = K @ alpha  # g_i = sum_j alpha_j K(x_j, x_i)
        eps = 1e-9 * cap
        interior = (alpha > eps) & (alpha < cap - eps)
        if interior.any():
            return float(g[interior].mean())
        # Degenerate optimum with every alpha at a bound: take the midpoint
        # of the KKT interval, libsvm-style.
        bounds = []
        at_cap = alpha >= cap - eps
        at_zero = alpha <= eps
        if at_cap.any():
            bounds.append(float(g[at_cap].max()))
        if at_zero.any():
            bounds.append(float(g[at_zero].min()))
        return float(np.mean(bounds))

    def kkt_residual(self) -> float:
        """Projected-gradient residual of the fitted alpha (unit step)."""
        if self.alpha_ is None or self.templates_ is None:
            raise RuntimeError("fit before kkt_residual")
        n = self.alpha_.size
        cap = 1.0 / (self.nu * n)
        K = rbf_kernel(self.templates_, self.templates_, self.gamma)
        grad = K @ self.alpha_
        return float(
            np.abs(self.alpha_ - project_capped_simplex(self.alpha_ - grad, cap)).max()
        )

    def dual_objective(self) -> float:
        if self.alpha_ is None or self.templates_ is None:
            raise RuntimeError("fit before dual_objective")
        K = rbf_kernel(self.templates_, self.templates_, self.gamma)
        return float(0.5 * self.alpha_ @ K @ self.alpha_)

    def score_all(self, queries: np.ndarray) -> np.ndarray:
        if self.alpha_ is None or self.templates_ is None or self.rho_ is None:
            raise RuntimeError("fit before score")
        return self.alpha_ @ rbf_kernel(self.templates_, queries, self.gamma) - self.rho_
