"""Manhattan distance to the template mean."""

from __future__ import annotations

import numpy as np

from .base import Detector, as_matrix


class ManhattanDetector(Detector):
    """Score is the negated L1 distance from the query to the mean
    template vector. With ``scaled=True`` each feature is divided by its
    mean absolute deviation over the templates first (off by default; on
    normalized features plain Manhattan already performs comparably).
    """

    def __init__(self, scaled: bool = False) -> None:
        self.scaled = scaled
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, templates: np.ndarray) -> "ManhattanDetector":
        x = as_matrix(templates)
        self.mean_ = x.mean(axis=0)
        if self.scaled:
            mad = np.abs(x - self.mean_).mean(axis=0)
            self.scale_ = np.maximum(mad, 1e-6)
        return self

    def score_all(self, queries: np.ndarray) -> np.ndarray:
        if self.mean_ is None:
            raise RuntimeError("fit before score")
        dev = np.abs(np.asarray(queries, dtype=np.float64) - self.mean_)
        if self.scaled:
            dev = dev / self.scale_
        return -dev.sum(axis=1)
