"""Manhattan distance to the template mean."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import Detector, as_matrix


@dataclass(eq=False)
class ManhattanDetector(Detector):
    """Score is the negated L1 distance from the query to the mean
    template vector. With ``scaled=True`` each feature is divided by its
    mean absolute deviation over the templates first (off by default; on
    normalized features plain Manhattan already performs comparably).
    """

    scaled: bool = False
    mean_: np.ndarray | None = field(default=None, init=False, repr=False)
    scale_: np.ndarray | None = field(default=None, init=False, repr=False)

    @classmethod
    def fit_group(cls, detectors, templates):
        for detector, x in zip(detectors, map(as_matrix, templates)):
            detector.mean_ = x.mean(axis=0)
            if detector.scaled:
                mad = np.abs(x - detector.mean_).mean(axis=0)
                detector.scale_ = np.maximum(mad, 1e-6)
        return [None] * len(detectors)

    def score_all(self, queries: np.ndarray) -> np.ndarray:
        if self.mean_ is None:
            raise RuntimeError("fit before score")
        dev = np.abs(np.asarray(queries, dtype=np.float64) - self.mean_)
        if self.scaled:
            dev = dev / self.scale_
        return -dev.sum(axis=1)
