"""Manhattan distance to the template mean."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import Detector, as_matrix


@dataclass(eq=False)
class ManhattanDetector(Detector):
    """Score is the negated L1 distance from the query to the mean template
    vector; no settings. Scaling each feature by its templates' mean absolute
    deviation raised the global EER in all 18 minmax/sd cells of the standard
    fixture, seeds 0-2 (0.052 to 0.152 for seed 0, align, sd), so it went."""

    mean_: np.ndarray | None = field(default=None, init=False, repr=False)

    @classmethod
    def fit_group(cls, detectors, templates):
        for detector, x in zip(detectors, map(as_matrix, templates)):
            detector.mean_ = x.mean(axis=0)
        return [None] * len(detectors)

    def score_all(self, queries: np.ndarray) -> np.ndarray:
        if self.mean_ is None:
            raise RuntimeError("fit before score")
        return -np.abs(np.asarray(queries, dtype=np.float64) - self.mean_).sum(axis=1)
