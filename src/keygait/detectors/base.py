"""Detector interface: fit a group of subjects, score a query matrix.

Higher scores mean more likely genuine. Every detector is deterministic
given its constructor arguments (including seed) and the fit data.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..errors import KeygaitError


class Detector(ABC):
    @classmethod
    @abstractmethod
    def fit_group(
        cls, detectors: Sequence["Detector"], templates: Sequence[np.ndarray]
    ) -> list[KeygaitError | None]:
        """Fit ``detectors[i]`` on the (m, d) matrix of normalized template
        vectors ``templates[i]``, each exactly as if fitted alone.
        The detectors differ only in seed, and the template matrices share
        their row count. Returns, per detector, the error that failed its
        fit, or None; a failed detector is left unfitted."""

    def fit(self, templates: np.ndarray) -> "Detector":
        """Train on one (m, d) template matrix: a group of one."""
        error = self.fit_group([self], [templates])[0]
        if error is not None:
            raise error
        return self

    @abstractmethod
    def score_all(self, queries: np.ndarray) -> np.ndarray:
        """Anomaly scores of the rows of an (n, d) query matrix; higher =
        more genuine."""

    def score(self, query: np.ndarray) -> float:
        """Anomaly score of one (d,) query vector."""
        return float(self.score_all(np.asarray(query, dtype=np.float64).reshape(1, -1))[0])


def as_matrix(templates: np.ndarray) -> np.ndarray:
    x = np.asarray(templates, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"expected a non-empty (m, d) template matrix, got shape {x.shape}")
    return x


def shared_settings(detectors: Sequence[Detector], *names: str) -> tuple:
    """The values of ``names``, which every detector of a group fit must share."""
    values = {tuple(getattr(d, n) for n in names) for d in detectors}
    if len(values) != 1:
        raise ValueError(f"a group fit needs detectors that agree on {', '.join(names)}")
    return values.pop()
