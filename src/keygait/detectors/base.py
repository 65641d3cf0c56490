"""Detector interface: fit on a subject's templates, score queries.

Higher scores mean more likely genuine. Every detector is deterministic
given its constructor arguments (including seed) and the fit data.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..errors import KeygaitError


class Detector(ABC):
    @abstractmethod
    def fit(self, templates: np.ndarray) -> "Detector":
        """Train on an (m, d) matrix of normalized template vectors."""

    @classmethod
    def fit_group(
        cls, detectors: Sequence["Detector"], templates: Sequence[np.ndarray]
    ) -> list[KeygaitError | None]:
        """Fit ``detectors[i]`` on ``templates[i]``, each exactly as its own
        ``fit`` would. The detectors differ only in seed, and the template
        matrices share their row count. Returns, per detector, the error
        that failed its fit, or None."""
        errors: list[KeygaitError | None] = []
        for detector, x in zip(detectors, templates):
            try:
                detector.fit(x)
            except KeygaitError as exc:
                errors.append(exc)
            else:
                errors.append(None)
        return errors

    @abstractmethod
    def score(self, query: np.ndarray) -> float:
        """Anomaly score of one (d,) query vector; higher = more genuine."""

    def score_all(self, queries: np.ndarray) -> np.ndarray:
        return np.array([self.score(q) for q in np.atleast_2d(queries)])


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
