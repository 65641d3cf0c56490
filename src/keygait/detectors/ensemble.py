"""Mean-score ensemble over heterogeneous detectors."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import Detector


class MeanEnsemble(Detector):
    """Fits every member on the same templates and averages their raw
    scores. Averaging normalized per-subject score sets instead is a
    pipeline-level concern (see run_pipeline's ensemble_normalized)."""

    def __init__(self, members: Sequence[Detector]) -> None:
        if len(members) < 2:
            raise ValueError(f"an ensemble needs at least 2 members, got {len(members)}")
        self.members = list(members)

    def fit(self, templates: np.ndarray) -> "MeanEnsemble":
        for m in self.members:
            m.fit(templates)
        return self

    def score(self, query: np.ndarray) -> float:
        return float(np.mean([m.score(query) for m in self.members]))
