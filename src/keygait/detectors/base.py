"""Detector interface: fit a group of subjects, score a query matrix.

Higher scores mean more likely genuine. Every detector is a dataclass
whose init fields are its settings, checked in ``__post_init__``; it is
deterministic given them (seed included) and the fit data.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import fields
from typing import ClassVar, Sequence

import numpy as np

from ..errors import KeygaitError


class Detector(ABC):
    # True where a fit costs more than a fork (_processes.across_processes).
    # On 2 CPUs, medians of 15: manhattan's stage 2 took 6.1 ms inline, 12.0 ms
    # split, for 300 subjects; the one-class SVM's 34 ms inline, 36 ms split,
    # for 10, and it gains only at sizes no workload runs (50: 269 vs 227 ms).
    fit_across_processes: ClassVar[bool] = False

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


# The widest layer a detector accepts, 25 times the contractive default.
# A width far beyond it asks numpy for arrays it cannot allocate, which
# would fail only after the dataset has been loaded and aligned.
MAX_WIDTH = 10_000


def check_width(name: str, width: int) -> None:
    """Refuse a layer width outside 1..MAX_WIDTH, naming the setting."""
    if width < 1:
        raise ValueError(f"{name} must be positive, got {width}")
    if width > MAX_WIDTH:
        raise ValueError(f"{name} must be at most {MAX_WIDTH}, got {width}")


def check_hidden_sizes(hidden_sizes: Sequence[int]) -> tuple[int, ...]:
    """Refuse no hidden layer or a layer width outside 1..MAX_WIDTH;
    return the widths as a tuple of ints."""
    if not hidden_sizes:
        raise ValueError("hidden_sizes needs at least one hidden layer")
    for k, width in enumerate(hidden_sizes):
        check_width(f"hidden_sizes[{k}]", width)
    return tuple(int(h) for h in hidden_sizes)


def check_training(learning_rate: float, epochs: int) -> None:
    """Refuse a negative epoch count or a learning rate that is not positive."""
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    if not learning_rate > 0:
        raise ValueError(f"learning_rate must be positive, got {learning_rate}")


def shared_settings(detectors: Sequence[Detector]) -> Detector:
    """The first of ``detectors``, whose settings (every init field but
    ``seed``) each detector of a group fit must share."""
    names = [f.name for f in fields(detectors[0]) if f.init and f.name != "seed"]
    if len({tuple(getattr(d, n) for n in names) for d in detectors}) != 1:
        raise ValueError(f"a group fit needs detectors that agree on {', '.join(names)}")
    return detectors[0]
