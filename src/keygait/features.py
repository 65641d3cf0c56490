"""Timing features and robust feature normalization.

An aligned sequence of n keystrokes yields 2n-1 features: n hold
durations followed by n-1 press-press latencies. Latencies may be
negative after alignment (transposed keys); durations may not.

Normalization maps each feature into [0, 1] against bounds fitted on a
subject's templates: mean plus/minus ``h_f`` standard deviations, with
values outside the bounds clamped. The bound width has a floor of 1 ms
so constant features map to 0.5 instead of dividing by zero. Each
feature type's mean and deviation are pooled over all positions of all
templates.

There is one path, on matrices: :func:`extract_features` turns the
press and release times of m aligned sequences of n keystrokes, given
as two (m, n) matrices (the pipeline gathers them through
``alignment.align_subject``'s index matrix), into one (m, n) duration
matrix and one (m, n-1) latency matrix, the only input
:func:`fit_feature_normalizer` takes, and :func:`normalize_features`
scales every row at once. One sequence is a one-row matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FeatureError


@dataclass(frozen=True)
class RawFeatureMatrix:
    """Unnormalized features of m aligned sequences of equal length n, one
    row per sequence: durations (m, n) and latencies (m, n-1)."""

    durations: np.ndarray
    latencies: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "durations", np.asarray(self.durations, dtype=float))
        object.__setattr__(self, "latencies", np.asarray(self.latencies, dtype=float))
        d_shape = self.durations.shape
        if len(d_shape) != 2 or self.latencies.shape != (d_shape[0], d_shape[1] - 1):
            raise ValueError(
                f"durations of shape {d_shape} require latencies of shape "
                f"(m, n-1), got {self.latencies.shape}"
            )

    def __len__(self) -> int:
        return self.durations.shape[0]

    def __getitem__(self, rows: slice) -> "RawFeatureMatrix":
        return RawFeatureMatrix(self.durations[rows], self.latencies[rows])


def extract_features(press: np.ndarray, release: np.ndarray) -> RawFeatureMatrix:
    """Durations and latencies of m aligned sequences of n keystrokes, one
    row each, from their press and release times as two (m, n) matrices,
    computed over all rows at once.

    Raises:
        FeatureError: the matrices are not 2-D and of one shape, they have
            no row, or their rows have fewer than 2 keystrokes.
    """
    press = np.asarray(press, dtype=float)
    release = np.asarray(release, dtype=float)
    if press.ndim != 2 or press.shape != release.shape:
        raise FeatureError(
            f"press and release times need one 2-D shape, got {press.shape} and {release.shape}"
        )
    m, n = press.shape
    if not m:
        raise FeatureError("no sequences to extract features from")
    if n < 2:
        raise FeatureError(f"need at least 2 keystrokes, got {n}")
    return RawFeatureMatrix(release - press, np.diff(press, axis=1))


@dataclass(frozen=True)
class FeatureNormalizer:
    """Fitted normalization bounds: per feature type, a mean and a standard
    deviation pooled over every position."""

    mu_d: float
    sigma_d: float
    mu_p: float
    sigma_p: float
    h_f: float


def fit_feature_normalizer(features: RawFeatureMatrix, *, h_f: float = 1.0) -> FeatureNormalizer:
    """Fit normalization statistics on a subject's template features.

    Durations and latencies are reduced separately (population standard
    deviation) over all positions of all templates.

    Raises:
        FeatureError: no templates, or h_f not positive and finite.
        ValueError: h_f so wide that a bound width ``2 * h_f * sigma``
            overflows to inf, or that the templates' distinct durations
            or latencies all normalize to one value.
    """
    if len(features) == 0:
        raise FeatureError("cannot fit a normalizer on zero template vectors")
    if not 0 < h_f < np.inf:
        raise FeatureError(f"h_f must be positive and finite, got {h_f}")
    d = features.durations
    p = features.latencies
    stats = (float(d.mean()), float(d.std()), float(p.mean()), float(p.std()))
    with np.errstate(over="ignore"):
        if np.isinf(max(stats[1], stats[3]) * h_f * 2.0):
            raise ValueError(f"h_f {h_f} is too wide: the bound width 2 * h_f * sigma overflows")
    for name, x, mu, sigma in (("durations", d, *stats[:2]), ("latencies", p, *stats[2:])):
        scaled = _scale(x, mu, sigma, h_f)
        if x.size and scaled.min() == scaled.max() and x.min() < x.max():
            raise ValueError(f"h_f {h_f} is too wide: it maps distinct template {name} to one value")
    return FeatureNormalizer(*stats, h_f)


def _scale(x: np.ndarray, mu: float, sigma: float, h_f: float) -> np.ndarray:
    # Half-width floored at 0.5 ms: a zero-variance feature maps to 0.5.
    half = max(sigma * h_f, 0.5)
    return np.clip((x - (mu - half)) / (2.0 * half), 0.0, 1.0)


def normalize_features(norm: FeatureNormalizer, raw: RawFeatureMatrix) -> np.ndarray:
    """Map every row into [0, 1]^(2n-1) using fitted bounds: an (m, 2n-1)
    matrix of durations then latencies."""
    d = _scale(raw.durations, norm.mu_d, norm.sigma_d, norm.h_f)
    p = _scale(raw.latencies, norm.mu_p, norm.sigma_p, norm.h_f)
    return np.concatenate([d, p], axis=1)
