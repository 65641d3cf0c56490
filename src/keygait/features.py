"""Timing features and robust feature normalization.

An aligned sequence of n keystrokes yields 2n-1 features: n hold
durations followed by n-1 press-press latencies. Latencies may be
negative after alignment (transposed keys); durations may not.

Normalization maps each feature into [0, 1] against bounds fitted on a
subject's templates: mean plus/minus ``h_f`` standard deviations, with
values outside the bounds clamped. The bound width has a floor of 1 ms
so constant features map to 0.5 instead of dividing by zero. Each
feature type's mean and deviation are floats pooled over all positions
or, per position, arrays with one entry per index; one broadcast serves
both.

The arithmetic runs on matrices: :func:`extract_feature_matrix` turns m
equal-length aligned sequences into one (m, n) duration matrix and one
(m, n-1) latency matrix, the only input :func:`fit_feature_normalizer`
takes, and :func:`normalize_feature_matrix` scales every row at once.
The single-sequence :func:`extract_features` and
:func:`normalize_features` are one-row calls into them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FeatureError
from .events import KeystrokeSequence


@dataclass(frozen=True)
class RawFeatureVector:
    """Unnormalized duration/latency features of one aligned sequence."""

    durations: np.ndarray
    latencies: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "durations", np.asarray(self.durations, dtype=float))
        object.__setattr__(self, "latencies", np.asarray(self.latencies, dtype=float))
        if self.latencies.shape[0] != self.durations.shape[0] - 1:
            raise ValueError(
                f"{self.durations.shape[0]} durations require "
                f"{self.durations.shape[0] - 1} latencies, got {self.latencies.shape[0]}"
            )

    @property
    def values(self) -> np.ndarray:
        """Durations then latencies, length 2n-1."""
        return np.concatenate([self.durations, self.latencies])

    def __len__(self) -> int:
        return self.durations.shape[0] * 2 - 1


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


def extract_feature_matrix(seqs: Sequence[KeystrokeSequence]) -> RawFeatureMatrix:
    """Durations and latencies of equal-length aligned sequences, one row
    each, computed over all rows at once.

    Raises:
        FeatureError: no sequences, a sequence is not aligned, the lengths
            differ, or they have fewer than 2 keystrokes.
    """
    if not seqs:
        raise FeatureError("no sequences to extract features from")
    n = len(seqs[0])
    for seq in seqs:
        if not seq.aligned:
            raise FeatureError("feature extraction requires an aligned sequence")
        if len(seq) != n:
            raise FeatureError(f"sequences disagree on length: {len(seq)} vs {n}")
    if n < 2:
        raise FeatureError(f"need at least 2 keystrokes, got {n}")
    press = np.array([[k.press_t for k in seq] for seq in seqs], dtype=float)
    release = np.array([[k.release_t for k in seq] for seq in seqs], dtype=float)
    return RawFeatureMatrix(release - press, np.diff(press, axis=1))


def extract_features(seq: KeystrokeSequence) -> RawFeatureVector:
    """Compute durations and latencies of one aligned sequence.

    Raises:
        FeatureError: sequence is not aligned or has fewer than 2 keystrokes.
    """
    raw = extract_feature_matrix([seq])
    return RawFeatureVector(raw.durations[0], raw.latencies[0])


@dataclass(frozen=True)
class FeatureNormalizer:
    """Fitted normalization bounds: per feature type, a mean and a standard
    deviation, either floats (pooled over every position) or arrays with
    one entry per duration or latency index (per position)."""

    mu_d: float | np.ndarray
    sigma_d: float | np.ndarray
    mu_p: float | np.ndarray
    sigma_p: float | np.ndarray
    h_f: float


def fit_feature_normalizer(
    features: RawFeatureMatrix, *, h_f: float = 1.0, per_position: bool = False
) -> FeatureNormalizer:
    """Fit normalization statistics on a subject's template features.

    Durations and latencies are reduced separately (population standard
    deviation): over all positions of all templates, or with
    ``per_position`` over the templates at each position.

    Raises:
        FeatureError: no templates, or h_f not positive (NaN included).
    """
    if len(features) == 0:
        raise FeatureError("cannot fit a normalizer on zero template vectors")
    if not h_f > 0:
        raise FeatureError(f"h_f must be positive, got {h_f}")
    axis = 0 if per_position else None
    d = features.durations
    p = features.latencies
    return FeatureNormalizer(
        d.mean(axis=axis), d.std(axis=axis), p.mean(axis=axis), p.std(axis=axis), h_f
    )


def _scale(x: np.ndarray, mu: np.ndarray | float, sigma: np.ndarray | float, h_f: float) -> np.ndarray:
    # Half-width floored at 0.5 ms: a zero-variance feature maps to 0.5.
    half = np.maximum(np.asarray(sigma, dtype=float) * h_f, 0.5)
    return np.clip((np.asarray(x, dtype=float) - (np.asarray(mu, dtype=float) - half)) / (2.0 * half), 0.0, 1.0)


def normalize_feature_matrix(norm: FeatureNormalizer, raw: RawFeatureMatrix) -> np.ndarray:
    """Map every row into [0, 1]^(2n-1) using fitted bounds: an (m, 2n-1)
    matrix of durations then latencies.

    Raises:
        FeatureError: per-position bounds fitted on another length.
    """
    n = raw.durations.shape[1]
    if np.ndim(norm.mu_d) and len(norm.mu_d) != n:
        raise FeatureError(f"vector length {n} does not match fitted length {len(norm.mu_d)}")
    d = _scale(raw.durations, norm.mu_d, norm.sigma_d, norm.h_f)
    p = _scale(raw.latencies, norm.mu_p, norm.sigma_p, norm.h_f)
    return np.concatenate([d, p], axis=1)


def normalize_features(norm: FeatureNormalizer, raw: RawFeatureVector) -> np.ndarray:
    """Map a raw vector into [0, 1]^(2n-1) using fitted bounds."""
    return normalize_feature_matrix(
        norm, RawFeatureMatrix(raw.durations[None], raw.latencies[None])
    )[0]
