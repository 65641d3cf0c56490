"""Timing features and robust feature normalization.

An aligned sequence of n keystrokes yields 2n-1 features: n hold
durations followed by n-1 press-press latencies. Latencies may be
negative after alignment (transposed keys); durations may not.

Normalization maps each feature into [0, 1] against bounds fitted on a
subject's templates: mean plus/minus ``h_f`` standard deviations, with
values outside the bounds clamped. The bound width has a floor of 1 ms
so constant features map to 0.5 instead of dividing by zero.

The arithmetic runs on matrices: :func:`extract_feature_matrix` turns m
equal-length aligned sequences into one (m, n) duration matrix and one
(m, n-1) latency matrix, and :func:`normalize_feature_matrix` scales every
row at once. The single-sequence :func:`extract_features` and
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

    @classmethod
    def stack(cls, vectors: Sequence[RawFeatureVector]) -> "RawFeatureMatrix":
        """Rows of equal-length vectors.

        Raises:
            FeatureError: the vectors disagree on length.
        """
        n = vectors[0].durations.shape[0]
        for v in vectors:
            if v.durations.shape[0] != n:
                raise FeatureError(
                    f"template vectors disagree on length: {v.durations.shape[0]} vs {n}"
                )
        return cls(
            np.stack([v.durations for v in vectors]),
            np.stack([v.latencies for v in vectors]),
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
    """Fitted normalization bounds.

    In pooled mode a single (mu, sigma) pair per feature type is used for
    every position; in per-position mode each feature index has its own
    statistics fitted across templates.
    """

    mu_d: float
    sigma_d: float
    mu_p: float
    sigma_p: float
    h_f: float
    per_position: bool = False
    pos_mu_d: np.ndarray | None = None
    pos_sigma_d: np.ndarray | None = None
    pos_mu_p: np.ndarray | None = None
    pos_sigma_p: np.ndarray | None = None


def fit_feature_normalizer(
    features: RawFeatureMatrix | Sequence[RawFeatureVector],
    *,
    h_f: float = 1.0,
    per_position: bool = False,
) -> FeatureNormalizer:
    """Fit normalization statistics on a subject's template features.

    Durations and latencies are pooled separately across all positions of
    all templates (population standard deviation). All vectors must have
    equal length, which alignment guarantees.

    Raises:
        FeatureError: no templates, mismatched lengths, or h_f not positive
            (NaN included).
    """
    if len(features) == 0:
        raise FeatureError("cannot fit a normalizer on zero template vectors")
    if not h_f > 0:
        raise FeatureError(f"h_f must be positive, got {h_f}")
    if not isinstance(features, RawFeatureMatrix):
        features = RawFeatureMatrix.stack(features)
    d = features.durations
    p = features.latencies
    return FeatureNormalizer(
        mu_d=float(d.mean()),
        sigma_d=float(d.std()),
        mu_p=float(p.mean()),
        sigma_p=float(p.std()),
        h_f=h_f,
        per_position=per_position,
        pos_mu_d=d.mean(axis=0) if per_position else None,
        pos_sigma_d=d.std(axis=0) if per_position else None,
        pos_mu_p=p.mean(axis=0) if per_position else None,
        pos_sigma_p=p.std(axis=0) if per_position else None,
    )


def _scale(x: np.ndarray, mu: np.ndarray | float, sigma: np.ndarray | float, h_f: float) -> np.ndarray:
    # Half-width floored at 0.5 ms: a zero-variance feature maps to 0.5.
    half = np.maximum(np.asarray(sigma, dtype=float) * h_f, 0.5)
    return np.clip((np.asarray(x, dtype=float) - (np.asarray(mu, dtype=float) - half)) / (2.0 * half), 0.0, 1.0)


def normalize_feature_matrix(norm: FeatureNormalizer, raw: RawFeatureMatrix) -> np.ndarray:
    """Map every row into [0, 1]^(2n-1) using fitted bounds: an (m, 2n-1)
    matrix of durations then latencies."""
    if norm.per_position:
        assert norm.pos_mu_d is not None and norm.pos_sigma_d is not None
        assert norm.pos_mu_p is not None and norm.pos_sigma_p is not None
        if raw.durations.shape[1] != norm.pos_mu_d.shape[0]:
            raise FeatureError(
                f"vector length {raw.durations.shape[1]} does not match "
                f"fitted length {norm.pos_mu_d.shape[0]}"
            )
        d = _scale(raw.durations, norm.pos_mu_d, norm.pos_sigma_d, norm.h_f)
        p = _scale(raw.latencies, norm.pos_mu_p, norm.pos_sigma_p, norm.h_f)
    else:
        d = _scale(raw.durations, norm.mu_d, norm.sigma_d, norm.h_f)
        p = _scale(raw.latencies, norm.mu_p, norm.sigma_p, norm.h_f)
    return np.concatenate([d, p], axis=1)


def normalize_features(norm: FeatureNormalizer, raw: RawFeatureVector) -> np.ndarray:
    """Map a raw vector into [0, 1]^(2n-1) using fitted bounds."""
    return normalize_feature_matrix(
        norm, RawFeatureMatrix(raw.durations[None], raw.latencies[None])
    )[0]
