"""Per-subject score normalization.

Raw detector scores live on wildly different scales across subjects
(sequence length alone shifts them), so a single global threshold over
raw scores is meaningless. Normalization maps each subject's batch of
query scores into [0, 1]: either min/max, or mean plus/minus ``h_s``
standard deviations with clamping, which resists outliers. Both are
monotone within a subject, so per-subject error rates are untouched;
only the pooled global picture changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import groupby
from operator import add, attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import ScoreNormConfig
from .errors import ScoreNormError
from .events import Label

SENTINEL_SCORE = float("-inf")


@dataclass(frozen=True)
class ScoreRecord:
    """One scored query. ``flagged`` marks failure-to-capture: the sample
    could not be processed and carries the sentinel minimal score."""

    subject_id: str
    sample_id: str
    raw_score: float
    normalized_score: float | None = None
    label: Label | None = None
    flagged: bool = False

    @property
    def score(self) -> float:
        """Normalized when set, else raw: the score judged and written."""
        return self.raw_score if self.normalized_score is None else self.normalized_score


class ScoreSet:
    """All scored queries of a run, in (subject_id, sample_id) order, held
    as columns: ``subject_ids``, ``sample_ids`` and ``labels`` tuples, the
    ``float64`` arrays ``raw``, ``normalized`` (NaN where a record has
    none, so a NaN ``normalized_score`` is a ValueError) and ``score``
    (each record's ``score``) and the ``bool`` array ``flags``, all
    read-only. Iteration and :attr:`records` build :class:`ScoreRecord`
    values on demand."""

    def __new__(cls, records: Iterable[ScoreRecord] = ()) -> ScoreSet:
        rows = sorted(records, key=attrgetter("subject_id", "sample_id"))
        fields = ("subject_id", "sample_id", "raw_score", "normalized_score", "label", "flagged")
        ids, samples, raw, normalized, labels, flags = ([getattr(r, f) for r in rows] for f in fields)
        for subject_id, sample_id, n in zip(ids, samples, normalized):
            if n is not None and n != n:
                raise ValueError(f"normalized score of {subject_id}/{sample_id} is NaN")
        normalized = [math.nan if n is None else n for n in normalized]
        return cls._of(ids, samples, raw, normalized, labels, flags)

    @classmethod
    def _of(cls, subject_ids, sample_ids, raw, normalized, labels, flags) -> ScoreSet:
        """A score set on columns already in (subject_id, sample_id) order,
        unchecked. The columns are copied."""
        scores = object.__new__(cls)
        scores.subject_ids, scores.sample_ids = tuple(subject_ids), tuple(sample_ids)
        scores.raw, scores.normalized = np.array(raw, np.float64), np.array(normalized, np.float64)
        scores.labels, scores.flags = tuple(labels), np.array(flags, bool)
        scores.score = np.where(np.isnan(scores.normalized), scores.raw, scores.normalized)
        for column in (scores.raw, scores.normalized, scores.flags, scores.score):
            column.setflags(write=False)
        return scores

    def __len__(self) -> int:
        return len(self.subject_ids)

    def __iter__(self) -> Iterator[ScoreRecord]:
        return iter(self.records)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and (self.subject_ids, self.sample_ids, self.labels)
            == (other.subject_ids, other.sample_ids, other.labels)
            and np.array_equal(self.flags, other.flags)
            and np.array_equal(self.raw, other.raw)
            and np.array_equal(self.normalized, other.normalized, equal_nan=True)
        )

    @property
    def records(self) -> tuple[ScoreRecord, ...]:
        normalized = [None if n != n else n for n in self.normalized.tolist()]
        columns = (self.subject_ids, self.sample_ids, self.raw.tolist(), normalized, self.labels)
        return tuple(map(ScoreRecord, *columns, self.flags.tolist()))

    @cached_property
    def written(self) -> list[str]:
        """Each record's ``score`` at six decimals, as a score file holds it."""
        return [f"{v:.6f}" for v in self.score.tolist()]

    def subject_slices(self) -> Iterator[tuple[str, slice]]:
        """Each subject's id and its rows of the columns, in id order."""
        start = 0
        for subject_id, rows in groupby(self.subject_ids):
            stop = start + sum(1 for _ in rows)
            yield subject_id, slice(start, stop)
            start = stop

    @property
    def ftc_count(self) -> int:
        return int(self.flags.sum())


def normalize_minmax(scores: Sequence[float]) -> list[float]:
    """Map scores to [0, 1] by the observed min/max. A degenerate batch
    (all scores equal) maps to 0.5 everywhere."""
    if not scores:
        return []
    lo = min(scores)
    hi = max(scores)
    if lo == hi:
        return [0.5] * len(scores)
    return [(s - lo) / (hi - lo) for s in scores]


def mean_sd(values: Sequence[float]) -> tuple[float, float]:
    """Population mean and standard deviation of non-empty ``values``, each
    sum taken left to right. From Python 3.12 on, ``sum`` of floats is
    compensated, so it would move the last bits of these, and of what is
    computed from them, with the Python version."""
    mean = reduce(add, values, 0.0) / len(values)
    return mean, math.sqrt(reduce(add, [(x - mean) ** 2 for x in values], 0.0) / len(values))


def normalize_sd(scores: Sequence[float], h_s: float = 2.0) -> list[float]:
    """Map scores to [0, 1] against mean +/- h_s population standard
    deviations, clamping anything outside the bounds.

    Raises:
        ScoreNormError: fewer than 2 scores, or h_s not positive (NaN included).
        ValueError: h_s so wide that the bound width ``2 * h_s * sd``
            overflows to inf or maps distinct scores to one value, or so
            narrow that it underflows to 0.
    """
    if not h_s > 0:
        raise ScoreNormError(f"h_s must be positive, got {h_s}")
    if len(scores) < 2:
        raise ScoreNormError(
            f"sd normalization needs at least 2 scores, got {len(scores)}"
        )
    mean, sd = mean_sd(scores)
    if sd == 0.0:
        return [0.5] * len(scores)
    width = 2.0 * h_s * sd
    if width == math.inf:
        raise ValueError(f"h_s {h_s} is too wide: the bound width 2 * h_s * sd overflows")
    if width == 0.0:
        raise ValueError(f"h_s {h_s} is too narrow: the bound width 2 * h_s * sd underflows")
    lo = mean - h_s * sd
    normalized = [min(1.0, max(0.0, (s - lo) / width)) for s in scores]
    if min(normalized) == max(normalized) and min(scores) < max(scores):
        raise ValueError(f"h_s {h_s} is too wide: it maps distinct scores to one value")
    return normalized


def normalize_subject(
    subject_id: str,
    raw: Sequence[float],
    flagged: Sequence[bool],
    config: ScoreNormConfig,
) -> list[float]:
    """Normalized scores of one subject's raw scores.

    Flagged (failure-to-capture) scores are excluded from the statistics
    and pinned so they stay rejected at any operating point: to 0.0, or to
    ``SENTINEL_SCORE`` with method "none", which passes every other raw
    score through untouched.
    """
    if config.kind == "none":
        return [SENTINEL_SCORE if f else s for s, f in zip(raw, flagged)]
    live = [s for s, f in zip(raw, flagged) if not f]
    if not live:  # whole subject failed to capture; nothing to fit stats on
        return [0.0] * len(raw)
    try:
        if config.kind == "minmax":
            normalized = iter(normalize_minmax(live))
        else:
            normalized = iter(normalize_sd(live, h_s=config.h_s))
    except ScoreNormError as exc:
        raise ScoreNormError(f"subject {subject_id}: {exc}") from exc
    return [0.0 if f else next(normalized) for f in flagged]


def apply_normalization(scores: ScoreSet, config: ScoreNormConfig) -> ScoreSet:
    """Normalize each subject's scores independently (:func:`normalize_subject`)."""
    raw, flags = scores.raw.tolist(), scores.flags.tolist()
    normalized: list[float] = []
    for subject_id, rows in scores.subject_slices():
        normalized += normalize_subject(subject_id, raw[rows], flags[rows], config)
    return ScoreSet._of(scores.subject_ids, scores.sample_ids, raw, normalized, scores.labels, flags)
